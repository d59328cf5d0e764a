//! Invocation strategies, including massive function spawning (§5.1).
//!
//! `Direct` reproduces the original PyWren behaviour: the client issues
//! every invocation itself from a small thread pool — each call paying the
//! client's (possibly WAN) network latency. `RemoteInvoker` is the paper's
//! *massive function spawning* mechanism: the client invokes a few remote
//! invoker functions, each of which fires a group of invocations from
//! inside the cloud, collapsing 38 s of WAN spawning into ~8 s.

use std::sync::Weak;

use bytes::Bytes;
use rustwren_faas::{ActionConfig, ActivationCtx, ActivationId};

use crate::cloud::{CloudInner, SimCloud};
use crate::config::SpawnStrategy;
use crate::error::{PywrenError, Result};
use crate::job::AgentPayload;
use crate::wire::Value;

/// Name of the remote invoker system action.
pub const INVOKER_ACTION: &str = "rustwren-invoker";

/// Name of the agent action for a given runtime image.
pub fn agent_action_name(runtime: &str) -> String {
    format!("rustwren-agent@{runtime}")
}

/// Deploys the agent action for `runtime` if not already present.
pub(crate) fn deploy_agent(cloud: &SimCloud, runtime: &str) -> Result<()> {
    let name = agent_action_name(runtime);
    if cloud.functions().has_action(&name) {
        return Ok(());
    }
    let weak = cloud.downgrade();
    cloud
        .functions()
        .register_action(
            &name,
            ActionConfig::with_runtime(runtime).memory_mb(512),
            move |ctx: &ActivationCtx, payload: Bytes| crate::job::run_agent(&weak, ctx, payload),
        )
        .map_err(|e| PywrenError::UnknownFunction(format!("agent runtime: {e}")))
}

/// Deploys the remote invoker system action (called at cloud build).
pub(crate) fn deploy_invoker(cloud: &SimCloud) {
    let weak: Weak<CloudInner> = cloud.downgrade();
    cloud
        .functions()
        .register_action(
            INVOKER_ACTION,
            ActionConfig::default(),
            move |ctx: &ActivationCtx, payload: Bytes| {
                let _inner = weak
                    .upgrade()
                    .ok_or_else(|| rustwren_faas::ActionError("cloud torn down".into()))?;
                run_invoker(ctx, payload)
            },
        )
        // lint: allow(L004) — runs once at cloud build, not in an
        // activation; `build()` has no error channel, and a platform too
        // small for its own system action must fail loudly at construction
        .expect("invoker deploys on a fresh platform");
}

/// Body of the remote invoker function: fire every invocation in its group
/// from inside the cloud, over `threads` concurrent streams.
fn run_invoker(
    ctx: &ActivationCtx,
    payload: Bytes,
) -> std::result::Result<Bytes, rustwren_faas::ActionError> {
    let v = Value::decode(&payload)
        .map_err(|e| rustwren_faas::ActionError(format!("bad invoker payload: {e}")))?;
    let action = v
        .req_str("action")
        .map_err(rustwren_faas::ActionError)?
        .to_owned();
    let threads = v
        .req_i64("threads")
        .map_err(rustwren_faas::ActionError)?
        .max(1) as usize;
    let tasks: Vec<Bytes> = v
        .req_list("tasks")
        .map_err(rustwren_faas::ActionError)?
        .iter()
        .map(|t| {
            t.as_bytes()
                .map(Bytes::copy_from_slice)
                .ok_or_else(|| rustwren_faas::ActionError("task payload must be bytes".into()))
        })
        .collect::<std::result::Result<_, _>>()?;

    // Chaos invoker-kill: die before spawning the group, so none of this
    // invoker's tasks ever receives an activation — exercising the
    // client-side recovery path for tasks with no id and no status.
    crate::job::chaos_crash_point(
        crate::job::PHASE_INVOKER,
        rustwren_sim::hash::hash2(ctx.activation_id().0, 0x1412),
    );

    let client = ctx.faas_client();
    let count = tasks.len();
    let handles: Vec<_> = chunk_round_robin(tasks, threads)
        .into_iter()
        .enumerate()
        .map(|(t, chunk)| {
            let client = client.clone();
            let action = action.clone();
            rustwren_sim::spawn(format!("invoker-{t}"), move || {
                for task in chunk {
                    client.invoke(&action, task).map_err(|e| e.to_string())?;
                }
                Ok::<(), String>(())
            })
        })
        .collect();
    for h in handles {
        h.join().map_err(rustwren_faas::ActionError)?;
    }
    Ok(Value::Int(count as i64).encode())
}

/// Issues one agent invocation per payload according to `strategy`, using
/// the executor's FaaS client. Returns once every invocation is accepted,
/// with one entry per payload: the agent's [`ActivationId`] where the client
/// issued the invocation itself (`Direct`), or `None` when a remote invoker
/// issued it (the ids stay inside the cloud).
pub(crate) fn spawn_tasks(
    faas: &rustwren_faas::FaasClient,
    strategy: &SpawnStrategy,
    agent_action: &str,
    payloads: Vec<AgentPayload>,
) -> Result<Vec<Option<ActivationId>>> {
    let count = payloads.len();
    let strategy = strategy.resolve_for(count);
    match &strategy {
        // lint: allow(L009) — resolve_for never returns Auto by contract
        SpawnStrategy::Auto { .. } => unreachable!("resolve_for returns a concrete strategy"),
        SpawnStrategy::Direct { client_threads } => {
            // Degenerate values are rejected at executor build time; a zero
            // reaching this point is a bug, not something to silently clamp.
            if *client_threads == 0 {
                return Err(PywrenError::Config(
                    "spawn strategy needs at least one client thread".into(),
                ));
            }
            let encoded: Vec<Bytes> = payloads.iter().map(AgentPayload::encode).collect();
            parallel_invoke(faas, agent_action, encoded, *client_threads)
        }
        SpawnStrategy::RemoteInvoker {
            group_size,
            invoker_threads,
        } => {
            if *group_size == 0 || *invoker_threads == 0 {
                return Err(PywrenError::Config(
                    "remote invoker needs a non-zero group size and thread count".into(),
                ));
            }
            let group_size = *group_size;
            let groups: Vec<Bytes> = payloads
                .chunks(group_size)
                .map(|group| {
                    Value::map()
                        .with("action", agent_action)
                        .with("threads", *invoker_threads as i64)
                        .with(
                            "tasks",
                            Value::List(
                                group
                                    .iter()
                                    .map(|p| Value::bytes(p.encode().to_vec()))
                                    .collect(),
                            ),
                        )
                        .encode()
                })
                .collect();
            // The handful of invoker calls still leave the client over its
            // own network, from a small pool. The agent activation ids are
            // issued inside the cloud and never reported back.
            parallel_invoke(faas, INVOKER_ACTION, groups, 5)?;
            Ok(vec![None; count])
        }
    }
}

/// Invokes `action` once per payload over `threads` simulated client
/// threads. Returns the activation ids in payload order.
fn parallel_invoke(
    faas: &rustwren_faas::FaasClient,
    action: &str,
    payloads: Vec<Bytes>,
    threads: usize,
) -> Result<Vec<Option<ActivationId>>> {
    let client = faas.clone();
    let action = action.to_owned();
    let ids = round_robin_pool("spawn", threads, payloads, move |p| {
        client.invoke(&action, p)
    })?;
    Ok(ids.into_iter().map(Some).collect())
}

/// Runs `op` on every item over up to `threads` simulated client threads
/// named `{name}-{t}`, dealing the items round-robin. Each thread stops at
/// its first failure. Once all have finished, returns the outputs in item
/// order, or the failure of the lowest-numbered failing thread.
pub(crate) fn round_robin_pool<T, R, E>(
    name: &str,
    threads: usize,
    items: Vec<T>,
    op: impl Fn(T) -> std::result::Result<R, E> + Clone + Send + 'static,
) -> std::result::Result<Vec<R>, E>
where
    T: Send + 'static,
    R: Send + 'static,
    E: Send + 'static,
{
    let n = items.len();
    let indexed: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    let handles: Vec<_> = chunk_round_robin(indexed, threads.clamp(1, n.max(1)))
        .into_iter()
        .enumerate()
        .map(|(t, chunk)| {
            let op = op.clone();
            rustwren_sim::spawn(format!("{name}-{t}"), move || {
                chunk
                    .into_iter()
                    .map(|(i, item)| op(item).map(|r| (i, r)))
                    .collect::<std::result::Result<Vec<_>, E>>()
            })
        })
        .collect();
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut first_err = None;
    for h in handles {
        match h.join() {
            Ok(pairs) => {
                for (i, r) in pairs {
                    if let Some(slot) = out.get_mut(i) {
                        *slot = Some(r);
                    }
                }
            }
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(out.into_iter().flatten().collect()),
    }
}

/// Distributes items into `n` chunks preserving overall order within each.
fn chunk_round_robin<T>(items: Vec<T>, n: usize) -> Vec<Vec<T>> {
    let mut chunks: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        // lint: allow(L009) — `% n` keeps the index in bounds
        chunks[i % n].push(item);
    }
    chunks.retain(|c| !c.is_empty());
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agent_names_are_per_runtime() {
        assert_eq!(
            agent_action_name("python-jessie:3"),
            "rustwren-agent@python-jessie:3"
        );
        assert_ne!(agent_action_name("a"), agent_action_name("b"));
    }

    #[test]
    fn chunking_covers_all_items() {
        let chunks = chunk_round_robin((0..10).collect::<Vec<_>>(), 3);
        let mut all: Vec<_> = chunks.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn chunking_with_more_threads_than_items() {
        let chunks = chunk_round_robin(vec![1, 2], 8);
        assert_eq!(chunks.len(), 2);
    }
}
