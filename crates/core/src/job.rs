//! Job staging and the in-cloud function agent.
//!
//! A *job* is one `call_async`/`map`/`map_reduce` submission. The client
//! stages into COS, per job: one **function blob** (the modeled serialized
//! user code) and one **input object** per task; it then invokes the agent
//! action once per task with a small descriptor payload. The agent — the
//! code that runs inside every IBM-PyWren container — downloads the blob
//! and input, executes the user function from the registry, and writes a
//! **result** and a **status** object back to COS, which the client polls.
//!
//! COS layout (per executor `e`, job `j`, task `n`):
//!
//! ```text
//! jobs/e/j/func            the function blob
//! jobs/e/j/t00000/input    task input descriptor
//! jobs/e/j/t00000/result   encoded result value (on success)
//! jobs/e/j/t00000/status   {"state": "done"|"error", timings…}
//! ```

use std::panic::{self, AssertUnwindSafe};
use std::sync::Weak;
use std::time::Duration;

use bytes::Bytes;
use rustwren_faas::{ActionError, ActivationCtx};
use rustwren_sim::hash::hash2;
use rustwren_store::{CosClient, GetReq, StoreError, SDK_LANES};

use crate::cloud::{CloudInner, SimCloud};
use crate::error::PywrenError;
use crate::future::ResponseFuture;
use crate::partition::{read_aligned, Partition};
use crate::shuffle::{
    bitmap_get, bitmap_set, merge_runs, segment_key, shuffle_key, sort_run, ExchangeMode,
    KeyedPair, Partitioner, ShufflePlane,
};
use crate::task::TaskCtx;
use crate::wire::{self, Value};

/// Chaos crash phase: the agent has decoded its payload but not yet run the
/// user function (models a container dying mid-download).
pub const PHASE_BEFORE_RUN: &str = "agent:before-run";
/// Chaos crash phase: the user function finished but the result was not yet
/// written to COS.
pub const PHASE_AFTER_COMPUTE: &str = "agent:after-compute";
/// Chaos crash phase: the result object was written but the `done` status
/// was not — the client sees a task with a result and no status.
pub const PHASE_AFTER_PUT: &str = "agent:after-put";
/// Chaos crash phase: a remote invoker activation dies before spawning its
/// task group (models an invoker kill — its tasks never get activations).
pub const PHASE_INVOKER: &str = "invoker";

/// Panics if the installed chaos engine schedules a crash for `phase` now.
/// `token` individualizes the draw (the activation id, typically).
pub(crate) fn chaos_crash_point(phase: &str, token: u64) {
    if let Some(chaos) = rustwren_sim::chaos::current() {
        if chaos.should_crash(phase, token) {
            // lint: allow(L009) — killing the activation is the point of an
            // injected chaos crash; recovery paths are what the test exercises
            panic!("chaos: injected crash at {phase}");
        }
    }
}

/// Writes a staged object with the end-to-end checksum stamp. Every staged
/// write in the system (func, input, status, result, shuffle) goes through
/// here, so readers can always demand a valid stamp.
pub(crate) fn put_stamped(
    cos: &CosClient,
    bucket: &str,
    key: &str,
    payload: &[u8],
) -> Result<(), rustwren_store::StoreError> {
    cos.put(bucket, key, wire::stamp(payload)).map(|_| ())
}

/// Reads a staged object and verifies its checksum stamp, returning the
/// *whole stamped representation* (magic + checksum + payload) — the form
/// the container-local blob cache stores, so cache hits can be re-validated
/// against the same stamp. Surfaces failure as [`PywrenError::Integrity`].
pub(crate) fn get_stamped_raw(
    cos: &CosClient,
    bucket: &str,
    key: &str,
) -> crate::error::Result<Bytes> {
    get_many_stamped(cos, &[GetReq::whole(bucket, key)], SDK_LANES)
        .pop()
        .unwrap_or_else(|| Err(unread(bucket, key)))
}

/// Reads a batch of stamped objects (or stamped slices of objects) over
/// `lanes` concurrent connections and verifies each checksum, returning
/// the whole stamped representation per request. A stamp failure means
/// the *read* was corrupted — the stored object is intact — so the
/// failed entries are re-fetched together, up to three reads each, before
/// surfacing [`PywrenError::Integrity`]. A batch of one is exactly a
/// serial GET-and-verify loop.
fn get_many_stamped(
    cos: &CosClient,
    reqs: &[GetReq<'_>],
    lanes: usize,
) -> Vec<crate::error::Result<Bytes>> {
    let mut out: Vec<Option<crate::error::Result<Bytes>>> = reqs.iter().map(|_| None).collect();
    let mut pending: Vec<usize> = (0..reqs.len()).collect();
    for _ in 0..3 {
        if pending.is_empty() {
            break;
        }
        let batch: Vec<GetReq<'_>> = pending
            .iter()
            .filter_map(|&i| reqs.get(i).copied())
            .collect();
        let mut corrupted = Vec::new();
        for ((&i, req), read) in pending.iter().zip(&batch).zip(cos.get_many(&batch, lanes)) {
            let result = read.map_err(PywrenError::Storage).and_then(|raw| {
                match wire::verify_stamped(&raw) {
                    Ok(_) => Ok(raw),
                    Err(e) => {
                        corrupted.push(i);
                        Err(PywrenError::Integrity {
                            key: format!("{}/{}", req.bucket, req.key),
                            detail: e.to_string(),
                        })
                    }
                }
            });
            if let Some(slot) = out.get_mut(i) {
                *slot = Some(result);
            }
        }
        pending = corrupted;
    }
    out.into_iter()
        .zip(reqs)
        .map(|(r, req)| r.unwrap_or_else(|| Err(unread(req.bucket, req.key))))
        .collect()
}

/// The error of a read that was never attempted (unreachable by
/// construction, but typed rather than a panic on the agent hot path).
pub(crate) fn unread(bucket: &str, key: &str) -> PywrenError {
    PywrenError::Integrity {
        key: format!("{bucket}/{key}"),
        detail: "no read attempts were made".to_owned(),
    }
}

/// Reads a staged object and verifies its checksum stamp, surfacing a
/// failure as the typed [`PywrenError::Integrity`].
pub(crate) fn get_verified(
    cos: &CosClient,
    bucket: &str,
    key: &str,
) -> crate::error::Result<Bytes> {
    get_stamped_raw(cos, bucket, key).map(|raw| raw.slice(wire::STAMP_LEN..))
}

/// [`get_verified`] for a batch read over `lanes` concurrent connections:
/// each request's payload, or its typed failure, in request order.
pub(crate) fn get_many_verified(
    cos: &CosClient,
    reqs: &[GetReq<'_>],
    lanes: usize,
) -> Vec<crate::error::Result<Bytes>> {
    get_many_stamped(cos, reqs, lanes)
        .into_iter()
        .map(|read| read.map(|raw| raw.slice(wire::STAMP_LEN..)))
        .collect()
}

/// Key of a job's function blob.
pub(crate) fn func_key(exec_id: &str, job_id: u64) -> String {
    format!("jobs/{exec_id}/{job_id}/func")
}

/// The small payload carried by each agent invocation. With the inline
/// data path, the task descriptor itself may ride along (`inline`),
/// eliminating the staged input object and its PUT/GET round trip.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AgentPayload {
    pub bucket: String,
    pub exec_id: String,
    pub job_id: u64,
    pub task: u32,
    pub func_name: String,
    /// Inlined task descriptor: when set, the agent uses this instead of
    /// fetching `…/input` from COS (which is never staged for such tasks).
    pub inline: Option<Value>,
    /// Whether the agent may serve the function blob from the
    /// container-local cache instead of re-fetching it from COS.
    pub cache: bool,
    /// Whether reducers watch dependencies with one batched LIST per poll
    /// tick (instead of the legacy O(deps) per-key probes).
    pub batch: bool,
    /// Inline-result threshold: results whose encoding is at most this many
    /// bytes ride inside the status object (one PUT completes the task and
    /// delivers the result). `0` always stages the result separately.
    pub inline_max: usize,
}

impl AgentPayload {
    pub(crate) fn encode(&self) -> Bytes {
        let mut v = Value::map()
            .with("bucket", self.bucket.as_str())
            .with("exec", self.exec_id.as_str())
            .with("job", self.job_id as i64)
            .with("task", i64::from(self.task))
            .with("func", self.func_name.as_str())
            .with("cache", self.cache)
            .with("batch", self.batch)
            .with("ilmax", self.inline_max as i64);
        if let Some(inline) = &self.inline {
            v = v.with("inline", inline.clone());
        }
        v.encode()
    }

    pub(crate) fn decode(raw: &[u8]) -> Result<AgentPayload, String> {
        let v = Value::decode(raw).map_err(|e| e.to_string())?;
        Ok(AgentPayload {
            bucket: v.req_str("bucket")?.to_owned(),
            exec_id: v.req_str("exec")?.to_owned(),
            job_id: v.req_i64("job")? as u64,
            task: v.req_i64("task")? as u32,
            func_name: v.req_str("func")?.to_owned(),
            inline: v.get("inline").cloned(),
            // Absent on payloads from older clients: staged semantics.
            cache: v.get("cache").and_then(Value::as_bool).unwrap_or(false),
            batch: v.get("batch").and_then(Value::as_bool).unwrap_or(false),
            inline_max: v.get("ilmax").and_then(Value::as_i64).unwrap_or(0).max(0) as usize,
        })
    }

    pub(crate) fn future(&self) -> ResponseFuture {
        ResponseFuture::new(&self.bucket, &self.exec_id, self.job_id, self.task)
    }
}

/// Task input descriptors, stored as the task's `input` object.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TaskSpec {
    /// A plain value (the `map()` path).
    Value(Value),
    /// A storage partition the agent must fetch and align (`map_reduce`).
    Partition(Partition),
    /// A reduce task: wait for `deps`, gather their results.
    Reduce {
        deps: Vec<ResponseFuture>,
        group: Option<String>,
        poll: Duration,
    },
    /// A shuffling map task: run the inner spec's function, then partition
    /// its `(key, value)` output pairs across `reducers` partitions on the
    /// chosen [`ShufflePlane`] and [`ExchangeMode`].
    ShuffleMap {
        inner: Box<TaskSpec>,
        reducers: usize,
        plane: ShufflePlane,
        exchange: ExchangeMode,
        partitioner: Partitioner,
        /// Optional registered combiner function applied map-side to each
        /// sorted key group before the partition is spilled.
        combiner: Option<String>,
    },
    /// A shuffle-reduce task: wait for the map `deps`, fetch this reducer's
    /// partition from every map (via each map's status manifest), merge the
    /// sorted runs under the `fanin` budget, group pairs by key, and hand
    /// the groups to the reduce function.
    ShuffleReduce {
        deps: Vec<ResponseFuture>,
        index: usize,
        poll: Duration,
        reducers: usize,
        plane: ShufflePlane,
        exchange: ExchangeMode,
        fanin: usize,
    },
}

impl TaskSpec {
    pub(crate) fn to_value(&self) -> Value {
        match self {
            TaskSpec::Value(v) => Value::map().with("kind", "value").with("value", v.clone()),
            TaskSpec::Partition(p) => Value::map()
                .with("kind", "partition")
                .with("part", p.to_value()),
            TaskSpec::Reduce { deps, group, poll } => {
                let group_v = group
                    .as_deref()
                    .map_or(Value::Null, |g| Value::Str(g.to_owned()));
                Value::map()
                    .with("kind", "reduce")
                    .with(
                        "deps",
                        Value::List(deps.iter().map(ResponseFuture::to_value).collect()),
                    )
                    .with("group", group_v)
                    .with("poll_ms", poll.as_millis() as i64)
            }
            TaskSpec::ShuffleMap {
                inner,
                reducers,
                plane,
                exchange,
                partitioner,
                combiner,
            } => {
                let mut v = Value::map()
                    .with("kind", "shuffle-map")
                    .with("inner", inner.to_value())
                    .with("reducers", *reducers as i64)
                    .with("plane", plane.as_str())
                    .with("exch", exchange.as_str())
                    .with("part", partitioner.to_value());
                if let Some(c) = combiner {
                    v = v.with("comb", c.as_str());
                }
                v
            }
            TaskSpec::ShuffleReduce {
                deps,
                index,
                poll,
                reducers,
                plane,
                exchange,
                fanin,
            } => {
                let v = Value::map()
                    .with("kind", "shuffle-reduce")
                    .with("index", *index as i64)
                    .with("poll_ms", poll.as_millis() as i64)
                    .with("reducers", *reducers as i64)
                    .with("plane", plane.as_str())
                    .with("exch", exchange.as_str())
                    .with("fanin", *fanin as i64);
                // Shuffle deps are one whole map job: ship them as a compact
                // (bucket, exec, job, count) reference instead of M full
                // futures, so the descriptor stays O(1) in the map fan-out
                // (an M-future list once made big reduce descriptors invisible
                // to W003's payload sizing).
                match compact_shuffle_deps(deps) {
                    Some(depr) => v.with("depr", depr),
                    None => v.with(
                        "deps",
                        Value::List(deps.iter().map(ResponseFuture::to_value).collect()),
                    ),
                }
            }
        }
    }
}

/// Encodes shuffle-reduce deps as a compact whole-job reference when they
/// are exactly tasks `0..n` of a single job (what `map_shuffle_reduce`
/// always produces).
fn compact_shuffle_deps(deps: &[ResponseFuture]) -> Option<Value> {
    let first = deps.first()?;
    deps.iter()
        .enumerate()
        .all(|(i, d)| {
            d.bucket() == first.bucket()
                && d.exec_id() == first.exec_id()
                && d.job_id() == first.job_id()
                && d.task() as usize == i
        })
        .then(|| {
            Value::map()
                .with("bucket", first.bucket())
                .with("exec", first.exec_id())
                .with("job", first.job_id() as i64)
                .with("n", deps.len() as i64)
        })
}

/// Decodes shuffle-reduce deps from either the compact whole-job reference
/// (`depr`) or the legacy full futures list (`deps`).
fn decode_shuffle_deps(desc: &Value) -> Result<Vec<ResponseFuture>, String> {
    if let Some(d) = desc.get("depr") {
        let bucket = d.req_str("bucket")?;
        let exec = d.req_str("exec")?;
        let job = d.req_i64("job")? as u64;
        let n = d.req_i64("n")?.max(0) as u32;
        return Ok((0..n)
            .map(|t| ResponseFuture::new(bucket, exec, job, t))
            .collect());
    }
    desc.req_list("deps")?
        .iter()
        .map(ResponseFuture::from_value)
        .collect()
}

/// Builds a status object body.
pub(crate) fn status_value(state: &str, error: Option<&str>, start: f64, end: f64) -> Value {
    let mut v = Value::map()
        .with("state", state)
        .with("start", start)
        .with("end", end);
    if let Some(e) = error {
        v = v.with("error", e);
    }
    v
}

/// The agent body: runs inside every IBM-PyWren function container.
// lint: entry(hot_path)
// lint: entry(sim_path)
pub(crate) fn run_agent(
    cloud: &Weak<CloudInner>,
    ctx: &ActivationCtx,
    raw_payload: Bytes,
) -> Result<Bytes, ActionError> {
    let inner = cloud
        .upgrade()
        .ok_or_else(|| ActionError("cloud was torn down".into()))?;
    let cloud = SimCloud::from_inner(inner);
    let payload =
        AgentPayload::decode(&raw_payload).map_err(|e| ActionError(format!("bad payload: {e}")))?;
    let cos = ctx.cos_client();
    let fut = payload.future();
    let started = ctx.now().as_secs_f64();
    let crash_token = hash2(ctx.activation_id().0, 0xA6E7);

    chaos_crash_point(PHASE_BEFORE_RUN, crash_token);
    let outcome = execute_task(&cloud, ctx, &cos, &payload);

    let ended = ctx.now().as_secs_f64();
    // Best-effort status/result write: the client's wait() relies on it.
    match &outcome {
        Ok((result, shuf)) => {
            chaos_crash_point(PHASE_AFTER_COMPUTE, crash_token);
            let encoded = result.encode();
            let mut status = status_value("done", None, started, ended);
            if let Some(manifest) = shuf {
                // A shuffle map's partition manifest always rides in the
                // status object: reducers need it to locate (or rule out)
                // their partition without probing COS.
                status = status.with("shuf", manifest.clone());
            }
            if payload.inline_max > 0 && encoded.len() <= payload.inline_max {
                // Small results ride inside the status object: a single PUT
                // both marks the task done and delivers the result, so no
                // `…/result` object (and no gather GET for it) ever exists.
                status = status.with("result", result.clone());
            } else {
                put_stamped(&cos, &payload.bucket, &fut.result_key(), &encoded)
                    .map_err(|e| ActionError(format!("writing result: {e}")))?;
            }
            chaos_crash_point(PHASE_AFTER_PUT, crash_token);
            put_stamped(&cos, &payload.bucket, &fut.status_key(), &status.encode())
                .map_err(|e| ActionError(format!("writing status: {e}")))?;
            Ok(Bytes::from_static(b"ok"))
        }
        Err(msg) => {
            // Under speculative execution two copies of the task race; a
            // completed `done` status must never be clobbered by a slower
            // copy's error (first successful completion wins). A status
            // that fails its stamp check is treated as not-done: wrongly
            // overwriting a corrupted-on-read `done` status is safe (the
            // stored object wins at most once), silently keeping a bad one
            // is not.
            let done_already = get_verified(&cos, &payload.bucket, &fut.status_key())
                .ok()
                .and_then(|raw| Value::decode(&raw).ok())
                .is_some_and(|s| s.get("state").and_then(Value::as_str) == Some("done"));
            if !done_already {
                put_stamped(
                    &cos,
                    &payload.bucket,
                    &fut.status_key(),
                    &status_value("error", Some(msg), started, ended).encode(),
                )
                .map_err(|e| ActionError(format!("writing status: {e}")))?;
            }
            Err(ActionError(msg.clone()))
        }
    }
}

/// Runs the task described by `payload`, returning its result value plus —
/// for shuffle maps — the partition manifest to embed in the status object.
fn execute_task(
    cloud: &SimCloud,
    ctx: &ActivationCtx,
    cos: &CosClient,
    payload: &AgentPayload,
) -> Result<(Value, Option<Value>), String> {
    let fut = payload.future();
    // Download the "pickled" function, as the real agent does — via the
    // warm-container blob cache when the client allows it.
    let _code = fetch_func_blob(ctx, cos, payload)?;
    let desc = match &payload.inline {
        // The descriptor rode inside the activation payload: no staged
        // input object exists for this task.
        Some(desc) => desc.clone(),
        None => {
            let input_raw = get_verified(
                cos,
                &payload.bucket,
                &format!("{}/input", fut.task_prefix()),
            )
            .map_err(|e| format!("fetching input: {e}"))?;
            Value::decode(&input_raw).map_err(|e| format!("decoding input: {e}"))?
        }
    };

    let func = cloud
        .registry()
        .get(&payload.func_name)
        .ok_or_else(|| format!("function `{}` not registered", payload.func_name))?;
    let task_ctx = TaskCtx::new(ctx.clone(), cloud.clone());
    let call = |input: Value| -> Result<Value, String> {
        match panic::catch_unwind(AssertUnwindSafe(|| func.call(&task_ctx, input))) {
            Ok(result) => result,
            Err(p) => Err(format!("function panicked: {}", panic_text(&p))),
        }
    };

    match desc.req_str("kind")? {
        "shuffle-map" => {
            let params = ShuffleMapParams::from_desc(&desc)?;
            let inner = desc.get("inner").ok_or("missing field `inner`")?;
            let input = build_input(ctx, cos, inner, payload.batch)?;
            let output = call(input)?;
            write_shuffle_output(cloud, cos, payload, &fut, &task_ctx, output, &params)
                .map(|(result, manifest)| (result, Some(manifest)))
        }
        "shuffle-reduce" => {
            let input = build_shuffle_reduce_input(cloud, ctx, cos, &desc, payload.batch)?;
            call(input).map(|r| (r, None))
        }
        _ => {
            let input = build_input(ctx, cos, &desc, payload.batch)?;
            call(input).map(|r| (r, None))
        }
    }
}

/// Decoded shuffle-map descriptor fields (partitioning policy).
struct ShuffleMapParams {
    reducers: usize,
    plane: ShufflePlane,
    exchange: ExchangeMode,
    partitioner: Partitioner,
    combiner: Option<String>,
}

impl ShuffleMapParams {
    fn from_desc(desc: &Value) -> Result<ShuffleMapParams, String> {
        Ok(ShuffleMapParams {
            reducers: desc.req_i64("reducers")?.max(1) as usize,
            plane: ShufflePlane::from_wire(desc.get("plane").and_then(Value::as_str))?,
            exchange: ExchangeMode::from_wire(desc.get("exch").and_then(Value::as_str))?,
            partitioner: Partitioner::from_value(desc.get("part"))?,
            combiner: desc.get("comb").and_then(Value::as_str).map(str::to_owned),
        })
    }
}

/// Fetches the job's function blob, serving warm-container repeats from the
/// [`rustwren_faas::BlobCache`] when the payload allows it. The cache holds
/// the *stamped* bytes, so every hit is re-validated against the end-to-end
/// checksum: an entry poisoned in container memory (the chaos engine's
/// `PoisonCache` fault) fails validation, is dropped, and heals via a fresh
/// COS fetch — corruption never silently reaches the user function.
fn fetch_func_blob(
    ctx: &ActivationCtx,
    cos: &CosClient,
    payload: &AgentPayload,
) -> Result<Bytes, String> {
    let key = func_key(&payload.exec_id, payload.job_id);
    if !payload.cache {
        return get_verified(cos, &payload.bucket, &key)
            .map_err(|e| format!("fetching function: {e}"));
    }
    let cache = ctx.blob_cache();
    if let Some(mut stamped) = cache.get(&key) {
        if let Some(chaos) = rustwren_sim::chaos::current() {
            let token = hash2(ctx.activation_id().0, 0xCACE);
            if let Some(poisoned) = chaos.poison_cached_blob(&payload.bucket, &key, token, &stamped)
            {
                // The fault corrupts the cached copy itself, not just this
                // read — keep the damage in the cache so the heal is real.
                stamped = Bytes::from(poisoned);
                cache.insert(&key, stamped.clone());
            }
        }
        if wire::verify_stamped(&stamped).is_ok() {
            ctx.note_blob_cache(true);
            return Ok(stamped.slice(wire::STAMP_LEN..));
        }
        cache.remove(&key);
        let fresh = get_stamped_raw(cos, &payload.bucket, &key)
            .map_err(|e| format!("refetching poisoned cached function: {e}"))?;
        cache.insert(&key, fresh.clone());
        ctx.note_blob_cache_heal();
        return Ok(fresh.slice(wire::STAMP_LEN..));
    }
    let stamped = get_stamped_raw(cos, &payload.bucket, &key)
        .map_err(|e| format!("fetching function: {e}"))?;
    cache.insert(&key, stamped.clone());
    ctx.note_blob_cache(false);
    Ok(stamped.slice(wire::STAMP_LEN..))
}

/// Partitions a shuffling map task's `(key, value)` pairs across the
/// reducers on the configured plane and exchange; returns the summary
/// stored as the task result plus the partition manifest embedded in the
/// task's status object (`"shuf"`).
///
/// Empty partitions are never written — the manifest records them as
/// absent, so a reducer can distinguish "this map produced nothing for me"
/// (run on) from "this map's data went missing" (typed loss error) under
/// chaos. On the whole-object plane the record is a presence bitmap; on the
/// partitioned plane the per-reducer entry is `Null`. The relay exchange
/// always publishes every channel (publishes are datacenter-cheap and a
/// present-but-empty channel needs no COS diagnosis round trip).
fn write_shuffle_output(
    cloud: &SimCloud,
    cos: &CosClient,
    payload: &AgentPayload,
    fut: &ResponseFuture,
    task_ctx: &TaskCtx,
    output: Value,
    params: &ShuffleMapParams,
) -> Result<(Value, Value), String> {
    let pairs = output
        .as_list()
        .ok_or("shuffle map functions must return a list of {k, v} pairs")?;
    let reducers = params.reducers;
    let mut buckets: Vec<Vec<KeyedPair>> = vec![Vec::new(); reducers];
    for pair in pairs {
        let key = pair.req_str("k")?;
        // lint: allow(L009) — bucket_of's contract is `< reducers`, which is
        // exactly the buckets length (checked by Partitioner::validate)
        buckets[params.partitioner.bucket_of(key, reducers)].push((key.to_owned(), pair.clone()));
    }
    let total = pairs.len();
    let prefix = fut.task_prefix();
    let summary = |manifest: Value| {
        (
            Value::map()
                .with("pairs", total as i64)
                .with("reducers", reducers as i64),
            manifest,
        )
    };

    if params.plane == ShufflePlane::WholeObject {
        // Legacy layout, minus the O(M×R) empty-partition PUTs: buckets keep
        // emission order (no sort), non-empty ones go out whole, and the
        // bitmap records which exist.
        let mut bits = vec![0u8; reducers.div_ceil(8)];
        for (r, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            bitmap_set(&mut bits, r);
            let list = Value::List(bucket.into_iter().map(|(_, p)| p).collect());
            put_stamped(
                cos,
                &payload.bucket,
                &shuffle_key(&prefix, r, reducers),
                &list.encode(),
            )
            .map_err(|e| format!("writing shuffle partition {r}: {e}"))?;
        }
        return Ok(summary(
            Value::map()
                .with("n", reducers as i64)
                .with("k", "whole")
                .with("w", Value::bytes(bits)),
        ));
    }

    // Partitioned plane: sort each spill (so reducers merge instead of
    // re-sorting), optionally fold each key group through the combiner.
    let combiner = match &params.combiner {
        None => None,
        Some(name) => Some((
            name.as_str(),
            cloud
                .registry()
                .get(name)
                .ok_or_else(|| format!("combiner `{name}` is not registered"))?,
        )),
    };
    for bucket in &mut buckets {
        sort_run(bucket);
        if let Some((name, func)) = &combiner {
            *bucket = combine_run(std::mem::take(bucket), name, func.as_ref(), task_ctx)?;
        }
    }

    if params.exchange == ExchangeMode::Relay {
        // Direct exchange: publish every channel (empty included) to the
        // relay tier. No COS data-plane operation at all.
        for (r, bucket) in buckets.into_iter().enumerate() {
            let list = Value::List(bucket.into_iter().map(|(_, p)| p).collect());
            cloud.relay().put(
                &shuffle_key(&prefix, r, reducers),
                wire::stamp(&list.encode()),
            );
        }
        return Ok(summary(
            Value::map().with("n", reducers as i64).with("k", "relay"),
        ));
    }

    // COS exchange: one *segment* object per map. Tiny slices ride inline in
    // the manifest itself (the status PUT delivers them for free, like
    // inline results); bigger ones are individually stamped and concatenated
    // so each reducer range-GETs exactly its slice.
    let mut parts: Vec<Value> = Vec::with_capacity(reducers);
    let mut segment: Vec<u8> = Vec::new();
    for bucket in buckets {
        if bucket.is_empty() {
            parts.push(Value::Null);
            continue;
        }
        let list = Value::List(bucket.into_iter().map(|(_, p)| p).collect());
        let encoded = list.encode();
        if payload.inline_max > 0 && encoded.len() <= payload.inline_max {
            parts.push(Value::map().with("d", list));
        } else {
            let stamped = wire::stamp(&encoded);
            let off = segment.len();
            segment.extend_from_slice(&stamped);
            parts.push(
                Value::map()
                    .with("o", off as i64)
                    .with("l", stamped.len() as i64),
            );
        }
    }
    if !segment.is_empty() {
        // Slices carry their own stamps (range reads can't verify a whole-
        // object stamp), so the segment is PUT raw.
        cos.put(&payload.bucket, &segment_key(&prefix), Bytes::from(segment))
            .map_err(|e| format!("writing shuffle segment: {e}"))?;
    }
    Ok(summary(
        Value::map()
            .with("n", reducers as i64)
            .with("k", "seg")
            .with("parts", Value::List(parts)),
    ))
}

/// Folds each group of consecutive equal keys in a sorted run through the
/// map-side combiner, yielding one `{k, v}` pair per distinct key. The
/// combiner sees `{"k": key, "vs": [values…]}` and returns the combined
/// value (singletons included, so its semantics don't depend on luck of
/// partition sizes).
fn combine_run(
    run: Vec<KeyedPair>,
    name: &str,
    func: &dyn crate::registry::RemoteFn,
    task_ctx: &TaskCtx,
) -> Result<Vec<KeyedPair>, String> {
    let mut out: Vec<KeyedPair> = Vec::new();
    let mut i = 0;
    while i < run.len() {
        let mut j = i + 1;
        // lint: allow(L009) — i < run.len() from the loop condition, j is
        // bounds-checked before dereference
        while j < run.len() && run[j].0 == run[i].0 {
            j += 1;
        }
        // lint: allow(L009) — same loop invariant
        let key = run[i].0.clone();
        // lint: allow(L009) — i <= j <= run.len() by construction
        let vs: Vec<Value> = run[i..j]
            .iter()
            .map(|(_, p)| p.get("v").cloned().unwrap_or(Value::Null))
            .collect();
        let input = Value::map()
            .with("k", key.as_str())
            .with("vs", Value::List(vs));
        let combined = match panic::catch_unwind(AssertUnwindSafe(|| func.call(task_ctx, input))) {
            Ok(r) => r.map_err(|e| format!("combiner `{name}` failed for key `{key}`: {e}"))?,
            Err(p) => {
                return Err(format!(
                    "combiner `{name}` panicked for key `{key}`: {}",
                    panic_text(&p)
                ))
            }
        };
        let pair = Value::map().with("k", key.as_str()).with("v", combined);
        out.push((key, pair));
        i = j;
    }
    Ok(out)
}

/// Gathers one reducer's shuffle partitions from every map task, merges the
/// runs, and groups the pairs by key.
fn build_shuffle_reduce_input(
    cloud: &SimCloud,
    ctx: &ActivationCtx,
    cos: &CosClient,
    desc: &Value,
    batch: bool,
) -> Result<Value, String> {
    let deps = decode_shuffle_deps(desc)?;
    let index = desc.req_i64("index")?.max(0) as usize;
    let poll = Duration::from_millis(desc.req_i64("poll_ms")?.max(1) as u64);
    // Absent fields mean a payload from an older client: whole-object plane
    // over COS, and a reducer count whose pad matches the legacy 4 digits.
    let reducers = desc
        .get("reducers")
        .and_then(Value::as_i64)
        .unwrap_or(1)
        .max(1) as usize;
    let plane = ShufflePlane::from_wire(desc.get("plane").and_then(Value::as_str))?;
    let exchange = ExchangeMode::from_wire(desc.get("exch").and_then(Value::as_str))?;
    let fanin = desc
        .get("fanin")
        .and_then(Value::as_i64)
        .unwrap_or(16)
        .max(2) as usize;

    // Gather each map's partition as soon as its status lands; runs come
    // back in dep order, so the grouped output is bitwise-identical to a
    // barrier-then-gather pass.
    let runs = gather_deps(ctx, cos, &deps, poll, batch, |landed| match exchange {
        // Relay reads are datacenter-cheap: stay one at a time.
        ExchangeMode::Relay => landed
            .iter()
            .map(|d| fetch_relay_run(cloud, cos, d, index, reducers))
            .collect(),
        ExchangeMode::Cos => gather_landed(
            cos,
            landed,
            |d, status| plan_shuffle_read(d, &status, index, reducers),
            |d, read| match read {
                Ok(raw) => keyed_pairs_of_raw(&raw),
                Err(PywrenError::Storage(StoreError::NoSuchKey { .. })) => Err(format!(
                    "shuffle partition {index} of map task {} was written but is now \
                     missing (lost)",
                    d.label()
                )),
                Err(e) => Err(format!(
                    "fetching shuffle partition {index} of map task {}: {e}",
                    d.label()
                )),
            },
        ),
    })?;

    let merged: Vec<KeyedPair> = match plane {
        // Partitioned runs arrive sorted: k-way merge under the bounded
        // fan-in budget instead of holding and re-scanning everything.
        ShufflePlane::Partitioned => merge_runs(runs, fanin).0,
        // Whole-object runs are unsorted: concatenate in dep order, exactly
        // like the legacy gather.
        ShufflePlane::WholeObject => runs.into_iter().flatten().collect(),
    };

    let mut groups: std::collections::BTreeMap<String, Value> = std::collections::BTreeMap::new();
    for (k, pair) in &merged {
        let v = pair.get("v").cloned().unwrap_or(Value::Null);
        match groups
            .entry(k.clone())
            .or_insert_with(|| Value::List(Vec::new()))
        {
            Value::List(items) => items.push(v),
            // lint: allow(L009) — entry is inserted as a list two lines up
            _ => unreachable!("groups only hold lists"),
        }
    }
    Ok(Value::map()
        .with("index", index as i64)
        .with("groups", Value::Map(groups)))
}

/// Reads reducer `index`'s partition run from the relay tier.
fn fetch_relay_run(
    cloud: &SimCloud,
    cos: &CosClient,
    d: &ResponseFuture,
    index: usize,
    reducers: usize,
) -> Result<Vec<KeyedPair>, String> {
    let channel = shuffle_key(&d.task_prefix(), index, reducers);
    // Happy path: zero COS operations — maps publish every channel, so the
    // relay read alone settles it. Only a miss (map failed, or data gone)
    // costs one status GET to diagnose which.
    match cloud.relay().get(&channel) {
        Ok(stamped) => {
            let raw = wire::verify_stamped(&stamped)
                .map_err(|e| format!("integrity failure reading relay channel {channel}: {e}"))?;
            keyed_pairs_of_raw(raw)
        }
        Err(_) => {
            let status = fetch_dep_status(cos, d)?;
            Err(match map_error_of(&status) {
                Some(msg) => format!("map task {} failed: {msg}", d.label()),
                None => format!(
                    "shuffle data of map task {} lost from the relay tier",
                    d.label()
                ),
            })
        }
    }
}

/// Works out from one finished map's status manifest (authoritative over
/// the reducer's own decoded plane) where reducer `index`'s run lives:
/// nowhere (an elided-empty partition), inline in the manifest, or in a
/// staged object — telling elided-empty partitions apart from lost data.
fn plan_shuffle_read(
    d: &ResponseFuture,
    status: &Value,
    index: usize,
    reducers: usize,
) -> Result<Then<Vec<KeyedPair>>, String> {
    if let Some(msg) = map_error_of(status) {
        return Err(format!("map task {} failed: {msg}", d.label()));
    }
    let prefix = d.task_prefix();
    let channel = || Then::Read {
        key: shuffle_key(&prefix, index, reducers),
        range: None,
    };
    let Some(manifest) = status.get("shuf") else {
        // Pre-manifest map payload: every partition was written, fetch it
        // directly (the legacy protocol).
        return Ok(channel());
    };
    match manifest.req_str("k")? {
        "whole" => {
            let bits = manifest
                .get("w")
                .and_then(Value::as_bytes)
                .ok_or("whole-object manifest missing its bitmap")?;
            // Declared absent: this map produced nothing for us.
            Ok(if bitmap_get(bits, index) {
                channel()
            } else {
                Then::Ready(Vec::new())
            })
        }
        "seg" => {
            let parts = manifest.req_list("parts")?;
            let entry = parts
                .get(index)
                .ok_or_else(|| format!("manifest has no entry for partition {index}"))?;
            if entry.is_null() {
                return Ok(Then::Ready(Vec::new()));
            }
            if let Some(inline) = entry.get("d") {
                return keyed_pairs_of(inline).map(Then::Ready);
            }
            // Slices carry their own stamps (the segment is PUT raw).
            let off = entry.req_i64("o")?.max(0) as u64;
            let len = entry.req_i64("l")?.max(0) as u64;
            Ok(Then::Read {
                key: segment_key(&prefix),
                range: Some((off, off + len)),
            })
        }
        "relay" => Err(format!(
            "map task {} exchanged its partitions via the relay tier, but this reducer \
             was told to use COS",
            d.label()
        )),
        other => Err(format!("unknown shuffle manifest kind `{other}`")),
    }
}

/// What a landed dependency still needs once its status has been read:
/// nothing more, or one stamped COS read (a whole object, or a range of
/// one) whose payload becomes its value.
enum Then<T> {
    Ready(T),
    Read {
        key: String,
        range: Option<(u64, u64)>,
    },
}

/// Fetches one poll tick's landed dependencies over the SDK's concurrent
/// lanes: their status objects in one batch, `plan` turns each status into
/// a value or a further read, those reads go out in a second batch, and
/// `finish` decodes each read (or its typed failure). Returns one result
/// per landed dependency, in order.
fn gather_landed<T>(
    cos: &CosClient,
    landed: &[&ResponseFuture],
    plan: impl Fn(&ResponseFuture, Value) -> Result<Then<T>, String>,
    finish: impl Fn(&ResponseFuture, crate::error::Result<Bytes>) -> Result<T, String>,
) -> Vec<Result<T, String>> {
    let status_keys: Vec<String> = landed.iter().map(|d| d.status_key()).collect();
    let status_reqs: Vec<GetReq<'_>> = landed
        .iter()
        .zip(&status_keys)
        .map(|(d, key)| GetReq::whole(d.bucket(), key))
        .collect();
    let planned: Vec<Result<Then<T>, String>> = landed
        .iter()
        .zip(get_many_stamped(cos, &status_reqs, SDK_LANES))
        .map(|(d, raw)| {
            let raw = raw.map_err(|e| format!("fetching dep status: {e}"))?;
            let status = Value::decode(&raw.slice(wire::STAMP_LEN..))
                .map_err(|e| format!("decoding dep status: {e}"))?;
            plan(d, status)
        })
        .collect();
    let data_reqs: Vec<GetReq<'_>> = landed
        .iter()
        .zip(&planned)
        .filter_map(|(d, p)| match p {
            Ok(Then::Read { key, range }) => Some(GetReq {
                bucket: d.bucket(),
                key,
                range: *range,
            }),
            _ => None,
        })
        .collect();
    let mut reads = get_many_stamped(cos, &data_reqs, SDK_LANES).into_iter();
    landed
        .iter()
        .zip(planned)
        .map(|(d, p)| match p? {
            Then::Ready(v) => Ok(v),
            Then::Read { key, .. } => finish(
                d,
                reads
                    .next()
                    .unwrap_or_else(|| Err(unread(d.bucket(), &key)))
                    .map(|raw| raw.slice(wire::STAMP_LEN..)),
            ),
        })
        .collect()
}

/// Fetches and decodes one dependency's status object.
fn fetch_dep_status(cos: &CosClient, d: &ResponseFuture) -> Result<Value, String> {
    let raw = get_verified(cos, d.bucket(), &d.status_key())
        .map_err(|e| format!("fetching dep status: {e}"))?;
    Value::decode(&raw).map_err(|e| format!("decoding dep status: {e}"))
}

/// The error message of a non-`done` status, if any.
pub(crate) fn map_error_of(status: &Value) -> Option<String> {
    if status.get("state").and_then(Value::as_str) == Some("done") {
        return None;
    }
    Some(
        status
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("unknown error")
            .to_owned(),
    )
}

/// Decodes an encoded pair list into keyed pairs.
fn keyed_pairs_of_raw(raw: &[u8]) -> Result<Vec<KeyedPair>, String> {
    let v = Value::decode(raw).map_err(|e| format!("decoding shuffle data: {e}"))?;
    keyed_pairs_of(&v)
}

/// Extracts `(key, pair)` tuples from a decoded pair-list value.
fn keyed_pairs_of(v: &Value) -> Result<Vec<KeyedPair>, String> {
    v.as_list()
        .ok_or("shuffle object must hold a list")?
        .iter()
        .map(|p| Ok((p.req_str("k")?.to_owned(), p.clone())))
        .collect()
}

/// Materializes the user function's input from the task descriptor,
/// merging any job-level `extra` entries into map-shaped inputs.
fn build_input(
    ctx: &ActivationCtx,
    cos: &CosClient,
    desc: &Value,
    batch: bool,
) -> Result<Value, String> {
    let input = build_input_base(ctx, cos, desc, batch)?;
    let Some(extra) = desc.get("extra").and_then(Value::as_map) else {
        return Ok(input);
    };
    match input {
        Value::Map(mut m) => {
            for (k, v) in extra {
                m.entry(k.clone()).or_insert_with(|| v.clone());
            }
            Ok(Value::Map(m))
        }
        other => Ok(Value::map()
            .with("value", other)
            .with("extra", Value::Map(extra.clone()))),
    }
}

fn build_input_base(
    ctx: &ActivationCtx,
    cos: &CosClient,
    desc: &Value,
    batch: bool,
) -> Result<Value, String> {
    match desc.req_str("kind")? {
        "value" => Ok(desc.get("value").cloned().unwrap_or(Value::Null)),
        "partition" => {
            let part = Partition::from_value(desc.get("part").ok_or("missing field `part`")?)?;
            let data = read_aligned(cos, &part).map_err(|e| e.to_string())?;
            Ok(part
                .to_value()
                .with("group", part.key.as_str())
                .with("data", Value::bytes(data.to_vec())))
        }
        "reduce" => {
            let deps = desc
                .req_list("deps")?
                .iter()
                .map(ResponseFuture::from_value)
                .collect::<Result<Vec<_>, _>>()?;
            let poll = Duration::from_millis(desc.req_i64("poll_ms")?.max(1) as u64);
            let group = desc.get("group").cloned().unwrap_or(Value::Null);

            // Gather map results in *completion order* as each status
            // lands, instead of waiting for the full barrier and then
            // downloading everything at once. Results come back in dep
            // order, so the reduce function still sees them in submission
            // order — only the download timing changes.
            let results = gather_deps(ctx, cos, &deps, poll, batch, |landed| {
                gather_landed(
                    cos,
                    landed,
                    |d, status| match map_error_of(&status) {
                        Some(msg) => Err(format!("map task {} failed: {msg}", d.label())),
                        // The map's result may have ridden inside its status.
                        None => Ok(match status.get("result") {
                            Some(r) => Then::Ready(r.clone()),
                            None => Then::Read {
                                key: d.result_key(),
                                range: None,
                            },
                        }),
                    },
                    |_, read| {
                        let raw = read.map_err(|e| format!("fetching dep result: {e}"))?;
                        Value::decode(&raw).map_err(|e| format!("decoding dep: {e}"))
                    },
                )
            })?;
            Ok(Value::map()
                .with("group", group)
                .with("results", Value::List(results)))
        }
        other => Err(format!("unknown task kind `{other}`")),
    }
}

/// "The reduce function will wait for all the partial results before
/// processing them" (§4.3) — implemented as a single batched watch: one
/// LIST per distinct job prefix per poll tick covers every dependency
/// (instead of O(deps) per-key probes), and `fetch` runs on each tick's
/// newly landed dependencies *as their statuses land*, so downloads overlap
/// the stragglers still running rather than queueing behind a full barrier.
///
/// With `batch` off, each poll tick probes every still-pending status key
/// individually — the original data path, kept for ablation and for
/// payloads from older clients. Either way `fetch` sees each tick's landed
/// dependencies in dependency order and returns one result per dependency;
/// the values come back slotted by dependency index (so the assembled input
/// is bitwise-identical), and the first error in dependency order ends the
/// gather.
fn gather_deps<T, F>(
    ctx: &ActivationCtx,
    cos: &CosClient,
    deps: &[ResponseFuture],
    poll: Duration,
    batch: bool,
    mut fetch: F,
) -> Result<Vec<T>, String>
where
    F: FnMut(&[&ResponseFuture]) -> Vec<Result<T, String>>,
{
    // Precompute the wanted status keys so each poll is a set intersection.
    let mut prefixes: Vec<(&str, String)> = Vec::new();
    let mut wanted: std::collections::HashMap<String, usize> =
        std::collections::HashMap::with_capacity(deps.len());
    for (i, d) in deps.iter().enumerate() {
        let p = (d.bucket(), d.job_prefix());
        if !prefixes.iter().any(|q| q.0 == p.0 && q.1 == p.1) {
            prefixes.push(p);
        }
        wanted.insert(d.status_key(), i);
    }
    let mut slots: Vec<Option<T>> = deps.iter().map(|_| None).collect();
    let mut done = 0usize;
    loop {
        let mut landed: Vec<usize> = Vec::new();
        if batch {
            for (bucket, prefix) in &prefixes {
                let listed = cos
                    .list(bucket, prefix)
                    .map_err(|e| format!("listing statuses: {e}"))?;
                landed.extend(listed.iter().filter_map(|meta| wanted.remove(&meta.key)));
            }
        } else {
            for (i, (d, slot)) in deps.iter().zip(&slots).enumerate() {
                if slot.is_some() {
                    continue;
                }
                // One existence probe per pending dependency per tick —
                // a transient error reads as "not there yet" and is
                // retried next tick.
                if cos.get(d.bucket(), &d.status_key()).is_ok() {
                    landed.push(i);
                }
            }
        }
        landed.sort_unstable();
        let landed_deps: Vec<&ResponseFuture> =
            landed.iter().filter_map(|&i| deps.get(i)).collect();
        for (&i, fetched) in landed.iter().zip(fetch(&landed_deps)) {
            if let Some(slot) = slots.get_mut(i) {
                *slot = Some(fetched?);
            }
        }
        done += landed.len();
        if done >= deps.len() {
            break;
        }
        if ctx.remaining() < poll {
            return Err(format!(
                "reducer ran out of time waiting for {}/{} map results",
                done,
                deps.len()
            ));
        }
        rustwren_sim::sleep(poll);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.ok_or_else(|| format!("dependency slot {i} was never fetched")))
        .collect()
}

fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agent_payload_roundtrip() {
        let p = AgentPayload {
            bucket: "b".into(),
            exec_id: "e1".into(),
            job_id: 4,
            task: 9,
            func_name: "tone".into(),
            inline: None,
            cache: false,
            batch: false,
            inline_max: 0,
        };
        assert_eq!(AgentPayload::decode(&p.encode()), Ok(p));
    }

    #[test]
    fn agent_payload_carries_inline_desc_and_cache_flag() {
        let p = AgentPayload {
            bucket: "b".into(),
            exec_id: "e1".into(),
            job_id: 4,
            task: 9,
            func_name: "tone".into(),
            inline: Some(Value::map().with("kind", "value").with("value", 7i64)),
            cache: true,
            batch: true,
            inline_max: 64 * 1024,
        };
        let decoded = AgentPayload::decode(&p.encode()).expect("decodes");
        assert_eq!(decoded, p);
        assert_eq!(
            decoded
                .inline
                .as_ref()
                .and_then(|d| d.get("kind"))
                .and_then(Value::as_str),
            Some("value")
        );
        assert!(decoded.cache);
    }

    #[test]
    fn agent_payload_without_cache_key_defaults_to_staged_semantics() {
        // A payload encoded before the data-path fields existed still
        // decodes — and conservatively disables both optimisations.
        let old = Value::map()
            .with("bucket", "b")
            .with("exec", "e1")
            .with("job", 4i64)
            .with("task", 9i64)
            .with("func", "tone")
            .encode();
        let decoded = AgentPayload::decode(&old).expect("decodes");
        assert_eq!(decoded.inline, None);
        assert!(!decoded.cache);
    }

    #[test]
    fn agent_payload_decode_rejects_garbage() {
        assert!(AgentPayload::decode(b"nonsense").is_err());
        assert!(AgentPayload::decode(&Value::map().with("bucket", "b").encode()).is_err());
    }

    #[test]
    fn task_specs_encode_their_kind() {
        let v = TaskSpec::Value(Value::Int(5)).to_value();
        assert_eq!(v.req_str("kind"), Ok("value"));
        let p = TaskSpec::Partition(Partition {
            bucket: "b".into(),
            key: "k".into(),
            start: 0,
            end: 10,
            index: 0,
        })
        .to_value();
        assert_eq!(p.req_str("kind"), Ok("partition"));
        let r = TaskSpec::Reduce {
            deps: vec![ResponseFuture::new("b", "e", 1, 0)],
            group: Some("nyc".into()),
            poll: Duration::from_millis(500),
        }
        .to_value();
        assert_eq!(r.req_str("kind"), Ok("reduce"));
        assert_eq!(r.req_i64("poll_ms"), Ok(500));
        assert_eq!(r.get("group").and_then(Value::as_str), Some("nyc"));
    }

    #[test]
    fn shuffle_reduce_descriptor_stays_compact_at_high_fanin() {
        // A reducer over 1,000 maps once carried 1,000 inlined futures in
        // its descriptor — big enough to evade W003's payload estimate and
        // bloat every activation. The dense dep range compacts to a
        // constant-size reference.
        let deps: Vec<ResponseFuture> = (0..1_000)
            .map(|t| ResponseFuture::new("b", "e", 1, t))
            .collect();
        let spec = TaskSpec::ShuffleReduce {
            deps: deps.clone(),
            index: 3,
            poll: Duration::from_millis(500),
            reducers: 8,
            plane: ShufflePlane::Partitioned,
            exchange: ExchangeMode::Cos,
            fanin: 16,
        };
        let v = spec.to_value();
        assert!(
            v.encoded_len() < 256,
            "1,000-dep descriptor must be a compact reference, was {} bytes",
            v.encoded_len()
        );
        assert_eq!(decode_shuffle_deps(&v).expect("decodes"), deps);

        // Legacy descriptors with an explicit "deps" list still decode.
        let legacy = Value::map().with(
            "deps",
            Value::List(deps.iter().take(3).map(ResponseFuture::to_value).collect()),
        );
        assert_eq!(decode_shuffle_deps(&legacy).expect("decodes"), deps[..3]);
    }

    #[test]
    fn status_value_carries_error() {
        let s = status_value("error", Some("boom"), 1.0, 2.0);
        assert_eq!(s.req_str("state"), Ok("error"));
        assert_eq!(s.get("error").and_then(Value::as_str), Some("boom"));
        let ok = status_value("done", None, 1.0, 2.0);
        assert!(ok.get("error").is_none());
    }

    #[test]
    fn func_key_layout() {
        assert_eq!(func_key("e2", 7), "jobs/e2/7/func");
    }
}
