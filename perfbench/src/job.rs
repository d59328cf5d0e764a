//! One executor job timed end to end: what `spawn` and `cloudsort` share.

use std::collections::BTreeMap;
use std::sync::Arc;

use rustwren_core::stats::JobReport;
use rustwren_core::{Executor, ExecutorBuilder, ResponseFuture, SimCloud, Value};
use rustwren_faas::{ActivationRecord, Phase};
use rustwren_sim::hash::hash_str;

use crate::host::Stopwatch;
use crate::measure::{self, vsecs, Rep, SimMetrics};
use crate::trace::{self, Span, Tracer, USER_CALL};

/// Runs one job of `tasks` tasks on a fresh `cloud` and checks it: the
/// executor is built by `configure`, the job started by `submit` and
/// gathered with `get_result`, both inside client spans when traced, and
/// `check` gates the results. The timed part runs from just before the
/// executor is built until `get_result` returns.
pub fn run(
    cloud: &SimCloud,
    tracer: Option<&Arc<Tracer>>,
    parent: u64,
    tasks: u64,
    configure: impl FnOnce(ExecutorBuilder) -> ExecutorBuilder,
    submit: impl FnOnce(&Executor) -> rustwren_core::Result<Vec<ResponseFuture>>,
    check: impl FnOnce(&[Value]) -> Result<(), String>,
) -> Result<Rep, String> {
    if let Some(t) = tracer {
        trace::wrap_registry(cloud, t);
    }
    let tr = tracer.map(|t| &**t);
    let watch = Stopwatch::start();
    let (t0, done, host, results, ops, recovery, kernel) = cloud.run(|| {
        let t0 = rustwren_sim::now();
        let exec = configure(cloud.executor())
            .build()
            .map_err(|e| e.to_string())?;
        let req = hash_str(exec.exec_id());
        trace::client(tr, "core.submit", parent, req, || submit(&exec))
            .map_err(|e| e.to_string())?;
        let results = trace::client(tr, "core.gather", parent, req, || exec.get_result())
            .map_err(|e| e.to_string())?;
        let done = rustwren_sim::now();
        let host = watch.stop();
        Ok::<_, String>((
            t0,
            done,
            host,
            results,
            exec.cos_op_stats(),
            exec.recovery_stats(),
            cloud.kernel().stats(),
        ))
    })?;
    check(&results)?;

    let faas = cloud.functions();
    let records = faas.records();
    let agents: Vec<ActivationRecord> = records
        .iter()
        .filter(|r| r.action.starts_with("rustwren-agent@"))
        .cloned()
        .collect();
    let mut sim = SimMetrics::new();
    sim.insert("virtual_s", vsecs(t0, done));
    // Every task is due when the job is submitted.
    let latency_samples = measure::latency(
        &mut sim,
        agents
            .iter()
            .filter_map(|r| r.ended.map(|e| vsecs(t0, e) * 1e3))
            .collect(),
    );
    let stats = faas.stats();
    // A failed task fails `check`; refusals and failed activations that
    // recovery absorbed are what is left to count.
    let failed = stats.shed
        + stats.throttled
        + records
            .iter()
            .filter(|r| matches!(&r.phase, Phase::Done(o) if !o.is_success()))
            .count() as u64;
    measure::fractions(&mut sim, tasks, failed);
    measure::sim_layer(&mut sim, &kernel);
    measure::store_layer(&mut sim, &ops);
    measure::faas_layer(&mut sim, cloud, &stats, &records, 0.0);
    let report = JobReport::from_records(&agents).ok_or("no agent activation ran")?;
    sim.insert(
        "core.invocation_phase_s",
        report.invocation_phase(t0).as_secs_f64(),
    );
    sim.insert("core.discovery_lag_s", vsecs(report.last_end, done));
    sim.insert("core.recovery_actions", recovery.total_actions() as f64);
    sim.insert("gen_lag_ms", 0.0);

    let mut traced = SimMetrics::new();
    if let Some(t) = tracer {
        traced.insert(
            "core.agent_overhead_p50_ms",
            agent_overhead_p50_ms(&agents, &t.spans()),
        );
    }
    Ok(Rep {
        host,
        sim,
        traced,
        attempted: tasks,
        failed,
        latency_samples,
    })
}

/// Median over agent activations of execution time not spent in the user
/// body: blob and input fetches plus result and status writes. The body
/// times come from the registry wrapper's spans.
fn agent_overhead_p50_ms(agents: &[ActivationRecord], spans: &[Span]) -> f64 {
    let bodies: BTreeMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == USER_CALL)
        .map(|s| (s.req, s.virt_ns))
        .collect();
    let overheads = measure::sorted(
        agents
            .iter()
            .filter_map(|r| {
                let body = *bodies.get(&r.id.0)?;
                let exec = r.exec_duration()?.as_nanos() as u64;
                Some(exec.saturating_sub(body) as f64 / 1e6)
            })
            .collect(),
    );
    measure::percentile(&overheads, 0.5)
}
