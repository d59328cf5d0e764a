//! What one timed repetition of a workload measures, and the reads of the
//! program's own statistics that every workload shares.

use std::collections::BTreeMap;
use std::sync::Arc;

use rustwren_core::{CosOpStats, SimCloud};
use rustwren_faas::{ActivationRecord, PlatformStats};
use rustwren_sim::{KernelStats, SimInstant};

use crate::host::HostSpan;
use crate::trace::Tracer;

/// Virtual-clock outputs and program counts by metric name. They are a
/// pure function of the seed, so every repetition of a run must agree on
/// them; the run's fingerprint hashes them.
pub type SimMetrics = BTreeMap<&'static str, f64>;

/// Everything one timed repetition measured.
#[derive(Debug)]
pub struct Rep {
    /// Host time of the timed part (after set-up).
    pub host: HostSpan,
    /// Virtual and count metrics, identical in every repetition.
    pub sim: SimMetrics,
    /// Requests the workload made: tasks, or serving arrivals.
    pub attempted: u64,
    /// Requests shed, throttled or failed.
    pub failed: u64,
    /// Samples behind the latency percentiles.
    pub latency_samples: usize,
    /// Metrics that need the traced repetition's spans; empty otherwise.
    pub traced: SimMetrics,
}

/// A prepared workload: a fresh cloud with functions registered and
/// inputs staged, ready for one timed repetition.
pub trait Workload {
    /// State built by set-up and consumed by one repetition.
    type Prepared;

    /// Builds the cloud, registers functions, stages inputs and generates
    /// the trace. Host time spent here is `setup_s`.
    fn setup(&self, tracer: Option<&Tracer>, parent: u64) -> Result<Self::Prepared, String>;

    /// Runs the timed part once and checks its outputs.
    fn run(
        &self,
        prepared: Self::Prepared,
        tracer: Option<&Arc<Tracer>>,
        parent: u64,
    ) -> Result<Rep, String>;
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest tail percentile that leaves at least ten samples beyond it:
/// p99 from 1,000 samples on, lower for smaller sets.
pub fn tail_quantile(samples: usize) -> f64 {
    let q = 1.0 - 10.0 / samples.max(1) as f64;
    q.clamp(0.5, 0.99)
}

/// Sorts `v` ascending and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Seconds from `from` to `to` in virtual time.
pub fn vsecs(from: SimInstant, to: SimInstant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

/// Request latencies (due → completion) as the end-to-end percentiles.
pub fn latency(sim: &mut SimMetrics, latencies_ms: Vec<f64>) -> usize {
    let lat = sorted(latencies_ms);
    sim.insert("latency_p50_ms", percentile(&lat, 0.5));
    sim.insert(
        "latency_tail_ms",
        percentile(&lat, tail_quantile(lat.len())),
    );
    lat.len()
}

/// Records `success_frac` and `failed_frac` of `attempted` requests.
pub fn fractions(sim: &mut SimMetrics, attempted: u64, failed: u64) {
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    sim.insert("failed_frac", failed_frac);
    sim.insert("success_frac", 1.0 - failed_frac);
}

/// Kernel counters: the simulated events the host paid for.
pub fn sim_layer(sim: &mut SimMetrics, k: &KernelStats) {
    let events = k.clock_advances + k.timers_scheduled + k.threads_started;
    sim.insert("sim.events", events as f64);
    sim.insert("sim.threads_started", k.threads_started as f64);
    sim.insert("sim.light_polls", k.light_polls as f64);
}

/// COS operations issued through one executor, by phase.
pub fn store_layer(sim: &mut SimMetrics, ops: &CosOpStats) {
    let phases = [ops.staging, ops.polling, ops.agent];
    sim.insert("store.cos_ops", ops.total_ops() as f64);
    sim.insert("store.staging_ops", ops.staging.total_ops() as f64);
    sim.insert("store.polling_ops", ops.polling.total_ops() as f64);
    sim.insert("store.agent_ops", ops.agent.total_ops() as f64);
    sim.insert(
        "store.list_ops",
        phases.iter().map(|p| p.lists).sum::<u64>() as f64,
    );
    sim.insert(
        "store.bytes_in",
        phases.iter().map(|p| p.bytes_in).sum::<u64>() as f64,
    );
    sim.insert(
        "store.bytes_out",
        phases.iter().map(|p| p.bytes_out).sum::<u64>() as f64,
    );
}

/// Platform counters and per-activation start delays. `warm_pool_s` is
/// the tenants' idle container-seconds (0 without tenants).
pub fn faas_layer(
    sim: &mut SimMetrics,
    cloud: &SimCloud,
    stats: &PlatformStats,
    records: &[ActivationRecord],
    warm_pool_s: f64,
) {
    let faas = cloud.functions();
    let started = stats.cold_starts + stats.warm_starts;
    sim.insert("faas.activations", stats.completed as f64);
    sim.insert("faas.cold_starts", stats.cold_starts as f64);
    sim.insert("faas.warm_starts", stats.warm_starts as f64);
    sim.insert("faas.prewarmed", stats.prewarmed as f64);
    sim.insert("faas.queued", stats.queued as f64);
    sim.insert("faas.shed", stats.shed as f64);
    sim.insert("faas.throttled", stats.throttled as f64);
    sim.insert("faas.warm_pool_s", warm_pool_s);
    let lookups = stats.blob_cache_hits + stats.blob_cache_misses;
    sim.insert(
        "faas.blob_cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            stats.blob_cache_hits as f64 / lookups as f64
        },
    );
    let delays = sorted(
        records
            .iter()
            .filter_map(|r| r.started.map(|s| vsecs(r.submitted, s) * 1e3))
            .collect(),
    );
    sim.insert("faas.start_delay_p50_ms", percentile(&delays, 0.5));
    sim.insert(
        "faas.start_delay_p99_ms",
        percentile(&delays, tail_quantile(delays.len())),
    );
    sim.insert("faas.records_retained", records.len() as f64);
    sim.insert(
        "cold_start_rate",
        if started == 0 {
            0.0
        } else {
            stats.cold_starts as f64 / started as f64
        },
    );
    sim.insert("gb_s", faas.billing_report().gb_seconds);
}

/// Fills the metrics a workload does not exercise with 0, so every run
/// reports the same names.
pub fn absent(sim: &mut SimMetrics, names: &[&'static str]) {
    for n in names {
        sim.entry(n).or_insert(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(tail_quantile(1000), 0.99);
        // 450 samples: the tail leaves exactly ten beyond it.
        let q = tail_quantile(450);
        let w: Vec<f64> = (1..=450).map(f64::from).collect();
        assert_eq!(w.iter().filter(|&&x| x > percentile(&w, q)).count(), 10);
    }
}
