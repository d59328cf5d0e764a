//! `spawn`: the paper's Fig 2 massive-spawning experiment.
//!
//! 1,000 compute-bound 50 s functions from a WAN client through remote
//! invoker groups, on a fresh cloud. A closed loop with one client: the
//! next job starts only after `get_result` returns. It is dispatch-bound:
//! thousands of thread-backed activations, all cold starts, invoker
//! fan-out and client LIST polling, with almost no byte work.

use std::sync::Arc;

use rustwren_core::{SimCloud, SpawnStrategy, Value};
use rustwren_faas::PlatformConfig;
use rustwren_sim::hash::{hash2, hash_str, unit_f64};
use rustwren_sim::NetworkProfile;
use rustwren_workloads::compute;

use crate::job;
use crate::measure::{Rep, Workload};
use crate::trace::{self, Tracer};

/// Fig 2's reported invocation phase under massive spawning, seconds.
pub const PAPER_INVOCATION_S: f64 = 8.0;
/// Fig 2's reported end of the experiment under massive spawning, seconds.
pub const PAPER_TOTAL_S: f64 = 58.0;

/// The spawn workload for one seed.
#[derive(Debug, Clone)]
pub struct Spawn {
    seed: u64,
    /// Modelled seconds per task: 50 s plus a sub-millisecond seeded
    /// offset, so every result is distinct and its order can be checked.
    inputs: Vec<f64>,
}

impl Spawn {
    /// `tasks` functions (1,000 in the paper) for `seed`.
    pub fn new(seed: u64, tasks: usize) -> Spawn {
        let base = hash2(seed, hash_str("spawn"));
        let inputs = (0..tasks as u64)
            .map(|i| 50.0 + unit_f64(hash2(base, i)) * 1e-3)
            .collect();
        Spawn { seed, inputs }
    }
}

/// Every result is present, in order, and equal to its input.
pub fn check(results: &[Value], inputs: &[f64]) -> Result<(), String> {
    if results.len() != inputs.len() {
        return Err(format!(
            "spawn: {} results for {} tasks",
            results.len(),
            inputs.len()
        ));
    }
    for (i, (r, want)) in results.iter().zip(inputs).enumerate() {
        if r.as_f64() != Some(*want) {
            return Err(format!("spawn: result {i} is {r:?}, expected {want}"));
        }
    }
    Ok(())
}

impl Workload for Spawn {
    type Prepared = SimCloud;

    fn setup(&self, tracer: Option<&Tracer>, parent: u64) -> Result<SimCloud, String> {
        let n = self.inputs.len();
        // Headroom above the agents for the invoker functions, as in Fig 2.
        let limit = n + n / 10 + 50;
        let cloud = trace::scope(tracer, "setup.cloud", parent, 0, || {
            SimCloud::builder()
                .seed(self.seed)
                .platform(PlatformConfig {
                    concurrency_limit: limit,
                    cluster_containers: limit + 200,
                    ..PlatformConfig::default()
                })
                .client_network(NetworkProfile::wan())
                .build()
        });
        trace::scope(tracer, "setup.register", parent, 0, || {
            compute::register(&cloud)
        });
        Ok(cloud)
    }

    fn run(
        &self,
        cloud: SimCloud,
        tracer: Option<&Arc<Tracer>>,
        parent: u64,
    ) -> Result<Rep, String> {
        job::run(
            &cloud,
            tracer,
            parent,
            self.inputs.len() as u64,
            |b| b.spawn(SpawnStrategy::massive()),
            |exec| {
                exec.map(
                    compute::COMPUTE_FN,
                    self.inputs.iter().map(|&s| compute::input(s)),
                )
            },
            |results| check(results, &self.inputs),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_rejects_missing_and_reordered_results() {
        let w = Spawn::new(3, 4);
        let good: Vec<Value> = w.inputs.iter().map(|&s| Value::Float(s)).collect();
        check(&good, &w.inputs).expect("exact results pass");
        assert!(check(&good[..3], &w.inputs).is_err());
        let mut swapped = good.clone();
        swapped.swap(0, 1);
        assert!(check(&swapped, &w.inputs).is_err());
    }
}
