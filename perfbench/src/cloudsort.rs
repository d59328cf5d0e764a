//! `cloudsort`: the virtual 100 GB CloudSort on the partitioned shuffle
//! plane (400 maps × 50 reducers, combiner, COS exchange).
//!
//! A closed loop with a single job. It has few activations but heavy work
//! in core's shuffle (spills, segment encode, bounded-fan-in merge) and in
//! the store (segment PUTs, range GETs, dependency-watch LISTs): bulk
//! writes and range reads rather than small status objects and polling.

use std::sync::Arc;

use rustwren_core::{ExchangeMode, Partitioner, ShuffleOpts, ShufflePlane, SimCloud, Value};
use rustwren_faas::PlatformConfig;
use rustwren_sim::NetworkProfile;
use rustwren_workloads::cloudsort::{self, CloudSortConfig};

use crate::job;
use crate::measure::{Rep, Workload};
use crate::trace::{self, Tracer};

const BUCKET: &str = "cloudsort";

/// The cloudsort workload for one configuration.
#[derive(Debug, Clone, Copy)]
pub struct CloudSort {
    cfg: CloudSortConfig,
}

impl CloudSort {
    /// The sort described by `cfg` (its seed generates the keys).
    pub fn new(cfg: CloudSortConfig) -> CloudSort {
        CloudSort { cfg }
    }
}

/// The cloud and partitioner one repetition sorts with.
#[derive(Debug)]
pub struct Prepared {
    cloud: SimCloud,
    partitioner: Partitioner,
}

/// `cloudsort::verify` passes: ranges ordered and disjoint, no record lost.
pub fn check(results: &[Value], cfg: &CloudSortConfig) -> Result<(), String> {
    cloudsort::verify(results, cfg)
        .map(drop)
        .map_err(|e| format!("cloudsort: {e}"))
}

impl Workload for CloudSort {
    type Prepared = Prepared;

    fn setup(&self, tracer: Option<&Tracer>, parent: u64) -> Result<Prepared, String> {
        let maps = self.cfg.maps;
        // Headroom above the map fan-out so nothing throttles; containers
        // well below the task count so the job runs in waves over warm
        // containers.
        let cloud = trace::scope(tracer, "setup.cloud", parent, 0, || {
            SimCloud::builder()
                .seed(self.cfg.seed)
                .client_network(NetworkProfile::lan())
                .platform(PlatformConfig {
                    concurrency_limit: maps + maps / 10 + 50,
                    cluster_containers: (maps / 4).max(10),
                    ..PlatformConfig::default()
                })
                .build()
        });
        trace::scope(tracer, "setup.register", parent, 0, || {
            cloudsort::register(&cloud)
        });
        trace::scope(tracer, "store.stage", parent, 0, || {
            cloudsort::stage(cloud.store(), BUCKET, &self.cfg)
        })
        .map_err(|e| format!("staging cloudsort input: {e}"))?;
        let partitioner = trace::scope(tracer, "setup.partitioner", parent, 0, || {
            Partitioner::range_from_samples(cloudsort::sample_keys(&self.cfg), self.cfg.reducers)
        });
        Ok(Prepared { cloud, partitioner })
    }

    fn run(&self, p: Prepared, tracer: Option<&Arc<Tracer>>, parent: u64) -> Result<Rep, String> {
        let Prepared { cloud, partitioner } = p;
        let cfg = self.cfg;
        job::run(
            &cloud,
            tracer,
            parent,
            (cfg.maps + cfg.reducers) as u64,
            |b| b,
            |exec| {
                cloudsort::submit(
                    exec,
                    BUCKET,
                    &cfg,
                    ShuffleOpts {
                        plane: ShufflePlane::Partitioned,
                        exchange: ExchangeMode::Cos,
                        partitioner,
                        combiner: Some(cloudsort::CLOUDSORT_COMBINE_FN.into()),
                        ..ShuffleOpts::default()
                    },
                )
            },
            |results| check(results, &cfg),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_range_report_with_one_record_dropped_trips_the_gate() {
        let cfg = CloudSortConfig {
            maps: 6,
            reducers: 4,
            logical_bytes: 60_000_000,
            record_bytes: 100,
            samples_per_map: 32,
            seed: 9,
        };
        let w = CloudSort::new(cfg);
        let p = w.setup(None, 0).expect("setup");
        let rep = w.run(p, None, 0).expect("the honest sort passes its gate");
        assert_eq!(rep.failed, 0);

        // Re-run the sort and plant one lost record in a reducer report.
        let p = w.setup(None, 0).expect("setup");
        let results = p.cloud.clone().run(|| {
            let exec = p.cloud.executor().build().expect("executor");
            cloudsort::submit(
                &exec,
                BUCKET,
                &cfg,
                ShuffleOpts {
                    partitioner: p.partitioner.clone(),
                    combiner: Some(cloudsort::CLOUDSORT_COMBINE_FN.into()),
                    ..ShuffleOpts::default()
                },
            )
            .expect("submit");
            exec.get_result().expect("results")
        });
        check(&results, &cfg).expect("unmodified reports pass");
        let mut planted = results.clone();
        let count = planted[1].req_i64("count").expect("count");
        planted[1] = planted[1].clone().with("count", count - 1);
        let err = check(&planted, &cfg).expect_err("a dropped record must fail the gate");
        assert!(err.contains("mismatch"), "got: {err}");
    }
}
