//! Bitwise-equivalence suite for the kernel fast path (DESIGN §14).
//!
//! Each scenario runs a full workload on a fresh kernel and folds
//! everything an observer could see — results, kernel counters, the final
//! virtual clock, and the `RUSTWREN_SCHEDULE` trace token — into one
//! fingerprint string. The goldens below were captured on the
//! pre-refactor, fully thread-backed kernel; the lightweight-task /
//! sharded-store / zero-alloc refactor must reproduce every one of them
//! bit for bit.
//!
//! To re-bless after an *intentional* semantic change (new choice points,
//! different workload shape), run:
//!
//! ```text
//! RUSTWREN_BLESS=1 cargo test --test kernel_equiv -- --nocapture
//! ```
//!
//! and paste the printed fingerprints over the constants — but note that
//! for this suite, needing to re-bless *is* the failure mode the suite
//! exists to catch: the kernel fast path promises determinism is
//! preserved, not merely re-established.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use rustwren::core::{
    DataSource, ExchangeMode, MapReduceOpts, Partitioner, RetryPolicy, ShuffleOpts, ShufflePlane,
    SimCloud, SpeculationConfig, TaskCtx, Value,
};
use rustwren::faas::{ActivationId, InvokeError, KeepAlivePolicy, PlatformConfig, TenantConfig};
use rustwren::sim::hash::{hash2, hash_str};
use rustwren::sim::{Kernel, NetworkProfile, RandomScheduler};
use rustwren::workloads::cloudsort::{self, CloudSortConfig};
use rustwren::workloads::serving::{self, BurstWindow, TenantTraffic, TraceConfig, SERVE_FN};

/// Folds a stream of strings into a single order-sensitive digest.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0x9E37_79B9_7F4A_7C15)
    }
    fn add(&mut self, part: &str) {
        self.0 = hash2(self.0, hash_str(part));
    }
    fn add_dbg(&mut self, part: &impl std::fmt::Debug) {
        self.add(&format!("{part:?}"));
    }
}

/// Everything observable about a finished run, captured *inside* the
/// simulation (while the client is the only running thread, so every
/// field is a pure function of program order).
fn seal(kernel: &Kernel, digest: Digest) -> String {
    let st = kernel.stats();
    format!(
        "r={:016x} adv={} tmr={} thr={} vt={} trace={}",
        digest.0,
        st.clock_advances,
        st.timers_scheduled,
        st.threads_started,
        kernel.now().as_nanos(),
        kernel.schedule_trace().token(),
    )
}

fn cloud_on(kernel: Kernel) -> SimCloud {
    SimCloud::builder()
        .seed(7)
        .client_network(NetworkProfile::lan())
        .kernel(kernel)
        .build()
}

/// 6-task map with retry + speculation — the executor's concurrency-heavy
/// configuration (pending sets, backoff timers, duplicate completions).
fn map_scenario(kernel: Kernel) -> String {
    let cloud = cloud_on(kernel.clone());
    cloud.register_fn("add7", |_ctx: &TaskCtx, x: Value| {
        Ok(Value::Int(x.as_i64().ok_or("int")? + 7))
    });
    cloud.run(|| {
        let exec = cloud
            .executor()
            .retry(RetryPolicy::with_attempts(3))
            .speculation(SpeculationConfig::on())
            .build()
            .unwrap();
        exec.map("add7", (0..6).map(Value::Int).collect::<Vec<_>>())
            .unwrap();
        let results = exec.get_result().unwrap();
        let mut d = Digest::new();
        for v in &results {
            d.add_dbg(v);
        }
        seal(&kernel, d)
    })
}

/// map_reduce over the same executor configuration.
fn map_reduce_scenario(kernel: Kernel) -> String {
    let cloud = cloud_on(kernel.clone());
    cloud.register_fn("double", |_ctx: &TaskCtx, x: Value| {
        Ok(Value::Int(x.as_i64().ok_or("int")? * 2))
    });
    cloud.register_fn("sum", |_ctx: &TaskCtx, input: Value| {
        let total: i64 = input
            .req_list("results")?
            .iter()
            .filter_map(Value::as_i64)
            .sum();
        Ok(Value::Int(total))
    });
    cloud.run(|| {
        let exec = cloud
            .executor()
            .retry(RetryPolicy::with_attempts(3))
            .speculation(SpeculationConfig::on())
            .build()
            .unwrap();
        exec.map_reduce(
            "double",
            DataSource::Values((1..=5).map(Value::Int).collect()),
            "sum",
            MapReduceOpts::default(),
        )
        .unwrap();
        let results = exec.get_result().unwrap();
        let mut d = Digest::new();
        for v in &results {
            d.add_dbg(v);
        }
        seal(&kernel, d)
    })
}

/// Small CloudSort on the partitioned shuffle plane with a combiner —
/// exercises the store (staging, intermediate exchange, LIST storms) and
/// the shuffle data plane end to end.
fn cloudsort_scenario(kernel: Kernel) -> String {
    let cfg = CloudSortConfig {
        maps: 6,
        reducers: 4,
        logical_bytes: 60_000_000,
        record_bytes: 100,
        samples_per_map: 32,
        seed: 9,
    };
    let cloud = SimCloud::builder()
        .seed(9)
        .client_network(NetworkProfile::lan())
        .kernel(kernel.clone())
        .build();
    cloudsort::register(&cloud);
    cloudsort::stage(cloud.store(), "cloudsort", &cfg).expect("stages");
    let part = Partitioner::range_from_samples(cloudsort::sample_keys(&cfg), cfg.reducers);
    cloud.run(|| {
        let exec = cloud.executor().build().unwrap();
        cloudsort::submit(
            &exec,
            "cloudsort",
            &cfg,
            ShuffleOpts {
                plane: ShufflePlane::Partitioned,
                exchange: ExchangeMode::Cos,
                partitioner: part.clone(),
                combiner: Some(cloudsort::CLOUDSORT_COMBINE_FN.into()),
                ..ShuffleOpts::default()
            },
        )
        .unwrap();
        let results = exec.get_result().unwrap();
        let reports = cloudsort::verify(&results, &cfg).expect("sort invariants hold");
        let mut d = Digest::new();
        for r in &reports {
            d.add_dbg(r);
        }
        seal(&kernel, d)
    })
}

/// Two-tenant burst trace under the hybrid keep-alive policy — drives the
/// admission plane, warm-pool accounting, and the prewarm timers the
/// light-task runtime absorbs.
fn burst_scenario(kernel: Kernel) -> String {
    let traffic = vec![
        TenantTraffic::periodic("alpha", Duration::from_secs(4)),
        TenantTraffic::poisson("beta", 0.8).with_burst(BurstWindow {
            start: Duration::from_secs(20),
            len: Duration::from_secs(15),
            multiplier: 6.0,
        }),
    ];
    let horizon = Duration::from_secs(60);
    let cloud = SimCloud::builder()
        .seed(7)
        .client_network(NetworkProfile::lan())
        .platform(PlatformConfig {
            concurrency_limit: 8,
            keep_alive: Some(KeepAlivePolicy::hybrid(Duration::from_secs(6))),
            tenants: vec![
                TenantConfig::new("alpha", 4).queue_depth(32),
                TenantConfig::new("beta", 4).queue_depth(32),
            ],
            ..PlatformConfig::default()
        })
        .kernel(kernel.clone())
        .build();
    serving::register(cloud.functions()).expect("register serve action");
    let trace = serving::generate(&traffic, &TraceConfig { horizon, seed: 7 });
    let faas = cloud.functions().clone();
    type DriverOut = (usize, Vec<ActivationId>, u64, u64);
    let collected: Arc<Mutex<Vec<DriverOut>>> = Arc::new(Mutex::new(Vec::new()));
    cloud.run(|| {
        let origin = rustwren_sim::now();
        let handles: Vec<_> = traffic
            .iter()
            .enumerate()
            .map(|(idx, t)| {
                let arrivals: Vec<serving::Arrival> =
                    trace.iter().filter(|a| a.tenant == idx).copied().collect();
                let faas = faas.clone();
                let ns = t.namespace.clone();
                let collected = Arc::clone(&collected);
                rustwren_sim::spawn(format!("driver-{ns}"), move || {
                    let mut ids = Vec::new();
                    let (mut throttled, mut shed) = (0u64, 0u64);
                    for a in arrivals {
                        let target = origin + a.at;
                        let now = rustwren_sim::now();
                        if target > now {
                            rustwren_sim::sleep(target.duration_since(now));
                        }
                        match faas.invoke_in(&ns, SERVE_FN, serving::payload(a.exec)) {
                            Ok(id) => ids.push(id),
                            Err(InvokeError::Throttled { .. }) => throttled += 1,
                            Err(InvokeError::ShedLoad { .. }) => shed += 1,
                            Err(e) => panic!("driver {ns}: unexpected invoke error: {e}"),
                        }
                    }
                    collected.lock().unwrap().push((idx, ids, throttled, shed));
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        let mut drivers = collected.lock().unwrap().clone();
        drivers.sort_by_key(|(idx, ..)| *idx);
        let mut d = Digest::new();
        for (idx, ids, throttled, shed) in drivers {
            let ok = ids.iter().filter(|&&id| faas.wait(id).is_success()).count();
            d.add(&format!("tenant={idx} ok={ok} thr={throttled} shed={shed}"));
        }
        for ns in ["alpha", "beta"] {
            d.add_dbg(&faas.tenant_stats(ns).unwrap());
        }
        seal(&kernel, d)
    })
}

// ---------------------------------------------------------------------------
// Goldens. `FIFO_*` were captured on the pre-refactor kernel (every
// simulated thread backed by an OS thread, unsharded store) and pin
// results + stats + virtual timing under the default FIFO scheduler.
// `RAND_*` pin the choice-point sequence (`RUSTWREN_SCHEDULE` token) under
// the seeded random scheduler — the proof that the refactor presents the
// verifier with the identical interleaving space.
// ---------------------------------------------------------------------------

const BLESS_ENV: &str = "RUSTWREN_BLESS";

fn check(label: &str, golden: &str, got: &str) {
    if std::env::var(BLESS_ENV).is_ok() {
        println!("GOLDEN {label} = \"{got}\"");
        return;
    }
    assert_eq!(
        got, golden,
        "{label}: fingerprint diverged from the pre-refactor kernel"
    );
}

/// Seeds for the random-scheduler trace goldens. Chosen arbitrarily;
/// what matters is that the recorded token is stable across the refactor.
const RAND_SEEDS: [u64; 2] = [11, 4242];

fn with_random(kernel: &Kernel, seed: u64) {
    kernel.set_scheduler(Box::new(
        RandomScheduler::new(seed).with_preempt_probability(0.05),
    ));
}

#[test]
fn map_fifo_fingerprint_is_stable() {
    check("FIFO_MAP", FIFO_MAP, &map_scenario(Kernel::new()));
}

#[test]
fn map_reduce_fifo_fingerprint_is_stable() {
    check(
        "FIFO_MAP_REDUCE",
        FIFO_MAP_REDUCE,
        &map_reduce_scenario(Kernel::new()),
    );
}

#[test]
fn cloudsort_fifo_fingerprint_is_stable() {
    check(
        "FIFO_CLOUDSORT",
        FIFO_CLOUDSORT,
        &cloudsort_scenario(Kernel::new()),
    );
}

#[test]
fn burst_trace_fifo_fingerprint_is_stable() {
    check("FIFO_BURST", FIFO_BURST, &burst_scenario(Kernel::new()));
}

#[test]
fn map_random_schedule_fingerprints_are_stable() {
    for (i, &seed) in RAND_SEEDS.iter().enumerate() {
        let kernel = Kernel::new();
        with_random(&kernel, seed);
        check(
            &format!("RAND_MAP[{i}]"),
            RAND_MAP[i],
            &map_scenario(kernel),
        );
    }
}

#[test]
fn map_reduce_random_schedule_fingerprints_are_stable() {
    for (i, &seed) in RAND_SEEDS.iter().enumerate() {
        let kernel = Kernel::new();
        with_random(&kernel, seed);
        check(
            &format!("RAND_MAP_REDUCE[{i}]"),
            RAND_MAP_REDUCE[i],
            &map_reduce_scenario(kernel),
        );
    }
}

#[test]
fn cloudsort_random_schedule_fingerprints_are_stable() {
    for (i, &seed) in RAND_SEEDS.iter().enumerate() {
        let kernel = Kernel::new();
        with_random(&kernel, seed);
        check(
            &format!("RAND_CLOUDSORT[{i}]"),
            RAND_CLOUDSORT[i],
            &cloudsort_scenario(kernel),
        );
    }
}

// Captured with RUSTWREN_BLESS=1 on the pre-refactor kernel (PR 8 tree).
// Map and CloudSort re-blessed when `get_result` began harvesting each
// poll tick's landed results over modelled connections from the polling
// thread instead of a download-thread pool: results, clock advances,
// timers and virtual end are unchanged; only the thread count fell and
// the schedule tokens lost the pool's choice points. The map_reduce
// goldens did not move: their one reducer future was already fetched
// serially on the polling thread.
// Map, map_reduce and CloudSort re-blessed again when input uploads and
// invocation batches became lanes on the caller's thread instead of
// `upload-`/`spawn-`/`invoker-` thread pools: results, clock advances and
// virtual end are unchanged; the thread count, the timers the pool
// threads armed and the schedule tokens (fewer choice points) moved.
const FIFO_MAP: &str = "r=610214d1d0716dec adv=42 tmr=50 thr=7 vt=2775363273 trace=v1:";
const FIFO_MAP_REDUCE: &str = "r=dd2c71163533fe08 adv=50 tmr=58 thr=7 vt=2883966541 trace=v1:";
// CloudSort was first re-blessed when reducers began gathering their
// dependencies over concurrent COS lanes: results, thread count and
// schedule tokens were unchanged; only the clock advances, timers and
// virtual end moved.
const FIFO_CLOUDSORT: &str = "r=9a876e1b9c41e132 adv=111 tmr=125 thr=11 vt=3417625311 trace=v1:";
const FIFO_BURST: &str = "r=7b0471a08affaf50 adv=312 tmr=312 thr=104 vt=59766401093 trace=v1:";
const RAND_MAP: [&str; 2] = [
    "r=610214d1d0716dec adv=42 tmr=50 thr=7 vt=2775363273 trace=v1:0p1,6p1,11p1,20r1,29t3,30t3,31t1,32t1,34t3",
    "r=610214d1d0716dec adv=42 tmr=50 thr=7 vt=2775363273 trace=v1:24r2,28r1,34p1,39t3,40t1,43t4,45t2,46t1",
];
const RAND_MAP_REDUCE: [&str; 2] = [
    "r=dd2c71163533fe08 adv=50 tmr=58 thr=7 vt=2883966541 trace=v1:0p1,6p1,11p1,24r1,31p1,36t3,37t3,38t1,40t3,41t3,42t2",
    "r=dd2c71163533fe08 adv=50 tmr=58 thr=7 vt=2883966541 trace=v1:27p1,28r2,30p1,31r1,37r1,48t2,49t1,52t2,54t1",
];
const RAND_CLOUDSORT: [&str; 2] = [
    "r=9a876e1b9c41e132 adv=111 tmr=125 thr=11 vt=3417625311 trace=v1:0p1,6p1,11p1,20r1,31p1,49r1,53r1,57t4,58t3,61t2,63t1,65t1,66t1,67t1,68t2,69t1",
    "r=9a876e1b9c41e132 adv=111 tmr=125 thr=11 vt=3417625311 trace=v1:24r2,28r1,34p1,40p1,58r2,62r1,63p1,68t1,69t1,73t1,75t2,76t3,77t1,79t2,80t1",
];
