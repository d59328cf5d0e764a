//! Kernel fast-path throughput bench — wall-clock events/sec tracking for
//! the simulator itself (DESIGN §14).
//!
//! Three scenarios:
//!
//! 1. **100k-task map** (kernel-level): every task is a pure
//!    startup-sleep → exec-sleep phase sequence, run twice — once on the
//!    pre-refactor execution model (one parked OS thread per task, the
//!    *threaded compat arm*) and once as lightweight state-machine tasks
//!    on the dispatch loop. Identical virtual timelines; only the wall
//!    clock differs.
//! 2. **CloudSort shuffle** — the partitioned-plane sort end to end, so
//!    the number tracks the real mixed workload (threads + lights + store
//!    + timers), not a microbenchmark.
//! 3. **PR 8 burst trace** — the two-tenant serving trace under the
//!    hybrid keep-alive policy, run twice; the runs must be bitwise
//!    identical (results, stats, virtual clock), the replay gate.
//!
//! Prints the table, writes `BENCH_kernel.json`, and exits 1 unless the
//! lightweight arm clears the ≥5× events/sec gate over the threaded
//! compat arm and the burst replay is bitwise identical.
//!
//! Run: `cargo run --release -p rustwren-bench --bin kernel` (`--smoke`
//! for the reduced CI scale).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rustwren_bench::{BenchArgs, Table};
use rustwren_core::{ExchangeMode, Partitioner, ShuffleOpts, ShufflePlane, SimCloud};
use rustwren_faas::{ActivationId, InvokeError, KeepAlivePolicy, PlatformConfig, TenantConfig};
use rustwren_sim::{Kernel, KernelStats, LightStep, NetworkProfile};
use rustwren_workloads::cloudsort::{self, CloudSortConfig};
use rustwren_workloads::serving::{self, BurstWindow, TenantTraffic, TraceConfig, SERVE_FN};

/// Scheduler events processed by a kernel: every dispatch decision the
/// refactor is trying to make cheap.
fn events(st: &KernelStats) -> u64 {
    st.clock_advances + st.timers_scheduled + st.threads_started
}

struct MapArm {
    name: &'static str,
    wall_secs: f64,
    virtual_secs: f64,
    events: u64,
    light_polls: u64,
}

impl MapArm {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs.max(1e-9)
    }
}

/// The kernel-level map scenario: `tasks` two-phase sleepers released in
/// waves of `wave` (so the threaded arm never holds more than one wave of
/// OS threads), with the client waiting out each wave on the virtual
/// clock. Both arms execute byte-identical sleep sequences.
fn map_arm(name: &'static str, light: bool, tasks: usize, wave: usize) -> MapArm {
    let kernel = Kernel::new();
    let done = Arc::new(AtomicUsize::new(0));
    let done2 = Arc::clone(&done);
    let wall = Instant::now();
    let virtual_secs = kernel.clone().run("client", move || {
        let mut launched = 0usize;
        while launched < tasks {
            let n = wave.min(tasks - launched);
            for i in launched..launched + n {
                let startup = Duration::from_millis(5 + (i % 7) as u64 * 5);
                let exec = Duration::from_millis(60);
                let done = Arc::clone(&done2);
                if light {
                    let mut step = 0u8;
                    rustwren_sim::spawn_light("task", move || match step {
                        0 => {
                            step = 1;
                            LightStep::Sleep(startup)
                        }
                        1 => {
                            step = 2;
                            LightStep::Sleep(exec)
                        }
                        _ => {
                            done.fetch_add(1, Ordering::Relaxed);
                            LightStep::Done
                        }
                    });
                } else {
                    rustwren_sim::spawn("task", move || {
                        rustwren_sim::sleep(startup);
                        rustwren_sim::sleep(exec);
                        done.fetch_add(1, Ordering::Relaxed);
                    });
                }
            }
            launched += n;
            // Longest task: 35 ms startup + 60 ms exec; 100 ms covers it.
            rustwren_sim::sleep(Duration::from_millis(100));
        }
        rustwren_sim::now().as_secs_f64()
    });
    let wall_secs = wall.elapsed().as_secs_f64();
    assert_eq!(
        done.load(Ordering::Relaxed),
        tasks,
        "{name}: not every task completed"
    );
    let st = kernel.stats();
    MapArm {
        name,
        wall_secs,
        virtual_secs,
        events: events(&st),
        light_polls: st.light_polls,
    }
}

struct RunMeasure {
    wall_secs: f64,
    virtual_secs: f64,
    events: u64,
}

/// CloudSort on the partitioned plane: stage + submit + verify, measuring
/// the whole wall-clock cost of simulating it.
fn cloudsort_run(cfg: CloudSortConfig) -> RunMeasure {
    let kernel = Kernel::new();
    let cloud = SimCloud::builder()
        .seed(cfg.seed)
        .client_network(NetworkProfile::lan())
        .platform(PlatformConfig {
            concurrency_limit: cfg.maps + cfg.maps / 10 + 50,
            cluster_containers: (cfg.maps / 4).max(10),
            ..PlatformConfig::default()
        })
        .kernel(kernel.clone())
        .build();
    let wall = Instant::now();
    cloudsort::register(&cloud);
    cloudsort::stage(cloud.store(), "cloudsort", &cfg).expect("stage cloudsort input");
    let part = Partitioner::range_from_samples(cloudsort::sample_keys(&cfg), cfg.reducers);
    let (virtual_secs, results) = cloud.run(|| {
        let exec = cloud.executor().build().expect("executor");
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
        .expect("submit");
        let results = exec.get_result().expect("results");
        (rustwren_sim::now().as_secs_f64(), results)
    });
    let wall_secs = wall.elapsed().as_secs_f64();
    cloudsort::verify(&results, &cfg).expect("sort invariants hold");
    RunMeasure {
        wall_secs,
        virtual_secs,
        events: events(&kernel.stats()),
    }
}

struct BurstRun {
    measure: RunMeasure,
    arrivals: usize,
    /// Everything observable: per-tenant outcomes + stats + end-of-run
    /// kernel counters, for the bitwise replay gate.
    fingerprint: String,
}

/// The PR 8 two-tenant burst trace under the hybrid keep-alive policy —
/// admission control, warm-pool accounting, and the prewarm timers the
/// light-task runtime absorbs.
fn burst_run(horizon: Duration) -> BurstRun {
    let traffic = vec![
        TenantTraffic::periodic("alpha", Duration::from_secs(4)),
        TenantTraffic::poisson("beta", 0.8).with_burst(BurstWindow {
            start: Duration::from_secs(20),
            len: Duration::from_secs(15),
            multiplier: 6.0,
        }),
    ];
    let kernel = Kernel::new();
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
    let arrivals = trace.len();
    let faas = cloud.functions().clone();
    type DriverOut = (usize, Vec<ActivationId>, u64, u64);
    let collected: Arc<Mutex<Vec<DriverOut>>> = Arc::new(Mutex::new(Vec::new()));
    let wall = Instant::now();
    let (virtual_secs, fingerprint) = cloud.run(|| {
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
                    collected
                        .lock()
                        .expect("collector")
                        .push((idx, ids, throttled, shed));
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        let mut drivers = collected.lock().expect("collector").clone();
        drivers.sort_by_key(|(idx, ..)| *idx);
        let mut fp = String::new();
        for (idx, ids, throttled, shed) in drivers {
            let ok = ids.iter().filter(|&&id| faas.wait(id).is_success()).count();
            let _ = write!(fp, "tenant={idx} ok={ok} thr={throttled} shed={shed}; ");
        }
        for ns in ["alpha", "beta"] {
            let _ = write!(
                fp,
                "{ns}={:?}; ",
                faas.tenant_stats(ns).expect("tenant stats")
            );
        }
        let st = rustwren_sim::kernel().stats();
        let _ = write!(
            fp,
            "adv={} tmr={} thr={} vt={}",
            st.clock_advances,
            st.timers_scheduled,
            st.threads_started,
            rustwren_sim::now().as_nanos()
        );
        (rustwren_sim::now().as_secs_f64(), fp)
    });
    let wall_secs = wall.elapsed().as_secs_f64();
    BurstRun {
        measure: RunMeasure {
            wall_secs,
            virtual_secs,
            events: events(&kernel.stats()),
        },
        arrivals,
        fingerprint,
    }
}

fn main() {
    let args = BenchArgs::parse();
    let (tasks, wave) = if args.smoke {
        (5_000, 1_000)
    } else {
        (100_000, 2_000)
    };
    let sort_cfg = if args.smoke {
        CloudSortConfig::smoke(args.seed)
    } else {
        CloudSortConfig::full(args.seed)
    };
    let horizon = Duration::from_secs(if args.smoke { 60 } else { 300 });

    println!("== Kernel fast path: wall-clock throughput ==");
    println!("   ({tasks} map tasks in waves of {wave}; CloudSort {} maps x {} reducers; burst horizon {}s)\n",
        sort_cfg.maps, sort_cfg.reducers, horizon.as_secs());

    let threaded = map_arm("threaded-compat", false, tasks, wave);
    let light = map_arm("lightweight", true, tasks, wave);
    assert_eq!(
        threaded.virtual_secs, light.virtual_secs,
        "arms diverged in virtual time"
    );
    assert_eq!(
        threaded.events, light.events,
        "arms diverged in scheduler events"
    );
    let speedup = light.events_per_sec() / threaded.events_per_sec();

    let sort = cloudsort_run(sort_cfg);
    let burst_a = burst_run(horizon);
    let burst_b = burst_run(horizon);
    let replay_identical = burst_a.fingerprint == burst_b.fingerprint;

    let mut table = Table::new(&[
        "Scenario",
        "Wall time",
        "Virtual time",
        "Events",
        "Events/sec",
        "Tasks/sec",
    ]);
    for a in [&threaded, &light] {
        table.row(&[
            format!("map/{}", a.name),
            format!("{:.3}s", a.wall_secs),
            format!("{:.1}s", a.virtual_secs),
            a.events.to_string(),
            format!("{:.0}", a.events_per_sec()),
            format!("{:.0}", tasks as f64 / a.wall_secs.max(1e-9)),
        ]);
    }
    table.row(&[
        "cloudsort/partitioned".to_owned(),
        format!("{:.3}s", sort.wall_secs),
        format!("{:.1}s", sort.virtual_secs),
        sort.events.to_string(),
        format!("{:.0}", sort.events as f64 / sort.wall_secs.max(1e-9)),
        "-".to_owned(),
    ]);
    table.row(&[
        "burst/two-tenant".to_owned(),
        format!("{:.3}s", burst_a.measure.wall_secs),
        format!("{:.1}s", burst_a.measure.virtual_secs),
        burst_a.measure.events.to_string(),
        format!(
            "{:.0}",
            burst_a.measure.events as f64 / burst_a.measure.wall_secs.max(1e-9)
        ),
        format!(
            "{:.0}",
            burst_a.arrivals as f64 / burst_a.measure.wall_secs.max(1e-9)
        ),
    ]);
    println!("{table}");
    println!(
        "lightweight vs threaded-compat: {speedup:.1}x events/sec ({} light polls replaced {} thread handoffs)",
        light.light_polls, threaded.events
    );
    println!(
        "burst replay: {}\n",
        if replay_identical {
            "bitwise identical"
        } else {
            "DIVERGED"
        }
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"seed\":{},\"smoke\":{},\"map\":{{\"tasks\":{tasks},\"wave\":{wave}",
        args.seed, args.smoke
    );
    for a in [&threaded, &light] {
        let _ = write!(
            json,
            ",\"{}\":{{\"wall_secs\":{:.4},\"virtual_secs\":{:.2},\"events\":{},\"events_per_sec\":{:.0},\"tasks_per_sec\":{:.0}}}",
            if a.name == "lightweight" { "light" } else { "threaded" },
            a.wall_secs,
            a.virtual_secs,
            a.events,
            a.events_per_sec(),
            tasks as f64 / a.wall_secs.max(1e-9)
        );
    }
    let _ = write!(json, ",\"speedup_events_per_sec\":{speedup:.2}}}");
    let _ = write!(
        json,
        ",\"cloudsort\":{{\"maps\":{},\"reducers\":{},\"wall_secs\":{:.4},\"virtual_secs\":{:.2},\"events\":{},\"events_per_sec\":{:.0}}}",
        sort_cfg.maps,
        sort_cfg.reducers,
        sort.wall_secs,
        sort.virtual_secs,
        sort.events,
        sort.events as f64 / sort.wall_secs.max(1e-9)
    );
    let _ = write!(
        json,
        ",\"burst\":{{\"arrivals\":{},\"wall_secs\":{:.4},\"virtual_secs\":{:.2},\"events\":{},\"activations_per_sec\":{:.0},\"replay_identical\":{replay_identical}}}",
        burst_a.arrivals,
        burst_a.measure.wall_secs,
        burst_a.measure.virtual_secs,
        burst_a.measure.events,
        burst_a.arrivals as f64 / burst_a.measure.wall_secs.max(1e-9)
    );
    let _ = write!(
        json,
        ",\"gates\":{{\"map_speedup_min\":5.0,\"map_speedup\":{speedup:.2},\"burst_replay_identical\":{replay_identical}}}}}"
    );
    json.push('\n');
    args.write_report("BENCH_kernel.json", &json);

    // Regression gates, at any scale.
    assert!(
        speedup >= 5.0,
        "lightweight arm must clear 5x events/sec over the threaded compat arm (got {speedup:.2}x)"
    );
    assert!(
        replay_identical,
        "burst trace replay diverged:\n  a: {}\n  b: {}",
        burst_a.fingerprint, burst_b.fingerprint
    );
}
