//! Shuffle-plane ablation — a CloudSort-style virtual 100 GB sort.
//!
//! The same range-partitioned sort runs under three shuffle arms:
//!
//! 1. **whole-object** — the seed framework's plane: every map PUTs one
//!    COS object per reducer, every reducer GETs one object per map
//!    (O(M x R) COS operations).
//! 2. **partitioned** — the segmented plane: sorted runs are elided when
//!    empty, inlined into the map's status manifest when small, or packed
//!    into a single per-map segment object fetched by byte range.
//! 3. **relay** — the partitioned plane exchanged through a simulated
//!    low-latency VM relay tier instead of COS (the ablation the paper's
//!    §5 discussion of storage-mediated communication motivates).
//!
//! Prints the comparison table and writes `BENCH_shuffle.json`, then fails
//! (exit 1) unless the partitioned arm strictly beats whole-object on both
//! virtual time and COS operations, and the relay arm strictly beats the
//! partitioned arm on COS operations — the regression gate CI runs in
//! smoke mode. Every arm's reducer reports must also pass the CloudSort
//! global verification (no record lost, ranges ordered and disjoint).
//!
//! Run: `cargo run --release -p rustwren-bench --bin shuffle`

use std::fmt::Write as _;

use rustwren_bench::{fmt_secs, BenchArgs, Table};
use rustwren_core::stats::CosOpStats;
use rustwren_core::{ExchangeMode, Partitioner, ShuffleOpts, ShufflePlane, SimCloud};
use rustwren_faas::PlatformConfig;
use rustwren_sim::NetworkProfile;
use rustwren_store::{OpCounts, RelayOpCounts};
use rustwren_workloads::cloudsort::{self, CloudSortConfig, RangeReport};

/// One measured shuffle arm.
struct Arm {
    name: &'static str,
    secs: f64,
    ops: CosOpStats,
    relay: RelayOpCounts,
    reports: Vec<RangeReport>,
}

/// Headroom above the map fan-out so nothing throttles; containers well
/// below the task count so the job runs in waves over warm containers.
fn platform(tasks: usize) -> PlatformConfig {
    PlatformConfig {
        concurrency_limit: tasks + tasks / 10 + 50,
        cluster_containers: (tasks / 4).max(10),
        ..PlatformConfig::default()
    }
}

fn run_arm(
    name: &'static str,
    seed: u64,
    cfg: CloudSortConfig,
    plane: ShufflePlane,
    exchange: ExchangeMode,
) -> Arm {
    let cloud = SimCloud::builder()
        .seed(seed)
        .platform(platform(cfg.maps))
        .client_network(NetworkProfile::lan())
        .build();
    cloudsort::register(&cloud);
    cloudsort::stage(cloud.store(), "cloudsort", &cfg).expect("stage cloudsort input");
    let partitioner = Partitioner::range_from_samples(cloudsort::sample_keys(&cfg), cfg.reducers);
    let cloud2 = cloud.clone();
    let (secs, ops, results) = cloud.run(move || {
        let t0 = rustwren_sim::now().as_nanos();
        let exec = cloud2.executor().build().expect("executor");
        cloudsort::submit(
            &exec,
            "cloudsort",
            &cfg,
            ShuffleOpts {
                plane,
                exchange,
                partitioner,
                ..ShuffleOpts::default()
            },
        )
        .expect("submit");
        let results = exec.get_result().expect("results");
        let secs = (rustwren_sim::now().as_nanos() - t0) as f64 / 1e9;
        (secs, exec.cos_op_stats(), results)
    });
    let reports = cloudsort::verify(&results, &cfg)
        .unwrap_or_else(|e| panic!("arm {name}: sort verification failed: {e}"));
    Arm {
        name,
        secs,
        ops,
        relay: cloud.relay().stats(),
        reports,
    }
}

fn ops_json(o: OpCounts) -> String {
    format!(
        "{{\"gets\":{},\"puts\":{},\"lists\":{},\"heads\":{},\"deletes\":{},\"bytes_in\":{},\"bytes_out\":{}}}",
        o.gets, o.puts, o.lists, o.heads, o.deletes, o.bytes_in, o.bytes_out
    )
}

fn arm_json(a: &Arm) -> String {
    format!(
        "{{\"name\":\"{}\",\"virtual_secs\":{:.3},\"staging\":{},\"polling\":{},\"agent\":{},\"total_cos_ops\":{},\"total_cos_bytes\":{},\"relay_ops\":{},\"relay_bytes\":{}}}",
        a.name,
        a.secs,
        ops_json(a.ops.staging),
        ops_json(a.ops.polling),
        ops_json(a.ops.agent),
        a.ops.total_ops(),
        a.ops.total_bytes(),
        a.relay.total_ops(),
        a.relay.total_bytes(),
    )
}

fn main() {
    let args = BenchArgs::parse();
    let cfg = if args.smoke {
        CloudSortConfig::smoke(args.seed)
    } else {
        CloudSortConfig::full(args.seed)
    };

    println!("== Shuffle-plane ablation: CloudSort-style virtual sort ==");
    println!(
        "   ({} GB logical, {} maps x {} MB, {} reducers, {} containers)\n",
        cfg.logical_bytes / 1_000_000_000,
        cfg.maps,
        cfg.bytes_per_map() / 1_000_000,
        cfg.reducers,
        platform(cfg.maps).cluster_containers
    );

    let arms = [
        run_arm(
            "whole-object",
            args.seed,
            cfg,
            ShufflePlane::WholeObject,
            ExchangeMode::Cos,
        ),
        run_arm(
            "partitioned",
            args.seed,
            cfg,
            ShufflePlane::Partitioned,
            ExchangeMode::Cos,
        ),
        run_arm(
            "relay",
            args.seed,
            cfg,
            ShufflePlane::Partitioned,
            ExchangeMode::Relay,
        ),
    ];

    let mut table = Table::new(&[
        "Arm",
        "Virtual time",
        "Agent ops",
        "Polling ops",
        "Total COS ops",
        "Relay ops",
    ]);
    for a in &arms {
        table.row(&[
            a.name.to_owned(),
            fmt_secs(a.secs),
            a.ops.agent.total_ops().to_string(),
            a.ops.polling.total_ops().to_string(),
            a.ops.total_ops().to_string(),
            a.relay.total_ops().to_string(),
        ]);
    }
    println!("{table}");

    let (whole, part, relay) = (&arms[0], &arms[1], &arms[2]);
    let time_cut = 100.0 * (1.0 - part.secs / whole.secs);
    let ops_ratio = whole.ops.total_ops() as f64 / part.ops.total_ops() as f64;
    println!(
        "partitioned vs whole-object: {time_cut:.1}% less virtual time, {ops_ratio:.2}x fewer COS ops"
    );
    println!(
        "relay vs partitioned: {} -> {} COS ops ({} relay ops take the data plane off COS)\n",
        part.ops.total_ops(),
        relay.ops.total_ops(),
        relay.relay.total_ops()
    );

    // Identical reducer ranges across arms: the ablation changes the data
    // plane, never the sorted output.
    assert_eq!(
        whole.reports, part.reports,
        "partitioned plane changed the sort output"
    );
    assert_eq!(
        part.reports, relay.reports,
        "relay exchange changed the sort output"
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"logical_bytes\":{},\"maps\":{},\"reducers\":{},\"record_bytes\":{},\"seed\":{},\"smoke\":{},\"arms\":[",
        cfg.logical_bytes, cfg.maps, cfg.reducers, cfg.record_bytes, args.seed, args.smoke
    );
    for (i, a) in arms.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&arm_json(a));
    }
    let _ = write!(
        json,
        "],\"time_reduction_pct\":{time_cut:.1},\"cos_ops_ratio\":{ops_ratio:.2}}}"
    );
    json.push('\n');
    args.write_report("BENCH_shuffle.json", &json);

    // Regression gates, at any scale.
    assert!(
        part.secs < whole.secs,
        "partitioned ({}s) must beat whole-object ({}s)",
        part.secs,
        whole.secs
    );
    assert!(
        part.ops.total_ops() < whole.ops.total_ops(),
        "partitioned ({} COS ops) must be cheaper than whole-object ({})",
        part.ops.total_ops(),
        whole.ops.total_ops()
    );
    assert!(
        relay.ops.total_ops() < part.ops.total_ops(),
        "relay ({} COS ops) must be cheaper than partitioned ({})",
        relay.ops.total_ops(),
        part.ops.total_ops()
    );
    assert!(
        relay.relay.total_ops() > 0,
        "relay arm must actually use the relay tier"
    );
}
