//! Data-path ablation — hot-path COS round-trip elimination.
//!
//! A 1,000-task small-input map job runs under four data-path arms:
//! baseline (every round trip, the seed framework's data path), inline
//! payloads, inline + warm-container blob cache, and all three (adding
//! batched dep-watching, which engages in the reduce phase). A separate
//! map_reduce job isolates the dep-watch effect: one reducer watching
//! hundreds of maps with per-key probes vs one batched LIST per tick.
//!
//! Prints the comparison tables and writes `BENCH_datapath.json` with the
//! virtual times and per-phase COS op counts, then fails (exit 1) unless
//! the fully-optimised arm is strictly faster *and* strictly cheaper than
//! the baseline — the regression gate CI runs in smoke mode.
//!
//! Run: `cargo run --release -p rustwren-bench --bin datapath`

use std::fmt::Write as _;

use rustwren_bench::{fmt_secs, BenchArgs, Table};
use rustwren_core::stats::CosOpStats;
use rustwren_core::{
    DataPathConfig, DataSource, MapReduceOpts, SimCloud, SpawnStrategy, TaskCtx, Value,
};
use rustwren_faas::PlatformConfig;
use rustwren_sim::NetworkProfile;
use rustwren_store::OpCounts;

/// One measured ablation arm.
struct Arm {
    name: &'static str,
    secs: f64,
    ops: CosOpStats,
}

/// Containers well below the task count: activations run in waves over
/// warm containers, the regime where the blob cache engages. The
/// concurrency limit keeps generous headroom so nothing throttles.
fn platform(tasks: usize) -> PlatformConfig {
    PlatformConfig {
        concurrency_limit: tasks + tasks / 10 + 50,
        cluster_containers: (tasks / 4).max(10),
        ..PlatformConfig::default()
    }
}

fn build_cloud(seed: u64, tasks: usize) -> SimCloud {
    // The paper's setting: the client drives the job from outside the cloud,
    // so every staging PUT and gather GET pays a WAN round trip. That is the
    // regime where eliminating client↔COS round trips matters most.
    let cloud = SimCloud::builder()
        .seed(seed)
        .platform(platform(tasks))
        .client_network(NetworkProfile::wan())
        .build();
    cloud.register_fn("add7", |_ctx: &TaskCtx, v: Value| {
        Ok(Value::Int(v.as_i64().ok_or("int")? + 7))
    });
    cloud.register_fn("sum", |_ctx: &TaskCtx, v: Value| {
        let total: i64 = v
            .req_list("results")?
            .iter()
            .filter_map(Value::as_i64)
            .sum();
        Ok(Value::Int(total))
    });
    cloud
}

/// Runs the ablation's map job under one data-path arm. Every arm
/// tree-spawns its invocations (`SpawnStrategy::massive`), so submission
/// cost is identical across arms and only the data path varies.
fn run_map_arm(name: &'static str, seed: u64, tasks: usize, dp: DataPathConfig) -> Arm {
    let cloud = build_cloud(seed, tasks);
    let cloud2 = cloud.clone();
    let (secs, ops) = cloud.run(move || {
        let t0 = rustwren_sim::now().as_nanos();
        let exec = cloud2
            .executor()
            .data_path(dp)
            .spawn(SpawnStrategy::massive())
            .build()
            .expect("executor");
        exec.map("add7", (0..tasks as i64).map(Value::from))
            .expect("map");
        exec.get_result().expect("results");
        let secs = (rustwren_sim::now().as_nanos() - t0) as f64 / 1e9;
        (secs, exec.cos_op_stats())
    });
    Arm { name, secs, ops }
}

/// Runs the dep-watch job (maps + one reducer) under one arm.
fn run_reduce_arm(name: &'static str, seed: u64, tasks: usize, dp: DataPathConfig) -> Arm {
    let cloud = build_cloud(seed, tasks);
    let cloud2 = cloud.clone();
    let (secs, ops) = cloud.run(move || {
        let t0 = rustwren_sim::now().as_nanos();
        let exec = cloud2
            .executor()
            .data_path(dp)
            .spawn(SpawnStrategy::massive())
            .build()
            .expect("executor");
        exec.map_reduce(
            "add7",
            DataSource::Values((0..tasks as i64).map(Value::from).collect()),
            "sum",
            MapReduceOpts::default(),
        )
        .expect("map_reduce");
        exec.get_result().expect("results");
        let secs = (rustwren_sim::now().as_nanos() - t0) as f64 / 1e9;
        (secs, exec.cos_op_stats())
    });
    Arm { name, secs, ops }
}

fn ops_json(o: OpCounts) -> String {
    format!(
        "{{\"gets\":{},\"puts\":{},\"lists\":{},\"heads\":{},\"deletes\":{},\"bytes_in\":{},\"bytes_out\":{}}}",
        o.gets, o.puts, o.lists, o.heads, o.deletes, o.bytes_in, o.bytes_out
    )
}

fn arm_json(a: &Arm) -> String {
    format!(
        "{{\"name\":\"{}\",\"virtual_secs\":{:.3},\"staging\":{},\"polling\":{},\"agent\":{},\"total_ops\":{},\"total_bytes\":{}}}",
        a.name,
        a.secs,
        ops_json(a.ops.staging),
        ops_json(a.ops.polling),
        ops_json(a.ops.agent),
        a.ops.total_ops(),
        a.ops.total_bytes()
    )
}

fn arm_row(table: &mut Table, a: &Arm) {
    table.row(&[
        a.name.to_owned(),
        fmt_secs(a.secs),
        a.ops.staging.total_ops().to_string(),
        a.ops.polling.total_ops().to_string(),
        a.ops.agent.total_ops().to_string(),
        a.ops.total_ops().to_string(),
    ]);
}

fn main() {
    let args = BenchArgs::parse();
    let n = args.scaled(1_000, 120);
    let n_reduce = args.scaled(300, 40);

    println!("== Data-path ablation: COS round trips per phase ==");
    println!(
        "   ({n}-task small-input map, {} containers)\n",
        platform(n).cluster_containers
    );

    let inline_only = DataPathConfig {
        inline_input_max_bytes: DataPathConfig::DEFAULT_INLINE_MAX_BYTES,
        ..DataPathConfig::staged()
    };
    let inline_cache = DataPathConfig {
        batched_dep_watch: false,
        ..DataPathConfig::default()
    };
    let arms = [
        run_map_arm("baseline", args.seed, n, DataPathConfig::staged()),
        run_map_arm("inline", args.seed, n, inline_only.clone()),
        run_map_arm("inline+cache", args.seed, n, inline_cache.clone()),
        run_map_arm("all-three", args.seed, n, DataPathConfig::default()),
    ];

    let mut table = Table::new(&[
        "Arm",
        "Virtual time",
        "Staging ops",
        "Polling ops",
        "Agent ops",
        "Total ops",
    ]);
    for a in &arms {
        arm_row(&mut table, a);
    }
    println!("{table}");

    let base = &arms[0];
    let best = &arms[3];
    let time_cut = 100.0 * (1.0 - best.secs / base.secs);
    let ops_ratio = base.ops.total_ops() as f64 / best.ops.total_ops() as f64;
    println!(
        "all-three vs baseline: {time_cut:.1}% less virtual time, {ops_ratio:.2}x fewer COS ops\n"
    );

    println!("== Dep-watch: one reducer over {n_reduce} maps ==\n");
    let watch_arms = [
        run_reduce_arm("per-key probes", args.seed, n_reduce, inline_cache),
        run_reduce_arm(
            "batched LIST",
            args.seed,
            n_reduce,
            DataPathConfig::default(),
        ),
    ];
    let mut watch_table = Table::new(&[
        "Arm",
        "Virtual time",
        "Staging ops",
        "Polling ops",
        "Agent ops",
        "Total ops",
    ]);
    for a in &watch_arms {
        arm_row(&mut watch_table, a);
    }
    println!("{watch_table}");

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"tasks\":{n},\"seed\":{},\"smoke\":{},\"arms\":[",
        args.seed, args.smoke
    );
    for (i, a) in arms.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&arm_json(a));
    }
    let _ = write!(
        json,
        "],\"time_reduction_pct\":{time_cut:.1},\"ops_ratio\":{ops_ratio:.2},\"dep_watch\":{{\"tasks\":{n_reduce},\"arms\":["
    );
    for (i, a) in watch_arms.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&arm_json(a));
    }
    json.push_str("]}}\n");
    args.write_report("BENCH_datapath.json", &json);

    // Regression gate: the optimised data path must be strictly faster and
    // strictly cheaper than the baseline, at any scale.
    assert!(
        best.secs < base.secs,
        "all-three ({}s) must beat baseline ({}s)",
        best.secs,
        base.secs
    );
    assert!(
        best.ops.total_ops() < base.ops.total_ops(),
        "all-three ({} ops) must be cheaper than baseline ({} ops)",
        best.ops.total_ops(),
        base.ops.total_ops()
    );
    assert!(
        watch_arms[1].ops.total_ops() < watch_arms[0].ops.total_ops(),
        "batched dep-watch must be cheaper than per-key probes"
    );
}
