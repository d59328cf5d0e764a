//! Fig 2 — Local invocation vs Massive Function Spawning.
//!
//! 1,000 invocations of a 50-second compute-bound task from a high-latency
//! (WAN) client. The paper reports: local (direct) invocation finishes the
//! invocation phase in 38 s and the whole experiment in 88 s; massive
//! spawning reaches full concurrency in 8 s and finishes in 58 s — a 5×
//! faster invocation phase. The plot is concurrency over time.
//!
//! The paper's totals include collecting the results at the client, so
//! "Total" runs until `get_result` returns; "Result collection" is the
//! part of it after the last function ended.
//!
//! Run: `cargo run --release -p rustwren-bench --bin fig2_spawning`

use rustwren_bench::{ascii_series, fmt_secs, BenchArgs, Table};
use rustwren_core::stats::{concurrency_series, JobReport};
use rustwren_core::{SimCloud, SpawnStrategy};
use rustwren_sim::NetworkProfile;
use rustwren_workloads::compute;

fn main() {
    let args = BenchArgs::parse();
    let n = args.scaled(1_000, 60);

    println!("== Fig 2: local invocation vs massive function spawning ==");
    println!("   ({n} functions x 50s compute, WAN client)\n");

    let mut table = Table::new(&[
        "Strategy",
        "Invocation phase",
        "Paper",
        "Last function ends",
        "Result collection",
        "Total",
        "Paper total",
        "Peak concurrency",
    ]);

    for (label, paper_inv, paper_total, strategy) in [
        (
            "Local (direct from client)",
            "38s",
            "88s",
            SpawnStrategy::Direct { client_threads: 5 },
        ),
        (
            "Massive function spawning",
            "8s",
            "58s",
            SpawnStrategy::massive(),
        ),
    ] {
        // Leave headroom above the 1,000 agents for the invoker functions
        // (the paper's limit was raised when needed).
        let mut platform = rustwren_faas::PlatformConfig::default();
        platform.concurrency_limit = n + n / 10 + 50;
        platform.cluster_containers = platform.concurrency_limit + 200;
        let cloud = SimCloud::builder()
            .seed(args.seed)
            .platform(platform)
            .client_network(NetworkProfile::wan())
            .build();
        compute::register(&cloud);
        let cloud2 = cloud.clone();
        let (t0, done) = cloud.run(move || {
            let t0 = rustwren_sim::now();
            let exec = cloud2.executor().spawn(strategy).build().expect("executor");
            exec.map(compute::COMPUTE_FN, (0..n).map(|_| compute::input(50.0)))
                .expect("map");
            exec.get_result().expect("results");
            (t0, rustwren_sim::now())
        });

        let records: Vec<_> = cloud
            .functions()
            .records()
            .into_iter()
            .filter(|r| r.action.starts_with("rustwren-agent@"))
            .collect();
        let report = JobReport::from_records(&records).expect("agents ran");
        let series = concurrency_series(&records);
        let peak = series.iter().map(|&(_, c)| c).max().unwrap_or(0);

        println!("--- {label} ---");
        println!("{}", ascii_series(&series, 72, 10));
        table.row(&[
            label.to_owned(),
            fmt_secs(report.invocation_phase(t0).as_secs_f64()),
            paper_inv.to_owned(),
            fmt_secs(report.total(t0).as_secs_f64()),
            fmt_secs(done.duration_since(report.last_end).as_secs_f64()),
            fmt_secs(done.duration_since(t0).as_secs_f64()),
            paper_total.to_owned(),
            peak.to_string(),
        ]);
    }
    println!("{table}");
}
