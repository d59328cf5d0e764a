//! The repository's benchmark: one workload per run, end to end through
//! the public API (executor → faas → store → sim kernel), on two clocks.
//!
//! *Host time* is what it costs to simulate the cloud; it is noisy.
//! *Virtual time* is what the modelled IBM Cloud would take; it is
//! deterministic for a seed, so every repetition of a run must produce the
//! same virtual metrics, and the fingerprint printed with them must match.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload spawn|cloudsort|serving --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` every repetition runs untraced and the last line of
//! standard output is a JSON object with the end-to-end metrics. With
//! `--trace 1`, repetitions alternate untraced and traced: spans around
//! each call into a layer give the per-layer metrics, the difference in
//! wall time is the tracing overhead, and the last traced repetition's
//! spans are written to `target/perfbench/`. A run whose outputs fail a
//! correctness gate exits non-zero and reports no metrics.

mod cloudsort;
mod host;
mod job;
mod measure;
mod serving;
mod spawn;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use measure::{Rep, SimMetrics, Workload};
use rustwren_workloads::cloudsort::CloudSortConfig;
use trace::{Span, Tracer};

/// Timed repetitions per run at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Set-ups per run at least: the median of these is `setup_s`.
const MIN_SETUPS: usize = 15;
/// Serving's virtual horizon.
const SERVING_HORIZON: Duration = Duration::from_secs(2400);

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Clock {
    Host,
    Virtual,
}

/// End-to-end metrics: name, unit, clock.
const END_TO_END: &[(&str, &str, Clock)] = &[
    ("setup_s", "s", Clock::Host),
    ("peak_rss_mb", "MB", Clock::Host),
    ("virtual_s", "s", Clock::Virtual),
    ("latency_p50_ms", "ms", Clock::Virtual),
    ("latency_tail_ms", "ms", Clock::Virtual),
    ("cold_start_rate", "ratio", Clock::Virtual),
    ("success_frac", "ratio", Clock::Virtual),
    ("gb_s", "GB-s", Clock::Virtual),
];

/// Per-layer metrics (layer = crate): name, unit, clock.
const PER_LAYER: &[(&str, &str, Clock)] = &[
    ("sim.wall_s", "s", Clock::Host),
    ("sim.cpu_s", "s", Clock::Host),
    ("sim.activations_per_s", "1/s", Clock::Host),
    ("sim.events", "count", Clock::Virtual),
    ("sim.threads_started", "count", Clock::Virtual),
    ("sim.light_polls", "count", Clock::Virtual),
    ("sim.ns_per_event", "ns", Clock::Host),
    ("sim.sys_cpu_s", "s", Clock::Host),
    ("sim.idle_s", "s", Clock::Host),
    ("store.cos_ops", "count", Clock::Virtual),
    ("store.staging_ops", "count", Clock::Virtual),
    ("store.polling_ops", "count", Clock::Virtual),
    ("store.agent_ops", "count", Clock::Virtual),
    ("store.list_ops", "count", Clock::Virtual),
    ("store.bytes_in", "B", Clock::Virtual),
    ("store.bytes_out", "B", Clock::Virtual),
    ("store.stage_s", "s", Clock::Host),
    ("faas.activations", "count", Clock::Virtual),
    ("faas.cold_starts", "count", Clock::Virtual),
    ("faas.warm_starts", "count", Clock::Virtual),
    ("faas.prewarmed", "count", Clock::Virtual),
    ("faas.queued", "count", Clock::Virtual),
    ("faas.shed", "count", Clock::Virtual),
    ("faas.throttled", "count", Clock::Virtual),
    ("faas.start_delay_p50_ms", "ms", Clock::Virtual),
    ("faas.start_delay_p99_ms", "ms", Clock::Virtual),
    ("faas.warm_pool_s", "s", Clock::Virtual),
    ("faas.blob_cache_hit_ratio", "ratio", Clock::Virtual),
    ("faas.invoke_us_p50", "us", Clock::Host),
    ("faas.invoke_us_p99", "us", Clock::Host),
    ("faas.records_retained", "count", Clock::Virtual),
    ("core.submit_s", "s", Clock::Host),
    ("core.gather_s", "s", Clock::Host),
    ("core.invocation_phase_s", "s", Clock::Virtual),
    ("core.agent_overhead_p50_ms", "ms", Clock::Virtual),
    ("core.discovery_lag_s", "s", Clock::Virtual),
    ("core.recovery_actions", "count", Clock::Virtual),
    ("workloads.calls", "count", Clock::Host),
    ("workloads.user_cpu_s", "s", Clock::Host),
    ("failed_frac", "ratio", Clock::Virtual),
    ("gen_lag_ms", "ms", Clock::Virtual),
    ("trace.spans", "count", Clock::Host),
    ("trace.overhead_s", "s", Clock::Host),
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut it = args.into_iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad(&"not a duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    value: f64,
    /// Measurements behind the value: repetitions for host medians,
    /// requests for latency percentiles, 1 for deterministic outputs.
    samples: usize,
}

/// What one run reports.
#[derive(Debug)]
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    fingerprint: u64,
    reps: usize,
    traced_reps: usize,
    setups: usize,
    /// The last traced repetition's spans.
    spans: Vec<Span>,
    /// Deterministic outputs, for the model-accuracy lines.
    sim: SimMetrics,
    /// Host wall and CPU seconds of each untraced repetition, in order.
    rep_host: Vec<(f64, f64)>,
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a over every deterministic output, by name and exact bits.
fn fingerprint(sim: &SimMetrics) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, value) in sim {
        for b in name.bytes().chain(value.to_bits().to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One timed repetition with its fresh set-up.
struct Done {
    rep: Rep,
    setup_s: f64,
    spans: Option<Vec<Span>>,
}

fn repetition<W: Workload>(w: &W, index: u64, traced: bool) -> Result<Done, String> {
    let tracer = traced.then(|| Arc::new(Tracer::default()));
    let t = tracer.as_deref();
    let setup_span = t.map(|t| t.open("setup", 0, index));
    let setup_parent = setup_span.as_ref().map_or(0, trace::Open::id);
    let started = Instant::now();
    let prepared = w.setup(t, setup_parent)?;
    let setup_s = started.elapsed().as_secs_f64();
    if let (Some(t), Some(s)) = (t, setup_span) {
        t.close(s, 0, 0);
    }
    let run_span = t.map(|t| t.open("run", 0, index));
    let run_parent = run_span.as_ref().map_or(0, trace::Open::id);
    let rep = w.run(prepared, tracer.as_ref(), run_parent)?;
    if let (Some(t), Some(s)) = (t, run_span) {
        t.close(s, 0, 0);
    }
    Ok(Done {
        rep,
        setup_s,
        spans: tracer.map(|t| t.spans()),
    })
}

/// Host-side per-layer values from one traced repetition's spans.
fn span_metrics(spans: &[Span]) -> SimMetrics {
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .fold(0.0, |a, b| a + b)
    };
    let invokes = measure::sorted(
        spans
            .iter()
            .filter(|s| s.name == "faas.invoke_in")
            .map(|s| s.secs() * 1e6)
            .collect(),
    );
    let calls: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == trace::USER_CALL)
        .collect();
    SimMetrics::from([
        ("store.stage_s", total("store.stage")),
        ("core.submit_s", total("core.submit")),
        ("core.gather_s", total("core.gather")),
        ("faas.invoke_us_p50", measure::percentile(&invokes, 0.5)),
        (
            "faas.invoke_us_p99",
            measure::percentile(&invokes, measure::tail_quantile(invokes.len())),
        ),
        ("workloads.calls", calls.len() as f64),
        (
            "workloads.user_cpu_s",
            calls.iter().map(|s| s.cpu_ns).sum::<u64>() as f64 / 1e9,
        ),
        ("trace.spans", spans.len() as f64),
    ])
}

/// Runs `w` for `seconds`, alternating untraced and traced repetitions
/// when `traced`, and reduces the repetitions to the run's metrics.
fn measure<W: Workload>(w: &W, seconds: f64, traced: bool) -> Result<Report, String> {
    let started = Instant::now();
    let (mut plain, mut with_trace, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss_mb = 0.0;
    loop {
        let index = (plain.len() + with_trace.len()) as u64;
        let done = repetition(w, index, traced && index % 2 == 1)?;
        if index == 0 {
            // One job in a fresh process: later repetitions would add
            // whatever earlier clouds left allocated.
            peak_rss_mb = host::peak_rss_mb()?;
        }
        setups.push(done.setup_s);
        match done.spans {
            Some(spans) => with_trace.push((done.rep, spans)),
            None => plain.push(done.rep),
        }
        let enough = if traced {
            plain.len() >= 2 && with_trace.len() >= 2
        } else {
            plain.len() >= MIN_REPS
        };
        if enough && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        let t = Instant::now();
        drop(w.setup(None, 0)?);
        setups.push(t.elapsed().as_secs_f64());
    }

    let reps: Vec<&Rep> = plain
        .iter()
        .chain(with_trace.iter().map(|r| &r.0))
        .collect();
    let sim = reps[0].sim.clone();
    let fp = fingerprint(&sim);
    if let Some(other) = reps.iter().find(|r| fingerprint(&r.sim) != fp) {
        let diff: Vec<_> = sim
            .iter()
            .filter(|(k, v)| other.sim.get(*k).map(|o| o.to_bits()) != Some(v.to_bits()))
            .collect();
        return Err(format!(
            "simulation fingerprint differs between repetitions of one run: {diff:?}"
        ));
    }
    let attempted = reps.iter().map(|r| r.attempted).sum();
    let failed = reps.iter().map(|r| r.failed).sum();

    let n = plain.len();
    let host = |f: &dyn Fn(&Rep) -> f64| median(plain.iter().map(f).collect());
    let wall = host(&|r| r.host.wall);
    // Per traced repetition: host values from its spans, plus the virtual
    // values only its registry wrapper could measure.
    let layer: Vec<SimMetrics> = with_trace
        .iter()
        .map(|(rep, spans)| {
            let mut m = span_metrics(spans);
            m.extend(rep.traced.iter().map(|(k, v)| (*k, *v)));
            m
        })
        .collect();
    let catalog = if traced { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(catalog.len());
    for &(name, unit, clock) in catalog {
        let (value, samples) = match name {
            "setup_s" => (median(setups.clone()), setups.len()),
            "peak_rss_mb" => (peak_rss_mb, 1),
            "latency_p50_ms" | "latency_tail_ms" => (sim[name], reps[0].latency_samples),
            // Process-wide host clocks need no spans: take them from the
            // untraced repetitions, which tracing does not inflate.
            "sim.wall_s" => (wall, n),
            "sim.cpu_s" => (host(&|r| r.host.cpu.total()), n),
            "sim.activations_per_s" => (host(&|r| r.sim["faas.activations"] / r.host.wall), n),
            "sim.ns_per_event" => (
                host(&|r| r.host.cpu.total() * 1e9 / r.sim["sim.events"].max(1.0)),
                n,
            ),
            "sim.sys_cpu_s" => (host(&|r| r.host.cpu.sys), n),
            "sim.idle_s" => (host(&|r| r.host.wall - r.host.cpu.total()), n),
            "trace.overhead_s" => (
                median(with_trace.iter().map(|(r, _)| r.host.wall).collect()) - wall,
                with_trace.len(),
            ),
            _ => match sim.get(name) {
                Some(v) => (*v, 1),
                None if layer.first().is_some_and(|m| m.contains_key(name)) => {
                    (median(layer.iter().map(|m| m[name]).collect()), layer.len())
                }
                None => return Err(format!("metric {name} was not measured")),
            },
        };
        metrics.push(Metric {
            name,
            unit,
            clock,
            value,
            samples,
        });
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite: {}", m.name, m.value));
    }
    Ok(Report {
        metrics,
        attempted,
        failed,
        fingerprint: fp,
        reps: n,
        traced_reps: with_trace.len(),
        setups: setups.len(),
        rep_host: plain
            .iter()
            .map(|r| (r.host.wall, r.host.cpu.total()))
            .collect(),
        spans: with_trace.pop().map(|(_, s)| s).unwrap_or_default(),
        sim,
    })
}

/// The last line of standard output.
fn json_line(r: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.attempted, r.failed
    );
    for (i, m) in r.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Host time per span name, total and self, for the traced repetition.
fn span_summary(spans: &[Span]) -> String {
    let selfs = trace::self_times(spans);
    let mut by_name: std::collections::BTreeMap<&str, (usize, u64, u64)> = Default::default();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += selfs[&s.id];
    }
    let mut out = String::from("span                     count     total_s      self_s\n");
    for (name, (count, total, own)) in by_name {
        let _ = writeln!(
            out,
            "{name:<24} {count:>5} {:>11.6} {:>11.6}",
            total as f64 / 1e9,
            own as f64 / 1e9
        );
    }
    out
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "spawn" => measure(
            &spawn::Spawn::new(args.seed, 1_000),
            args.seconds,
            args.trace,
        ),
        "cloudsort" => measure(
            &cloudsort::CloudSort::new(CloudSortConfig::full(args.seed)),
            args.seconds,
            args.trace,
        ),
        "serving" => measure(
            &serving::Serving::new(args.seed, SERVING_HORIZON),
            args.seconds,
            args.trace,
        ),
        other => Err(format!(
            "unknown workload {other} (expected spawn, cloudsort or serving)"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    // Before any thread starts, so every simulated thread inherits it.
    let cpu = match host::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("perfbench: pinning to one CPU: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", args.workload, args.seed);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perfbench {} seed={} reps={} traced_reps={} setups={} pinned to cpu {cpu} of {parallelism}",
        args.workload, args.seed, report.reps, report.traced_reps, report.setups,
    );
    println!(
        "{:<28} {:>16} {:<6} {:<8} samples",
        "metric", "value", "unit", "clock"
    );
    for m in &report.metrics {
        let clock = match m.clock {
            Clock::Host => "host",
            Clock::Virtual => "virtual",
        };
        println!(
            "{:<28} {:>16.6} {:<6} {:<8} {}",
            m.name, m.value, m.unit, clock, m.samples
        );
    }
    let reps: Vec<String> = report
        .rep_host
        .iter()
        .map(|(w, c)| format!("{w:.3}/{c:.3}"))
        .collect();
    println!("untraced repetitions, wall/cpu s: {}", reps.join(" "));
    println!("fingerprint {:016x}", report.fingerprint);
    if args.workload == "spawn" {
        let err = |got: f64, paper: f64| 100.0 * (got - paper) / paper;
        let inv = report.sim["core.invocation_phase_s"];
        let total = report.sim["virtual_s"];
        let last_end = total - report.sim["core.discovery_lag_s"];
        println!(
            "model vs paper Fig 2 (massive spawning): invocation phase {inv:.2} s vs {} s ({:+.1}%), \
             job with result collection {total:.2} s vs {} s ({:+.1}%), last function ends at {last_end:.2} s",
            spawn::PAPER_INVOCATION_S,
            err(inv, spawn::PAPER_INVOCATION_S),
            spawn::PAPER_TOTAL_S,
            err(total, spawn::PAPER_TOTAL_S),
        );
    }
    if args.trace {
        print!("{}", span_summary(&report.spans));
        let path = format!(
            "target/perfbench/{}-seed{}.trace.json",
            args.workload, args.seed
        );
        let written = std::fs::create_dir_all("target/perfbench")
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&report.spans)));
        match written {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => {
                eprintln!("perfbench: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", json_line(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
    /// which lists one metric object per line.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let field = |line: &str, key: &str| -> Option<String> {
            let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
            Some(rest[..rest.find('"')?].to_owned())
        };
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        text[start..]
            .lines()
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with(']'))
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
            .collect()
    }

    fn catalog(list: &[(&str, &str, Clock)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u, _)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        assert_eq!(declared("end_to_end"), catalog(END_TO_END));
        assert_eq!(declared("per_layer"), catalog(PER_LAYER));
    }

    fn assert_emits(report: &Report, list: &[(&str, &str, Clock)]) {
        let line = json_line(report);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert_eq!(report.metrics.len(), list.len());
        for (m, (name, unit, clock)) in report.metrics.iter().zip(list) {
            assert_eq!((m.name, m.unit, m.clock), (*name, *unit, *clock));
            assert!(m.value.is_finite() && m.samples >= 1, "{m:?}");
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing from {line}"
            );
        }
        assert!(report.attempted >= 1 && report.failed == 0);
    }

    /// Every named metric is emitted with its unit on reduced-size
    /// versions of all three workloads, traced and untraced, and the
    /// fingerprint repeats across runs of one seed.
    fn reduced<W: Workload>(w: &W) {
        let plain = measure(w, 0.0, false).expect("untraced run");
        assert_emits(&plain, END_TO_END);
        assert!(plain.reps >= MIN_REPS && plain.setups >= MIN_SETUPS);
        let traced = measure(w, 0.0, true).expect("traced run");
        assert_emits(&traced, PER_LAYER);
        assert_eq!(plain.fingerprint, traced.fingerprint);
        assert!(!traced.spans.is_empty());
        assert!(trace::chrome_json(&traced.spans).starts_with("{\"traceEvents\":["));
    }

    #[test]
    fn reduced_spawn_emits_every_metric() {
        reduced(&spawn::Spawn::new(5, 20));
    }

    #[test]
    fn reduced_cloudsort_emits_every_metric() {
        reduced(&cloudsort::CloudSort::new(CloudSortConfig::smoke(5)));
    }

    #[test]
    fn reduced_serving_emits_every_metric_and_no_store_traffic() {
        let w = serving::Serving::new(5, Duration::from_secs(120));
        reduced(&w);
        let traced = measure(&w, 0.0, true).expect("traced run");
        for m in traced
            .metrics
            .iter()
            .filter(|m| m.name.starts_with("store."))
        {
            assert_eq!(m.value, 0.0, "{} on serving", m.name);
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let ok = args("--workload spawn --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!(ok.seed, 3);
        assert!(ok.trace);
        assert!(args("--workload spawn --seed 3").is_err());
        assert!(args("--workload spawn --seed x --seconds 1").is_err());
        assert!(args("--workload spawn --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--bogus 1").is_err());
    }
}
