//! The committed `BENCH_*.json` reports are the numbers the README and
//! EXPERIMENTS tables quote, so every one must come from a full-scale run.
//! Smoke runs write under `target/bench/` instead of the repository root.

use std::path::Path;

#[test]
fn committed_bench_reports_are_full_scale() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut reports = Vec::new();
    for entry in std::fs::read_dir(root).expect("reading the repository root") {
        let path = entry.expect("reading a directory entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            let json = std::fs::read_to_string(&path).expect("reading a bench report");
            let compact: String = json.split_whitespace().collect();
            assert!(
                compact.contains("\"smoke\":false") && !compact.contains("\"smoke\":true"),
                "{name} is not a full-scale report (regenerate it without --smoke)"
            );
            reports.push(name);
        }
    }
    reports.sort();
    assert_eq!(
        reports,
        [
            "BENCH_datapath.json",
            "BENCH_kernel.json",
            "BENCH_serving.json",
            "BENCH_shuffle.json"
        ]
    );
}
