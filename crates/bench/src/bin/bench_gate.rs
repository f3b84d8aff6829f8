//! `bench-gate`: benchmark regression gate over `BENCH_*.json` pairs.
//!
//! ```text
//! bench_gate <baseline.json> <fresh.json> [<baseline.json> <fresh.json> ...]
//! ```
//!
//! Compares each fresh document against its checked-in baseline with
//! [`pdac_bench::gate`] and exits nonzero on any regression — the CI
//! step that keeps the batch-decode speedup and the tracing overhead
//! from silently rotting. Knobs:
//!
//! * `PDAC_GATE_TOL` — relative drop allowed on ratio metrics
//!   (`speedup`, `*_over_*`); default 0.35.
//! * `PDAC_GATE_SLACK` — absolute rise allowed on `*overhead*`
//!   fractions; default 0.04.

use pdac_bench::gate::gate;
use pdac_bench::microbench::env_f64;

fn load(path: &str) -> pdac_telemetry::Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench-gate: cannot read {path}: {e}"));
    pdac_telemetry::json::parse(&text)
        .unwrap_or_else(|e| panic!("bench-gate: {path} is not valid JSON: {e:?}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || !args.len().is_multiple_of(2) {
        eprintln!("usage: bench_gate <baseline.json> <fresh.json> [...more pairs]");
        std::process::exit(2);
    }
    let tol = env_f64("PDAC_GATE_TOL", 0.35);
    let slack = env_f64("PDAC_GATE_SLACK", 0.04);

    let mut failed = false;
    for pair in args.chunks(2) {
        let (base_path, fresh_path) = (&pair[0], &pair[1]);
        println!("bench-gate: {base_path} vs {fresh_path} (tol {tol}, slack {slack})");
        let report = gate(&load(base_path), &load(fresh_path), tol, slack);
        for check in &report.checks {
            println!("  {}", check.render());
        }
        for id in &report.missing {
            println!("  FAIL   missing record in fresh output: {id}");
        }
        if report.checks.is_empty() && report.missing.is_empty() {
            println!("  FAIL   no gated metrics found in baseline");
            failed = true;
        }
        if !report.pass() {
            failed = true;
        }
    }
    if failed {
        eprintln!("bench-gate: FAIL — regression against baseline");
        std::process::exit(1);
    }
    println!("bench-gate: OK");
}
