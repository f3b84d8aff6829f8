//! `bench-gate`: benchmark regression gate over `BENCH_*.json` pairs.
//!
//! ```text
//! bench_gate <baseline.json> <fresh.json> [<baseline.json> <fresh.json> ...]
//! ```
//!
//! Compares each fresh document against its checked-in baseline with
//! [`pdac_bench::gate`] and exits nonzero on any regression, or when a
//! fresh document's top-level identity (bench, driver, bits, threads,
//! shape) differs from its baseline's. CI runs it
//! on the four documents in `crates/bench/baselines/`: decode speedups,
//! GEMM kernel ratios, the per-step overheads of tracing, the sentinel
//! and the energy meter, and the paged-KV sharing ratios. A ratio
//! metric (`speedup`, `*_over_*`) may fall `TOL` below its baseline,
//! and an `*overhead*` fraction may rise `SLACK` above it.

use pdac_bench::gate::gate;

/// Relative drop allowed on ratio metrics.
const TOL: f64 = 0.35;
/// Absolute rise allowed on overhead fractions.
const SLACK: f64 = 0.04;

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
    let mut failed = false;
    for pair in args.chunks(2) {
        let (base_path, fresh_path) = (&pair[0], &pair[1]);
        println!("bench-gate: {base_path} vs {fresh_path} (tol {TOL}, slack {SLACK})");
        let report = gate(&load(base_path), &load(fresh_path), TOL, SLACK);
        for mismatch in &report.mismatched {
            println!("  FAIL   not comparable, top-level {}", mismatch.render());
        }
        for check in &report.checks {
            println!("  {}", check.render());
        }
        for id in &report.missing {
            println!("  FAIL   missing record in fresh output: {id}");
        }
        if report.pass() && report.checks.is_empty() {
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
