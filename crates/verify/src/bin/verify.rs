//! `verify` — run the full backend × fault conformance matrix.
//!
//! Prints the check table to stdout, writes the JSONL conformance
//! report plus a final telemetry snapshot to `target/verify_report.jsonl`
//! (another path with `PDAC_VERIFY_OUT`; `-` skips the file), and exits
//! nonzero if any check fails. The run uses the default
//! [`ConformanceConfig`], whose fixed seed makes every failure reproduce
//! exactly: two runs write the same report but for the snapshot line,
//! which holds wall-clock histograms.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

use pdac_verify::conformance::{run_full, ConformanceConfig};

fn main() -> ExitCode {
    pdac_telemetry::enable();

    let report = run_full(&ConformanceConfig::default());
    print!("{}", report.render_table());
    for failure in report.checks.iter().filter(|c| !c.passed) {
        eprintln!("verify: FAIL {}: {}", failure.name, failure.detail);
    }

    let out_path =
        std::env::var("PDAC_VERIFY_OUT").unwrap_or_else(|_| "target/verify_report.jsonl".into());
    if out_path != "-" {
        if let Err(err) = write_report(&out_path, &report) {
            eprintln!("verify: cannot write {out_path}: {err}");
            return ExitCode::FAILURE;
        }
        eprintln!("verify: report written to {out_path}");
    }

    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One line per check, a report summary line, then the telemetry
/// snapshot (fault-sweep histograms included) as the final line.
fn write_report(path: &str, report: &pdac_verify::ConformanceReport) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut out = BufWriter::new(File::create(path)?);
    out.write_all(report.to_jsonl().as_bytes())?;
    writeln!(out, "{}", pdac_telemetry::snapshot().to_json())?;
    out.flush()
}
