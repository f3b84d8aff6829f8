//! `serve-bench`: an open-loop serving benchmark for `pdac_serve::TokenServer`.
//!
//! ```text
//! serve-bench --workload <name|all> --seed <n> [--seconds 30] [--trace [0|1]]
//!             [--out <dir>] [--smoke]
//! serve-bench compare <dirA> <dirB>
//! ```
//!
//! A run prints one line per metric, `metric <workload> <name> <value>
//! <unit> n=<samples>`, a few `info` lines, and as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Untraced runs
//! report the end-to-end metrics, traced runs the per-layer metrics and a
//! Chrome trace. Results also go to `<out>/<workload>.json` (untraced) or
//! `<out>/<workload>.layers.json` and `<out>/<workload>.trace.json`
//! (traced). See README.md.

mod compare;
mod json;
mod metrics;
mod serve_run;
mod stats;
mod timed;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use json::{obj, Json};
use serve_run::{run, Settings};

/// How long one run takes (`run_seconds` in `BENCHMARK.json`). The
/// workloads' request counts are sized to it, so it is fixed: runs of
/// different lengths would not be comparable. `--seconds` may restate it.
const RUN_SECONDS: &str = "30";

const USAGE: &str = "usage: serve-bench --workload <chat|shared_prefix|long_prompt|all> \
                     --seed <n> [--seconds 30] [--trace [0|1]] [--out <dir>] [--smoke]\n       \
                     serve-bench compare <dirA> <dirB>";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    settings: Settings,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut trace = false;
    let mut smoke = false;
    let mut out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                if value()? != RUN_SECONDS {
                    return Err(format!(
                        "a run lasts {RUN_SECONDS} s; --seconds takes no other value"
                    ));
                }
            }
            "--out" => out = PathBuf::from(value()?),
            "--smoke" => smoke = true,
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    trace = false;
                    it.next();
                }
                Some("1") => {
                    trace = true;
                    it.next();
                }
                _ => trace = true,
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && workload::find(&workload).is_none() {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        settings: Settings {
            seed: seed.ok_or("--seed is required")?,
            trace,
            smoke,
        },
        out,
    })
}

/// The benchmark defines its workload alone: the GEMM engine runs on one
/// thread (`PDAC_THREADS=1`), and no other `PDAC_*` variable may change
/// library behaviour (e.g. `PDAC_SENTINEL_FAILOVER` reroutes decode
/// steps).
fn check_env() -> Result<(), String> {
    for (key, _) in std::env::vars_os() {
        let key = key.to_string_lossy();
        if key.starts_with("PDAC_") && key != "PDAC_THREADS" {
            return Err(format!(
                "{key} is set; unset every PDAC_* variable but PDAC_THREADS"
            ));
        }
    }
    match std::env::var("PDAC_THREADS") {
        Ok(v) if v == "1" => Ok(()),
        _ => Err("PDAC_THREADS must be set to 1".into()),
    }
}

/// `--workload all`: one child process per workload, so peak memory and
/// the process-global energy meter are per workload.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("serve-bench: {e}");
            return ExitCode::from(1);
        }
    };
    let pos = args
        .iter()
        .position(|a| a == "--workload")
        .expect("parsed --workload");
    let mut failed = false;
    for w in workload::workloads() {
        let mut child_args = args.to_vec();
        child_args[pos + 1] = w.name.to_string();
        match std::process::Command::new(&exe).args(&child_args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("serve-bench: workload {} exited with {status}", w.name);
                failed = true;
            }
            Err(e) => {
                eprintln!("serve-bench: workload {}: {e}", w.name);
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn run_one(a: &Args) -> Result<bool, String> {
    let w = workload::find(&a.workload).expect("checked workload");
    let outcome = run(&w, &a.settings)?;
    let correct = outcome.failed == 0;
    for m in &outcome.metrics {
        println!(
            "metric {} {} {} {} n={}",
            w.name, m.name, m.value, m.unit, m.samples
        );
    }
    for (k, v) in &outcome.info {
        println!("info {} {k} {}", w.name, v.render());
    }

    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let s = &a.settings;
    let mut doc = vec![
        ("workload", Json::Str(w.name.into())),
        ("seed", Json::Int(s.seed)),
        ("trace", Json::Bool(s.trace)),
        ("smoke", Json::Bool(s.smoke)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
    ];
    doc.extend(outcome.info.iter().map(|(k, v)| (k.as_str(), v.clone())));
    doc.push(("samples", outcome.samples.clone()));
    doc.push((
        "metrics",
        Json::Obj(
            outcome
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.to_json()))
                .collect(),
        ),
    ));
    let stem = if s.trace {
        format!("{}.layers", w.name)
    } else {
        w.name.to_string()
    };
    let write = |name: String, text: &str| {
        let path = a.out.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(format!("{stem}.json"), &obj(doc).render())?;
    if let Some(trace) = &outcome.trace {
        write(format!("{}.trace.json", w.name), trace)?;
    }

    let metrics = outcome.metrics.iter().map(|m| {
        (
            m.name.clone(),
            obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.into())),
            ]),
        )
    });
    println!(
        "{}",
        obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(outcome.attempted)),
            ("failed", Json::Int(outcome.failed)),
            ("metrics", Json::Obj(metrics.collect())),
        ])
        .render()
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return ExitCode::from(compare::main(&args[1..]) as u8);
    }
    let parsed = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("serve-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_env() {
        eprintln!("serve-bench: {e}");
        return ExitCode::from(2);
    }
    if parsed.workload == "all" {
        return run_all(&args);
    }
    match run_one(&parsed) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("serve-bench: {}: some requests failed", parsed.workload);
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("serve-bench: {}: {e}", parsed.workload);
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_trace_as_value_or_bare_flag() {
        let a = parse_args(&args("--workload chat --seed 3 --seconds 30 --trace 1")).unwrap();
        assert_eq!(a.workload, "chat");
        assert_eq!(a.settings.seed, 3);
        assert!(a.settings.trace);
        let b = parse_args(&args("--trace 0 --workload all --seed 1")).unwrap();
        assert!(!b.settings.trace);
        let c = parse_args(&args("--workload long_prompt --seed 1 --trace --smoke")).unwrap();
        assert!(c.settings.trace && c.settings.smoke);
    }

    #[test]
    fn run_seconds_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            RUN_SECONDS.parse().ok()
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--seed 1",
            "--workload chat",
            "--workload nope --seed 1",
            "--workload chat --seed x",
            "--workload chat --seed 1 --seconds 0",
            "--workload chat --seed 1 --seconds 25",
            "--workload chat --seed 1 --bogus",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
