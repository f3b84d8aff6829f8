//! `serve-bench compare <dirA> <dirB>`: the regression rule applied to two
//! sets of untraced runs, A the baseline and B the candidate.
//!
//! For every (workload, end-to-end metric) it prints each side's median
//! and quartiles, B's change relative to A's median, the metric's bound,
//! the share of run pairs B wins, and a verdict:
//!
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `unresolved` — A's own spread (quartile distance over median) is
//!   wider than the bound, so the runs cannot show a change of that size,
//!   unless every run of B beats every run of A;
//! * `ok` — otherwise.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::quartiles;

/// Metric values of each run, by workload then metric name.
type Runs = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared (workload, metric).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub a: (f64, f64, f64),
    pub b: (f64, f64, f64),
    /// `(median B − median A) / median A`.
    pub delta: f64,
    /// Pairs (i-th run of A, i-th run of B) that B wins; ties count for
    /// neither side.
    pub win_frac: f64,
    pub verdict: Verdict,
}

/// Applies the rule to one metric's values.
///
/// # Panics
///
/// Panics if either side has no values.
pub fn judge(a: &[f64], b: &[f64], metric: &EndToEnd) -> Row {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let better = |x: f64, y: f64| {
        if metric.higher_is_better {
            x > y
        } else {
            x < y
        }
    };
    let base = qa.1.abs().max(f64::MIN_POSITIVE);
    let delta = (qb.1 - qa.1) / base;
    let worse_by = if metric.higher_is_better {
        -delta
    } else {
        delta
    };
    let spread = (qa.2 - qa.0) / base;
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count();
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let verdict = if spread > metric.bound && !all_better {
        Verdict::Unresolved
    } else if spread <= metric.bound && worse_by > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Row {
        a: qa,
        b: qb,
        delta,
        win_frac: wins as f64 / pairs.max(1) as f64,
        verdict,
    }
}

/// Result files of untraced runs under `dir`: `<workload>.json` in the
/// directory itself or in any subdirectory one level down, in path order
/// (so `run01`, `run02`, … pair up across the two sides).
fn load(dir: &Path) -> Result<Runs, String> {
    let mut files = Vec::new();
    let mut scan = |d: &Path, recurse: bool| -> Result<Vec<PathBuf>, String> {
        let mut subdirs = Vec::new();
        for entry in std::fs::read_dir(d).map_err(|e| format!("{}: {e}", d.display()))? {
            let path = entry.map_err(|e| format!("{}: {e}", d.display()))?.path();
            if path.is_dir() && recurse {
                subdirs.push(path);
            } else if path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_suffix(".json"))
                .is_some_and(|stem| crate::workload::find(stem).is_some())
            {
                files.push(path);
            }
        }
        Ok(subdirs)
    };
    for sub in scan(dir, true)? {
        scan(&sub, false)?;
    }
    files.sort();
    let mut runs = Runs::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = crate::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", path.display()))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{}: no metrics", path.display()))?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        runs.entry(workload.to_string()).or_default().push(metrics);
    }
    if runs.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok(runs)
}

fn values(runs: &[BTreeMap<String, f64>], metric: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.get(metric).copied()).collect()
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: serve-bench compare <dirA> <dirB>");
        return 2;
    };
    let (a, b) = match (load(Path::new(a)), load(Path::new(b))) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("serve-bench compare: {e}");
            return 1;
        }
    };
    println!(
        "{:<14} {:<22} {:>32} {:>32} {:>8} {:>6} {:>5} verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound", "win"
    );
    let mut tally = BTreeMap::new();
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else {
            println!("{workload:<14} (no runs in B)");
            continue;
        };
        for metric in &END_TO_END {
            let (va, vb) = (values(runs_a, metric.name), values(runs_b, metric.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let row = judge(&va, &vb, metric);
            let side = |q: (f64, f64, f64)| format!("{:.4} [{:.4}, {:.4}]", q.1, q.0, q.2);
            println!(
                "{workload:<14} {:<22} {:>32} {:>32} {:>+7.2}% {:>5.1}% {:>5.2} {}",
                metric.name,
                side(row.a),
                side(row.b),
                row.delta * 100.0,
                metric.bound * 100.0,
                row.win_frac,
                row.verdict.label()
            );
            *tally.entry(row.verdict.label()).or_insert(0) += 1;
        }
    }
    let summary: Vec<String> = tally.iter().map(|(k, v)| format!("{v} {k}")).collect();
    println!("compare: {}", summary.join(", "));
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "ms",
            higher_is_better: higher,
            bound: 0.10,
        }
    }

    #[test]
    fn equal_runs_are_ok() {
        let a = [10.0, 10.2, 9.9, 10.1, 10.0];
        let row = judge(&a, &a, &metric(false));
        assert_eq!(row.verdict, Verdict::Ok);
        assert_eq!(row.delta, 0.0);
        assert_eq!(row.win_frac, 0.0);
    }

    #[test]
    fn tight_regression_is_worse_in_either_direction() {
        let a = [10.0, 10.2, 9.9, 10.1, 10.0];
        let slow: Vec<f64> = a.iter().map(|v| v * 1.3).collect();
        let row = judge(&a, &slow, &metric(false));
        assert_eq!(row.verdict, Verdict::Worse);
        assert!((row.delta - 0.3).abs() < 1e-9);
        assert_eq!(row.win_frac, 0.0);
        // For a higher-is-better metric the same drop is a regression.
        let low: Vec<f64> = a.iter().map(|v| v * 0.7).collect();
        assert_eq!(judge(&a, &low, &metric(true)).verdict, Verdict::Worse);
        // And the same rise is fine.
        assert_eq!(judge(&a, &slow, &metric(true)).verdict, Verdict::Ok);
        assert_eq!(judge(&a, &slow, &metric(true)).win_frac, 1.0);
    }

    #[test]
    fn small_change_within_bound_is_ok() {
        let a = [10.0, 10.2, 9.9, 10.1, 10.0];
        let b: Vec<f64> = a.iter().map(|v| v * 1.05).collect();
        assert_eq!(judge(&a, &b, &metric(false)).verdict, Verdict::Ok);
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved_unless_b_always_wins() {
        let a = [6.0, 14.0, 8.0, 12.0, 10.0];
        let b = [7.0, 13.0, 9.0, 11.0, 10.5];
        assert_eq!(judge(&a, &b, &metric(false)).verdict, Verdict::Unresolved);
        let fast = [1.0, 1.1, 0.9, 1.0, 1.2];
        let row = judge(&a, &fast, &metric(false));
        assert_eq!(row.verdict, Verdict::Ok);
        assert_eq!(row.win_frac, 1.0);
    }

    #[test]
    fn loads_run_directories_and_compares_them() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("compare-test-{}", std::process::id()));
        for (side, scale) in [("a", 1.0), ("b", 1.5)] {
            for run in 0..3 {
                let dir = root.join(side).join(format!("run{run}"));
                std::fs::create_dir_all(&dir).unwrap();
                let doc = format!(
                    r#"{{"workload":"chat","metrics":{{"setup_s":{{"value":{},"unit":"s"}}}}}}"#,
                    scale * (0.04 + run as f64 * 0.001)
                );
                std::fs::write(dir.join("chat.json"), doc).unwrap();
                std::fs::write(dir.join("chat.trace.json"), "not json").unwrap();
            }
        }
        let a = load(&root.join("a")).unwrap();
        let b = load(&root.join("b")).unwrap();
        assert_eq!(a["chat"].len(), 3);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        let row = judge(
            &values(&a["chat"], "setup_s"),
            &values(&b["chat"], "setup_s"),
            setup,
        );
        assert_eq!(row.verdict, Verdict::Worse);
        assert_eq!(
            main(&[
                root.join("a").display().to_string(),
                root.join("b").display().to_string()
            ]),
            0
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}
