//! Conformance check results and report rendering.
//!
//! Every check the engine runs produces a [`CheckResult`]; the collected
//! [`ConformanceReport`] renders as an aligned terminal table and as
//! JSONL (one object per check plus a trailing summary line) through the
//! same hand-rolled serializer telemetry snapshots use — so CI can
//! archive conformance evidence next to the metrics stream.

use pdac_telemetry::Json;
use std::fmt::Write as _;

/// What kind of guarantee a check enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// Outputs must agree bit for bit (`worst` counts differing elements).
    BitIdentity,
    /// A scalar error metric must stay within `budget`.
    Tolerance,
    /// A sweep metric must be nondecreasing in fault magnitude
    /// (`worst` is the largest observed decrease).
    Monotone,
    /// A boolean structural invariant (`worst` is 0 or 1).
    Invariant,
}

impl CheckKind {
    /// Stable lowercase label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            CheckKind::BitIdentity => "bit-identity",
            CheckKind::Tolerance => "tolerance",
            CheckKind::Monotone => "monotone",
            CheckKind::Invariant => "invariant",
        }
    }
}

/// The outcome of one conformance check.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckResult {
    /// Dotted check name, e.g. `gemm.analog.lut_cache.pdac.bits8`.
    pub name: String,
    /// The guarantee enforced.
    pub kind: CheckKind,
    /// Whether the guarantee held.
    pub passed: bool,
    /// The worst observed value of the check's metric.
    pub worst: f64,
    /// The budget the metric is held against (0 for bit-identity).
    pub budget: f64,
    /// Human-readable context (shapes, drivers, fault magnitudes).
    pub detail: String,
}

impl CheckResult {
    /// One JSONL object for this check.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("check".into(), Json::Str(self.name.clone())),
            ("kind".into(), Json::Str(self.kind.label().into())),
            ("passed".into(), Json::Bool(self.passed)),
            ("worst".into(), Json::Num(self.worst)),
            ("budget".into(), Json::Num(self.budget)),
            ("detail".into(), Json::Str(self.detail.clone())),
        ])
    }
}

/// Every check from one conformance run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConformanceReport {
    /// The individual check outcomes, in execution order.
    pub checks: Vec<CheckResult>,
}

impl ConformanceReport {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Number of failing checks.
    pub fn failures(&self) -> usize {
        self.checks.iter().filter(|c| !c.passed).count()
    }

    /// Appends another batch of checks.
    pub fn extend(&mut self, more: Vec<CheckResult>) {
        self.checks.extend(more);
    }

    /// JSONL: one line per check, then a summary line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for check in &self.checks {
            out.push_str(&check.to_json().render());
            out.push('\n');
        }
        let summary = Json::Obj(vec![
            ("summary".into(), Json::Bool(true)),
            ("checks".into(), Json::Int(self.checks.len() as u64)),
            ("failures".into(), Json::Int(self.failures() as u64)),
            ("passed".into(), Json::Bool(self.passed())),
        ]);
        out.push_str(&summary.render());
        out.push('\n');
        out
    }

    /// Aligned terminal table.
    pub fn render_table(&self) -> String {
        let name_w = self
            .checks
            .iter()
            .map(|c| c.name.len())
            .max()
            .unwrap_or(5)
            .max(5);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<name_w$}  {:<12}  {:<4}  {:>12}  {:>12}",
            "check", "kind", "ok", "worst", "budget"
        );
        for c in &self.checks {
            let _ = writeln!(
                out,
                "{:<name_w$}  {:<12}  {:<4}  {:>12.3e}  {:>12.3e}",
                c.name,
                c.kind.label(),
                if c.passed { "ok" } else { "FAIL" },
                c.worst,
                c.budget,
            );
        }
        let _ = writeln!(
            out,
            "{} checks, {} failures",
            self.checks.len(),
            self.failures()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConformanceReport {
        ConformanceReport {
            checks: vec![
                CheckResult {
                    name: "a.b".into(),
                    kind: CheckKind::BitIdentity,
                    passed: true,
                    worst: 0.0,
                    budget: 0.0,
                    detail: "ok".into(),
                },
                CheckResult {
                    name: "c.d".into(),
                    kind: CheckKind::Tolerance,
                    passed: false,
                    worst: 0.2,
                    budget: 0.1,
                    detail: "over".into(),
                },
            ],
        }
    }

    #[test]
    fn pass_fail_aggregation() {
        let r = sample();
        assert!(!r.passed());
        assert_eq!(r.failures(), 1);
        assert!(ConformanceReport::default().passed());
    }

    #[test]
    fn jsonl_is_parseable_and_has_summary() {
        let text = sample().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            pdac_telemetry::json::parse(line).expect("every line parses");
        }
        let summary = pdac_telemetry::json::parse(lines[2]).unwrap();
        assert_eq!(summary.get("checks").and_then(Json::as_u64), Some(2));
        assert_eq!(summary.get("failures").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn table_marks_failures() {
        let table = sample().render_table();
        assert!(table.contains("FAIL"));
        assert!(table.contains("2 checks, 1 failures"));
    }
}
