//! Benchmark regression gate: compares a fresh `BENCH_*.json` document
//! against a checked-in baseline and fails on regressions.
//!
//! Absolute timings are machine-specific, so the gate only inspects
//! **machine-relative** metrics inside each `results` record:
//!
//! * higher-is-better ratios — fields named `speedup` or containing
//!   `_over_` — must not fall below `baseline × (1 − tol)`;
//! * lower-is-better fractions — fields containing `overhead` — must
//!   not exceed `baseline + slack` (absolute slack, since overheads
//!   hover near zero and a relative band would be meaningless there).
//!
//! One identity rule holds at both levels of a document: its identity
//! fields are every string field and every integer field that is not a
//! measurement (bench, driver, bits, threads, backend, batch, shape, …).
//! A fresh document whose top-level identity differs from its
//! baseline's is not compared at all: the gate fails naming each
//! differing field, since a ratio means something only at the
//! configuration it was measured in. Records are matched across
//! documents by their identity; a baseline record with no fresh
//! counterpart is itself a failure — silently dropping a configuration
//! is how regressions hide.

use pdac_telemetry::Json;

/// Outcome of one gated metric comparison.
#[derive(Debug, Clone)]
pub struct GateCheck {
    /// Identity of the record (e.g. `backend=pdac batch=8`).
    pub record: String,
    /// The gated metric's field name.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// The bound the fresh value was held to.
    pub bound: f64,
    /// Whether the fresh value is within the bound.
    pub pass: bool,
}

impl GateCheck {
    /// One fixed-width report line.
    pub fn render(&self) -> String {
        format!(
            "{:<6} {:<40} {:<24} base {:>10.4} fresh {:>10.4} bound {:>10.4}",
            if self.pass { "ok" } else { "FAIL" },
            self.record,
            self.metric,
            self.baseline,
            self.fresh,
            self.bound,
        )
    }
}

/// A top-level identity field whose value differs between a baseline
/// and a fresh document (`None`: the document lacks the field).
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// The field's name.
    pub field: String,
    /// Its value in the baseline.
    pub baseline: Option<String>,
    /// Its value in the fresh document.
    pub fresh: Option<String>,
}

impl Mismatch {
    /// One report line: the field and both values.
    pub fn render(&self) -> String {
        let show = |v: &Option<String>| v.clone().unwrap_or_else(|| "absent".into());
        format!(
            "{}: baseline {}, fresh {}",
            self.field,
            show(&self.baseline),
            show(&self.fresh)
        )
    }
}

/// A full gate run over one baseline/fresh document pair.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Top-level identity fields that differ; when any does, no record
    /// is compared.
    pub mismatched: Vec<Mismatch>,
    /// Per-metric comparisons, in baseline order.
    pub checks: Vec<GateCheck>,
    /// Baseline records that have no identity match in the fresh doc.
    pub missing: Vec<String>,
}

impl GateReport {
    /// True when the documents share their identity, every check passed
    /// and no record went missing.
    pub fn pass(&self) -> bool {
        self.mismatched.is_empty() && self.missing.is_empty() && self.checks.iter().all(|c| c.pass)
    }
}

/// Is this field a gated higher-is-better ratio?
fn is_ratio(key: &str) -> bool {
    key == "speedup" || key.contains("_over_")
}

/// Is this field a gated lower-is-better fraction?
fn is_overhead(key: &str) -> bool {
    key.contains("overhead")
}

/// Is this field a measured value rather than part of the record's
/// identity? Gated metrics plus anything in seconds / per-second. This
/// matters because the hand-rolled parser reads an integral float
/// (`"elapsed_s": 3`) back as an integer, which would otherwise land in
/// the identity and break cross-document matching.
fn is_measurement(key: &str) -> bool {
    is_ratio(key) || is_overhead(key) || key.ends_with("_s") || key.ends_with("_per_s")
}

/// The identity fields of a document or record: every string field
/// plus every non-measurement integer field, as `(key, value)` in
/// document order.
fn identity_fields(object: &Json) -> Vec<(&str, String)> {
    let Json::Obj(fields) = object else {
        return Vec::new();
    };
    fields
        .iter()
        .filter_map(|(key, value)| match value {
            Json::Str(s) => Some((key.as_str(), s.clone())),
            Json::Int(i) if !is_measurement(key) => Some((key.as_str(), i.to_string())),
            _ => None,
        })
        .collect()
}

/// The identity of a `results` record, rendered `key=value`.
fn identity(record: &Json) -> String {
    if !matches!(record, Json::Obj(_)) {
        return String::from("<non-object>");
    }
    let parts: Vec<String> = identity_fields(record)
        .into_iter()
        .map(|(key, value)| format!("{key}={value}"))
        .collect();
    parts.join(" ")
}

/// The top-level identity fields whose values differ: the baseline's in
/// its order, then those only the fresh document has.
fn mismatches(baseline: &Json, fresh: &Json) -> Vec<Mismatch> {
    let (base, new) = (identity_fields(baseline), identity_fields(fresh));
    let value = |fields: &[(&str, String)], key: &str| {
        fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    };
    let only_fresh = new.iter().filter(|(k, _)| value(&base, k).is_none());
    base.iter()
        .chain(only_fresh)
        .filter_map(|&(key, _)| {
            let (baseline, fresh) = (value(&base, key), value(&new, key));
            (baseline != fresh).then(|| Mismatch {
                field: key.to_string(),
                baseline,
                fresh,
            })
        })
        .collect()
}

fn results(doc: &Json) -> &[Json] {
    doc.get("results")
        .and_then(Json::as_arr)
        .unwrap_or_default()
}

/// Compare `fresh` against `baseline`.
///
/// `tol` is the relative drop allowed on ratio metrics (0.35 ⇒ fresh may
/// be 35% below baseline); `slack` the absolute rise allowed on overhead
/// fractions. Documents whose top-level identities differ are not
/// compared: the report lists the [`Mismatch`]es and fails.
pub fn gate(baseline: &Json, fresh: &Json, tol: f64, slack: f64) -> GateReport {
    let mismatched = mismatches(baseline, fresh);
    if !mismatched.is_empty() {
        return GateReport {
            mismatched,
            checks: Vec::new(),
            missing: Vec::new(),
        };
    }
    let mut checks = Vec::new();
    let mut missing = Vec::new();
    let fresh_records = results(fresh);
    for base_record in results(baseline) {
        let id = identity(base_record);
        let Some(fresh_record) = fresh_records.iter().find(|r| identity(r) == id) else {
            missing.push(id);
            continue;
        };
        let Json::Obj(fields) = base_record else {
            continue;
        };
        for (key, value) in fields {
            let Some(base) = value.as_f64() else {
                continue;
            };
            let Some(fresh_value) = fresh_record.get(key).and_then(Json::as_f64) else {
                // A gated metric vanished from the fresh record.
                if is_ratio(key) || is_overhead(key) {
                    checks.push(GateCheck {
                        record: id.clone(),
                        metric: key.clone(),
                        baseline: base,
                        fresh: f64::NAN,
                        bound: f64::NAN,
                        pass: false,
                    });
                }
                continue;
            };
            if is_ratio(key) {
                let bound = base * (1.0 - tol);
                checks.push(GateCheck {
                    record: id.clone(),
                    metric: key.clone(),
                    baseline: base,
                    fresh: fresh_value,
                    bound,
                    pass: fresh_value >= bound,
                });
            } else if is_overhead(key) {
                let bound = base + slack;
                checks.push(GateCheck {
                    record: id.clone(),
                    metric: key.clone(),
                    baseline: base,
                    fresh: fresh_value,
                    bound,
                    pass: fresh_value <= bound,
                });
            }
        }
    }
    GateReport {
        mismatched,
        checks,
        missing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(speedup: f64, overhead: f64) -> Json {
        pdac_telemetry::json::parse(&format!(
            r#"{{"bench":"t","results":[
                {{"backend":"pdac","batch":8,"elapsed_s":1.0,
                  "speedup":{speedup},"trace_overhead":{overhead}}}
            ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_docs_pass() {
        let base = doc(5.0, 0.02);
        let report = gate(&base, &base, 0.25, 0.03);
        assert!(report.pass());
        assert_eq!(report.checks.len(), 2); // speedup + trace_overhead
        assert!(report.missing.is_empty());
    }

    #[test]
    fn speedup_regression_fails_but_tolerance_band_holds() {
        let base = doc(5.0, 0.02);
        // 10% drop within a 25% band: fine.
        assert!(gate(&base, &doc(4.5, 0.02), 0.25, 0.03).pass());
        // 50% drop: regression.
        let report = gate(&base, &doc(2.5, 0.02), 0.25, 0.03);
        assert!(!report.pass());
        let failed: Vec<_> = report.checks.iter().filter(|c| !c.pass).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].metric, "speedup");
    }

    #[test]
    fn overhead_uses_absolute_slack() {
        let base = doc(5.0, 0.02);
        assert!(gate(&base, &doc(5.0, 0.04), 0.25, 0.03).pass());
        assert!(!gate(&base, &doc(5.0, 0.08), 0.25, 0.03).pass());
    }

    #[test]
    fn absolute_timings_are_not_gated() {
        let base = doc(5.0, 0.02);
        // elapsed_s differs wildly — irrelevant, machine-specific.
        let fresh = pdac_telemetry::json::parse(
            r#"{"bench":"t","results":[
                {"backend":"pdac","batch":8,"elapsed_s":99.0,
                 "speedup":5.0,"trace_overhead":0.02}
            ]}"#,
        )
        .unwrap();
        assert!(gate(&base, &fresh, 0.25, 0.03).pass());
    }

    #[test]
    fn missing_record_fails() {
        let base = doc(5.0, 0.02);
        let fresh = pdac_telemetry::json::parse(
            r#"{"bench":"t","results":[
                {"backend":"exact","batch":8,"speedup":5.0,"trace_overhead":0.02}
            ]}"#,
        )
        .unwrap();
        let report = gate(&base, &fresh, 0.25, 0.03);
        assert!(!report.pass());
        assert_eq!(report.missing.len(), 1);
        assert!(report.missing[0].contains("backend=pdac"));
    }

    #[test]
    fn top_level_identity_mismatch_fails_naming_the_field() {
        let at = |threads: u64| {
            pdac_telemetry::json::parse(&format!(
                r#"{{"bench":"t","threads":{threads},"results":[
                    {{"size":64,"speedup":5.0}}
                ]}}"#
            ))
            .unwrap()
        };
        assert!(gate(&at(1), &at(1), 0.25, 0.03).pass());
        // Same ratios, different thread count: not comparable.
        let report = gate(&at(1), &at(2), 0.25, 0.03);
        assert!(!report.pass());
        assert!(report.checks.is_empty());
        assert_eq!(
            report.mismatched,
            vec![Mismatch {
                field: "threads".into(),
                baseline: Some("1".into()),
                fresh: Some("2".into()),
            }]
        );
        assert_eq!(
            report.mismatched[0].render(),
            "threads: baseline 1, fresh 2"
        );
        // A field on one side only differs too.
        let report = gate(&at(1), &doc(5.0, 0.02), 0.25, 0.03);
        assert_eq!(
            report.mismatched[0].render(),
            "threads: baseline 1, fresh absent"
        );
    }

    #[test]
    fn missing_gated_metric_fails() {
        let base = doc(5.0, 0.02);
        let fresh = pdac_telemetry::json::parse(
            r#"{"bench":"t","results":[
                {"backend":"pdac","batch":8,"elapsed_s":1.0,"speedup":5.0}
            ]}"#,
        )
        .unwrap();
        let report = gate(&base, &fresh, 0.25, 0.03);
        assert!(!report.pass());
        assert!(report
            .checks
            .iter()
            .any(|c| c.metric == "trace_overhead" && !c.pass));
    }
}
