//! Trace and metrics exporters on the in-tree serializers — zero deps.
//!
//! * [`chrome_trace`] — Chrome-trace-format JSON (`chrome://tracing`,
//!   Perfetto's legacy JSON importer) from a slice of [`SpanEvent`]s.
//! * [`prometheus_text`] — Prometheus text exposition format from a
//!   metrics [`Snapshot`].

use crate::json::Json;
use crate::registry::{Snapshot, SpanEvent};

/// Build a Chrome-trace-format document (the `{"traceEvents": [...]}`
/// object form) from completed span events.
///
/// Events are emitted as complete (`"ph": "X"`) slices with microsecond
/// `ts`/`dur`, sorted so that every parent precedes its children:
/// ascending start time, then *descending* end time (an enclosing span
/// starts no later and ends no earlier than anything it contains), then
/// ascending span id as the tie-break for zero-width spans.
///
/// Span identity travels in `args`: `id`, `parent` (0 = root) and the
/// optional user payload as `arg`, so tooling can rebuild the exact tree
/// without relying on timestamp nesting.
pub fn chrome_trace(events: &[SpanEvent]) -> Json {
    let mut sorted: Vec<&SpanEvent> = events.iter().collect();
    sorted.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then(b.end_ns.cmp(&a.end_ns))
            .then(a.id.cmp(&b.id))
    });
    let trace_events = sorted
        .iter()
        .map(|e| {
            let mut args = vec![
                ("id".into(), Json::Int(e.id)),
                ("parent".into(), Json::Int(e.parent)),
            ];
            if let Some(arg) = e.arg {
                args.push(("arg".into(), Json::Int(arg)));
            }
            Json::Obj(vec![
                ("name".into(), Json::Str(e.name.to_string())),
                ("cat".into(), Json::Str(category(e.name).to_string())),
                ("ph".into(), Json::Str("X".to_string())),
                ("ts".into(), Json::Num(e.start_ns as f64 / 1e3)),
                ("dur".into(), Json::Num(e.elapsed_ns() as f64 / 1e3)),
                ("pid".into(), Json::Int(1)),
                ("tid".into(), Json::Int(e.thread)),
                ("args".into(), Json::Obj(args)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(trace_events)),
        ("displayTimeUnit".into(), Json::Str("ns".to_string())),
    ])
}

/// Serialize [`chrome_trace`] output to a JSON string.
pub fn chrome_trace_string(events: &[SpanEvent]) -> String {
    chrome_trace(events).render()
}

/// The trace category for a span name: its first dot-separated segment
/// (`serve.step` → `serve`), which maps onto the stack's layers
/// (serve / nn / math / accel).
fn category(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Render a metrics snapshot in the Prometheus text exposition format
/// (version 0.0.4): counters and gauges as-is, histograms as cumulative
/// `_bucket` series over the occupied log2 bins (`le` upper bounds in
/// scientific notation, closed by the mandatory `le="+Inf"` = `_count`)
/// plus `_sum`/`_count` and p50/p95/p99 `quantile` convenience series on
/// the bare family name.
///
/// Metric names are sanitized to `[a-zA-Z0-9_]` and prefixed `pdac_`
/// (`serve.ttft` → `pdac_serve_ttft`); each family carries `# HELP`
/// (holding the original dotted registry name) and `# TYPE` comments.
pub fn prometheus_text(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let header = |out: &mut String, name: &str, raw: &str, kind: &str| {
        out.push_str(&format!(
            "# HELP {name} pdac metric {} ({kind})\n# TYPE {name} {kind}\n",
            escape_help(raw)
        ));
    };
    for (raw, v) in &snapshot.counters {
        let name = sanitize(raw);
        header(&mut out, &name, raw, "counter");
        out.push_str(&format!("{name} {v}\n"));
    }
    for (raw, v) in &snapshot.gauges {
        let name = sanitize(raw);
        header(&mut out, &name, raw, "gauge");
        out.push_str(&format!("{name} {v}\n"));
    }
    for h in &snapshot.histograms {
        let name = sanitize(&h.name);
        header(&mut out, &name, &h.name, "histogram");
        for (le, cumulative) in &h.buckets {
            out.push_str(&format!("{name}_bucket{{le=\"{le:e}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        for (q, v) in [(0.5, h.p50), (0.95, h.p95), (0.99, h.p99)] {
            out.push_str(&format!("{name}{{quantile=\"{q}\"}} {v}\n"));
        }
        out.push_str(&format!("{name}_sum {}\n", h.sum));
        out.push_str(&format!("{name}_count {}\n", h.count));
    }
    out
}

/// Escape `# HELP` text: backslash and newline only (quotes are legal).
fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Prometheus-legal metric name: `pdac_` prefix, every run of
/// non-alphanumeric characters collapsed to `_`.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("pdac_");
    let mut last_us = false;
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
            last_us = false;
        } else if !last_us {
            out.push('_');
            last_us = true;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::HistogramSummary;

    fn event(id: u64, parent: u64, start: u64, end: u64) -> SpanEvent {
        SpanEvent {
            name: "serve.step",
            id,
            parent,
            thread: 1,
            start_ns: start,
            end_ns: end,
            depth: 0,
            arg: None,
        }
    }

    #[test]
    fn chrome_trace_orders_parents_before_children() {
        // Child (id 2) dropped before parent (id 1) — ring order is
        // child-first; the export must invert that.
        let events = vec![event(2, 1, 500, 900), event(1, 0, 0, 1000)];
        let doc = chrome_trace(&events);
        let arr = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let ids: Vec<u64> = arr
            .iter()
            .map(|e| {
                e.get("args")
                    .and_then(|a| a.get("id"))
                    .and_then(Json::as_u64)
                    .unwrap()
            })
            .collect();
        assert_eq!(ids, vec![1, 2]);
    }

    /// Minimal exposition parser for the round-trip test: returns
    /// `(types, samples)` where samples are `(name, labels, value)`.
    #[allow(clippy::type_complexity)]
    fn parse_exposition(
        text: &str,
    ) -> (
        Vec<(String, String)>,
        Vec<(String, Vec<(String, String)>, f64)>,
    ) {
        let mut types = Vec::new();
        let mut samples = Vec::new();
        let mut help: Vec<String> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').expect("TYPE name kind");
                // Every TYPE must be preceded by its HELP line.
                assert!(help.iter().any(|h| h == name), "missing # HELP for {name}");
                types.push((name.to_string(), kind.to_string()));
            } else if let Some(rest) = line.strip_prefix("# HELP ") {
                help.push(rest.split_once(' ').expect("HELP name text").0.to_string());
            } else if !line.is_empty() {
                let (series, value) = line.rsplit_once(' ').expect("sample line");
                let (name, labels) = match series.split_once('{') {
                    None => (series.to_string(), Vec::new()),
                    Some((name, rest)) => {
                        // One `k="v"` label per series, with nothing to
                        // unescape.
                        let body = rest.strip_suffix("\"}").expect("closing quote");
                        let (k, v) = body.split_once("=\"").expect("k=\"v\"");
                        (name.to_string(), vec![(k.to_string(), v.to_string())])
                    }
                };
                samples.push((name, labels, value.parse().expect("numeric value")));
            }
        }
        (types, samples)
    }

    #[test]
    fn exposition_round_trips_through_a_parser() {
        let snap = Snapshot {
            counters: vec![("power.budget.exceeded".into(), 3)],
            gauges: vec![("power.compute_w".into(), 12.5)],
            histograms: vec![HistogramSummary {
                name: "serve.energy_per_token_j".into(),
                count: 4,
                sum: 8.0,
                min: 1.0,
                max: 3.0,
                mean: 2.0,
                p50: 2.0,
                p95: 3.0,
                p99: 3.0,
                buckets: vec![(1.0, 1), (2.0, 3), (4.0, 4)],
            }],
        };
        let text = prometheus_text(&snap);
        let (types, samples) = parse_exposition(&text);
        assert_eq!(
            types,
            vec![
                ("pdac_power_budget_exceeded".into(), "counter".into()),
                ("pdac_power_compute_w".into(), "gauge".into()),
                ("pdac_serve_energy_per_token_j".into(), "histogram".into()),
            ]
        );
        // Values survive the round trip exactly.
        let find = |name: &str| samples.iter().find(|(n, ..)| n == name).unwrap();
        assert_eq!(find("pdac_power_budget_exceeded").2, 3.0);
        assert_eq!(find("pdac_power_compute_w").2, 12.5);
        assert_eq!(find("pdac_serve_energy_per_token_j_sum").2, 8.0);
        assert_eq!(find("pdac_serve_energy_per_token_j_count").2, 4.0);
        let quantiles = samples
            .iter()
            .filter(|(n, labels, _)| {
                n == "pdac_serve_energy_per_token_j" && labels.iter().any(|(k, _)| k == "quantile")
            })
            .count();
        assert_eq!(quantiles, 3);
        // Bucket series: every `le` parses (including `+Inf`), bounds
        // ascend, cumulative counts never decrease and close at `_count`.
        let buckets: Vec<(f64, f64)> = samples
            .iter()
            .filter(|(n, ..)| n == "pdac_serve_energy_per_token_j_bucket")
            .map(|(_, labels, v)| {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .expect("bucket carries le")
                    .1
                    .parse::<f64>()
                    .expect("le parses as f64");
                (le, *v)
            })
            .collect();
        assert_eq!(
            buckets,
            vec![(1.0, 1.0), (2.0, 3.0), (4.0, 4.0), (f64::INFINITY, 4.0)]
        );
    }

    #[test]
    fn live_histogram_buckets_round_trip_cumulatively() {
        // Drive a real log2 histogram through the collector so bucket
        // construction (underflow folding, bin upper bounds) is covered
        // end to end, not just the rendering of a hand-built summary.
        let collector = crate::registry::Collector::new();
        for v in [0.0, 0.75, 0.75, 3.0, f64::INFINITY] {
            collector.observe("sentinel.drift", v);
        }
        let text = prometheus_text(&collector.snapshot());
        let (types, samples) = parse_exposition(&text);
        assert_eq!(
            types,
            vec![("pdac_sentinel_drift".into(), "histogram".into())]
        );
        let buckets: Vec<(f64, f64)> = samples
            .iter()
            .filter(|(n, ..)| n == "pdac_sentinel_drift_bucket")
            .map(|(_, labels, v)| (labels[0].1.parse::<f64>().unwrap(), *v))
            .collect();
        // 0.0 underfolds to the lowest bound 2^-64; 0.75 twice in
        // [2^-1, 2^0); 3.0 in [2^1, 2^2); +inf only in le="+Inf".
        assert_eq!(
            buckets,
            vec![
                ((-64f64).exp2(), 1.0),
                (1.0, 3.0),
                (4.0, 4.0),
                (f64::INFINITY, 5.0),
            ]
        );
        // Cumulative closure: the +Inf bucket equals _count.
        let count = samples
            .iter()
            .find(|(n, ..)| n == "pdac_sentinel_drift_count")
            .unwrap()
            .2;
        assert_eq!(count, 5.0);
    }

    #[test]
    fn prometheus_text_sanitizes_and_renders_quantiles() {
        let snap = Snapshot {
            counters: vec![("serve.admitted".into(), 7)],
            gauges: vec![("serve.batch_occupancy".into(), 0.5)],
            histograms: vec![HistogramSummary {
                name: "serve.ttft".into(),
                count: 3,
                sum: 6.0,
                min: 1.0,
                max: 3.0,
                mean: 2.0,
                p50: 2.0,
                p95: 3.0,
                p99: 3.0,
                buckets: vec![(2.0, 1), (4.0, 3)],
            }],
        };
        let text = prometheus_text(&snap);
        assert!(text.contains("# TYPE pdac_serve_admitted counter\npdac_serve_admitted 7\n"));
        assert!(text.contains("# TYPE pdac_serve_batch_occupancy gauge\n"));
        assert!(text.contains("pdac_serve_ttft_bucket{le=\"2e0\"} 1\n"));
        assert!(text.contains("pdac_serve_ttft_bucket{le=\"4e0\"} 3\n"));
        assert!(text.contains("pdac_serve_ttft_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("pdac_serve_ttft{quantile=\"0.5\"} 2\n"));
        assert!(text.contains("pdac_serve_ttft_sum 6\n"));
        assert!(text.contains("pdac_serve_ttft_count 3\n"));
    }
}
