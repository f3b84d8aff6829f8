//! The metric catalog: every name the benchmark reports, with its unit
//! and direction, and for end-to-end metrics the regression bound.
//! `BENCHMARK.json` at the repository root lists the same set; a unit
//! test keeps the two equal.

use crate::json::{obj, Json};
use crate::timed::GemmPhase;

/// An end-to-end metric: what a user of the served system sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// Reported by untraced runs (`--trace 0`). A metric is gated here only
/// if it repeats within its bound between runs of one commit. On a
/// shared 2-vCPU VM, whose speed drifts by tens of percent and at times
/// halves for a whole run, no served timing and not SLO attainment does
/// (README.md), so they are reported with the per-layer metrics instead.
/// `setup_s` is gated regardless, with the largest bound. Modeled energy
/// is the same for every run of a commit, so its bound only has to admit
/// no change.
pub const END_TO_END: [EndToEnd; 3] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("modeled_uj_per_token", "uJ/token", false, 0.01),
    e2e("peak_rss_mib", "MiB", false, 0.10),
];

/// A per-layer metric, reported by traced runs (`--trace 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

fn layer(name: impl Into<String>, unit: &'static str, higher: bool) -> PerLayer {
    PerLayer {
        name: name.into(),
        unit,
        higher_is_better: higher,
    }
}

/// Every per-layer metric for a model of `layers` layers, in report order.
pub fn per_layer(layers: usize) -> Vec<PerLayer> {
    let mut m = vec![
        // What the served system delivers, measured like end-to-end
        // metrics but not gated: none repeats on the reference host.
        layer("tokens_per_s", "tok/s", true),
        layer("ttft_p50_ms", "ms", false),
        layer("ttft_p90_ms", "ms", false),
        layer("itl_p50_ms", "ms", false),
        layer("itl_p90_ms", "ms", false),
        layer("e2e_p50_ms", "ms", false),
        layer("e2e_p90_ms", "ms", false),
        layer("slo_attainment", "fraction", true),
        layer("serve.steps", "count", false),
        layer("serve.fed_tokens", "count", false),
        layer("serve.occupancy_mean", "rows", true),
        layer("serve.step_ms_p50", "ms", false),
        layer("serve.step_ms_p99", "ms", false),
        layer("serve.busy_frac", "fraction", false),
        layer("serve.queue_wait_ms_p50", "ms", false),
        layer("serve.queue_wait_ms_p90", "ms", false),
        layer("serve.prefill_ms_p50", "ms", false),
    ];
    for phase in GemmPhase::ALL {
        let p = phase.label();
        m.push(layer(format!("gemm.{p}.calls"), "count", false));
        m.push(layer(format!("gemm.{p}.gmac"), "GMAC", false));
        m.push(layer(format!("gemm.{p}.ms_per_step"), "ms", false));
        m.push(layer(format!("gemm.{p}.gmac_per_s"), "GMAC/s", true));
    }
    for l in 0..layers {
        m.push(layer(format!("gemm.l{l}.ms_per_step"), "ms", false));
    }
    m.extend([
        layer("step.other_ms_per_step", "ms", false),
        layer("step.other_frac", "fraction", false),
        layer("kv.prefix_hit_ratio", "fraction", true),
        layer("kv.prefix_token_frac", "fraction", true),
        layer("kv.peak_mib", "MiB", false),
        layer("kv.deferred", "count", false),
        layer("kv.evicted_pages", "count", false),
        layer("kv.cow_copies", "count", false),
        layer("kv.over_budget_pages", "count", false),
        layer("power.attention_uj_per_token", "uJ/token", false),
        layer("power.ffn_uj_per_token", "uJ/token", false),
        layer("power.other_uj_per_token", "uJ/token", false),
        layer("loadgen.admit_lag_ms_p99", "ms", false),
    ]);
    for phase in ["offline", "online"] {
        m.push(layer(format!("requests.{phase}.sent"), "count", true));
        m.push(layer(format!("requests.{phase}.ok"), "count", true));
        m.push(layer(format!("requests.{phase}.failed"), "count", false));
    }
    m.push(layer("trace.overhead_frac", "fraction", false));
    m
}

/// One measured value with its unit and sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn to_json(&self) -> Json {
        obj([
            ("value", Json::Num(self.value)),
            ("unit", Json::Str(self.unit.into())),
            ("n", Json::Int(self.samples as u64)),
        ])
    }
}

/// Collects metrics by catalog name, so a run cannot report a name or a
/// unit the catalog does not list.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Checks that exactly the `(name, unit)` pairs of `want` were
    /// reported, each once, and returns them in catalog order.
    pub fn select(&self, want: &[(String, &'static str)]) -> Result<Vec<Metric>, String> {
        if self.metrics.len() != want.len() {
            return Err(format!(
                "reported {} metrics, the catalog lists {}",
                self.metrics.len(),
                want.len()
            ));
        }
        want.iter()
            .map(|(name, unit)| {
                let m = self
                    .metrics
                    .iter()
                    .find(|m| &m.name == name)
                    .ok_or_else(|| format!("metric {name} was not reported"))?;
                if m.unit != *unit {
                    return Err(format!("metric {name} in {} instead of {unit}", m.unit));
                }
                Ok(m.clone())
            })
            .collect()
    }
}

/// The catalog's `(name, unit)` pairs for one kind of run.
pub fn catalog(trace: bool, layers: usize) -> Vec<(String, &'static str)> {
    if trace {
        per_layer(layers)
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve_run::bench_config;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn names_are_valid_and_unique() {
        let layers = per_layer(bench_config().layers);
        assert!(layers.len() <= 128);
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(layers.into_iter().map(|m| m.name));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` at the repository root lists exactly this catalog.
    #[test]
    fn benchmark_json_matches_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = crate::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let better = |higher: bool| if higher { "higher" } else { "lower" };
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(got.get("name").and_then(Json::as_str), Some(want.name));
            assert_eq!(got.get("unit").and_then(Json::as_str), Some(want.unit));
            assert_eq!(
                got.get("better").and_then(Json::as_str),
                Some(better(want.higher_is_better))
            );
            assert_eq!(got.get("bound").and_then(Json::as_f64), Some(want.bound));
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        let want = per_layer(bench_config().layers);
        assert_eq!(layers.len(), want.len());
        for (got, want) in layers.iter().zip(want) {
            assert_eq!(got.get("name").and_then(Json::as_str), Some(&*want.name));
            assert_eq!(got.get("unit").and_then(Json::as_str), Some(want.unit));
            assert_eq!(
                got.get("better").and_then(Json::as_str),
                Some(better(want.higher_is_better))
            );
        }
        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |k| w.get(k).and_then(Json::as_str).unwrap();
                (field("name"), field("why"))
            })
            .collect();
        let want: Vec<(&str, &str)> = crate::workload::workloads()
            .iter()
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(workloads, want);
    }
}
