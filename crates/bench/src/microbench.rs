//! Std-only microbenchmark harness.
//!
//! The workspace builds offline, so Criterion is out; this is the small
//! fraction of it we actually use: warm up, run for a fixed wall-clock
//! budget, report mean/min per-iteration time. Bench binaries stay
//! `harness = false` and are gated behind the off-by-default `microbench`
//! feature so `cargo test -q` never pays for them.

use std::any::type_name;
pub use std::hint::black_box;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// Per-benchmark result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark label.
    pub name: String,
    /// Total measured iterations.
    pub iters: u64,
    /// Mean wall time per iteration in nanoseconds.
    pub mean_ns: f64,
    /// Fastest observed batch, per iteration, in nanoseconds.
    pub min_ns: f64,
}

impl BenchResult {
    /// Print a one-line summary to stdout.
    pub fn report(&self) {
        println!(
            "{:<44} {:>12.1} ns/iter (min {:>12.1} ns, {} iters)",
            self.name, self.mean_ns, self.min_ns, self.iters
        );
    }
}

/// Environment knob `name` parsed as a `T`, or `None` when unset.
///
/// # Panics
///
/// Panics, naming the variable and the value, when `name` is set but
/// does not parse: a typo must not quietly run the default.
pub fn env_opt<T: FromStr>(name: &str) -> Option<T> {
    let raw = std::env::var_os(name)?;
    let value = raw.to_str().and_then(|v| v.parse().ok());
    Some(value.unwrap_or_else(|| panic!("{name}={raw:?} does not parse as {}", type_name::<T>())))
}

/// Count knob `name`, or `default` when unset (see [`env_opt`]).
pub fn env_usize(name: &str, default: usize) -> usize {
    env_opt(name).unwrap_or(default)
}

/// Real-valued knob `name`, or `default` when unset (see [`env_opt`]).
pub fn env_f64(name: &str, default: f64) -> f64 {
    env_opt(name).unwrap_or(default)
}

/// Where a bench writes its JSON: `PDAC_BENCH_OUT` when set, else
/// `default`.
pub fn out_path(default: &str) -> String {
    env_opt("PDAC_BENCH_OUT").unwrap_or_else(|| default.to_string())
}

/// A feature's per-step paired overhead: the median over steps of
/// `1 − off[i] / on[i]`, where `off[i]` and `on[i]` time the same decode
/// step with the feature off and on, back to back.
///
/// A real per-step cost taxes every pair, so it moves the median; host
/// noise that comes and goes between steps lands on few pairs and
/// barely does. A clean series reads 0, and negative values (the on
/// side happened to run faster) are kept, so noise averages out rather
/// than being clipped into a positive bias.
///
/// # Errors
///
/// Rejects empty or unequal-length series, which cannot be paired.
pub fn paired_step_overhead(off: &[f64], on: &[f64]) -> Result<f64, String> {
    if off.is_empty() || off.len() != on.len() {
        return Err(format!(
            "paired step times need two equal, non-empty series, got {} off and {} on",
            off.len(),
            on.len()
        ));
    }
    let mut fracs: Vec<f64> = off.iter().zip(on).map(|(&f, &n)| 1.0 - f / n).collect();
    fracs.sort_by(f64::total_cmp);
    let mid = fracs.len() / 2;
    Ok(if fracs.len() % 2 == 1 {
        fracs[mid]
    } else {
        0.5 * (fracs[mid - 1] + fracs[mid])
    })
}

/// Wall-clock budget per benchmark. Override with `PDAC_BENCH_MS`.
fn budget() -> Duration {
    Duration::from_millis(env_opt("PDAC_BENCH_MS").unwrap_or(200))
}

/// Time `f` in batches until the budget is spent; prints and returns the
/// per-iteration statistics.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> BenchResult {
    // Warm-up and batch-size calibration: grow the batch until one batch
    // takes ≳1% of the budget, so timer overhead stays negligible.
    let budget = budget();
    let mut batch: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let dt = t0.elapsed();
        if dt >= budget / 100 || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }

    let mut iters: u64 = 0;
    let mut min_ns = f64::INFINITY;
    let start = Instant::now();
    let mut spent = Duration::ZERO;
    while spent < budget {
        let t0 = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let dt = t0.elapsed();
        min_ns = min_ns.min(dt.as_nanos() as f64 / batch as f64);
        iters += batch;
        spent = start.elapsed();
    }
    let result = BenchResult {
        name: name.to_string(),
        iters,
        mean_ns: spent.as_nanos() as f64 / iters as f64,
        min_ns,
    };
    result.report();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something() {
        std::env::set_var("PDAC_BENCH_MS", "5");
        let r = bench("selftest/sum", || (0..100u64).sum::<u64>());
        assert!(r.iters > 0);
        assert!(r.mean_ns > 0.0);
        assert!(r.min_ns <= r.mean_ns * 1.5);
    }

    /// Step times that grow with context like a decode run's, with a
    /// little deterministic jitter.
    fn steps(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 1e-3 * (1.0 + i as f64 / 50.0) * (1.0 + 0.01 * ((i * 7) % 5) as f64))
            .collect()
    }

    #[test]
    fn paired_overhead_recovers_a_constant_tax() {
        let off = steps(101);
        let on: Vec<f64> = off.iter().map(|t| t / (1.0 - 0.03)).collect();
        let got = paired_step_overhead(&off, &on).unwrap();
        assert!((got - 0.03).abs() < 1e-3, "got {got}");
        // Even lengths take the mean of the middle pair.
        let got = paired_step_overhead(&off[1..], &on[1..]).unwrap();
        assert!((got - 0.03).abs() < 1e-3, "got {got}");
    }

    #[test]
    fn paired_overhead_of_a_clean_series_is_zero() {
        let off = steps(64);
        assert_eq!(paired_step_overhead(&off, &off).unwrap(), 0.0);
    }

    #[test]
    fn paired_overhead_ignores_one_outlier_step() {
        let off = steps(101);
        let mut on: Vec<f64> = off.iter().map(|t| t / (1.0 - 0.03)).collect();
        let before = paired_step_overhead(&off, &on).unwrap();
        on[40] *= 10.0;
        assert_eq!(paired_step_overhead(&off, &on).unwrap(), before);
        let mut clean = off.clone();
        clean[7] *= 10.0;
        assert_eq!(paired_step_overhead(&off, &clean).unwrap(), 0.0);
    }

    #[test]
    fn paired_overhead_rejects_empty_or_unequal_series() {
        assert!(paired_step_overhead(&[], &[]).is_err());
        let err = paired_step_overhead(&[1.0, 2.0], &[1.0]).unwrap_err();
        assert!(err.contains("2 off and 1 on"), "{err}");
    }

    #[test]
    fn env_knobs_take_defaults_and_parse_set_values() {
        std::env::remove_var("PDAC_BENCH_TEST_UNSET");
        assert_eq!(env_usize("PDAC_BENCH_TEST_UNSET", 7), 7);
        assert_eq!(env_f64("PDAC_BENCH_TEST_UNSET", 0.5), 0.5);
        std::env::set_var("PDAC_BENCH_TEST_COUNT", "12");
        assert_eq!(env_usize("PDAC_BENCH_TEST_COUNT", 7), 12);
        std::env::set_var("PDAC_BENCH_TEST_FRAC", "0.03");
        assert_eq!(env_f64("PDAC_BENCH_TEST_FRAC", 0.5), 0.03);
    }

    #[test]
    #[should_panic(expected = "PDAC_BENCH_TEST_BAD=\"12k\"")]
    fn env_knob_set_but_malformed_panics_with_its_name() {
        std::env::set_var("PDAC_BENCH_TEST_BAD", "12k");
        env_usize("PDAC_BENCH_TEST_BAD", 7);
    }
}
