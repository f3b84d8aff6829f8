//! Std-only microbenchmark harness.
//!
//! The workspace builds offline, so Criterion is out; this is the small
//! fraction of it we actually use: warm up, run for a fixed wall-clock
//! window, report mean/min per-iteration time. Bench binaries stay
//! `harness = false`; `cargo test` never builds a bench target, so no
//! feature gates them.

pub use std::hint::black_box;
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

/// Where a bench writes its JSON: `PDAC_BENCH_OUT` when set, else
/// `default`.
///
/// # Panics
///
/// Panics, naming the variable and the value, when `PDAC_BENCH_OUT` is
/// set but is not valid Unicode: a mangled path must not quietly write
/// the default.
pub fn out_path(default: &str) -> String {
    match std::env::var_os("PDAC_BENCH_OUT") {
        None => default.to_string(),
        Some(raw) => raw
            .into_string()
            .unwrap_or_else(|raw| panic!("PDAC_BENCH_OUT={raw:?} is not valid Unicode")),
    }
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

/// Wall-clock window per benchmark: long enough to amortize the timer,
/// short enough that a burst of host noise often misses it (the gated
/// benches keep the fastest of several windows).
const WINDOW: Duration = Duration::from_millis(40);

/// Time `f` in batches until one 40 ms window is spent; prints and
/// returns the per-iteration statistics.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> BenchResult {
    // Warm-up and batch-size calibration: grow the batch until one batch
    // takes ≳1% of the window, so timer overhead stays negligible.
    let mut batch: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let dt = t0.elapsed();
        if dt >= WINDOW / 100 || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }

    let mut iters: u64 = 0;
    let mut min_ns = f64::INFINITY;
    let start = Instant::now();
    let mut spent = Duration::ZERO;
    while spent < WINDOW {
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
    #[cfg(unix)]
    fn out_path_takes_the_default_a_set_path_and_panics_naming_a_bad_one() {
        use std::os::unix::ffi::OsStrExt;
        std::env::remove_var("PDAC_BENCH_OUT");
        assert_eq!(out_path("BENCH_x.json"), "BENCH_x.json");
        std::env::set_var("PDAC_BENCH_OUT", "target/x.fresh.json");
        assert_eq!(out_path("BENCH_x.json"), "target/x.fresh.json");
        std::env::set_var("PDAC_BENCH_OUT", std::ffi::OsStr::from_bytes(b"x\xff.json"));
        let err = std::panic::catch_unwind(|| out_path("BENCH_x.json")).unwrap_err();
        std::env::remove_var("PDAC_BENCH_OUT");
        let msg = err
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(msg.contains("PDAC_BENCH_OUT=\"x\\xFF.json\""), "{msg}");
    }
}
