//! Online analog-drift sentinel: shadow-sampled conformance for live
//! GEMM traffic.
//!
//! The offline harness ([`crate::conformance`]) proves the analog
//! backends honest at build time; this module keeps watching them in
//! production. A [`Sentinel`] installs itself as the process-wide
//! [`pdac_nn::tap::GemmTap`] and samples live analog operations
//! (seeded, at the rate given to [`Sentinel::install`]). It scores each
//! sampled operation inside the analog call that produced it, on the
//! calling thread, reading the operands and the result by reference: no
//! copy, no hand-off, and no sample is ever dropped.
//!
//! The replay ([`exact_replay`]) runs the exact product through the
//! tuned f64 kernels, which match the golden reference loop bit for
//! bit, and the analog result is scored against the paper's budgets:
//!
//! * **relative Frobenius error** vs [`GEMM_BUDGET`] (0.15, the same
//!   constant the offline matrix enforces);
//! * **worst per-element deviation** vs the Eq. 18 per-element budget
//!   [`PER_ELEMENT_BUDGET`] (0.087) times an accumulation slack of 8 — a
//!   k-term analog contraction legitimately concentrates more error in
//!   one output element than a single reconstruction does.
//!
//! `grouped` (attention) samples are held to budgets scaled by 2:
//! softmax-probability operands contracted over one head dimension
//! measure ≈2× the clean Frobenius error of weight GEMMs, and alerting
//! on that would page on healthy hardware.
//!
//! The sampling rate is the one setting; every other threshold is a
//! constant here.
//!
//! The two normalized fractions collapse into one `budget_frac`
//! (`1.0` = the paper budget is fully spent). Per backend *class*
//! (`pdac` / `edac` / `hybrid`) the sentinel maintains an EWMA drift
//! tracker and publishes `health.drift.<class>.{ewma,budget_frac}`
//! gauges plus a `health.drift.<class>` histogram (p99 comes out of the
//! standard telemetry summary). Crossing [`WARN_FRAC`] raises a
//! [`Severity::Warn`] alert into the global
//! [`pdac_telemetry::health`] ledger; crossing [`CRITICAL_FRAC`] latches
//! the ledger critical — which flips `/health` to 503 and, on a token
//! server built with `with_failover(true)`, reroutes subsequent steps
//! to the exact backend. Alerts depend only on the sequence of GEMM
//! calls, and a critical alert latches before the sampled call returns.
//!
//! Installing a sentinel can never change a decoded bit: the tap
//! observes completed results only (pinned by the
//! `decode.sentinel.on_off_bit_identity` conformance row).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::conformance::{GEMM_BUDGET, PER_ELEMENT_BUDGET};
use pdac_math::matrix::MatError;
use pdac_math::Mat;
use pdac_nn::tap::GemmTap;
use pdac_telemetry::health;
pub use pdac_telemetry::Severity;

/// Default sampling probability per eligible analog GEMM. Each sampled
/// op costs one exact replay GEMM and a score on the calling thread; 2%
/// keeps that under the 3% per decode step that the `sentinel` toggle
/// of the `overhead` bench asserts against metrics-only decode.
pub const DEFAULT_RATE: f64 = 0.02;
/// Fraction of budget at which a [`Severity::Warn`] alert fires.
pub const WARN_FRAC: f64 = 0.8;
/// Fraction of budget at which a [`Severity::Critical`] alert fires (and
/// the health ledger latches).
pub const CRITICAL_FRAC: f64 = 1.2;
/// Seed for the deterministic per-call sampling hash.
const SEED: u64 = 0x9D_AC;
/// Contractions shorter than this are skipped: a 4-term dot product has
/// too little averaging for the Frobenius score to mean anything.
const MIN_K: usize = 16;
/// Outputs smaller than this many elements are skipped: the Frobenius
/// score over a handful of elements is a single noisy draw, not a
/// drift statistic.
const MIN_OUT: usize = 16;
/// Budget multiplier for the `grouped` op class (per-sequence attention
/// products): their operands are softmax probabilities and their
/// contraction length is one head dimension, so a clean 8-bit run
/// legitimately measures ≈2× the Frobenius error of the weight GEMMs.
const GROUPED_BUDGET_MULT: f64 = 2.0;
/// Accumulation slack multiplying [`PER_ELEMENT_BUDGET`] when scoring a
/// full contraction instead of a lone reconstruction: the worst element
/// of an m×n output is a tail statistic (clean 8-bit P-DAC GEMMs measure
/// up to ≈2.8× the Eq. 18 bound on one element while staying well
/// inside the Frobenius budget), so the per-element alarm only fires
/// once that tail clearly exceeds quantization noise.
const PER_ELEMENT_SLACK: f64 = 8.0;
/// EWMA smoothing factor for the per-class drift tracker.
const EWMA_ALPHA: f64 = 0.2;

/// The `(per_element, frobenius)` budgets a sample of op class `op` is
/// held to: `grouped` samples get both scaled by [`GROUPED_BUDGET_MULT`].
fn budgets(op: &str) -> (f64, f64) {
    let mult = if op == "grouped" {
        GROUPED_BUDGET_MULT
    } else {
        1.0
    };
    (
        mult * PER_ELEMENT_SLACK * PER_ELEMENT_BUDGET,
        mult * GEMM_BUDGET,
    )
}

/// One scored sample: the two normalized error measures and the verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftScore {
    /// `‖analog − exact‖_F / ‖exact‖_F`.
    pub rel_fro: f64,
    /// Worst per-element deviation, normalized by
    /// `max(|exact_i|, rms(exact))` so near-zero outputs cannot manufacture
    /// infinite relative error.
    pub per_element: f64,
    /// `max(rel_fro / GEMM_BUDGET, per_element / (slack · PER_ELEMENT_BUDGET))`
    /// — `1.0` means the paper budget is fully spent.
    pub budget_frac: f64,
    /// Alert verdict for this sample, if any threshold was crossed.
    pub severity: Option<Severity>,
}

/// Scores an analog result against its exact replay.
///
/// `op` is the tap op class; `grouped` samples get their budgets scaled
/// by 2 — measured clean 8-bit attention products reach ≈0.20 relative
/// Frobenius error at `k = head_dim = 16` while the weight GEMMs stay
/// under 0.10, so holding both classes to the same 0.15 line would page
/// on healthy hardware.
///
/// Returns `None` when the shapes disagree (a sample from a backend bug
/// would otherwise poison the tracker with a meaningless number — the
/// offline conformance matrix owns shape correctness).
pub fn score(op: &str, exact: &Mat, analog: &Mat) -> Option<DriftScore> {
    if exact.shape() != analog.shape() {
        return None;
    }
    let e = exact.as_slice();
    let a = analog.as_slice();
    let mut err_sq = 0.0f64;
    let mut ref_sq = 0.0f64;
    for (&x, &y) in e.iter().zip(a) {
        let d = y - x;
        err_sq += d * d;
        ref_sq += x * x;
    }
    let rms = (ref_sq / e.len().max(1) as f64).sqrt();
    let rel_fro = err_sq.sqrt() / ref_sq.sqrt().max(f64::MIN_POSITIVE);
    let per_element = e
        .iter()
        .zip(a)
        .map(|(&x, &y)| (y - x).abs() / x.abs().max(rms).max(f64::MIN_POSITIVE))
        .fold(0.0f64, f64::max);
    let (per_budget, fro_budget) = budgets(op);
    let budget_frac = if rel_fro.is_finite() && per_element.is_finite() {
        (rel_fro / fro_budget).max(per_element / per_budget)
    } else {
        f64::INFINITY
    };
    let severity = if budget_frac >= CRITICAL_FRAC {
        Some(Severity::Critical)
    } else if budget_frac >= WARN_FRAC {
        Some(Severity::Warn)
    } else {
        None
    };
    Some(DriftScore {
        rel_fro,
        per_element,
        budget_frac,
        severity,
    })
}

/// Exact replay of one sampled operation into `exact` (reshaped and
/// fully overwritten), through the tuned f64 kernels, which match the
/// reference triple loop bit for bit. `grouped` samples are replayed
/// block by block (row `g` of `a` against stacked block `g` of `b`),
/// everything else is one plain product. It calls no `GemmBackend`, so
/// a replay inside the tap never reports to the tap again.
///
/// # Errors
///
/// Returns [`MatError::DimMismatch`] when the operand shapes disagree.
pub fn exact_replay(op: &str, a: &Mat, b: &Mat, exact: &mut Mat) -> Result<(), MatError> {
    if op == "grouped" {
        a.matmul_grouped_into(b, exact)
    } else {
        a.matmul_into(b, exact)
    }
}

/// Static telemetry names for one backend class (names must be
/// `&'static str` for the zero-dependency collector).
struct ClassNames {
    class: &'static str,
    ewma: &'static str,
    frac: &'static str,
    hist: &'static str,
    alert: &'static str,
}

static PDAC_CLASS: ClassNames = ClassNames {
    class: "pdac",
    ewma: "health.drift.pdac.ewma",
    frac: "health.drift.pdac.budget_frac",
    hist: "health.drift.pdac",
    alert: "health.alert.pdac",
};
static EDAC_CLASS: ClassNames = ClassNames {
    class: "edac",
    ewma: "health.drift.edac.ewma",
    frac: "health.drift.edac.budget_frac",
    hist: "health.drift.edac",
    alert: "health.alert.edac",
};
static HYBRID_CLASS: ClassNames = ClassNames {
    class: "hybrid",
    ewma: "health.drift.hybrid.ewma",
    frac: "health.drift.hybrid.budget_frac",
    hist: "health.drift.hybrid",
    alert: "health.alert.hybrid",
};

/// Maps a live backend name onto its drift class. Backends built by
/// `AsymmetricGemm::new` (mixed converter pair) land in `hybrid` unless
/// the name says otherwise.
fn classify(backend: &str) -> &'static ClassNames {
    if backend.contains("edac") || backend.contains("electrical") {
        &EDAC_CLASS
    } else if backend.contains("pdac") || backend.contains("photonic") {
        &PDAC_CLASS
    } else {
        &HYBRID_CLASS
    }
}

/// Lifetime counters of one sentinel run, returned by
/// [`SentinelHandle::finish`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SentinelStats {
    /// Operations the policy elected to sample.
    pub sampled: u64,
    /// Samples replayed and scored: every sample whose operand shapes
    /// agree, so all of them.
    pub scored: u64,
    /// Alerts raised into the health ledger.
    pub alerts: u64,
    /// Worst `budget_frac` across every scored sample (0 when none).
    pub worst_frac: f64,
}

/// The sampling tap: hot-path policy plus in-call scoring.
///
/// Install via [`Sentinel::install`]; the returned handle reads its
/// counters and uninstalls it.
#[derive(Debug)]
pub struct Sentinel {
    rate: f64,
    seq: AtomicU64,
    scorer: Mutex<Scorer>,
}

/// Everything scoring a sample updates: the counters, the per-class
/// EWMA and the exact replay's buffer, reused from sample to sample.
#[derive(Debug)]
struct Scorer {
    stats: SentinelStats,
    /// Index order: pdac, edac, hybrid.
    ewma: [Option<f64>; 3],
    exact: Mat,
}

/// SplitMix64 finalizer: one multiply-xor cascade turning the call
/// sequence number into an unbiased 64-bit hash.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl GemmTap for Sentinel {
    fn observe(&self, backend: &str, op: &'static str, a: &Mat, b: &Mat, out: &Mat) {
        if self.should_sample(a.rows(), a.cols(), out.cols()) {
            self.scorer
                .lock()
                .expect("a panic while scoring poisoned the sentinel")
                .record(backend, op, a, b, out);
        }
    }
}

impl Sentinel {
    /// Builds a sentinel sampling each eligible analog GEMM with
    /// probability `rate` (`>= 1` samples everything, `0` nothing),
    /// installs it as the process-wide GEMM tap and returns the owning
    /// handle.
    pub fn install(rate: f64) -> SentinelHandle {
        let sentinel = Arc::new(Sentinel {
            rate,
            seq: AtomicU64::new(0),
            scorer: Mutex::new(Scorer {
                stats: SentinelStats::default(),
                ewma: [None; 3],
                exact: Mat::zeros(1, 1),
            }),
        });
        pdac_nn::tap::install(sentinel.clone());
        SentinelHandle { sentinel }
    }

    /// The sampling policy, from shapes alone: an `m×k · k×n` operation
    /// is eligible when its contraction and output are long enough to
    /// score, and then sampled with probability `rate`.
    fn should_sample(&self, m: usize, k: usize, n: usize) -> bool {
        if k < MIN_K || m * n < MIN_OUT || self.rate <= 0.0 {
            return false;
        }
        if self.rate >= 1.0 {
            return true;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        // 53 uniform mantissa bits -> [0, 1); deterministic in (seed, seq).
        let u = (mix(seq ^ SEED) >> 11) as f64 / (1u64 << 53) as f64;
        u < self.rate
    }
}

impl Scorer {
    /// Replays and scores one sample, updates the counters and the
    /// class's drift gauges, and raises an alert when a threshold is
    /// crossed.
    fn record(&mut self, backend: &str, op: &'static str, a: &Mat, b: &Mat, out: &Mat) {
        self.stats.sampled += 1;
        if exact_replay(op, a, b, &mut self.exact).is_err() {
            return;
        }
        let Some(scored) = score(op, &self.exact, out) else {
            return;
        };
        self.stats.scored += 1;
        self.stats.worst_frac = self.stats.worst_frac.max(scored.budget_frac);
        let names = classify(backend);
        let slot = match names.class {
            "pdac" => 0,
            "edac" => 1,
            _ => 2,
        };
        let smoothed = match self.ewma[slot] {
            Some(prev) => prev + EWMA_ALPHA * (scored.budget_frac - prev),
            None => scored.budget_frac,
        };
        self.ewma[slot] = Some(smoothed);

        pdac_telemetry::gauge_set(names.ewma, smoothed);
        pdac_telemetry::gauge_set(names.frac, scored.budget_frac);
        pdac_telemetry::observe(names.hist, scored.budget_frac);

        if let Some(severity) = scored.severity {
            self.stats.alerts += 1;
            pdac_telemetry::counter_add(names.alert, 1);
            // Report the dominant measure against its own budget so the
            // alert record reads as "measured X, budget Y" directly.
            let (per_budget, fro_budget) = budgets(op);
            let (measured, budget) =
                if scored.rel_fro / fro_budget >= scored.per_element / per_budget {
                    (scored.rel_fro, fro_budget)
                } else {
                    (scored.per_element, per_budget)
                };
            health::raise(severity, backend, op, measured, budget);
        }
    }
}

/// Owns a running sentinel. Its tap stays installed until [`finish`].
///
/// [`finish`]: SentinelHandle::finish
#[derive(Debug)]
pub struct SentinelHandle {
    sentinel: Arc<Sentinel>,
}

impl SentinelHandle {
    /// Counters so far, without stopping the sentinel.
    pub fn stats(&self) -> SentinelStats {
        self.sentinel
            .scorer
            .lock()
            .expect("a panic while scoring poisoned the sentinel")
            .stats
    }

    /// Uninstalls the tap and returns the final counters. Alerts already
    /// raised stay in the global health ledger — finishing the sentinel
    /// does not release a latched critical state.
    pub fn finish(self) -> SentinelStats {
        pdac_nn::tap::uninstall();
        self.stats()
    }
}

/// Serializes tests (and conformance checks) that install the
/// process-global tap or energy meter, or inspect the global health
/// ledger. Poisoning is ignored: a failed test must not cascade.
pub fn test_guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(Mutex::default).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultSpec, FaultyPDac};
    use pdac_core::pdac::PDac;
    use pdac_math::rng::SplitMix64;
    use pdac_nn::gemm::{AnalogGemm, GemmBackend};

    fn random_mat(rows: usize, cols: usize, rng: &mut SplitMix64) -> Mat {
        Mat::from_fn(rows, cols, |_, _| rng.gen_range_f64(-1.0, 1.0))
    }

    fn drive(backend: &dyn GemmBackend, gemms: usize, seed: u64) {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut out = Mat::zeros(8, 12);
        for _ in 0..gemms {
            let a = random_mat(8, 48, &mut rng);
            let b = random_mat(48, 12, &mut rng);
            backend.matmul_into(&a, &b, &mut out);
        }
    }

    #[test]
    fn clean_pdac_run_scores_green_and_raises_nothing() {
        let _guard = test_guard();
        health::reset();
        let handle = Sentinel::install(1.0);
        let backend = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "pdac8");
        drive(&backend, 6, 0x00C1_EA11);
        let stats = handle.finish();
        assert!(stats.sampled >= 6, "policy skipped samples: {stats:?}");
        assert_eq!(stats.scored, stats.sampled, "{stats:?}");
        assert_eq!(stats.alerts, 0, "clean run must stay green: {stats:?}");
        assert!(
            stats.worst_frac < WARN_FRAC,
            "clean pdac8 drift must sit below warn: {stats:?}"
        );
        assert_eq!(health::status(), pdac_telemetry::HealthStatus::Ok);
        health::reset();
    }

    #[test]
    fn faulty_pdac_latches_critical() {
        let _guard = test_guard();
        health::reset();
        let handle = Sentinel::install(1.0);
        let spec = FaultSpec::none().with_tia_gain_drift(0.5);
        let backend = AnalogGemm::new(
            FaultyPDac::new(PDac::with_optimal_approx(8).unwrap(), spec),
            "pdac8-tia",
        );
        drive(&backend, 1, 0xFA_017);
        // Scored inside the call: the ledger latched before it returned.
        assert!(health::critical_latched(), "{:?}", handle.stats());
        let stats = handle.finish();
        assert!(stats.alerts > 0, "fault escaped the sentinel: {stats:?}");
        assert!(stats.worst_frac >= 1.0, "{stats:?}");
        assert!(health::critical_latched());
        let ledger = health::ledger();
        assert!(ledger
            .alerts()
            .iter()
            .any(|a| a.backend == "pdac8-tia" && a.severity == Severity::Critical));
        health::reset();
    }

    #[test]
    fn sampling_is_deterministic_in_seed_and_sequence() {
        let _guard = test_guard();
        let backend = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "pdac8");
        let run = || {
            let handle = Sentinel::install(0.25);
            drive(&backend, 64, 0x00DE_7E12);
            handle.finish()
        };
        let first = run();
        let second = run();
        assert_eq!(first.sampled, second.sampled);
        assert!(
            first.sampled > 0 && first.sampled < 64,
            "rate 0.25 over 64 calls should thin the stream: {first:?}"
        );
        health::reset();
    }

    #[test]
    fn score_normalizes_against_both_budgets() {
        let exact = Mat::from_rows(1, 4, vec![1.0, -1.0, 2.0, -2.0]).unwrap();
        // Identical result: zero drift, no severity.
        let clean = score("matmul", &exact, &exact).unwrap();
        assert_eq!(clean.budget_frac, 0.0);
        assert_eq!(clean.severity, None);
        // 30% relative error on every element: rel_fro = 0.3 = 2x the
        // 0.15 GEMM budget -> critical.
        let drifted = Mat::from_rows(1, 4, vec![1.3, -1.3, 2.6, -2.6]).unwrap();
        let bad = score("matmul", &exact, &drifted).unwrap();
        assert!((bad.rel_fro - 0.3).abs() < 1e-12);
        assert!(bad.budget_frac >= 2.0 - 1e-12);
        assert_eq!(bad.severity, Some(Severity::Critical));
        // The grouped op class gets its budgets scaled, so the same
        // drift spends proportionally less of its (larger) budget.
        let grouped = score("grouped", &exact, &drifted).unwrap();
        let expected = bad.budget_frac / GROUPED_BUDGET_MULT;
        assert!((grouped.budget_frac - expected).abs() < 1e-12);
        // Shape mismatch refuses to score.
        assert!(score("matmul", &exact, &Mat::zeros(2, 2)).is_none());
    }
}
