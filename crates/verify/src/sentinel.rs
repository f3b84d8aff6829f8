//! Online analog-drift sentinel: shadow-sampled conformance for live
//! GEMM traffic.
//!
//! The offline harness ([`crate::conformance`]) proves the analog
//! backends honest at build time; this module keeps watching them in
//! production. A [`Sentinel`] installs itself as the process-wide
//! [`pdac_nn::tap::GemmTap`], probabilistically samples live analog
//! operations (seeded, rate-configurable via `PDAC_SENTINEL_RATE`),
//! and hands each sampled operand pair to a dedicated low-priority
//! worker thread over a bounded channel — the decode hot path never
//! blocks and never recomputes anything; under pressure samples are
//! *dropped and counted*, not queued unboundedly.
//!
//! The worker replays every sample through the golden reference GEMM
//! ([`pdac_math::Mat::matmul_reference`], single-threaded so the shadow
//! work cannot contend with the decode thread pool) and scores the
//! analog result against the paper's budgets:
//!
//! * **relative Frobenius error** vs the conformance `gemm_budget`
//!   (default 0.15, same constant the offline matrix enforces);
//! * **worst per-element deviation** vs the Eq. 18 per-element budget
//!   (0.087) times an accumulation slack — a k-term analog contraction
//!   legitimately concentrates more error in one output element than a
//!   single reconstruction does.
//!
//! `grouped` (attention) samples are held to budgets scaled by
//! [`SentinelConfig::grouped_budget_mult`]: softmax-probability operands
//! contracted over one head dimension measure ≈2× the clean Frobenius
//! error of weight GEMMs, and alerting on that would page on healthy
//! hardware.
//!
//! The two normalized fractions collapse into one `budget_frac`
//! (`1.0` = the paper budget is fully spent). Per backend *class*
//! (`pdac` / `edac` / `hybrid`) the worker maintains an EWMA drift
//! tracker and publishes `health.drift.<class>.{ewma,budget_frac}`
//! gauges plus a `health.drift.<class>` histogram (p99 comes out of the
//! standard telemetry summary). Crossing `warn_frac` raises a
//! [`Severity::Warn`] alert into the global
//! [`pdac_telemetry::health`] ledger; crossing `critical_frac` latches
//! the ledger critical — which flips `/health` to 503 and, when
//! `PDAC_SENTINEL_FAILOVER=1`, makes the token server reroute
//! subsequent steps to the exact backend.
//!
//! Installing a sentinel can never change a decoded bit: the tap
//! observes completed results only (pinned by the
//! `decode.sentinel.on_off_bit_identity` conformance row).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

use pdac_math::Mat;
use pdac_nn::tap::{GemmSample, GemmTap};
use pdac_telemetry::health;
pub use pdac_telemetry::Severity;

/// Default sampling probability per eligible analog GEMM. Each sampled
/// op costs an operand copy on the decode thread and roughly one extra
/// reference GEMM on the scoring worker; 2% keeps that under the 3% per
/// decode step that the `sentinel` toggle of the `overhead` bench
/// asserts against metrics-only decode.
pub const DEFAULT_RATE: f64 = 0.02;
/// Default bounded-queue depth between the tap and the scoring worker.
pub const DEFAULT_QUEUE_CAPACITY: usize = 32;
/// Contractions shorter than this are skipped: a 4-term dot product has
/// too little averaging for the Frobenius score to mean anything.
pub const DEFAULT_MIN_K: usize = 16;
/// Outputs smaller than this many elements are skipped: the Frobenius
/// score over a handful of elements is a single noisy draw, not a
/// drift statistic.
pub const DEFAULT_MIN_OUT: usize = 16;
/// Budget multiplier for the `grouped` op class (per-sequence attention
/// products): their operands are softmax probabilities and their
/// contraction length is one head dimension, so a clean 8-bit run
/// legitimately measures ≈2× the Frobenius error of the weight GEMMs.
pub const DEFAULT_GROUPED_BUDGET_MULT: f64 = 2.0;

/// Tuning knobs for one sentinel instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SentinelConfig {
    /// Sampling probability in `[0, 1]` (`>= 1` samples everything).
    pub rate: f64,
    /// Seed for the deterministic per-call sampling hash.
    pub seed: u64,
    /// Bounded channel depth; overflow drops samples (counted).
    pub queue_capacity: usize,
    /// Skip operations whose contraction length `k` is below this.
    pub min_k: usize,
    /// Skip operations whose output has fewer than this many elements.
    pub min_out: usize,
    /// Budget multiplier applied to `grouped` (attention) samples.
    pub grouped_budget_mult: f64,
    /// Paper Eq. 18 per-element relative budget (conformance default).
    pub per_element_budget: f64,
    /// Accumulation slack multiplying the per-element budget when scoring
    /// a full contraction instead of a lone reconstruction: the worst
    /// element of an m×n output is a tail statistic (clean 8-bit P-DAC
    /// GEMMs measure up to ≈2.8× the Eq. 18 bound on one element while
    /// staying well inside the Frobenius budget), so the per-element
    /// alarm only fires once that tail clearly exceeds quantization
    /// noise.
    pub per_element_slack: f64,
    /// End-to-end relative Frobenius budget (conformance default).
    pub gemm_budget: f64,
    /// Fraction of budget at which a [`Severity::Warn`] alert fires.
    pub warn_frac: f64,
    /// Fraction of budget at which a [`Severity::Critical`] alert fires
    /// (and the health ledger latches).
    pub critical_frac: f64,
    /// EWMA smoothing factor for the per-class drift tracker.
    pub ewma_alpha: f64,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        Self {
            rate: DEFAULT_RATE,
            seed: 0x9D_AC,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            min_k: DEFAULT_MIN_K,
            min_out: DEFAULT_MIN_OUT,
            grouped_budget_mult: DEFAULT_GROUPED_BUDGET_MULT,
            per_element_budget: 0.087,
            per_element_slack: 8.0,
            gemm_budget: 0.15,
            warn_frac: 0.8,
            critical_frac: 1.2,
            ewma_alpha: 0.2,
        }
    }
}

impl SentinelConfig {
    /// Defaults with the sampling rate taken from `PDAC_SENTINEL_RATE`.
    /// Unset keeps [`DEFAULT_RATE`]; a set rate must be a finite number
    /// ≥ 0 (`0` disables sampling), and anything else is an error naming
    /// the variable and the value, never a silent default.
    pub fn from_env() -> Result<Self, String> {
        let raw = std::env::var_os("PDAC_SENTINEL_RATE").map(|v| v.to_string_lossy().into_owned());
        Self::parse(raw.as_deref())
    }

    /// [`Self::from_env`] on the raw rate (`None` = unset), so the rule
    /// is testable without touching the process environment.
    fn parse(rate: Option<&str>) -> Result<Self, String> {
        let mut cfg = Self::default();
        if let Some(raw) = rate {
            cfg.rate = raw
                .trim()
                .parse::<f64>()
                .ok()
                .filter(|r| r.is_finite() && *r >= 0.0)
                .ok_or_else(|| {
                    format!("PDAC_SENTINEL_RATE={raw:?} is not a finite sampling rate ≥ 0")
                })?;
        }
        Ok(cfg)
    }
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
    /// `max(rel_fro / gemm_budget, per_element / (slack · per_element_budget))`
    /// — `1.0` means the paper budget is fully spent.
    pub budget_frac: f64,
    /// Alert verdict for this sample, if any threshold was crossed.
    pub severity: Option<Severity>,
}

/// Scores an analog result against its exact replay.
///
/// `op` is the tap op class; `grouped` samples get their budgets scaled
/// by [`SentinelConfig::grouped_budget_mult`] — measured clean 8-bit
/// attention products reach ≈0.20 relative Frobenius error at
/// `k = head_dim = 16` while the weight GEMMs stay under 0.10, so
/// holding both classes to the same 0.15 line would page on healthy
/// hardware.
///
/// Returns `None` when the shapes disagree (a sample from a backend bug
/// would otherwise poison the tracker with a meaningless number — the
/// offline conformance matrix owns shape correctness).
pub fn score(cfg: &SentinelConfig, op: &str, exact: &Mat, analog: &Mat) -> Option<DriftScore> {
    if exact.shape() != analog.shape() {
        return None;
    }
    let mult = if op == "grouped" {
        cfg.grouped_budget_mult.max(1.0)
    } else {
        1.0
    };
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
    let per_budget = mult * cfg.per_element_slack * cfg.per_element_budget;
    let fro_budget = mult * cfg.gemm_budget;
    let budget_frac = if rel_fro.is_finite() && per_element.is_finite() {
        (rel_fro / fro_budget).max(per_element / per_budget)
    } else {
        f64::INFINITY
    };
    let severity = if budget_frac >= cfg.critical_frac {
        Some(Severity::Critical)
    } else if budget_frac >= cfg.warn_frac {
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

/// Golden replay of one sampled operation through the reference triple
/// loop. `grouped` samples are replayed block by block (row `g` of `a`
/// against stacked block `g` of `b`), everything else is one plain
/// product.
pub fn exact_replay(sample: &GemmSample) -> Option<Mat> {
    let (a, b) = (&sample.a, &sample.b);
    if sample.op != "grouped" {
        return a.matmul_reference(b).ok();
    }
    let (g, k, n) = (a.rows(), a.cols(), b.cols());
    if b.rows() != g * k {
        return None;
    }
    let mut out = Vec::with_capacity(g * n);
    for row in 0..g {
        let lhs = Mat::from_rows(1, k, a.row_slice(row).to_vec()).ok()?;
        let block =
            Mat::from_rows(k, n, b.as_slice()[row * k * n..(row + 1) * k * n].to_vec()).ok()?;
        out.extend_from_slice(lhs.matmul_reference(&block).ok()?.as_slice());
    }
    Mat::from_rows(g, n, out).ok()
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

/// Counters shared between the tap (hot path), the worker and the
/// handle.
#[derive(Debug, Default)]
struct Shared {
    sampled: AtomicU64,
    dropped: AtomicU64,
    scored: AtomicU64,
    alerts: AtomicU64,
    /// `f64::to_bits` of the worst `budget_frac` seen (monotone CAS max;
    /// valid because scored fractions are finite and non-negative, whose
    /// IEEE bit patterns order like the values).
    worst_frac_bits: AtomicU64,
}

impl Shared {
    fn note_worst(&self, frac: f64) {
        let bits = frac.to_bits();
        let mut cur = self.worst_frac_bits.load(Ordering::Relaxed);
        while bits > cur {
            match self.worst_frac_bits.compare_exchange_weak(
                cur,
                bits,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Lifetime counters of one sentinel run, returned by
/// [`SentinelHandle::finish`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SentinelStats {
    /// Samples the policy elected and the tap delivered (incl. dropped).
    pub sampled: u64,
    /// Samples lost to queue overflow — decode was never blocked for them.
    pub dropped: u64,
    /// Samples the worker replayed and scored.
    pub scored: u64,
    /// Alerts the worker raised into the health ledger.
    pub alerts: u64,
    /// Worst `budget_frac` across every scored sample (0 when none).
    pub worst_frac: f64,
}

/// The sampling tap: hot-path policy + non-blocking hand-off.
///
/// Install via [`Sentinel::install`]; the returned handle owns the
/// scoring worker.
pub struct Sentinel {
    cfg: SentinelConfig,
    seq: AtomicU64,
    tx: SyncSender<GemmSample>,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Sentinel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sentinel").field("cfg", &self.cfg).finish()
    }
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
    fn should_sample(
        &self,
        _backend: &str,
        _op: &'static str,
        m: usize,
        k: usize,
        n: usize,
    ) -> bool {
        if k < self.cfg.min_k || m * n < self.cfg.min_out || self.cfg.rate <= 0.0 {
            return false;
        }
        if self.cfg.rate >= 1.0 {
            return true;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        // 53 uniform mantissa bits -> [0, 1); deterministic in (seed, seq).
        let u = (mix(seq ^ self.cfg.seed) >> 11) as f64 / (1u64 << 53) as f64;
        u < self.cfg.rate
    }

    fn deliver(&self, sample: GemmSample) {
        self.shared.sampled.fetch_add(1, Ordering::Relaxed);
        match self.tx.try_send(sample) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.shared.dropped.fetch_add(1, Ordering::Relaxed);
                pdac_telemetry::counter_add("health.sentinel.dropped", 1);
            }
        }
    }
}

impl Sentinel {
    /// Builds a sentinel from `cfg`, spawns its scoring worker, installs
    /// it as the process-wide GEMM tap and returns the owning handle.
    pub fn install(cfg: SentinelConfig) -> SentinelHandle {
        let shared = Arc::new(Shared::default());
        let (tx, rx) = sync_channel(cfg.queue_capacity.max(1));
        let worker_cfg = cfg.clone();
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("pdac-sentinel".into())
            .spawn(move || worker_loop(worker_cfg, worker_shared, rx))
            .expect("spawn sentinel worker");
        let tap = Arc::new(Sentinel {
            cfg,
            seq: AtomicU64::new(0),
            tx,
            shared: Arc::clone(&shared),
        });
        pdac_nn::tap::install(tap);
        SentinelHandle {
            shared,
            worker: Some(worker),
        }
    }
}

/// Scores queued samples until the tap (and with it the sender) is
/// dropped; state that only the worker touches — the per-class EWMA —
/// lives here, not behind a lock.
fn worker_loop(cfg: SentinelConfig, shared: Arc<Shared>, rx: Receiver<GemmSample>) {
    // Index order: pdac, edac, hybrid.
    let mut ewma: [Option<f64>; 3] = [None; 3];
    for sample in rx.iter() {
        let Some(exact) = exact_replay(&sample) else {
            continue;
        };
        let Some(scored) = score(&cfg, sample.op, &exact, &sample.out) else {
            continue;
        };
        shared.scored.fetch_add(1, Ordering::Relaxed);
        shared.note_worst(scored.budget_frac);
        let names = classify(&sample.backend);
        let slot = match names.class {
            "pdac" => 0,
            "edac" => 1,
            _ => 2,
        };
        let smoothed = match ewma[slot] {
            Some(prev) => prev + cfg.ewma_alpha * (scored.budget_frac - prev),
            None => scored.budget_frac,
        };
        ewma[slot] = Some(smoothed);

        pdac_telemetry::gauge_set(names.ewma, smoothed);
        pdac_telemetry::gauge_set(names.frac, scored.budget_frac);
        pdac_telemetry::observe(names.hist, scored.budget_frac);

        if let Some(severity) = scored.severity {
            shared.alerts.fetch_add(1, Ordering::Relaxed);
            pdac_telemetry::counter_add(names.alert, 1);
            // Report the dominant measure against its own budget so the
            // alert record reads as "measured X, budget Y" directly.
            let mult = if sample.op == "grouped" {
                cfg.grouped_budget_mult.max(1.0)
            } else {
                1.0
            };
            let per_budget = mult * cfg.per_element_slack * cfg.per_element_budget;
            let fro_budget = mult * cfg.gemm_budget;
            let (measured, budget) =
                if scored.rel_fro / fro_budget >= scored.per_element / per_budget {
                    (scored.rel_fro, fro_budget)
                } else {
                    (scored.per_element, per_budget)
                };
            health::raise(severity, &sample.backend, sample.op, measured, budget);
        }
    }
}

/// Owns a running sentinel: dropping it without [`finish`] leaks the
/// worker (it parks on the channel), so serve integrations call
/// `finish` on shutdown.
///
/// [`finish`]: SentinelHandle::finish
#[derive(Debug)]
pub struct SentinelHandle {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

impl SentinelHandle {
    /// Counters so far, without stopping the sentinel. `scored` lags
    /// `sampled` while the worker drains.
    pub fn stats(&self) -> SentinelStats {
        SentinelStats {
            sampled: self.shared.sampled.load(Ordering::Relaxed),
            dropped: self.shared.dropped.load(Ordering::Relaxed),
            scored: self.shared.scored.load(Ordering::Relaxed),
            alerts: self.shared.alerts.load(Ordering::Relaxed),
            worst_frac: f64::from_bits(self.shared.worst_frac_bits.load(Ordering::Relaxed)),
        }
    }

    /// Uninstalls the tap, drains and joins the worker, and returns the
    /// final counters. Alerts already raised stay in the global health
    /// ledger — finishing the sentinel does not release a latched
    /// critical state.
    pub fn finish(mut self) -> SentinelStats {
        pdac_nn::tap::uninstall();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
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

    fn full_rate() -> SentinelConfig {
        SentinelConfig {
            rate: 1.0,
            ..SentinelConfig::default()
        }
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
    fn rate_parse_accepts_unset_and_finite_nonnegative_rates() {
        assert_eq!(
            SentinelConfig::parse(None).map(|c| c.rate),
            Ok(DEFAULT_RATE)
        );
        for (raw, rate) in [("0", 0.0), ("0.5", 0.5), ("1.0", 1.0), (" 0.25 ", 0.25)] {
            assert_eq!(
                SentinelConfig::parse(Some(raw)).map(|c| c.rate),
                Ok(rate),
                "{raw}"
            );
        }
    }

    #[test]
    fn rate_parse_names_the_variable_and_the_bad_value() {
        for raw in ["off", "", "2%", "-0.1", "inf", "NaN"] {
            let err = SentinelConfig::parse(Some(raw)).expect_err(raw);
            assert!(
                err.contains("PDAC_SENTINEL_RATE") && err.contains(&format!("{raw:?}")),
                "{err}"
            );
        }
    }

    #[test]
    fn clean_pdac_run_scores_green_and_raises_nothing() {
        let _guard = test_guard();
        health::reset();
        let handle = Sentinel::install(full_rate());
        let backend = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "pdac8");
        drive(&backend, 6, 0x00C1_EA11);
        let stats = handle.finish();
        assert!(stats.sampled >= 6, "policy skipped samples: {stats:?}");
        assert_eq!(stats.scored + stats.dropped, stats.sampled);
        assert!(stats.scored > 0, "worker scored nothing: {stats:?}");
        assert_eq!(stats.alerts, 0, "clean run must stay green: {stats:?}");
        assert!(
            stats.worst_frac < SentinelConfig::default().warn_frac,
            "clean pdac8 drift must sit below warn: {stats:?}"
        );
        assert_eq!(health::status(), pdac_telemetry::HealthStatus::Ok);
        health::reset();
    }

    #[test]
    fn faulty_pdac_latches_critical() {
        let _guard = test_guard();
        health::reset();
        let handle = Sentinel::install(full_rate());
        let spec = FaultSpec::none().with_tia_gain_drift(0.5);
        let backend = AnalogGemm::new(
            FaultyPDac::new(PDac::with_optimal_approx(8).unwrap(), spec),
            "pdac8-tia",
        );
        drive(&backend, 4, 0xFA_017);
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
        let cfg = SentinelConfig {
            rate: 0.25,
            ..SentinelConfig::default()
        };
        let backend = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "pdac8");
        let run = || {
            let handle = Sentinel::install(cfg.clone());
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
        let cfg = SentinelConfig::default();
        let exact = Mat::from_rows(1, 4, vec![1.0, -1.0, 2.0, -2.0]).unwrap();
        // Identical result: zero drift, no severity.
        let clean = score(&cfg, "matmul", &exact, &exact).unwrap();
        assert_eq!(clean.budget_frac, 0.0);
        assert_eq!(clean.severity, None);
        // 30% relative error on every element: rel_fro = 0.3 = 2x the
        // 0.15 GEMM budget -> critical.
        let drifted = Mat::from_rows(1, 4, vec![1.3, -1.3, 2.6, -2.6]).unwrap();
        let bad = score(&cfg, "matmul", &exact, &drifted).unwrap();
        assert!((bad.rel_fro - 0.3).abs() < 1e-12);
        assert!(bad.budget_frac >= 2.0 - 1e-12);
        assert_eq!(bad.severity, Some(Severity::Critical));
        // The grouped op class gets its budgets scaled, so the same
        // drift spends proportionally less of its (larger) budget.
        let grouped = score(&cfg, "grouped", &exact, &drifted).unwrap();
        let expected = bad.budget_frac / cfg.grouped_budget_mult;
        assert!((grouped.budget_frac - expected).abs() < 1e-12);
        // Shape mismatch refuses to score.
        assert!(score(&cfg, "matmul", &exact, &Mat::zeros(2, 2)).is_none());
    }

    #[test]
    fn grouped_samples_replay_blockwise() {
        let mut rng = SplitMix64::seed_from_u64(0x6E0);
        let (g, k, n) = (3, 8, 5);
        let a = random_mat(g, k, &mut rng);
        let b = random_mat(g * k, n, &mut rng);
        let mut out = Mat::zeros(g, n);
        a.matmul_grouped_into(&b, &mut out).unwrap();
        let sample = GemmSample {
            backend: "pdac8".into(),
            op: "grouped",
            a,
            b,
            out: out.clone(),
        };
        let exact = exact_replay(&sample).unwrap();
        assert_eq!(exact.shape(), out.shape());
        // The grouped kernel promises row-for-row bit identity with the
        // per-block product, so the replay must agree to rounding.
        assert!(exact.distance(&out) < 1e-12);
    }
}
