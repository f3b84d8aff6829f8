//! Inversion-of-control sampling tap for analog GEMM backends.
//!
//! The drift sentinel (`pdac-verify`) needs to shadow-sample live analog
//! operations, but `pdac-nn` cannot depend on `pdac-verify` (the verify
//! crate sits above this one). Instead the analog backends report every
//! completed operation here, and whoever owns the monitoring policy
//! installs a [`GemmTap`] at runtime. With no tap installed the hot-path
//! cost is a single relaxed atomic load per GEMM call; an installed tap
//! decides per call — cheaply, from shapes only — whether to take an
//! owned copy of the operands and result.
//!
//! Taps observe, never influence: the backend's output is computed before
//! the tap sees anything and is handed over as a clone, so installing or
//! removing a tap can never change a decoded bit (pinned by the
//! `decode.sentinel.on_off_bit_identity` conformance row in
//! `pdac-verify`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use pdac_math::Mat;

/// An owned copy of one sampled analog GEMM: the operands as the backend
/// saw them and the result it produced.
#[derive(Debug, Clone)]
pub struct GemmSample {
    /// Backend name (e.g. `pdac-8b`, as reported by `GemmBackend::name`).
    pub backend: String,
    /// Operation class: `matmul`, `transient`, `batch` or `grouped`.
    pub op: &'static str,
    /// Left operand.
    pub a: Mat,
    /// Right operand (for `grouped`, the stacked per-group blocks).
    pub b: Mat,
    /// The analog result to score against an exact replay.
    pub out: Mat,
}

/// A sampling policy + sink for analog GEMM operations.
///
/// Implementations must be cheap in [`GemmTap::should_sample`] (called on
/// the decode hot path for every analog GEMM) and non-blocking in
/// [`GemmTap::deliver`] (drop samples under pressure, never stall the
/// caller).
pub trait GemmTap: Send + Sync {
    /// Decide from shapes alone whether this operation should be sampled.
    fn should_sample(&self, backend: &str, op: &'static str, m: usize, k: usize, n: usize) -> bool;

    /// Accept an owned copy of a sampled operation. Must not block.
    fn deliver(&self, sample: GemmSample);
}

static INSTALLED: AtomicBool = AtomicBool::new(false);
static TAP: RwLock<Option<Arc<dyn GemmTap>>> = RwLock::new(None);

/// Install `tap` as the process-wide GEMM tap (replacing any previous
/// one). Analog backends start reporting to it immediately.
pub fn install(tap: Arc<dyn GemmTap>) {
    *TAP.write().unwrap() = Some(tap);
    INSTALLED.store(true, Ordering::SeqCst);
}

/// Remove the process-wide tap; backends return to the one-atomic-load
/// fast path. The tap's `Arc` is released (a sentinel whose worker waits
/// on sender disconnect observes the hang-up once in-flight observes
/// finish).
pub fn uninstall() {
    INSTALLED.store(false, Ordering::SeqCst);
    *TAP.write().unwrap() = None;
}

/// A handle to the installed tap, if any. Holding it keeps the tap
/// alive across [`uninstall`], so it can be installed again later.
pub fn installed() -> Option<Arc<dyn GemmTap>> {
    TAP.read().unwrap().clone()
}

/// Whether a tap is currently installed (one relaxed load).
#[inline]
pub fn active() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Report a completed analog GEMM to the installed tap, if any. Called by
/// the analog backends after `out` is fully computed; clones only when
/// the tap elects to sample.
#[inline]
pub fn observe(backend: &str, op: &'static str, a: &Mat, b: &Mat, out: &Mat) {
    if !active() {
        return;
    }
    observe_slow(backend, op, a, b, out);
}

#[cold]
fn observe_slow(backend: &str, op: &'static str, a: &Mat, b: &Mat, out: &Mat) {
    let guard = TAP.read().unwrap();
    let Some(tap) = guard.as_ref() else {
        return;
    };
    if !tap.should_sample(backend, op, a.rows(), a.cols(), out.cols()) {
        return;
    }
    tap.deliver(GemmSample {
        backend: backend.to_string(),
        op,
        a: a.clone(),
        b: b.clone(),
        out: out.clone(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    /// Samples only its own uniquely-named backend so concurrently
    /// running analog-backend tests (the tap is process-global) cannot
    /// perturb the counts.
    struct Recorder {
        backend: &'static str,
        min_k: usize,
        asked: AtomicU64,
        samples: Mutex<Vec<GemmSample>>,
    }

    impl GemmTap for Recorder {
        fn should_sample(
            &self,
            backend: &str,
            _op: &'static str,
            _m: usize,
            k: usize,
            _n: usize,
        ) -> bool {
            if backend != self.backend {
                return false;
            }
            self.asked.fetch_add(1, Ordering::Relaxed);
            k >= self.min_k
        }

        fn deliver(&self, sample: GemmSample) {
            self.samples.lock().unwrap().push(sample);
        }
    }

    #[test]
    fn observe_routes_through_installed_tap_and_respects_policy() {
        const BACKEND: &str = "tap-test-backend";
        let a = Mat::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Mat::identity(2);
        let out = a.clone();

        // No tap: nothing happens, nothing panics.
        observe(BACKEND, "matmul", &a, &b, &out);

        let tap = Arc::new(Recorder {
            backend: BACKEND,
            min_k: 2,
            asked: AtomicU64::new(0),
            samples: Mutex::new(Vec::new()),
        });
        install(tap.clone());
        assert!(active());
        let held = installed().expect("a tap is installed");
        assert!(std::ptr::addr_eq(Arc::as_ptr(&held), Arc::as_ptr(&tap)));
        observe(BACKEND, "matmul", &a, &b, &out);
        // Policy veto: a 1-column left operand stays unsampled.
        let thin = Mat::identity(1);
        observe(BACKEND, "transient", &thin, &thin, &thin);
        uninstall();
        assert!(!active());
        assert!(installed().is_none());
        // After uninstall the backend fast path is restored.
        observe(BACKEND, "matmul", &a, &b, &out);

        assert_eq!(tap.asked.load(Ordering::Relaxed), 2);
        let samples = tap.samples.lock().unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].backend, BACKEND);
        assert_eq!(samples[0].op, "matmul");
        assert_eq!(samples[0].a, a);
        assert_eq!(samples[0].out, out);
    }
}
