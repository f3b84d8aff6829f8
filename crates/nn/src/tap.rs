//! Inversion-of-control sampling tap for analog GEMM backends.
//!
//! The drift sentinel (`pdac-verify`) needs to shadow-sample live analog
//! operations, but `pdac-nn` cannot depend on `pdac-verify` (the verify
//! crate sits above this one). Instead the analog backends report every
//! completed operation here, and whoever owns the monitoring policy
//! installs a [`GemmTap`] at runtime. With no tap installed the hot-path
//! cost is a single relaxed atomic load per GEMM call; an installed tap
//! sees the operands and the result by reference, on the calling thread,
//! before the GEMM call returns, and decides per call whether to do
//! anything with them.
//!
//! Taps observe, never influence: the backend's output is computed before
//! the tap sees anything and is handed over read-only, so installing or
//! removing a tap can never change a decoded bit (pinned by the
//! `decode.sentinel.on_off_bit_identity` conformance row in
//! `pdac-verify`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use pdac_math::Mat;

/// A sampling policy + sink for analog GEMM operations.
///
/// [`GemmTap::observe`] runs on the decode hot path for every analog
/// GEMM, so an implementation must decide cheaply which calls to act
/// on. It must not call a GEMM backend, which would report to the tap
/// again.
pub trait GemmTap: Send + Sync {
    /// One completed analog GEMM: the backend's name (e.g. `pdac-8b`, as
    /// reported by `GemmBackend::name`), the operation class (`matmul`,
    /// `transient`, `batch` or `grouped`), the operands as the backend
    /// saw them (for `grouped`, `b` is the stacked per-group blocks) and
    /// the result it produced.
    fn observe(&self, backend: &str, op: &'static str, a: &Mat, b: &Mat, out: &Mat);
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
/// fast path. Returns once every in-flight [`observe`] has finished, so
/// the tap's counters are final when this returns.
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
/// the analog backends after `out` is fully computed.
#[inline]
pub fn observe(backend: &str, op: &'static str, a: &Mat, b: &Mat, out: &Mat) {
    if !active() {
        return;
    }
    observe_slow(backend, op, a, b, out);
}

#[cold]
fn observe_slow(backend: &str, op: &'static str, a: &Mat, b: &Mat, out: &Mat) {
    if let Some(tap) = TAP.read().unwrap().as_ref() {
        tap.observe(backend, op, a, b, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Records only its own uniquely-named backend so concurrently
    /// running analog-backend tests (the tap is process-global) cannot
    /// perturb what it sees.
    struct Recorder {
        backend: &'static str,
        seen: Mutex<Vec<(&'static str, Mat, Mat)>>,
    }

    impl GemmTap for Recorder {
        fn observe(&self, backend: &str, op: &'static str, a: &Mat, _b: &Mat, out: &Mat) {
            if backend == self.backend {
                self.seen.lock().unwrap().push((op, a.clone(), out.clone()));
            }
        }
    }

    #[test]
    fn observe_routes_through_installed_tap() {
        const BACKEND: &str = "tap-test-backend";
        let a = Mat::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Mat::identity(2);
        let out = a.clone();

        // No tap: nothing happens, nothing panics.
        observe(BACKEND, "matmul", &a, &b, &out);

        let tap = Arc::new(Recorder {
            backend: BACKEND,
            seen: Mutex::new(Vec::new()),
        });
        install(tap.clone());
        assert!(active());
        let held = installed().expect("a tap is installed");
        assert!(std::ptr::addr_eq(Arc::as_ptr(&held), Arc::as_ptr(&tap)));
        observe(BACKEND, "matmul", &a, &b, &out);
        uninstall();
        assert!(!active());
        assert!(installed().is_none());
        // After uninstall the backend fast path is restored.
        observe(BACKEND, "transient", &a, &b, &out);

        let seen = tap.seen.lock().unwrap();
        assert_eq!(*seen, [("matmul", a, out)]);
    }
}
