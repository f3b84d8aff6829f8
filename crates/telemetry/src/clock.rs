//! Injectable time sources.
//!
//! Everything in the collector that measures time goes through the
//! [`Clock`] trait so tests can drive spans with a deterministic
//! [`ManualClock`] while production uses the monotonic OS clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond time source.
///
/// The epoch is arbitrary; only differences are meaningful.
pub trait Clock: Send + Sync {
    /// Current time in nanoseconds since the clock's own epoch.
    fn now_ns(&self) -> u64;
}

/// Real monotonic clock backed by [`std::time::Instant`].
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        // Saturates after ~584 years of process uptime.
        self.origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }
}

/// Deterministic clock for tests: time only moves when told to.
///
/// Shared via `Arc` between the test body (which advances it) and the
/// collector (which reads it).
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Move time forward by `ns` nanoseconds.
    pub fn advance_ns(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}
