//! Process-wide health surface: a severity-graded alert ledger with a
//! critical latch.
//!
//! The drift sentinel (`pdac-verify`) scores live analog operations
//! against the paper's error budgets and raises alerts here; the serving
//! layer reads the surface back — the `/health` endpoint reports
//! ok/degraded/critical with the active alerts, and `TokenServer` can
//! (opt-in) fail over to the exact backend once [`critical_latched`]
//! trips. The ledger is a bounded ring in the same per-slot-mutex style
//! as [`crate::trace::TraceBuffer`]: raising an alert never blocks on
//! readers, overflow keeps the newest records, and drops are counted.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::json::Json;

/// How bad a single alert is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Drift above the warn fraction of a budget but still inside it.
    Warn,
    /// Drift at or beyond a paper budget.
    Critical,
}

impl Severity {
    /// Stable lowercase label used in reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Critical => "critical",
        }
    }
}

/// Aggregate health verdict over the whole ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthStatus {
    /// No alerts raised since the last reset.
    Ok,
    /// Warn-level alerts only.
    Degraded,
    /// At least one critical alert latched.
    Critical,
}

impl HealthStatus {
    /// Stable lowercase label used in reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Critical => "critical",
        }
    }
}

/// One structured alert: who drifted, by how much, against which budget.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRecord {
    /// Collector timestamp (ns) when the alert was raised (0 when the
    /// collector was disabled).
    pub ts_ns: u64,
    /// Alert severity.
    pub severity: Severity,
    /// Backend name as reported by the GEMM backend (e.g. `pdac-8b`).
    pub backend: String,
    /// Operation class that was sampled (e.g. `batch`, `grouped`).
    pub op: String,
    /// The measured error metric.
    pub measured: f64,
    /// The budget the metric was held against.
    pub budget: f64,
}

impl AlertRecord {
    /// One JSON object for this alert (JSONL line / `/health` payload).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("ts_ns".into(), Json::Int(self.ts_ns)),
            ("severity".into(), Json::Str(self.severity.label().into())),
            ("backend".into(), Json::Str(self.backend.clone())),
            ("op".into(), Json::Str(self.op.clone())),
            ("measured".into(), Json::Num(self.measured)),
            ("budget".into(), Json::Num(self.budget)),
        ])
    }
}

/// Bounded alert ring with severity counters and a critical latch.
pub struct HealthLedger {
    slots: Box<[Mutex<Option<AlertRecord>>]>,
    head: AtomicU64,
    warn: AtomicU64,
    critical: AtomicU64,
    critical_latched: AtomicBool,
}

/// Alert-ring capacity of the global ledger.
pub const DEFAULT_ALERT_CAPACITY: usize = 256;

impl HealthLedger {
    /// A ledger holding at most `capacity` newest alerts (clamped to 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let slots = (0..capacity)
            .map(|_| Mutex::new(None))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            slots,
            head: AtomicU64::new(0),
            warn: AtomicU64::new(0),
            critical: AtomicU64::new(0),
            critical_latched: AtomicBool::new(false),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total alerts raised since the last reset.
    pub fn raised(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Alerts evicted from the ring by overflow.
    pub fn dropped(&self) -> u64 {
        self.raised().saturating_sub(self.slots.len() as u64)
    }

    /// Warn-level alerts raised since the last reset.
    pub fn warn_count(&self) -> u64 {
        self.warn.load(Ordering::Relaxed)
    }

    /// Critical alerts raised since the last reset.
    pub fn critical_count(&self) -> u64 {
        self.critical.load(Ordering::Relaxed)
    }

    /// Whether a critical alert has latched since the last reset.
    pub fn critical_latched(&self) -> bool {
        self.critical_latched.load(Ordering::Relaxed)
    }

    /// Aggregate verdict: critical latch beats warn beats ok.
    pub fn status(&self) -> HealthStatus {
        if self.critical_latched() {
            HealthStatus::Critical
        } else if self.warn_count() > 0 {
            HealthStatus::Degraded
        } else {
            HealthStatus::Ok
        }
    }

    /// Record one alert (never blocks behind readers for long: each slot
    /// has its own lock).
    pub fn raise(&self, record: AlertRecord) {
        match record.severity {
            Severity::Warn => self.warn.fetch_add(1, Ordering::Relaxed),
            Severity::Critical => {
                self.critical_latched.store(true, Ordering::Relaxed);
                self.critical.fetch_add(1, Ordering::Relaxed)
            }
        };
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.slots.len() as u64) as usize;
        *self.slots[slot].lock().unwrap() = Some(record);
    }

    /// The retained alerts, oldest first.
    pub fn alerts(&self) -> Vec<AlertRecord> {
        let head = self.head.load(Ordering::Relaxed);
        let capacity = self.slots.len() as u64;
        let start = head.saturating_sub(capacity);
        let mut out = Vec::new();
        for seq in start..head {
            let slot = (seq % capacity) as usize;
            if let Some(record) = self.slots[slot].lock().unwrap().clone() {
                out.push(record);
            }
        }
        out
    }

    /// JSONL: one line per retained alert.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for alert in self.alerts() {
            out.push_str(&alert.to_json().render());
            out.push('\n');
        }
        out
    }

    /// The full health surface as one JSON object (the `/health` body).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("status".into(), Json::Str(self.status().label().into())),
            (
                "critical_latched".into(),
                Json::Bool(self.critical_latched()),
            ),
            ("alerts_raised".into(), Json::Int(self.raised())),
            ("alerts_warn".into(), Json::Int(self.warn_count())),
            ("alerts_critical".into(), Json::Int(self.critical_count())),
            ("alerts_dropped".into(), Json::Int(self.dropped())),
            (
                "alerts".into(),
                Json::Arr(self.alerts().iter().map(AlertRecord::to_json).collect()),
            ),
        ])
    }

    /// Clear the ring, zero the counters and release the critical latch.
    pub fn reset(&self) {
        for slot in self.slots.iter() {
            *slot.lock().unwrap() = None;
        }
        self.head.store(0, Ordering::Relaxed);
        self.warn.store(0, Ordering::Relaxed);
        self.critical.store(0, Ordering::Relaxed);
        self.critical_latched.store(false, Ordering::Relaxed);
    }
}

static LEDGER: OnceLock<HealthLedger> = OnceLock::new();

/// The process-wide ledger, holding the newest [`DEFAULT_ALERT_CAPACITY`]
/// alerts.
pub fn ledger() -> &'static HealthLedger {
    LEDGER.get_or_init(|| HealthLedger::new(DEFAULT_ALERT_CAPACITY))
}

/// Raise an alert on the global ledger and bump the matching
/// `health.alert.{warn,critical}` counter.
pub fn raise(severity: Severity, backend: &str, op: &str, measured: f64, budget: f64) {
    crate::counter_add(
        match severity {
            Severity::Warn => "health.alert.warn",
            Severity::Critical => "health.alert.critical",
        },
        1,
    );
    ledger().raise(AlertRecord {
        ts_ns: crate::now_ns(),
        severity,
        backend: backend.to_string(),
        op: op.to_string(),
        measured,
        budget,
    });
}

/// Aggregate verdict of the global ledger.
pub fn status() -> HealthStatus {
    ledger().status()
}

/// Whether a critical alert has latched on the global ledger.
#[inline]
pub fn critical_latched() -> bool {
    LEDGER.get().is_some_and(HealthLedger::critical_latched)
}

/// Clear the global ledger (tests and between serve runs).
pub fn reset() {
    if let Some(ledger) = LEDGER.get() {
        ledger.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ledger_is_ok() {
        let ledger = HealthLedger::new(4);
        assert_eq!(ledger.status(), HealthStatus::Ok);
        assert!(!ledger.critical_latched());
        assert!(ledger.alerts().is_empty());
        assert_eq!(ledger.dropped(), 0);
    }

    fn alert(severity: Severity, measured: f64) -> AlertRecord {
        AlertRecord {
            ts_ns: 7,
            severity,
            backend: "pdac-8b".into(),
            op: "batch".into(),
            measured,
            budget: 0.15,
        }
    }

    #[test]
    fn warn_degrades_and_critical_latches() {
        let ledger = HealthLedger::new(4);
        ledger.raise(alert(Severity::Warn, 0.08));
        assert_eq!(ledger.status(), HealthStatus::Degraded);
        ledger.raise(alert(Severity::Critical, 0.3));
        assert_eq!(ledger.status(), HealthStatus::Critical);
        assert!(ledger.critical_latched());
        assert_eq!(ledger.warn_count(), 1);
        assert_eq!(ledger.critical_count(), 1);
        // The latch survives even if the record is evicted later.
        for i in 0..8 {
            ledger.raise(alert(Severity::Warn, 0.05 + i as f64 * 0.001));
        }
        assert!(ledger.critical_latched());
        assert_eq!(ledger.status(), HealthStatus::Critical);
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let ledger = HealthLedger::new(3);
        for i in 0..7 {
            ledger.raise(alert(Severity::Warn, i as f64));
        }
        assert_eq!(ledger.raised(), 7);
        assert_eq!(ledger.dropped(), 4);
        let kept: Vec<f64> = ledger.alerts().iter().map(|a| a.measured).collect();
        assert_eq!(kept, vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn reset_releases_the_latch() {
        let ledger = HealthLedger::new(2);
        ledger.raise(alert(Severity::Critical, 1.0));
        assert!(ledger.critical_latched());
        ledger.reset();
        assert_eq!(ledger.status(), HealthStatus::Ok);
        assert!(!ledger.critical_latched());
        assert!(ledger.alerts().is_empty());
        assert_eq!(ledger.raised(), 0);
    }

    #[test]
    fn json_payload_carries_status_and_alerts() {
        let ledger = HealthLedger::new(4);
        ledger.raise(alert(Severity::Critical, 0.42));
        let doc = ledger.to_json();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("critical"));
        let alerts = doc.get("alerts").and_then(Json::as_arr).unwrap();
        assert_eq!(alerts.len(), 1);
        assert_eq!(
            alerts[0].get("backend").and_then(Json::as_str),
            Some("pdac-8b")
        );
        assert_eq!(alerts[0].get("measured").and_then(Json::as_f64), Some(0.42));
        // Every line of the JSONL export parses back.
        for line in ledger.to_jsonl().lines() {
            crate::json::parse(line).expect("alert line parses");
        }
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let ledger = HealthLedger::new(0);
        ledger.raise(alert(Severity::Warn, 1.0));
        assert_eq!(ledger.alerts().len(), 1);
    }
}
