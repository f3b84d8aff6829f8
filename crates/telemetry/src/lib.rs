//! `pdac-telemetry`: zero-dependency tracing and metrics for the P-DAC
//! simulation stack.
//!
//! The crate provides atomic [`Counter`]s and [`Gauge`]s, fixed-bucket
//! log-scale [`Histogram`]s, RAII [`Span`] timers with nesting, an
//! injectable [`Clock`] (monotonic or deterministic), and [`Snapshot`]s
//! that render as JSON (a hand-rolled serializer) or a fixed-width table.
//!
//! # One switch, three levels
//!
//! Collection is switched at run time only. The global collector starts
//! *off*: every hot-path entry point is then one relaxed atomic load and
//! records nothing. [`enable`] turns on *full* collection (metrics and
//! span events); [`set_tracing`]`(false)` drops to *metrics-only*, where
//! counters, gauges and histograms still record but no span event does.
//!
//! # Quickstart
//!
//! ```
//! pdac_telemetry::enable();
//! {
//!     let _span = pdac_telemetry::span("demo.work");
//!     pdac_telemetry::counter_add("demo.items", 3);
//! }
//! let snap = pdac_telemetry::snapshot();
//! assert_eq!(snap.counters[0], ("demo.items".to_string(), 3));
//! println!("{}", snap.to_json());
//! # pdac_telemetry::disable();
//! # pdac_telemetry::reset();
//! ```

pub mod clock;
pub mod export;
pub mod health;
pub mod http;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod span;
pub mod trace;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use export::{chrome_trace, prometheus_text};
pub use health::{AlertRecord, HealthLedger, HealthStatus, Severity};
pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram};
pub use registry::{Collector, HistogramSummary, Snapshot, SpanEvent};
pub use span::{OwnedSpan, Span, TraceCtx};
pub use trace::TraceBuffer;

mod global {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::OnceLock;

    use crate::registry::{Collector, Snapshot, DEFAULT_EVENT_CAPACITY};
    use crate::span::{OwnedSpan, Span, TraceCtx};

    static GLOBAL: OnceLock<Collector> = OnceLock::new();
    static ACTIVE: AtomicBool = AtomicBool::new(false);

    fn collector(trace_capacity: usize) -> Collector {
        Collector::with_clock_and_capacity(
            std::sync::Arc::new(crate::clock::MonotonicClock::new()),
            trace_capacity,
        )
    }

    /// The process-wide collector (created on first use, starts disabled).
    /// Its span-event ring holds [`DEFAULT_EVENT_CAPACITY`] events unless
    /// [`init_trace_capacity`] sized it first.
    pub fn global() -> &'static Collector {
        GLOBAL.get_or_init(|| collector(DEFAULT_EVENT_CAPACITY))
    }

    /// Creates the process-wide collector with a span-event ring of
    /// `capacity` events (clamped to ≥ 1). The ring is sized once, at
    /// creation: returns `false`, changing nothing, when the collector
    /// already exists.
    pub fn init_trace_capacity(capacity: usize) -> bool {
        let mut created = false;
        GLOBAL.get_or_init(|| {
            created = true;
            collector(capacity)
        });
        created
    }

    /// Turn global collection on.
    pub fn enable() {
        global().set_enabled(true);
        ACTIVE.store(true, Ordering::SeqCst);
    }

    /// Turn global collection off; instrumentation returns to ~1 atomic
    /// load per call site.
    pub fn disable() {
        ACTIVE.store(false, Ordering::SeqCst);
        if let Some(c) = GLOBAL.get() {
            c.set_enabled(false);
        }
    }

    /// Whether the global collector is currently recording.
    #[inline]
    pub fn is_enabled() -> bool {
        ACTIVE.load(Ordering::Relaxed)
    }

    /// Open a span against the global collector (inert when disabled).
    #[inline]
    pub fn span(name: &'static str) -> Span<'static> {
        if is_enabled() {
            global().span(name)
        } else {
            Span::noop()
        }
    }

    /// Open a span whose parent is `ctx` instead of the thread's current
    /// span (inert when disabled).
    #[inline]
    pub fn span_under(name: &'static str, ctx: TraceCtx) -> Span<'static> {
        if is_enabled() {
            global().span_under(name, ctx)
        } else {
            Span::noop()
        }
    }

    /// Open a long-lived detached span (see [`OwnedSpan`]); inert when
    /// disabled.
    #[inline]
    pub fn open_span(name: &'static str, parent: TraceCtx, arg: Option<u64>) -> OwnedSpan<'static> {
        if is_enabled() {
            global().open_span(name, parent, arg)
        } else {
            OwnedSpan::noop()
        }
    }

    /// Record a span retroactively with explicit timestamps (no-op when
    /// disabled).
    #[inline]
    pub fn record_span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: TraceCtx,
        arg: Option<u64>,
    ) {
        if is_enabled() {
            global().record_span(name, start_ns, end_ns, parent, arg);
        }
    }

    /// The global clock's current time, for bracketing retroactive spans
    /// (0 when disabled so disabled timestamps are harmless).
    #[inline]
    pub fn now_ns() -> u64 {
        if is_enabled() {
            global().clock().now_ns()
        } else {
            0
        }
    }

    /// The innermost open scoped span on this thread, as a context.
    #[inline]
    pub fn current_ctx() -> TraceCtx {
        crate::span::current_ctx()
    }

    /// Toggle span-*event* recording on the global collector: with
    /// tracing off metrics still record ("metrics-only" level).
    pub fn set_tracing(on: bool) {
        global().set_tracing(on);
    }

    /// Whether the global collector records span events.
    pub fn is_tracing() -> bool {
        global().is_tracing()
    }

    /// Bump a global counter (no-op when disabled).
    #[inline]
    pub fn counter_add(name: &'static str, delta: u64) {
        if is_enabled() {
            global().counter(name).add(delta);
        }
    }

    /// Set a global gauge (no-op when disabled).
    #[inline]
    pub fn gauge_set(name: &'static str, value: f64) {
        if is_enabled() {
            global().gauge(name).set(value);
        }
    }

    /// Record a histogram sample globally (no-op when disabled).
    #[inline]
    pub fn observe(name: &'static str, value: f64) {
        if is_enabled() {
            global().histogram(name).record(value);
        }
    }

    /// Snapshot the global collector.
    pub fn snapshot() -> Snapshot {
        global().snapshot()
    }

    /// Clear every global metric and span event.
    pub fn reset() {
        global().reset();
    }
}

pub use global::{
    counter_add, current_ctx, disable, enable, gauge_set, global, init_trace_capacity, is_enabled,
    is_tracing, now_ns, observe, open_span, record_span, reset, set_tracing, snapshot, span,
    span_under,
};

/// Whether the global health ledger has latched a critical drift alert
/// (see [`health`]). One relaxed atomic load; `false` until the sentinel
/// raises a critical alert.
#[inline]
pub fn health_critical() -> bool {
    health::critical_latched()
}
