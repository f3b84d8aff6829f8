//! The global entry points are inert until `enable()`: they open no span,
//! hand out no context, read no clock and leave every metric untouched.
//!
//! Lives in its own test binary so no other test can switch the
//! process-global collector on first.

use pdac_telemetry::TraceCtx;

#[test]
fn global_entry_points_are_inert_while_off() {
    assert!(!pdac_telemetry::is_enabled());

    {
        let outer = pdac_telemetry::span("off.span");
        assert!(!outer.is_recording());
        assert_eq!(outer.ctx(), TraceCtx::NONE);
        assert_eq!(pdac_telemetry::current_ctx(), TraceCtx::NONE);

        let under = pdac_telemetry::span_under("off.span_under", outer.ctx());
        assert!(!under.is_recording());
        assert_eq!(under.ctx(), TraceCtx::NONE);

        let owned = pdac_telemetry::open_span("off.open_span", TraceCtx::NONE, Some(7));
        assert!(!owned.is_recording());
        assert_eq!(owned.ctx(), TraceCtx::NONE);
        owned.end();
    }
    assert_eq!(pdac_telemetry::current_ctx(), TraceCtx::NONE);

    let t0 = pdac_telemetry::now_ns();
    assert_eq!(t0, 0);
    pdac_telemetry::record_span("off.record_span", t0, t0 + 1_000, TraceCtx::NONE, Some(1));
    pdac_telemetry::counter_add("off.counter", 3);
    pdac_telemetry::gauge_set("off.gauge", 1.5);
    pdac_telemetry::observe("off.histogram", 0.25);
    assert_eq!(pdac_telemetry::now_ns(), 0);

    let snap = pdac_telemetry::snapshot();
    assert!(snap.counters.is_empty(), "counters: {:?}", snap.counters);
    assert!(snap.gauges.is_empty(), "gauges: {:?}", snap.gauges);
    assert!(
        snap.histograms.is_empty(),
        "{} histograms",
        snap.histograms.len()
    );
    assert!(pdac_telemetry::global().events().is_empty());
}
