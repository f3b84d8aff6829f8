//! `init_trace_capacity` sizes the process-wide span-event ring once,
//! before the collector's first use.
//!
//! Lives in its own test binary so no other test creates the global
//! collector first.

#[test]
fn the_global_ring_is_sized_once_before_first_use() {
    assert!(pdac_telemetry::init_trace_capacity(3));
    assert_eq!(pdac_telemetry::global().trace_buffer().capacity(), 3);
    assert!(
        !pdac_telemetry::init_trace_capacity(5),
        "a second sizing must not take"
    );
    assert_eq!(pdac_telemetry::global().trace_buffer().capacity(), 3);
}
