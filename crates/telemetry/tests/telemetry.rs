//! Integration tests for `pdac-telemetry`: histogram boundaries, span
//! nesting, deterministic clocks, JSONL round trips and concurrency.

use std::sync::Arc;
use std::thread;

use pdac_telemetry::json::{self, Json};
use pdac_telemetry::metrics::{bin_for, bucket_bounds, Bin, Histogram, BUCKETS, MIN_EXP};
use pdac_telemetry::{Collector, ManualClock};

// ---------------------------------------------------------------------------
// Histogram bucket boundaries
// ---------------------------------------------------------------------------

#[test]
fn zero_and_subnormals_underflow() {
    assert_eq!(bin_for(0.0), Bin::Under);
    assert_eq!(bin_for(-0.0), Bin::Under);
    assert_eq!(bin_for(f64::MIN_POSITIVE / 2.0), Bin::Under); // subnormal
    assert_eq!(bin_for(f64::from_bits(1)), Bin::Under); // smallest subnormal
    assert_eq!(bin_for(f64::MIN_POSITIVE), Bin::Under); // 2^-1022 < 2^-64
}

#[test]
fn bucket_boundaries_are_half_open() {
    // Exactly 2^-64 is the first bucket's inclusive lower bound.
    let lo = 2.0f64.powi(MIN_EXP);
    assert_eq!(bin_for(lo), Bin::Bucket(0));
    // One ULP below lands in underflow.
    assert_eq!(bin_for(lo * 0.999), Bin::Under);
    // 1.0 = 2^0 opens bucket 64; the value just below it closes bucket 63.
    assert_eq!(bin_for(1.0), Bin::Bucket(64));
    assert_eq!(bin_for(0.999_999), Bin::Bucket(63));
    assert_eq!(bin_for(1.999_999), Bin::Bucket(64));
    assert_eq!(bin_for(2.0), Bin::Bucket(65));
}

#[test]
fn top_bucket_and_overflow() {
    let top = 2.0f64.powi(MIN_EXP + BUCKETS as i32 - 1);
    assert_eq!(bin_for(top), Bin::Bucket(BUCKETS - 1));
    // The largest finite value below 2^64 stays in the top bucket.
    assert_eq!(bin_for(top * 1.999_999), Bin::Bucket(BUCKETS - 1));
    // 2^64 and everything above (including +inf) overflow.
    assert_eq!(bin_for(2.0f64.powi(64)), Bin::Over);
    assert_eq!(bin_for(f64::MAX), Bin::Over);
    assert_eq!(bin_for(f64::INFINITY), Bin::Over);
}

#[test]
fn negative_and_nan_rejected() {
    assert_eq!(bin_for(-1.0), Bin::Negative);
    assert_eq!(bin_for(f64::NEG_INFINITY), Bin::Negative);
    assert_eq!(bin_for(f64::NAN), Bin::Nan);
}

#[test]
fn bucket_bounds_match_bin_for() {
    for i in [0, 1, 63, 64, 65, BUCKETS - 1] {
        let (lo, hi) = bucket_bounds(i);
        assert_eq!(bin_for(lo), Bin::Bucket(i), "lower bound of bucket {i}");
        let inside = lo * 1.5;
        assert_eq!(bin_for(inside), Bin::Bucket(i), "midpoint of bucket {i}");
        assert!(hi / lo == 2.0);
    }
}

#[test]
fn histogram_routes_edge_samples() {
    let h = Histogram::new();
    h.record(0.0);
    h.record(f64::MIN_POSITIVE); // subnormal territory: below 2^-64
    h.record(1.5);
    h.record(f64::INFINITY);
    h.record(-3.0);
    h.record(f64::NAN);
    assert_eq!(h.underflow_count(), 2);
    assert_eq!(h.bucket_count(64), 1);
    assert_eq!(h.overflow_count(), 1);
    assert_eq!(h.negative_count(), 1);
    assert_eq!(h.nan_count(), 1);
    // Accepted = everything but negative and NaN.
    assert_eq!(h.count(), 4);
    assert_eq!(h.min(), Some(0.0));
    assert_eq!(h.max(), Some(f64::INFINITY));
}

#[test]
fn quantiles_track_bucket_midpoints() {
    let h = Histogram::new();
    for _ in 0..99 {
        h.record(1.0); // bucket 64: [1, 2)
    }
    h.record(1000.0); // bucket 73: [512, 1024)
    let p50 = h.quantile(0.5).unwrap();
    assert!((1.0..2.0).contains(&p50), "p50 {p50}");
    let p100 = h.quantile(1.0).unwrap();
    assert!((512.0..1024.0).contains(&p100), "p100 {p100}");
    assert!(h.quantile(0.0).is_some());
    assert!(Histogram::new().quantile(0.5).is_none());
}

#[test]
fn quantile_empty_histogram_is_none() {
    let h = Histogram::new();
    assert!(h.quantile(0.0).is_none());
    assert!(h.quantile(0.5).is_none());
    assert!(h.quantile(1.0).is_none());
}

#[test]
fn quantile_single_sample_reports_its_bucket_at_every_q() {
    let h = Histogram::new();
    h.record(3.0); // bucket 65: [2, 4)
    for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
        let v = h.quantile(q).unwrap();
        assert!((2.0..4.0).contains(&v), "q={q} gave {v}");
    }
}

#[test]
fn quantile_exact_bucket_boundary_values() {
    // Samples sitting exactly on inclusive lower bounds of adjacent
    // buckets: 1.0 opens bucket 64 ([1,2)), 2.0 opens bucket 65 ([2,4)).
    let h = Histogram::new();
    for _ in 0..50 {
        h.record(1.0);
    }
    for _ in 0..50 {
        h.record(2.0);
    }
    // Rank 50 of 100 is the last sample of the lower bucket.
    let p50 = h.quantile(0.5).unwrap();
    assert!((1.0..2.0).contains(&p50), "p50 {p50}");
    // Rank 95/99 land in the upper bucket.
    let p95 = h.quantile(0.95).unwrap();
    assert!((2.0..4.0).contains(&p95), "p95 {p95}");
    let p99 = h.quantile(0.99).unwrap();
    assert!((2.0..4.0).contains(&p99), "p99 {p99}");
}

#[test]
fn quantile_underflow_reports_lowest_boundary() {
    let h = Histogram::new();
    h.record(0.0);
    h.record(0.0);
    assert_eq!(h.quantile(0.5), Some(bucket_bounds(0).0));
}

#[test]
fn snapshot_carries_p50_p95_p99() {
    let collector = Collector::new();
    for i in 1..=100 {
        collector.histogram("lat").record(i as f64);
    }
    let snap = collector.snapshot();
    let h = &snap.histograms[0];
    assert_eq!(h.name, "lat");
    assert!(h.p50 <= h.p95 && h.p95 <= h.p99, "{h:?}");
    assert!(h.p50 >= 1.0 && h.p99 <= 128.0, "{h:?}");
    let doc = json::parse(&snap.to_json()).unwrap();
    let hist = doc.get("histograms").and_then(Json::as_arr).unwrap();
    assert!(hist[0].get("p95").and_then(Json::as_f64).is_some());
    assert!(snap.render_table().contains("p95"));
}

// ---------------------------------------------------------------------------
// Spans: nesting order and deterministic timing
// ---------------------------------------------------------------------------

#[test]
fn span_nesting_records_depth_and_order() {
    let clock = Arc::new(ManualClock::new());
    let collector = Collector::with_clock(clock.clone());
    {
        let _outer = collector.span("outer");
        clock.advance_ns(10);
        {
            let _inner = collector.span("inner");
            clock.advance_ns(5);
        }
        clock.advance_ns(3);
    }
    let events = collector.events();
    // Inner drops first, so it is the older event.
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].name, "inner");
    assert_eq!(events[0].depth, 1);
    assert_eq!(events[1].name, "outer");
    assert_eq!(events[1].depth, 0);
    // Outer's interval encloses inner's.
    assert!(events[1].start_ns <= events[0].start_ns);
    assert!(events[1].end_ns >= events[0].end_ns);
}

#[test]
fn manual_clock_gives_exact_span_durations() {
    let clock = Arc::new(ManualClock::new());
    let collector = Collector::with_clock(clock.clone());
    {
        let _span = collector.span("timed");
        clock.advance_ns(1_500_000_000); // exactly 1.5 s
    }
    let events = collector.events();
    assert_eq!(events[0].elapsed_ns(), 1_500_000_000);
    let h = collector.histogram("timed");
    assert_eq!(h.count(), 1);
    assert!((h.sum() - 1.5).abs() < 1e-12);
}

#[test]
fn disabled_collector_spans_are_inert() {
    let collector = Collector::new();
    collector.set_enabled(false);
    {
        let span = collector.span("ghost");
        assert!(!span.is_recording());
    }
    collector.add("ghost.counter", 7);
    assert!(collector.events().is_empty());
    let snap = collector.snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.histograms.is_empty());
}

#[test]
fn event_ring_is_bounded() {
    let clock = Arc::new(ManualClock::new());
    let collector = Collector::with_clock(clock.clone());
    for _ in 0..5000 {
        let _s = collector.span("tick");
        clock.advance_ns(1);
    }
    assert_eq!(
        collector.events().len(),
        pdac_telemetry::registry::DEFAULT_EVENT_CAPACITY
    );
    // The histogram still saw every occurrence.
    assert_eq!(collector.histogram("tick").count(), 5000);
}

// ---------------------------------------------------------------------------
// JSONL round trip
// ---------------------------------------------------------------------------

#[test]
fn jsonl_snapshot_round_trips() {
    let clock = Arc::new(ManualClock::new());
    let collector = Collector::with_clock(clock.clone());
    collector.add("runs", 3);
    collector.set("temp_c", -12.25);
    {
        let _s = collector.span("stage");
        clock.advance_ns(250);
    }

    let line = collector.snapshot().to_json();
    assert!(!line.contains('\n'), "a snapshot must fit one JSONL line");
    let doc = json::parse(&line).expect("snapshot JSON must parse");
    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get("runs"))
            .and_then(Json::as_u64),
        Some(3)
    );
    assert_eq!(
        doc.get("gauges")
            .and_then(|g| g.get("temp_c"))
            .and_then(Json::as_f64),
        Some(-12.25)
    );
    let hists = doc.get("histograms").and_then(Json::as_arr).unwrap();
    assert_eq!(hists.len(), 1);
    assert_eq!(hists[0].get("name").and_then(Json::as_str), Some("stage"));
    assert_eq!(hists[0].get("count").and_then(Json::as_u64), Some(1));
    let sum = hists[0].get("sum").and_then(Json::as_f64).unwrap();
    assert!((sum - 250e-9).abs() < 1e-18);
}

// ---------------------------------------------------------------------------
// Concurrency
// ---------------------------------------------------------------------------

#[test]
fn concurrent_counter_increments_are_lossless() {
    let collector = Arc::new(Collector::new());
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let c = Arc::clone(&collector);
            thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    c.counter("shared").inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        collector.counter("shared").get(),
        THREADS as u64 * PER_THREAD
    );
}

#[test]
fn concurrent_histogram_records_are_lossless() {
    let collector = Arc::new(Collector::new());
    const THREADS: usize = 4;
    const PER_THREAD: usize = 5_000;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let c = Arc::clone(&collector);
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    c.histogram("h").record((t * PER_THREAD + i) as f64 + 1.0);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let h = collector.histogram("h");
    let n = (THREADS * PER_THREAD) as u64;
    assert_eq!(h.count(), n);
    // Sum of 1..=n under a CAS loop must be exact (all values integral,
    // well inside f64's 2^53 window).
    let expected = (n * (n + 1) / 2) as f64;
    assert_eq!(h.sum(), expected);
    assert_eq!(h.min(), Some(1.0));
    assert_eq!(h.max(), Some(n as f64));
}

// ---------------------------------------------------------------------------
// Chrome-trace export round trip
// ---------------------------------------------------------------------------

/// Builds a collector with a deterministic clock carrying a small span
/// forest: two request trees plus a retroactive child, dropped out of
/// birth order so the exporter has to re-sort.
fn traced_collector() -> Collector {
    let clock = Arc::new(ManualClock::new());
    let collector = Collector::with_clock(clock.clone());

    // Request 1: root (OwnedSpan, arg=1) with a nested stack child.
    let root1 = collector.open_span("serve.request", pdac_telemetry::TraceCtx::NONE, Some(1));
    clock.advance_ns(1_000);
    {
        let step = collector.span_under("serve.step", root1.ctx());
        clock.advance_ns(2_000);
        {
            let _gemm = collector.span("nn.gemm.exact");
            clock.advance_ns(3_000);
        }
        clock.advance_ns(500);
        drop(step);
    }
    // Retroactive child recorded after the fact (queue-wait style).
    collector.record_span("serve.queue_wait", 200, 900, root1.ctx(), None);

    // Request 2 opens before request 1 closes, closes after it.
    let root2 = collector.open_span("serve.request", pdac_telemetry::TraceCtx::NONE, Some(2));
    clock.advance_ns(250);
    root1.end();
    clock.advance_ns(250);
    root2.end();
    collector
}

#[test]
fn chrome_trace_round_trips_through_parser() {
    let collector = traced_collector();
    let text = pdac_telemetry::export::chrome_trace_string(&collector.events());
    let doc = json::parse(&text).expect("exporter emits parseable JSON");

    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert_eq!(events.len(), 5);

    for (i, ev) in events.iter().enumerate() {
        // Well-formedness: every event is a complete "X" phase record.
        assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"), "event {i}");
        assert!(ev.get("name").and_then(Json::as_str).is_some(), "event {i}");
        assert!(ev.get("cat").and_then(Json::as_str).is_some(), "event {i}");
        let ts = ev.get("ts").and_then(Json::as_f64).expect("ts");
        let dur = ev.get("dur").and_then(Json::as_f64).expect("dur");
        assert!(ts >= 0.0 && dur >= 0.0, "event {i}: ts {ts} dur {dur}");
        let args = ev.get("args").expect("args");
        assert!(args.get("id").and_then(Json::as_f64).is_some(), "event {i}");
        assert!(
            args.get("parent").and_then(Json::as_f64).is_some(),
            "event {i}"
        );
    }

    // Timestamps are monotone non-decreasing in document order.
    let ts: Vec<f64> = events
        .iter()
        .map(|e| e.get("ts").and_then(Json::as_f64).unwrap())
        .collect();
    assert!(
        ts.windows(2).all(|w| w[0] <= w[1]),
        "ts not monotone: {ts:?}"
    );

    // Every parent id appears before any of its children.
    let mut seen = std::collections::HashSet::new();
    seen.insert(0u64); // TraceCtx::NONE — roots have parent 0
    for (i, ev) in events.iter().enumerate() {
        let args = ev.get("args").unwrap();
        let id = args.get("id").and_then(Json::as_f64).unwrap() as u64;
        let parent = args.get("parent").and_then(Json::as_f64).unwrap() as u64;
        assert!(seen.contains(&parent), "event {i}: parent {parent} unseen");
        seen.insert(id);
    }

    // The request roots carry their request id as the arg payload.
    let roots: Vec<u64> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("serve.request"))
        .map(|e| {
            e.get("args")
                .unwrap()
                .get("arg")
                .and_then(Json::as_f64)
                .unwrap() as u64
        })
        .collect();
    assert_eq!(roots, vec![1, 2]);
}

#[test]
fn chrome_trace_categories_and_durations_are_exact() {
    let collector = traced_collector();
    let text = pdac_telemetry::export::chrome_trace_string(&collector.events());
    let doc = json::parse(&text).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();

    let find = |name: &str| {
        events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no event named {name}"))
    };
    // Category is the first dot segment of the span name.
    assert_eq!(
        find("serve.step").get("cat").and_then(Json::as_str),
        Some("serve")
    );
    assert_eq!(
        find("nn.gemm.exact").get("cat").and_then(Json::as_str),
        Some("nn")
    );
    // ManualClock ticks are nanoseconds; Chrome wants microseconds.
    let gemm = find("nn.gemm.exact");
    assert!((gemm.get("dur").and_then(Json::as_f64).unwrap() - 3.0).abs() < 1e-9);
    let wait = find("serve.queue_wait");
    assert!((wait.get("ts").and_then(Json::as_f64).unwrap() - 0.2).abs() < 1e-9);
    assert!((wait.get("dur").and_then(Json::as_f64).unwrap() - 0.7).abs() < 1e-9);
}
