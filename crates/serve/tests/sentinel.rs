//! End-to-end drift-sentinel proof over a live token server.
//!
//! Each fault class from the verify crate's fault injector is driven
//! through a real serve run with the sentinel armed at full rate; the
//! matching `health.alert.*` counter and ledger record must appear at
//! critical severity, while the identical clean run stays green. Lives
//! in its own integration-test process because the tap and the health
//! ledger are process-global ambients.

#![cfg(feature = "sentinel")]

use pdac_nn::{AnalogGemm, ExactGemm, PagedConfig, TransformerConfig, TransformerModel};
use pdac_serve::{Request, TokenServer};
use pdac_telemetry::health;
use pdac_verify::sentinel::{
    test_guard, Sentinel, SentinelStats, Severity, CRITICAL_FRAC, WARN_FRAC,
};
use pdac_verify::{FaultSpec, FaultyPDac, SlotFault};

fn model() -> TransformerModel {
    TransformerModel::random(TransformerConfig::tiny(), 4, 7)
}

fn prompt_rows(m: &TransformerModel, len: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = pdac_math::rng::SplitMix64::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            (0..m.config().hidden)
                .map(|_| rng.gen_range_f64(-1.0, 1.0))
                .collect()
        })
        .collect()
}

fn pdac8() -> pdac_core::pdac::PDac {
    pdac_core::pdac::PDac::with_optimal_approx(8).unwrap()
}

/// Serves a fixed request mix through `backend` with the sentinel armed
/// at full rate, returning the run's completions and sentinel counters.
fn serve_sampled(
    m: &TransformerModel,
    backend: &dyn pdac_nn::GemmBackend,
) -> (Vec<pdac_serve::Completion>, SentinelStats) {
    let handle = Sentinel::install(1.0);
    let mut server = TokenServer::new_paged(m, 2, PagedConfig::default());
    for (id, (p, n)) in [(3usize, 4usize), (1, 3), (5, 4)].into_iter().enumerate() {
        server.admit(Request {
            id: id as u64,
            prompt: prompt_rows(m, p, 20 + id as u64),
            max_new_tokens: n,
        });
    }
    server.run(backend);
    let stats = handle.finish();
    let mut done = server.take_completions();
    done.sort_by_key(|c| c.id);
    (done, stats)
}

#[test]
fn clean_run_stays_green_and_serves_identical_bits() {
    let _guard = test_guard();
    health::reset();
    pdac_telemetry::enable();
    let m = model();
    let backend = AnalogGemm::new(pdac8(), "pdac8");

    // Reference run without any sentinel installed.
    let mut server = TokenServer::new_paged(&m, 2, PagedConfig::default());
    for (id, (p, n)) in [(3usize, 4usize), (1, 3), (5, 4)].into_iter().enumerate() {
        server.admit(Request {
            id: id as u64,
            prompt: prompt_rows(&m, p, 20 + id as u64),
            max_new_tokens: n,
        });
    }
    server.run(&backend);
    let mut plain = server.take_completions();
    plain.sort_by_key(|c| c.id);

    let (sampled, stats) = serve_sampled(&m, &backend);
    assert!(stats.sampled > 0, "full-rate sentinel sampled nothing");
    assert_eq!(stats.scored, stats.sampled);
    assert_eq!(
        stats.alerts, 0,
        "clean pdac8 serve must stay green: {stats:?}"
    );
    assert!(stats.worst_frac < WARN_FRAC, "{stats:?}");
    assert_eq!(health::status(), pdac_telemetry::HealthStatus::Ok);
    assert_eq!(health::ledger().raised(), 0);

    // Shadow sampling observes completed results only: served bits are
    // identical with and without the tap.
    assert_eq!(plain.len(), sampled.len());
    for (a, b) in plain.iter().zip(&sampled) {
        assert_eq!(a.hidden, b.hidden, "sentinel changed served bits");
    }
    health::reset();
}

#[test]
fn every_fault_class_trips_a_critical_alert() {
    let _guard = test_guard();
    pdac_telemetry::enable();
    let m = model();
    let cases: [(&str, FaultSpec); 5] = [
        ("pdac8-tia", FaultSpec::none().with_tia_gain_drift(0.5)),
        ("pdac8-dark", FaultSpec::none().with_dark_current_ratio(0.5)),
        ("pdac8-droop", FaultSpec::none().with_laser_droop(0.4)),
        (
            "pdac8-stuck",
            FaultSpec::none().with_slot_fault(SlotFault::StuckOn(1)),
        ),
        (
            "pdac8-flipped",
            FaultSpec::none().with_slot_fault(SlotFault::Flipped(1)),
        ),
    ];
    for (name, spec) in cases {
        health::reset();
        let backend = AnalogGemm::new(FaultyPDac::new(pdac8(), spec), name);
        let before = alert_counter("health.alert.pdac");
        let (_, stats) = serve_sampled(&m, &backend);
        assert!(
            stats.alerts > 0,
            "{name}: fault escaped the sentinel: {stats:?}"
        );
        assert!(stats.worst_frac >= CRITICAL_FRAC, "{name}: {stats:?}");
        assert!(health::critical_latched(), "{name}: ledger did not latch");
        assert_eq!(health::status(), pdac_telemetry::HealthStatus::Critical);
        // The class counter moved and the ledger names the faulty
        // backend at critical severity.
        assert!(alert_counter("health.alert.pdac") > before, "{name}");
        assert!(
            health::ledger()
                .alerts()
                .iter()
                .any(|a| a.backend == name && a.severity == Severity::Critical),
            "{name}: no critical ledger record"
        );
    }
    health::reset();
}

#[test]
fn failover_reroutes_steps_once_critical_latches() {
    let _guard = test_guard();
    pdac_telemetry::enable();
    let m = model();
    let faulty = AnalogGemm::new(
        FaultyPDac::new(pdac8(), FaultSpec::none().with_tia_gain_drift(0.5)),
        "pdac8-tia",
    );
    // The sentinel latches critical inside the first step's first
    // sampled GEMM, so every later step reroutes to the exact backend,
    // and every run reroutes the same steps.
    let live = || {
        health::reset();
        let handle = Sentinel::install(1.0);
        let mut server = TokenServer::new_paged(&m, 2, PagedConfig::default()).with_failover(true);
        server.admit(Request {
            id: 0,
            prompt: prompt_rows(&m, 2, 42),
            max_new_tokens: 4,
        });
        server.run(&faulty);
        let stats = handle.finish();
        assert_eq!(server.take_completions().len(), 1);
        assert!(server.steps() > 1);
        assert_eq!(server.failover_steps(), server.steps() - 1, "{stats:?}");
        server.failover_steps()
    };
    assert_eq!(live(), live());
    health::reset();

    // Without the opt-in the latch never reroutes.
    health::raise(Severity::Critical, "pdac8", "matmul", 0.5, 0.15);
    let mut unarmed = TokenServer::new_paged(&m, 2, PagedConfig::default());
    unarmed.admit(Request {
        id: 0,
        prompt: prompt_rows(&m, 1, 43),
        max_new_tokens: 2,
    });
    unarmed.run(&ExactGemm);
    assert_eq!(unarmed.failover_steps(), 0);
    health::reset();
}

fn alert_counter(name: &str) -> u64 {
    pdac_telemetry::snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}
