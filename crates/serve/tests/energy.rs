//! The server's per-request energy ledger and load-shed hook.
//!
//! Lives in its own integration-test process because the energy meter is
//! a process-global ambient: installing one while the lib tests decode
//! in parallel would corrupt both sides' expectations.

use pdac_nn::{ExactGemm, PagedConfig, TransformerConfig, TransformerModel};
use pdac_power::meter::EnergyMeter;
use pdac_power::model::{DriverKind, PowerModel};
use pdac_power::{ArchConfig, EnergyModel, OpClass, TechParams};
use pdac_serve::{Request, TokenServer};

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

fn pdac_meter() -> EnergyMeter {
    let pm = PowerModel::new(
        ArchConfig::lt_b(),
        TechParams::calibrated(),
        DriverKind::PhotonicDac,
    );
    EnergyMeter::new(EnergyModel::new(pm), 8)
}

fn serve_all(m: &TransformerModel, max_batch: usize) -> (Vec<pdac_serve::Completion>, f64, f64) {
    let mut server = TokenServer::new_paged(m, max_batch, PagedConfig::default());
    for (id, (p, n)) in [(2usize, 3usize), (0, 2), (4, 4)].into_iter().enumerate() {
        server.admit(Request {
            id: id as u64,
            prompt: prompt_rows(m, p, 10 + id as u64),
            max_new_tokens: n,
        });
    }
    server.run(&ExactGemm);
    let total = server.total_energy_j();
    let per_tok = server.joules_per_token();
    let mut done = server.take_completions();
    done.sort_by_key(|c| c.id);
    (done, total, per_tok)
}

// Global-meter tests share one process-wide slot; a single #[test] keeps
// them from interleaving across test threads.
#[test]
fn energy_ledger_and_load_shed() {
    let m = model();

    // Without a meter the ledger stays silent.
    let (plain, total, per_tok) = serve_all(&m, 2);
    assert_eq!(total, 0.0);
    assert_eq!(per_tok, 0.0);
    assert!(plain.iter().all(|c| c.energy_j == 0.0));

    // With a meter: same bits, a positive ledger that adds up.
    let handle = pdac_power::meter::install(pdac_meter());
    let (metered, total, per_tok) = serve_all(&m, 2);
    pdac_power::meter::uninstall();
    for (a, b) in plain.iter().zip(&metered) {
        assert_eq!(a.hidden, b.hidden, "metering changed served bits");
    }
    assert!(total > 0.0);
    assert!(per_tok > 0.0);
    assert!(metered.iter().all(|c| c.energy_j > 0.0));
    let sum: f64 = metered.iter().map(|c| c.energy_j).sum();
    assert!(
        (sum - total).abs() <= 1e-12 * total,
        "per-request energy {sum} != server total {total}"
    );
    // Every request retired, so the whole metered total was attributed;
    // the meter itself saw at least that much activity.
    assert!(handle.snapshot().total_j() >= total);

    // Load shed: latch the budget while a batch is in flight and new
    // admissions must wait; clear it and they drain.
    let meter = pdac_power::meter::install(pdac_meter().with_budget_w(Some(1e-12)));
    let mut server = TokenServer::new_paged(&m, 4, PagedConfig::default());
    for id in 0..3 {
        server.admit(Request {
            id,
            prompt: prompt_rows(&m, 1, id),
            max_new_tokens: 3,
        });
    }
    // First step: nothing active yet, so admission proceeds regardless.
    let _ = server.step(&ExactGemm);
    assert_eq!(server.active(), 3);
    // A burst of modeled activity over a tiny budget latches the meter.
    meter.record(OpClass::Ffn, 1_000_000_000, 0, 0);
    meter.flush();
    assert!(meter.over_budget());
    server.admit(Request {
        id: 9,
        prompt: prompt_rows(&m, 1, 9),
        max_new_tokens: 1,
    });
    let shed_before = server.shed_steps();
    let _ = server.step(&ExactGemm);
    assert_eq!(server.shed_steps(), shed_before + 1);
    assert_eq!(server.pending(), 1, "latched budget must defer admission");
    // The in-flight batch keeps draining; once it empties, an idle
    // server admits regardless of the latch (otherwise nothing would
    // ever run to clear it), so the deferred request is still served.
    server.run(&ExactGemm);
    pdac_power::meter::uninstall();
    assert!(server.is_idle());
    assert_eq!(server.take_completions().len(), 4);
}
