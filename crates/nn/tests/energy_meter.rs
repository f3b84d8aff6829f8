//! The decode engine's live-energy instrumentation: metering must never
//! change decoded bits, and the counts it reports must match the closed
//! forms of the activity the engine executes.
//!
//! Lives in its own integration-test process because the meter is a
//! process-global ambient: parallel lib tests decoding concurrently
//! would pollute the exact count assertions.

use pdac_math::Mat;
use pdac_nn::{ExactGemm, PagedConfig, PagedKvCache, TransformerConfig, TransformerModel};
use pdac_power::meter::EnergyMeter;
use pdac_power::model::{DriverKind, PowerModel};
use pdac_power::{ArchConfig, EnergyModel, OpClass, TechParams};

fn token_rows(model: &TransformerModel, s: usize, seed: u64) -> Mat {
    let input = model.random_input(seed);
    Mat::from_fn(s, model.config().hidden, |r, c| {
        input[(r % input.rows(), c)]
    })
}

fn run(model: &TransformerModel, s: usize, steps: usize) -> Vec<Mat> {
    let mut batch = PagedKvCache::new(model, s, PagedConfig::default());
    (0..steps)
        .map(|t| {
            let tokens = token_rows(model, s, 70 + t as u64);
            model.decode_batch(&tokens, &mut batch, &ExactGemm)
        })
        .collect()
}

#[test]
fn metered_decode_is_bit_identical_and_counts_activity() {
    let model = TransformerModel::random(TransformerConfig::tiny(), 4, 7);
    let config = model.config().clone();
    let (s, steps) = (3usize, 2usize);

    let plain = run(&model, s, steps);

    let pm = PowerModel::new(
        ArchConfig::lt_b(),
        TechParams::calibrated(),
        DriverKind::PhotonicDac,
    );
    let meter = pdac_power::meter::install(EnergyMeter::new(EnergyModel::new(pm), 8));
    let metered = run(&model, s, steps);
    pdac_power::meter::uninstall();

    // Metering observes the step; it must never change the bits.
    assert_eq!(plain, metered);

    let trace = meter.counts();
    let (d, ff) = (config.hidden as u64, config.ff_dim() as u64);
    let (s64, steps64, layers) = (s as u64, steps as u64, config.layers as u64);
    let h = config.heads as u64;

    // FFN activity has no context-length term: exact closed form.
    let ffn = trace.entry(OpClass::Ffn).unwrap();
    assert_eq!(ffn.macs, steps64 * layers * 2 * s64 * d * ff);
    assert_eq!(ffn.bytes_at_8bit, steps64 * layers * 2 * s64 * (d + ff));
    assert_eq!(ffn.elementwise_ops, 0);

    // Attention and element-wise include the per-step context lengths
    // (each of the s sequences is l tokens deep on step l).
    let sum_l: u64 = (1..=steps64).map(|l| l * s64).sum();
    let attn = trace.entry(OpClass::Attention).unwrap();
    assert_eq!(
        attn.macs,
        layers * (steps64 * 4 * s64 * d * d + 2 * d * sum_l)
    );
    assert_eq!(
        attn.bytes_at_8bit,
        layers * (steps64 * 10 * s64 * d + 2 * h * sum_l + 2 * d * sum_l)
    );
    assert_eq!(attn.elementwise_ops, 0);

    let other = trace.entry(OpClass::Other).unwrap();
    assert_eq!(
        other.elementwise_ops,
        layers * (h * sum_l + steps64 * (4 * s64 * d + s64 * ff))
    );
    assert_eq!((other.macs, other.bytes_at_8bit), (0, 0));

    // The ledger prices that activity: P-DAC compute must undercut the
    // e-DAC baseline on the identical trace, movement must not move.
    let snap = meter.snapshot();
    let edac = EnergyModel::new(PowerModel::new(
        ArchConfig::lt_b(),
        TechParams::calibrated(),
        DriverKind::ElectricalDac,
    ))
    .energy(&trace, 8);
    assert!(snap.total_j() > 0.0);
    assert!(snap.total_j() < edac.total_j());
    for class in [OpClass::Attention, OpClass::Ffn] {
        assert_eq!(
            snap.breakdown.class(class).unwrap().movement_j,
            edac.class(class).unwrap().movement_j
        );
    }
}
