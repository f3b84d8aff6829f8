//! Joules per generated token under the three drive paths, measured by
//! the live energy meter on the batched decode engine.
//!
//! One metered decode per batch size accumulates the executed activity
//! (MACs, streamed bytes, element-wise ops) in a
//! [`pdac_power::meter::EnergyMeter`]; the snapshot's trace is then
//! priced under the e-DAC, P-DAC and hybrid [`EnergyModel`]s — three
//! driver views of the *same* executed activity, so the ratios are
//! deterministic (modeled from exact integer counts, no timing noise).
//!
//! Emits `BENCH_energy.json` (override with `PDAC_BENCH_OUT`) with one
//! record per batch carrying `{pdac,edac,hybrid}_j_per_tok`, the gated
//! `edac_over_pdac_j_per_tok` / `edac_over_hybrid_j_per_tok` ratios and
//! `tokens_per_s`; the batch-8 record adds `meter_overhead`, the
//! tokens/s cost of metering measured from interleaved meter-off /
//! meter-on trials (min-of-N over at least 4 pairs, each side first in
//! every other pair, so neither a transient stall nor a clock ramp
//! inside a pair reads as metering cost). Knobs:
//! `PDAC_BENCH_ENERGY_HIDDEN` / `_LAYERS` /
//! `_HEADS` (default 3072/1/16), `_PROMPT` / `_TOKENS` (default 2/4),
//! `_TRIALS` (default 2), `_MAX_RATIO` (default 0.55), `_MAX_OVERHEAD`
//! (default 0.02).
//!
//! At the default scale the bench asserts the paper-level claim at
//! batch 8: P-DAC joules/token ≤ 0.55× e-DAC on the serving ledger
//! (weight-resident accounting — see DESIGN.md §13), and metering costs
//! < 2% tokens/s. Small `_HIDDEN` overrides skip the ratio assert:
//! below ~2K hidden the driver-independent element-wise/movement terms
//! dominate and the ratio is no longer probing the drive path.

use std::time::Instant;

use pdac_bench::microbench::{env_f64, env_usize, out_path};
use pdac_math::Mat;
use pdac_nn::{ExactGemm, PagedConfig, PagedKvCache, TransformerConfig, TransformerModel};
use pdac_power::meter::EnergyMeter;
use pdac_power::model::{DriverKind, PowerModel};
use pdac_power::{ArchConfig, EnergyModel, TechParams};
use pdac_serve::feedback_embedding;
use pdac_telemetry::Json;

fn energy_model(driver: DriverKind) -> EnergyModel {
    EnergyModel::new(PowerModel::new(
        ArchConfig::lt_b(),
        TechParams::calibrated(),
        driver,
    ))
}

/// Decodes `prompt` + `gen` feedback tokens at the prompt's batch size;
/// returns elapsed seconds.
fn run(model: &TransformerModel, prompt: &[Mat], gen: usize) -> f64 {
    let s = prompt[0].rows();
    let hidden = model.config().hidden;
    let mut batch = PagedKvCache::new(model, s, PagedConfig::default());
    let start = Instant::now();
    let mut last = model.decode_batch(&prompt[0], &mut batch, &ExactGemm);
    for tok in &prompt[1..] {
        last = model.decode_batch(tok, &mut batch, &ExactGemm);
    }
    for _ in 0..gen {
        let mut data = Vec::with_capacity(s * hidden);
        for r in 0..s {
            data.extend(feedback_embedding(last.row_slice(r)));
        }
        let next = Mat::from_rows(s, hidden, data).expect("feedback batch");
        last = model.decode_batch(&next, &mut batch, &ExactGemm);
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    let hidden = env_usize("PDAC_BENCH_ENERGY_HIDDEN", 3072);
    let layers = env_usize("PDAC_BENCH_ENERGY_LAYERS", 1);
    let heads = env_usize("PDAC_BENCH_ENERGY_HEADS", 16);
    let prompt_len = env_usize("PDAC_BENCH_ENERGY_PROMPT", 2);
    let gen = env_usize("PDAC_BENCH_ENERGY_TOKENS", 4);
    let trials = env_usize("PDAC_BENCH_ENERGY_TRIALS", 2).max(1);
    let max_ratio = env_f64("PDAC_BENCH_ENERGY_MAX_RATIO", 0.55);
    let max_overhead = env_f64("PDAC_BENCH_ENERGY_MAX_OVERHEAD", 0.02);

    let config = TransformerConfig {
        name: "energy-bench".to_string(),
        layers,
        hidden,
        heads,
        ff_mult: 4,
        seq_len: prompt_len + gen,
    };
    config.validate().expect("valid bench config");
    let model = TransformerModel::random(config, 4, 42);

    let pdac = energy_model(DriverKind::PhotonicDac);
    let edac = energy_model(DriverKind::ElectricalDac);
    let hybrid = energy_model(DriverKind::Hybrid);

    let mut records = Vec::new();
    let mut gate_ratio = f64::INFINITY;
    let mut meter_overhead = 0.0;
    for &s in &[1usize, 4, 8] {
        let mut rng = pdac_math::rng::SplitMix64::seed_from_u64(11 + s as u64);
        let prompt: Vec<Mat> = (0..prompt_len.max(1))
            .map(|_| Mat::from_fn(s, hidden, |_, _| rng.gen_range_f64(-1.0, 1.0)))
            .collect();
        let tokens = (s * (prompt.len() + gen)) as f64;

        // Warm pass (scratch + allocator) outside the timed trials.
        let _ = run(&model, &prompt, 1.min(gen));

        let meter = pdac_power::meter::install(EnergyMeter::new(pdac.clone(), 8));
        let (mut best_on, mut best_off) = (f64::INFINITY, f64::INFINITY);
        // The overhead comparison needs more min-of-N samples than the
        // throughput numbers: a single transient stall on either side
        // would otherwise read as metering cost (or mask it).
        let reps = if s == 8 { trials.max(4) } else { trials };
        let mut time_off = || {
            pdac_power::meter::uninstall();
            best_off = best_off.min(run(&model, &prompt, gen));
            pdac_power::meter::install_shared(meter.clone());
        };
        for rep in 0..reps {
            // Interleave meter-off and meter-on runs at batch 8 so ambient
            // noise hits both sides of the overhead measurement equally,
            // and alternate which runs first: a clock ramp inside each
            // pair would otherwise bias the overhead the same way every
            // rep, and the min never cancels it.
            let off_first = rep % 2 == 0;
            if s == 8 && off_first {
                time_off();
            }
            meter.reset();
            best_on = best_on.min(run(&model, &prompt, gen));
            if s == 8 && !off_first {
                time_off();
            }
        }
        let trace = meter.counts();
        pdac_power::meter::uninstall();

        let j_per_tok = |m: &EnergyModel| -> f64 { m.energy(&trace, 8).total_j() / tokens };
        let (pdac_jpt, edac_jpt, hybrid_jpt) =
            (j_per_tok(&pdac), j_per_tok(&edac), j_per_tok(&hybrid));
        let tps = tokens / best_on.max(1e-12);
        let mut fields = vec![
            ("batch".into(), Json::Int(s as u64)),
            ("elapsed_s".into(), Json::Num(best_on)),
            ("tokens_per_s".into(), Json::Num(tps)),
            ("pdac_j_per_tok".into(), Json::Num(pdac_jpt)),
            ("edac_j_per_tok".into(), Json::Num(edac_jpt)),
            ("hybrid_j_per_tok".into(), Json::Num(hybrid_jpt)),
            (
                "edac_over_pdac_j_per_tok".into(),
                Json::Num(edac_jpt / pdac_jpt),
            ),
            (
                "edac_over_hybrid_j_per_tok".into(),
                Json::Num(edac_jpt / hybrid_jpt),
            ),
        ];
        let mut line = format!(
            "energy_ledger/batch{s}: {:>9.1} tok/s  pdac {:.3e} J/tok  edac {:.3e} J/tok \
             (pdac/edac {:.4})",
            tps,
            pdac_jpt,
            edac_jpt,
            pdac_jpt / edac_jpt
        );
        if s == 8 {
            gate_ratio = pdac_jpt / edac_jpt;
            meter_overhead = (1.0 - best_off / best_on.max(1e-12)).max(0.0);
            fields.push(("meter_overhead".into(), Json::Num(meter_overhead)));
            line.push_str(&format!("  meter_overhead {:.2}%", meter_overhead * 100.0));
        }
        println!("{line}");
        records.push(Json::Obj(fields));
    }

    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("energy_ledger".into())),
        ("hidden".into(), Json::Int(hidden as u64)),
        ("layers".into(), Json::Int(layers as u64)),
        ("heads".into(), Json::Int(heads as u64)),
        ("prompt".into(), Json::Int(prompt_len.max(1) as u64)),
        ("generated".into(), Json::Int(gen as u64)),
        ("results".into(), Json::Arr(records)),
    ]);
    let path = out_path(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_energy.json"
    ));
    std::fs::write(&path, doc.render() + "\n").expect("write bench json");
    println!("energy_ledger: wrote {path}");

    // The drive-path claim only shows at scale: below ~2K hidden the
    // driver-independent terms dominate and the ratio stops being a
    // statement about the converters.
    if hidden >= 2048 {
        assert!(
            gate_ratio <= max_ratio,
            "P-DAC joules/token is {gate_ratio:.4}x e-DAC at batch 8 (budget {max_ratio})"
        );
        assert!(
            meter_overhead < max_overhead,
            "metering costs {:.2}% tokens/s at batch 8 (budget {:.2}%)",
            meter_overhead * 100.0,
            max_overhead * 100.0
        );
        println!(
            "energy_ledger: pdac/edac {gate_ratio:.4} <= {max_ratio} and metering \
             {:.2}% < {:.2}% OK",
            meter_overhead * 100.0,
            max_overhead * 100.0
        );
    }
}
