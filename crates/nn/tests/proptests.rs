//! Randomized property tests for the NN workload substrate.
//!
//! Originally `proptest`-based; now driven by seeded [`SplitMix64`]
//! streams so the workspace builds offline. Enable `slow-proptests` for
//! deeper sweeps.

use pdac_core::pdac::PDac;
use pdac_math::quant::abs_max;
use pdac_math::rng::SplitMix64;
use pdac_math::{Mat, Quantizer};
use pdac_nn::config::TransformerConfig;
use pdac_nn::gemm::{AnalogGemm, ExactGemm, GemmBackend};
use pdac_nn::generative::{arithmetic_intensity, decode_trace};
use pdac_nn::ops::{gelu, layer_norm_rows, mean_pool_rows, softmax_rows};
use pdac_nn::workload::op_trace;

const CASES: usize = if cfg!(feature = "slow-proptests") {
    512
} else {
    64
};

fn random_config(rng: &mut SplitMix64) -> TransformerConfig {
    let heads = rng.gen_range_usize(1, 5);
    let head_dim = rng.gen_range_usize(1, 4);
    TransformerConfig {
        name: "prop".into(),
        layers: rng.gen_range_usize(1, 3),
        hidden: heads * head_dim * 8,
        heads,
        ff_mult: rng.gen_range_usize(1, 2) * 2,
        seq_len: rng.gen_range_usize(1, 63),
    }
}

#[test]
fn softmax_rows_are_distributions() {
    let mut rng = SplitMix64::seed_from_u64(0xA0);
    for _ in 0..CASES {
        let cols = 3;
        let rows = rng.gen_range_usize(2, 7);
        let vals: Vec<f64> = (0..rows * cols)
            .map(|_| rng.gen_range_f64(-20.0, 20.0))
            .collect();
        let m = Mat::from_rows(rows, cols, vals).unwrap();
        let p = softmax_rows(&m);
        for r in 0..rows {
            let sum: f64 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(p.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }
}

#[test]
fn layer_norm_output_standardized() {
    let mut rng = SplitMix64::seed_from_u64(0xA1);
    let mut tested = 0;
    while tested < CASES {
        let vals: Vec<f64> = (0..8).map(|_| rng.gen_range_f64(-100.0, 100.0)).collect();
        // Skip degenerate constant rows (variance 0 -> eps-dominated).
        let mean0: f64 = vals.iter().sum::<f64>() / 8.0;
        let var0: f64 = vals.iter().map(|v| (v - mean0).powi(2)).sum::<f64>() / 8.0;
        if var0 <= 1e-6 {
            continue;
        }
        tested += 1;
        let m = Mat::from_rows(1, 8, vals).unwrap();
        let out = layer_norm_rows(&m, &[1.0; 8], &[0.0; 8], 1e-9);
        let mean: f64 = out.row(0).iter().sum::<f64>() / 8.0;
        let var: f64 = out.row(0).iter().map(|v| (v - mean).powi(2)).sum::<f64>() / 8.0;
        assert!(mean.abs() < 1e-8);
        assert!((var - 1.0).abs() < 1e-6);
    }
}

#[test]
fn gelu_monotone_on_positives_and_bounded_below() {
    let mut rng = SplitMix64::seed_from_u64(0xA2);
    for _ in 0..CASES {
        let x = rng.gen_range_f64(-10.0, 10.0);
        let dx = rng.gen_f64();
        // GELU is non-monotone on the negative axis (minimum ≈ −0.17 near
        // x ≈ −0.75) but monotone for x >= 0 and bounded below overall.
        if x >= 0.0 {
            assert!(gelu(x + dx) >= gelu(x) - 1e-9);
        }
        assert!(gelu(x) >= -0.2);
    }
}

#[test]
fn quantized_round_trip_error_bounded() {
    let mut rng = SplitMix64::seed_from_u64(0xA3);
    for _ in 0..CASES {
        let len = rng.gen_range_usize(4, 15);
        let vals: Vec<f64> = (0..len).map(|_| rng.gen_range_f64(-3.0, 3.0)).collect();
        let bits = rng.gen_range_i64(3, 12) as u8;
        // The operand scale rule: the tensor's largest magnitude.
        let q = Quantizer::new(bits, abs_max(&vals)).unwrap();
        for &v in &vals {
            assert!((v - q.round_trip(v)).abs() <= q.step() / 2.0 + 1e-12);
        }
    }
}

#[test]
fn analog_gemm_stays_within_relative_band() {
    let mut rng = SplitMix64::seed_from_u64(0xA4);
    for _ in 0..CASES {
        let seed_vals: Vec<f64> = (0..16).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect();
        let a = Mat::from_rows(4, 4, seed_vals.clone()).unwrap();
        let b = Mat::from_rows(4, 4, seed_vals.iter().map(|v| 0.9 - v).collect()).unwrap();
        let exact = ExactGemm.matmul(&a, &b);
        let analog = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "p");
        let got = analog.matmul(&a, &b);
        // Perturbation bound: ||Δ(AB)|| <= ||ΔA||·||B|| + ||A||·||ΔB|| +
        // ||ΔA||·||ΔB|| with per-element operand error <= ~9%, so the
        // product error is bounded by ~0.2·||A||·||B|| — the exact
        // product itself can cancel to zero, so it is NOT the right
        // scale.
        let zero = Mat::zeros(4, 4);
        let na = a.distance(&zero);
        let nb = b.distance(&zero);
        assert!(got.distance(&exact) <= 0.25 * na * nb + 1e-9);
    }
}

#[test]
fn op_trace_macs_match_config() {
    let mut rng = SplitMix64::seed_from_u64(0xA5);
    for _ in 0..CASES {
        let config = random_config(&mut rng);
        if config.validate().is_err() {
            continue;
        }
        let trace = op_trace(&config);
        assert_eq!(trace.total_macs(), config.total_macs());
    }
}

#[test]
fn decode_intensity_below_prefill() {
    let mut rng = SplitMix64::seed_from_u64(0xA6);
    for _ in 0..CASES {
        let config = random_config(&mut rng);
        let ctx = rng.gen_range_usize(1, 511);
        if config.validate().is_err() || config.seq_len < 8 {
            continue;
        }
        let prefill = arithmetic_intensity(&op_trace(&config));
        let decode = arithmetic_intensity(&decode_trace(&config, ctx, 4));
        assert!(decode <= prefill + 1e-9);
    }
}

#[test]
fn mean_pool_is_row_average() {
    let mut rng = SplitMix64::seed_from_u64(0xA7);
    for _ in 0..CASES {
        let vals: Vec<f64> = (0..12).map(|_| rng.gen_range_f64(-5.0, 5.0)).collect();
        let m = Mat::from_rows(3, 4, vals).unwrap();
        let pooled = mean_pool_rows(&m);
        for (c, p) in pooled.iter().enumerate() {
            let manual = (m[(0, c)] + m[(1, c)] + m[(2, c)]) / 3.0;
            assert!((p - manual).abs() < 1e-12);
        }
    }
}
