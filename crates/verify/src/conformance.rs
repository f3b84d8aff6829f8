//! The differential conformance engine.
//!
//! Runs the same GEMM / decode workloads through every backend pair the
//! workspace promises equivalence or bounded error for, and turns each
//! promise into a [`CheckResult`]:
//!
//! * **Bit identity** — blocked/threaded kernels vs the reference triple
//!   loop, [`ConverterLut`] vs the scalar drive path, cached
//!   ([`WeightCache`]) vs uncached conversion. These paths advertise
//!   *exact* equivalence; one differing bit fails.
//! * **Error budgets** — the P-DAC's per-element relative reconstruction
//!   error against the paper's ≈8.5% bound (Eq. 18), and configurable
//!   end-to-end GEMM tolerances for the analog and functional backends.
//! * **Fault sweeps** — [`FaultyPDac`] at increasing fault magnitudes:
//!   errors must stay finite (never NaN), monotone in magnitude, and get
//!   quarantined into the `verify.fault.*` telemetry histograms.
//!
//! [`WeightCache`]: pdac_nn::prepared::WeightCache

use crate::faults::{FaultSpec, FaultyPDac, SlotFault};
use crate::report::{CheckKind, CheckResult, ConformanceReport};
use pdac_accel::config::{AccelConfig, DriverChoice};
use pdac_accel::functional::FunctionalGemm;
use pdac_core::converter::MzmDriver;
use pdac_core::edac::ElectricalDac;
use pdac_core::lut::ConverterLut;
use pdac_core::pdac::PDac;
use pdac_math::gemm::{gemm, gemm_prepacked, PackedB};
use pdac_math::rng::SplitMix64;
use pdac_math::Mat;
use pdac_nn::gemm::{AnalogGemm, AsymmetricGemm, ExactGemm, GemmBackend};
use pdac_nn::quant::QuantizedMat;
use pdac_nn::{
    prefix_block_hashes, step_activity, DecodeScratch, KvCache, PagedConfig, PagedKvCache,
    TransformerConfig, TransformerModel,
};
use pdac_power::ArchConfig;

/// Configuration of one conformance run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceConfig {
    /// Seed for every randomized operand (the run is fully deterministic).
    pub seed: u64,
    /// Converter bit widths to cross-check.
    pub bits: Vec<u8>,
    /// Per-element relative reconstruction-error budget for the P-DAC
    /// (paper Eq. 18 reports ≈8.5%; the default leaves 0.2% headroom for
    /// the numerically solved breakpoint).
    pub per_element_budget: f64,
    /// End-to-end relative Frobenius-error budget for analog GEMM
    /// against the exact backend.
    pub gemm_budget: f64,
    /// GEMM shapes `(m, k, n)` used by the kernel and backend checks.
    pub gemm_shapes: Vec<(usize, usize, usize)>,
    /// Decode steps for the cached-weights workload.
    pub decode_steps: usize,
    /// TIA gain-drift magnitudes for the fault sweep (ascending).
    pub gain_drifts: Vec<f64>,
    /// Dark-current ratios for the fault sweep (ascending).
    pub dark_ratios: Vec<f64>,
    /// Laser droop fractions for the fault sweep (ascending).
    pub laser_droops: Vec<f64>,
}

impl Default for ConformanceConfig {
    fn default() -> Self {
        Self {
            seed: 0x9D_AC,
            bits: vec![4, 8],
            per_element_budget: 0.087,
            gemm_budget: 0.15,
            gemm_shapes: vec![(17, 29, 13), (32, 64, 24), (1, 128, 64), (5, 5, 5)],
            decode_steps: 6,
            gain_drifts: vec![0.0, 0.02, 0.05, 0.1, 0.2],
            dark_ratios: vec![0.0, 0.02, 0.05, 0.1, 0.2],
            laser_droops: vec![0.0, 0.05, 0.1, 0.2, 0.4],
        }
    }
}

fn random_mat(rows: usize, cols: usize, rng: &mut SplitMix64) -> Mat {
    Mat::from_fn(rows, cols, |_, _| rng.gen_range_f64(-1.0, 1.0))
}

/// Elements whose bit patterns differ between two equally shaped
/// matrices.
fn differing_bits(a: &Mat, b: &Mat) -> usize {
    assert_eq!(a.shape(), b.shape(), "conformance pair must share a shape");
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .filter(|(x, y)| x.to_bits() != y.to_bits())
        .count()
}

/// Relative Frobenius distance `‖a − b‖ / ‖b‖` (b is the golden side).
fn relative_distance(a: &Mat, b: &Mat) -> f64 {
    let norm: f64 = b.as_slice().iter().map(|x| x * x).sum::<f64>().sqrt();
    a.distance(b) / norm.max(1e-300)
}

fn bit_identity_check(name: &str, diffs: usize, detail: String) -> CheckResult {
    CheckResult {
        name: name.to_string(),
        kind: CheckKind::BitIdentity,
        passed: diffs == 0,
        worst: diffs as f64,
        budget: 0.0,
        detail,
    }
}

fn tolerance_check(name: &str, worst: f64, budget: f64, detail: String) -> CheckResult {
    CheckResult {
        name: name.to_string(),
        kind: CheckKind::Tolerance,
        passed: worst.is_finite() && worst <= budget,
        worst,
        budget,
        detail,
    }
}

fn invariant_check(name: &str, holds: bool, detail: String) -> CheckResult {
    CheckResult {
        name: name.to_string(),
        kind: CheckKind::Invariant,
        passed: holds,
        worst: if holds { 0.0 } else { 1.0 },
        budget: 0.0,
        detail,
    }
}

/// Checks that `values` is nondecreasing up to `slack` (graceful,
/// monotone degradation); `worst` is the largest observed decrease.
fn monotone_check(name: &str, values: &[f64], slack: f64, detail: String) -> CheckResult {
    let finite = values.iter().all(|v| v.is_finite());
    let mut worst_drop = 0.0f64;
    for pair in values.windows(2) {
        worst_drop = worst_drop.max(pair[0] - pair[1]);
    }
    CheckResult {
        name: name.to_string(),
        kind: CheckKind::Monotone,
        passed: finite && worst_drop <= slack,
        worst: worst_drop,
        budget: slack,
        detail,
    }
}

// ---------------------------------------------------------------------------
// Backend-pair matrix
// ---------------------------------------------------------------------------

/// Blocked / threaded / in-place / matvec kernels vs the reference
/// triple loop — bit identity across shapes and thread counts.
fn kernel_checks(cfg: &ConformanceConfig) -> Vec<CheckResult> {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed);
    let mut diffs_threaded = 0usize;
    let mut diffs_into = 0usize;
    let mut diffs_matvec = 0usize;
    let mut out = Mat::zeros(1, 1);
    for &(m, k, n) in &cfg.gemm_shapes {
        let a = random_mat(m, k, &mut rng);
        let b = random_mat(k, n, &mut rng);
        let reference = a.matmul_reference(&b).expect("shapes chain");
        diffs_threaded += differing_bits(&a.matmul(&b).unwrap(), &reference);
        for threads in [1usize, 2, 8] {
            diffs_threaded +=
                differing_bits(&a.matmul_with_threads(&b, threads).unwrap(), &reference);
        }
        a.matmul_into(&b, &mut out).unwrap();
        diffs_into += differing_bits(&out, &reference);
        let v = b.col(0);
        let got = a.matvec(&v).unwrap();
        let want = a.matvec_reference(&v).unwrap();
        diffs_matvec += got
            .iter()
            .zip(&want)
            .filter(|(x, y)| x.to_bits() != y.to_bits())
            .count();
    }
    let shapes = format!("shapes={:?} threads=[default,1,2,8]", cfg.gemm_shapes);
    vec![
        bit_identity_check(
            "kernel.matmul.threaded_vs_reference",
            diffs_threaded,
            shapes.clone(),
        ),
        bit_identity_check(
            "kernel.matmul_into_vs_reference",
            diffs_into,
            shapes.clone(),
        ),
        bit_identity_check("kernel.matvec_vs_reference", diffs_matvec, shapes),
    ]
}

/// Persistent worker-pool GEMM vs the reference triple loop, and the
/// prepacked entry point vs `gemm` — bit identity across shapes and
/// explicit thread counts (including odd panel splits).
fn pool_kernel_checks(cfg: &ConformanceConfig) -> Vec<CheckResult> {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ 0x900C);
    let bit_diffs = |x: &[f64], y: &[f64]| {
        x.iter()
            .zip(y)
            .filter(|(p, q)| p.to_bits() != q.to_bits())
            .count()
    };
    let mut diffs_reference = 0usize;
    let mut diffs_prepacked = 0usize;
    for &(m, k, n) in &cfg.gemm_shapes {
        let a = random_mat(m, k, &mut rng);
        let b = random_mat(k, n, &mut rng);
        let reference = a.matmul_reference(&b).expect("shapes chain");
        let packed = PackedB::pack(b.as_slice(), k, n);
        for threads in [1usize, 2, 7] {
            let mut pooled = vec![0.0; m * n];
            let mut pre = vec![0.0; m * n];
            gemm(a.as_slice(), b.as_slice(), m, k, n, &mut pooled, threads);
            gemm_prepacked(a.as_slice(), &packed, m, &mut pre, threads);
            diffs_prepacked += bit_diffs(&pooled, &pre);
            diffs_reference += bit_diffs(&pooled, reference.as_slice());
        }
    }
    let detail = format!("shapes={:?} threads=[1,2,7]", cfg.gemm_shapes);
    vec![
        bit_identity_check(
            "kernel.pool.gemm_vs_reference",
            diffs_reference,
            detail.clone(),
        ),
        bit_identity_check("kernel.pool.prepacked_vs_gemm", diffs_prepacked, detail),
    ]
}

/// The backends every decode-equivalence family runs: exact, the 8-bit
/// P-DAC, and the hybrid pair (P-DAC activations, electrical weights).
/// Each family seeds its own RNG per backend, so adding a backend never
/// shifts another backend's operands.
fn decode_backends() -> Vec<(&'static str, Box<dyn GemmBackend>)> {
    let pdac = || PDac::with_optimal_approx(8).expect("valid bits");
    vec![
        ("exact", Box::new(ExactGemm)),
        ("pdac", Box::new(AnalogGemm::new(pdac(), "pdac8"))),
        (
            "hybrid",
            Box::new(AsymmetricGemm::new(
                pdac(),
                ElectricalDac::new(8).expect("valid bits"),
                "hybrid8",
            )),
        ),
    ]
}

/// One decode-equivalence family on [`PagedKvCache`], for each of
/// [`decode_backends`]: slot `i` is warmed to `warm[i]` tokens through
/// single-slot `decode_batch_with`, then every slot advances together
/// for a few steps — and every batched row must be bit-identical to
/// feeding that sequence through `decode_step` alone over a flat
/// `KvCache`, the solo reference. `name` maps a backend label to the
/// row name; `salt` seeds the family's token stream.
fn paged_rows_vs_decode_step(
    cfg: &ConformanceConfig,
    name: fn(&str) -> String,
    salt: u64,
    warm: &[usize],
    block: usize,
) -> Vec<CheckResult> {
    let model = TransformerModel::random(TransformerConfig::tiny(), 4, cfg.seed);
    let hidden = model.config().hidden;
    let s = warm.len();
    let slots: Vec<usize> = (0..s).collect();
    let steps = cfg.decode_steps.clamp(2, 4);
    let mut checks = Vec::new();
    for (label, backend) in decode_backends() {
        let backend = backend.as_ref();
        let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ salt);
        let mut paged = PagedKvCache::new(&model, s, PagedConfig::new(block));
        let mut solo: Vec<KvCache> = (0..s).map(|_| model.new_cache()).collect();
        let mut scratch = DecodeScratch::new();
        let mut got = Mat::zeros(1, 1);
        for (sq, &depth) in warm.iter().enumerate() {
            for _ in 0..depth {
                let tok = random_mat(1, hidden, &mut rng);
                model.decode_batch_with(&tok, &mut paged, &[sq], backend, &mut scratch, &mut got);
                let _ = model.decode_step(&tok.row(0), &mut solo[sq], backend);
            }
        }
        let mut diffs = 0usize;
        for _ in 0..steps {
            let tokens = random_mat(s, hidden, &mut rng);
            model.decode_batch_with(&tokens, &mut paged, &slots, backend, &mut scratch, &mut got);
            for (sq, cache) in solo.iter_mut().enumerate() {
                let want = model.decode_step(&tokens.row(sq), cache, backend);
                diffs += got
                    .row_slice(sq)
                    .iter()
                    .zip(&want)
                    .filter(|(x, y)| x.to_bits() != y.to_bits())
                    .count();
            }
        }
        checks.push(bit_identity_check(
            &name(label),
            diffs,
            format!(
                "{steps} steps x batch {s}, block {block}, pre-warmed depths {warm:?}: \
                 decode_batch_with rows vs independent decode_step"
            ),
        ));
    }
    checks
}

/// Batched decode vs solo `decode_step`, three ways (each through
/// [`paged_rows_vs_decode_step`]):
///
/// * `decode.batch.*` — every slot starts empty, so all sequences share
///   one slot-group; default block size (one page per layer here).
/// * `decode.batch.grouped_attention.*` — pre-warmed depths 2/0/1/2, so
///   every step decodes three slot-groups at once, one of them holding
///   two sequences: pins the gather / grouped-GEMM / scatter
///   bookkeeping only multiple groups exercise. Block 1 puts every
///   token on its own page.
/// * `decode.kv.paged_vs_decode_step.*` — ragged depths 2/0/1 at block
///   2, so every sequence spans several pages.
fn decode_row_checks(cfg: &ConformanceConfig) -> Vec<CheckResult> {
    let mut checks = paged_rows_vs_decode_step(
        cfg,
        |label| format!("decode.batch.{label}.rows_vs_decode_step"),
        0xBA7C4,
        &[0, 0, 0],
        PagedConfig::default().block_tokens,
    );
    checks.extend(paged_rows_vs_decode_step(
        cfg,
        |label| format!("decode.batch.grouped_attention.{label}.rows_vs_decode_step"),
        0x6A0B5,
        &[2, 0, 1, 2],
        1,
    ));
    checks.extend(paged_rows_vs_decode_step(
        cfg,
        |label| format!("decode.kv.paged_vs_decode_step.{label}"),
        0x9A6ED,
        &[2, 0, 1],
        2,
    ));
    checks
}

/// Two paged-only properties: a prefix-shared continuation matches the
/// unshared run bit-for-bit, and copy-on-write divergence never mutates
/// the forked-from sequence's pages.
fn paged_kv_checks(cfg: &ConformanceConfig) -> Vec<CheckResult> {
    let model = TransformerModel::random(TransformerConfig::tiny(), 4, cfg.seed);
    let hidden = model.config().hidden;
    let steps = cfg.decode_steps.clamp(2, 4);
    let block = 2usize;

    // Shared prefix vs unshared: slot 0 decodes a block-aligned prompt
    // and publishes it; slot 1 maps the shared pages and continues with
    // the same tokens — its outputs must be bit-identical to the
    // recomputed (unshared) sequence.
    let backend = ExactGemm;
    let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ 0x54A6E);
    let prompt_len = 2 * block;
    let extra = steps;
    let mut paged = PagedKvCache::new(&model, 2, PagedConfig::new(block));
    let mut scratch = DecodeScratch::new();
    let mut got = Mat::zeros(1, 1);
    let tokens: Vec<Mat> = (0..prompt_len + extra)
        .map(|_| random_mat(1, hidden, &mut rng))
        .collect();
    let mut unshared = Vec::new();
    for tok in &tokens {
        model.decode_batch_with(tok, &mut paged, &[0], &backend, &mut scratch, &mut got);
        unshared.push(got.clone());
    }
    let prompt_slices: Vec<&[f64]> = tokens[..prompt_len]
        .iter()
        .map(|t| t.row_slice(0))
        .collect();
    let hashes = prefix_block_hashes(prompt_slices, block);
    paged.publish_prefix(0, &hashes);
    let shared = paged.lookup_prefix(1, &hashes);
    let mut diffs = 0usize;
    for (i, tok) in tokens.iter().enumerate().skip(shared) {
        model.decode_batch_with(tok, &mut paged, &[1], &backend, &mut scratch, &mut got);
        diffs += differing_bits(&got, &unshared[i]);
    }
    // Sharing must actually have happened, or the comparison is
    // vacuous — count a silent non-share as a failure.
    diffs += usize::from(shared == 0);
    let shared_check = bit_identity_check(
        "decode.kv.shared_prefix_vs_unshared",
        diffs,
        format!(
            "prompt {prompt_len} (block {block}, {shared} tokens shared) + {extra} \
             continuation steps: prefix-shared slot vs unshared decode"
        ),
    );

    // Copy-on-write isolation: fork slot 1's sequence into slot 0
    // (retired above — reset first), push a divergent step, and the
    // original's K/V bits must be untouched.
    paged.reset_slot(0);
    // CoW only fires when the forked tail page is partial; pad the
    // source sequence off a block boundary first.
    if paged.seq_len(1).is_multiple_of(block) {
        let tok = random_mat(1, hidden, &mut rng);
        model.decode_batch_with(&tok, &mut paged, &[1], &backend, &mut scratch, &mut got);
    }
    let snapshot = |paged: &PagedKvCache| {
        let mut bits = Vec::new();
        for li in 0..model.config().layers {
            for t in 0..paged.seq_len(1) {
                bits.extend(paged.k_row(1, li, t).iter().map(|v| v.to_bits()));
                bits.extend(paged.v_row(1, li, t).iter().map(|v| v.to_bits()));
            }
        }
        bits
    };
    let before = snapshot(&paged);
    let cow_before = paged.stats().cow_copies;
    paged.fork_slot(0, 1);
    let tok = random_mat(1, hidden, &mut rng);
    model.decode_batch_with(&tok, &mut paged, &[0], &backend, &mut scratch, &mut got);
    let after = snapshot(&paged);
    let cow_hit = paged.stats().cow_copies > cow_before;
    let cow_check = invariant_check(
        "decode.kv.fork_cow_isolated",
        before == after && cow_hit,
        format!(
            "fork + divergent step: original K/V bits unchanged={} cow_triggered={cow_hit}",
            before == after
        ),
    );
    vec![shared_check, cow_check]
}

/// Observability must never touch results: the same batched-decode
/// workload run with global telemetry fully enabled (spans + events)
/// and fully disabled must produce bit-identical hidden states.
fn tracing_invariance_checks(cfg: &ConformanceConfig) -> Vec<CheckResult> {
    let model = TransformerModel::random(TransformerConfig::tiny(), 4, cfg.seed);
    let hidden = model.config().hidden;
    let s = 3usize;
    let steps = cfg.decode_steps.clamp(2, 4);
    let backend = AnalogGemm::new(PDac::with_optimal_approx(8).expect("valid bits"), "pdac8");

    let run = |tracing_on: bool| -> Vec<Mat> {
        if tracing_on {
            pdac_telemetry::enable();
            pdac_telemetry::set_tracing(true);
        } else {
            pdac_telemetry::disable();
        }
        let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ 0x7AACE);
        let mut batch = PagedKvCache::new(&model, s, PagedConfig::default());
        (0..steps)
            .map(|_| {
                let tokens = random_mat(s, hidden, &mut rng);
                model.decode_batch(&tokens, &mut batch, &backend)
            })
            .collect()
    };

    let was_enabled = pdac_telemetry::is_enabled();
    let was_tracing = pdac_telemetry::is_tracing();
    let with_tracing = run(true);
    let without = run(false);
    // Restore whatever observability level the harness was running at.
    if was_enabled {
        pdac_telemetry::enable();
    } else {
        pdac_telemetry::disable();
    }
    pdac_telemetry::set_tracing(was_tracing);

    let diffs: usize = with_tracing
        .iter()
        .zip(&without)
        .map(|(a, b)| differing_bits(a, b))
        .sum();
    vec![bit_identity_check(
        "decode.tracing.on_off_bit_identity",
        diffs,
        format!("{steps} steps x batch {s}: full tracing vs telemetry disabled"),
    )]
}

/// The drift sentinel shadow-samples live analog GEMMs, but taps
/// observe completed results only: the same batched-decode workload run
/// with a full-rate [`crate::sentinel::Sentinel`] installed and with no
/// tap must produce bit-identical hidden states — and the sentinel must
/// actually have scored samples (or the identity proved nothing).
fn sentinel_invariance_checks(cfg: &ConformanceConfig) -> Vec<CheckResult> {
    use crate::sentinel::{Sentinel, SentinelConfig};

    // The tap and the health ledger are process-global; serialize with
    // every other sentinel user in this test process.
    let _guard = crate::sentinel::test_guard();
    let model = TransformerModel::random(TransformerConfig::tiny(), 4, cfg.seed);
    let hidden = model.config().hidden;
    let s = 3usize;
    let steps = cfg.decode_steps.clamp(2, 4);
    let backend = AnalogGemm::new(PDac::with_optimal_approx(8).expect("valid bits"), "pdac8");

    let run = || -> Vec<Mat> {
        let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ 0x5E47);
        let mut batch = PagedKvCache::new(&model, s, PagedConfig::default());
        (0..steps)
            .map(|_| {
                let tokens = random_mat(s, hidden, &mut rng);
                model.decode_batch(&tokens, &mut batch, &backend)
            })
            .collect()
    };

    let handle = Sentinel::install(SentinelConfig {
        rate: 1.0,
        per_element_budget: cfg.per_element_budget,
        gemm_budget: cfg.gemm_budget,
        ..SentinelConfig::default()
    });
    let with_sentinel = run();
    let stats = handle.finish();
    let without = run();
    // A clean decode must not leave alerts behind for later checks.
    pdac_telemetry::health::reset();

    let diffs: usize = with_sentinel
        .iter()
        .zip(&without)
        .map(|(a, b)| differing_bits(a, b))
        .sum();
    // A sentinel that sampled nothing would make the identity vacuous.
    let vacuous = usize::from(stats.scored == 0);
    vec![bit_identity_check(
        "decode.sentinel.on_off_bit_identity",
        diffs + vacuous,
        format!(
            "{steps} steps x batch {s}: full-rate sentinel vs no tap \
({} sampled, {} scored, {} dropped, worst frac {:.3})",
            stats.sampled, stats.scored, stats.dropped, stats.worst_frac
        ),
    )]
}

/// The live energy meter observes decode activity but must never touch
/// results: the same batched-decode workload run with a P-DAC
/// [`pdac_power::meter::EnergyMeter`] installed and with no meter must
/// produce bit-identical hidden states — and the metered run must have
/// counted real activity (or the check proved nothing).
fn energy_meter_invariance_checks(cfg: &ConformanceConfig) -> Vec<CheckResult> {
    use pdac_power::meter::EnergyMeter;
    use pdac_power::model::{DriverKind, PowerModel};
    use pdac_power::{ArchConfig, EnergyModel, TechParams};

    // The meter is process-global: two conformance runs in one process
    // would otherwise swap meters mid-run and count nothing.
    let _guard = crate::sentinel::test_guard();
    let model = TransformerModel::random(TransformerConfig::tiny(), 4, cfg.seed);
    let hidden = model.config().hidden;
    let s = 3usize;
    let steps = cfg.decode_steps.clamp(2, 4);
    let backend = AnalogGemm::new(PDac::with_optimal_approx(8).expect("valid bits"), "pdac8");

    let run = || -> Vec<Mat> {
        let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ 0xE4E26);
        let mut batch = PagedKvCache::new(&model, s, PagedConfig::default());
        (0..steps)
            .map(|_| {
                let tokens = random_mat(s, hidden, &mut rng);
                model.decode_batch(&tokens, &mut batch, &backend)
            })
            .collect()
    };

    // Preserve and restore whatever meter the harness had installed.
    let prior = pdac_power::meter::installed();
    let pm = PowerModel::new(
        ArchConfig::lt_b(),
        TechParams::calibrated(),
        DriverKind::PhotonicDac,
    );
    let handle = pdac_power::meter::install(EnergyMeter::new(EnergyModel::new(pm), 8));
    let metered = run();
    let counted = handle.snapshot();
    pdac_power::meter::uninstall();
    let without = run();
    if let Some(prev) = prior {
        let _ = pdac_power::meter::install_shared(prev);
    }

    let diffs: usize = metered
        .iter()
        .zip(&without)
        .map(|(a, b)| differing_bits(a, b))
        .sum();
    // A meter that recorded nothing would make the identity vacuous.
    let vacuous = usize::from(counted.trace.total_macs() == 0 || counted.total_j() <= 0.0);
    vec![bit_identity_check(
        "decode.energy_meter.on_off_bit_identity",
        diffs + vacuous,
        format!(
            "{steps} steps x batch {s}: P-DAC energy meter installed vs none \
             ({} MACs metered)",
            counted.trace.total_macs()
        ),
    )]
}

/// The paper's converter-power claim on the serving ledger: P-DAC
/// joules per generated token at most 0.55× e-DAC's, with the hybrid
/// drive in between, at batch 1, 4 and 8. The activity is the sum of
/// [`step_activity`] over a 2-token prompt plus 4 generated tokens of a
/// 3072-hidden, 1-layer, 16-head layer (the counts the live meter
/// records when that decode runs), priced at 8 bits under each drive's
/// [`EnergyModel`]. Exact integer counts, so no model is built. Below
/// ~2K hidden the driver-independent element-wise and movement terms
/// dominate and the ratio stops probing the drive path.
///
/// [`EnergyModel`]: pdac_power::EnergyModel
fn serving_energy_checks() -> Vec<CheckResult> {
    use pdac_power::meter::EnergyMeter;
    use pdac_power::model::{DriverKind, PowerModel};
    use pdac_power::{EnergyModel, TechParams};

    const BUDGET: f64 = 0.55;
    let config = TransformerConfig {
        name: "energy-serving".to_string(),
        layers: 1,
        hidden: 3072,
        heads: 16,
        ff_mult: 4,
        seq_len: 6,
    };
    let steps = config.seq_len;
    let model = |driver| {
        EnergyModel::new(PowerModel::new(
            ArchConfig::lt_b(),
            TechParams::calibrated(),
            driver,
        ))
    };
    let [pdac, hybrid, edac] = [
        DriverKind::PhotonicDac,
        DriverKind::Hybrid,
        DriverKind::ElectricalDac,
    ]
    .map(model);

    let mut worst = 0.0f64;
    let mut ordered = true;
    let mut rows = Vec::new();
    for s in [1usize, 4, 8] {
        // Accumulate the steps the way the live meter does: on step `t`
        // each of the `s` sequences is `t` tokens deep.
        let ledger = EnergyMeter::new(edac.clone(), 8);
        for t in 1..=steps {
            for e in step_activity(&config, s, (s * t) as u64) {
                ledger.record(e.class, e.macs, e.bytes_at_8bit, e.elementwise_ops);
            }
        }
        let trace = ledger.counts();
        let tokens = (s * steps) as f64;
        let [p, h, e] = [&pdac, &hybrid, &edac].map(|m| m.energy(&trace, 8).total_j() / tokens);
        worst = worst.max(p / e);
        ordered &= p < h && h < e;
        rows.push(format!(
            "batch {s}: pdac {p:.4e} hybrid {h:.4e} edac {e:.4e} J/token"
        ));
    }
    let detail = rows.join("; ");
    vec![
        tolerance_check(
            "energy.serving.pdac_over_edac",
            worst,
            BUDGET,
            format!("largest P-DAC/e-DAC J/token over batch 1, 4, 8 ({detail})"),
        ),
        invariant_check(
            "energy.serving.pdac_below_hybrid_below_edac",
            ordered,
            detail,
        ),
    ]
}

/// [`ConverterLut`] vs the scalar drive path for both converters at every
/// representable (and saturating out-of-range) code — bit identity.
fn lut_checks(cfg: &ConformanceConfig) -> Vec<CheckResult> {
    let mut checks = Vec::new();
    for &bits in &cfg.bits {
        let drivers: Vec<(&str, Box<dyn MzmDriver>)> = vec![
            (
                "pdac",
                Box::new(PDac::with_optimal_approx(bits).expect("valid bits")),
            ),
            (
                "edac",
                Box::new(ElectricalDac::new(bits).expect("valid bits")),
            ),
        ];
        for (label, driver) in drivers {
            let lut = ConverterLut::new(driver.as_ref());
            let m = driver.max_code();
            let diffs = ((-m - 8)..=(m + 8))
                .filter(|&c| lut.convert(c).to_bits() != driver.convert(c).to_bits())
                .count();
            checks.push(bit_identity_check(
                &format!("converter.lut.{label}.bits{bits}"),
                diffs,
                format!(
                    "all codes in [{}, {}] plus saturating overrange",
                    -m - 8,
                    m + 8
                ),
            ));
        }
    }
    checks
}

/// Per-element reconstruction budgets over every representable code.
///
/// The two drive paths fail differently, so each gets its own metric:
/// the P-DAC's arccos approximation has a *relative* error bound — the
/// paper's ≈8.5% (Eq. 18) — while the electrical baseline's error is
/// *absolute* (half an LSB of its `[0, π]` voltage grid, through a
/// cosine of slope ≤ 1), which at small codes dwarfs the ideal value.
fn per_element_budget_checks(cfg: &ConformanceConfig) -> Vec<CheckResult> {
    let mut checks = Vec::new();
    for &bits in &cfg.bits {
        let pdac = PDac::with_optimal_approx(bits).expect("valid bits");
        let m = pdac.max_code();
        let worst_rel = (1..=m)
            .flat_map(|c| [c, -c])
            .map(|c| {
                let ideal = pdac.ideal_value(c);
                ((pdac.convert(c) - ideal) / ideal).abs()
            })
            .fold(0.0f64, f64::max);
        checks.push(tolerance_check(
            &format!("converter.pdac.per_element.bits{bits}"),
            worst_rel,
            cfg.per_element_budget,
            format!("max |(convert(c) - c/m) / (c/m)| over all nonzero {bits}-bit codes"),
        ));

        let edac = ElectricalDac::new(bits).expect("valid bits");
        let worst_abs = (-m..=m)
            .map(|c| (edac.convert(c) - edac.ideal_value(c)).abs())
            .fold(0.0f64, f64::max);
        let half_lsb = std::f64::consts::PI / ((1u32 << bits) - 1) as f64 / 2.0;
        checks.push(tolerance_check(
            &format!("converter.edac.per_element.bits{bits}"),
            worst_abs,
            half_lsb * 1.25,
            format!("max |convert(c) - c/m| over all {bits}-bit codes vs half-LSB voltage grid"),
        ));
    }
    checks
}

/// The fault layer's clean spec against the production P-DAC: drive
/// voltages bit-identical to the synthesized plan, amplitudes within
/// rounding of the physical pipeline.
fn fault_layer_conformance(cfg: &ConformanceConfig) -> Vec<CheckResult> {
    let mut checks = Vec::new();
    for &bits in &cfg.bits {
        let pdac = PDac::with_optimal_approx(bits).expect("valid bits");
        let clean = FaultyPDac::new(pdac.clone(), FaultSpec::none());
        let m = pdac.max_code();
        let voltage_diffs = (-m..=m)
            .filter(|&c| clean.drive_voltage(c).to_bits() != pdac.plan().drive_voltage(c).to_bits())
            .count();
        checks.push(bit_identity_check(
            &format!("fault.clean.drive_voltage.bits{bits}"),
            voltage_diffs,
            "clean fault layer vs TiaWeightPlan::drive_voltage".into(),
        ));
        let worst_amp = (-m..=m)
            .map(|c| (clean.convert(c) - pdac.convert(c)).abs())
            .fold(0.0f64, f64::max);
        checks.push(tolerance_check(
            &format!("fault.clean.amplitude.bits{bits}"),
            worst_amp,
            1e-12,
            "clean fault layer vs PDac::convert (TIA-bank and MZM rounding only)".into(),
        ));
    }
    checks
}

/// Direct (scalar-converter, reference-matmul, uncached) analog GEMM:
/// the golden model the fast path must match bit for bit.
fn direct_analog_gemm(a: &Mat, b: &Mat, driver_a: &dyn MzmDriver, driver_b: &dyn MzmDriver) -> Mat {
    let aq = QuantizedMat::quantize(a, driver_a.bits()).dequantize_with(driver_a);
    let bq = QuantizedMat::quantize(b, driver_b.bits()).dequantize_with(driver_b);
    aq.matmul_reference(&bq).expect("shapes chain")
}

/// Runs one cached backend over every shape twice (second pass answers
/// from the weight cache) and bit-compares against the direct pipeline.
fn cached_backend_checks(
    label: &str,
    driver: &dyn MzmDriver,
    backend: &AnalogGemm,
    cfg: &ConformanceConfig,
    rng: &mut SplitMix64,
) -> Vec<CheckResult> {
    let mut diffs = 0usize;
    for &(m, k, n) in &cfg.gemm_shapes {
        let a = random_mat(m, k, rng);
        let b = random_mat(k, n, rng);
        let golden = direct_analog_gemm(&a, &b, driver, driver);
        diffs += differing_bits(&backend.matmul(&a, &b), &golden);
        diffs += differing_bits(&backend.matmul(&a, &b), &golden);
    }
    let cache = backend.cache();
    vec![
        bit_identity_check(
            &format!("gemm.analog.{label}.cached_vs_direct"),
            diffs,
            format!(
                "LUT+cache+threaded vs scalar+reference+uncached; cache hits={} misses={}",
                cache.hits(),
                cache.misses()
            ),
        ),
        invariant_check(
            &format!("gemm.analog.{label}.cache_counters"),
            cache.hits() == cfg.gemm_shapes.len() as u64
                && cache.misses() == cfg.gemm_shapes.len() as u64,
            format!(
                "one miss then one hit per distinct weight matrix: hits={} misses={}",
                cache.hits(),
                cache.misses()
            ),
        ),
    ]
}

/// LUT + weight-cache + threaded-kernel analog GEMM vs the direct
/// pipeline — bit identity, twice per shape so the second call answers
/// from the cache.
fn cached_gemm_checks(cfg: &ConformanceConfig) -> Vec<CheckResult> {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ 0xCAC4E);
    let bits = 8u8;
    let pdac = PDac::with_optimal_approx(bits).expect("valid bits");
    let edac = ElectricalDac::new(bits).expect("valid bits");

    let pdac_backend = AnalogGemm::new(pdac.clone(), "pdac8");
    let mut checks = cached_backend_checks("pdac", &pdac, &pdac_backend, cfg, &mut rng);
    let edac_backend = AnalogGemm::new(edac, "edac8");
    checks.extend(cached_backend_checks(
        "edac",
        &edac,
        &edac_backend,
        cfg,
        &mut rng,
    ));

    // Hybrid path: P-DAC activations, electrical weights.
    let hybrid = AsymmetricGemm::new(pdac.clone(), edac, "hybrid");
    let mut diffs = 0usize;
    for &(m, k, n) in &cfg.gemm_shapes {
        let a = random_mat(m, k, &mut rng);
        let b = random_mat(k, n, &mut rng);
        let golden = direct_analog_gemm(&a, &b, &pdac, &edac);
        diffs += differing_bits(&hybrid.matmul(&a, &b), &golden);
    }
    checks.push(bit_identity_check(
        "gemm.asymmetric.cached_vs_direct",
        diffs,
        "P-DAC activations + electrical weights vs direct pipeline".into(),
    ));

    // The cached forms multiply against byte-coded panels; the shapes
    // above stay below `PAR_MIN_MACS`, so walk every kernel branch: one
    // row (four panels per pass), a short pass, whole 8-row passes, a
    // pass plus a one-row tail, and pooled column splits.
    let branch_shapes = [
        (1, 512, 512),
        (2, 13, 6),
        (16, 64, 64),
        (70, 64, 64),
        (5, 256, 1024),
        (9, 13, 6),
    ];
    let pairs: [(&AnalogGemm, &dyn MzmDriver); 2] = [(&pdac_backend, &pdac), (&hybrid, &edac)];
    let mut diffs = 0usize;
    for (backend, weight_driver) in pairs {
        for &(m, k, n) in &branch_shapes {
            let a = random_mat(m, k, &mut rng);
            let b = random_mat(k, n, &mut rng);
            let golden = direct_analog_gemm(&a, &b, &pdac, weight_driver);
            diffs += differing_bits(&backend.matmul(&a, &b), &golden);
            diffs += differing_bits(&backend.matmul(&a, &b), &golden);
        }
    }
    checks.push(bit_identity_check(
        "gemm.analog.cached_kernel_branches_vs_direct",
        diffs,
        format!("P-DAC and hybrid, converting and cached calls, shapes {branch_shapes:?}"),
    ));
    checks
}

/// Full-sequence forward passes keep attention products out of the
/// weight cache: on a model whose per-pass products outnumber the cache,
/// only the weights may enter it, so a second pass hits every weight.
fn forward_cache_checks() -> Vec<CheckResult> {
    let config = TransformerConfig {
        name: "deep-narrow".into(),
        layers: 12,
        hidden: 48,
        heads: 12,
        ff_mult: 4,
        seq_len: 4,
    };
    let model = TransformerModel::random(config, 4, 0xF0);
    let backend = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "pdac8");
    let input = model.random_input(0xF1);
    let _ = model.forward(&input, &backend);
    let _ = model.forward(&input, &backend);
    let weights = 12 * 6;
    let cache = backend.cache();
    vec![invariant_check(
        "forward.weights_converted_once",
        cache.misses() == weights && cache.hits() == weights,
        format!(
            "two forwards, 12 layers x 12 heads: cache hits={} misses={} (want {weights} each)",
            cache.hits(),
            cache.misses()
        ),
    )]
}

/// End-to-end analog accuracy budgets: nn-level [`AnalogGemm`] and the
/// accel-level [`FunctionalGemm`] signal path against the exact backend.
fn end_to_end_budget_checks(cfg: &ConformanceConfig) -> Vec<CheckResult> {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ 0xE2E);
    let mut checks = Vec::new();
    let (m, k, n) = cfg.gemm_shapes[0];
    let a = random_mat(m, k, &mut rng);
    let b = random_mat(k, n, &mut rng);
    let exact = ExactGemm.matmul(&a, &b);

    let pdac_gemm = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "pdac8");
    let edac_gemm = AnalogGemm::new(ElectricalDac::new(8).unwrap(), "edac8");
    let rel_pdac = relative_distance(&pdac_gemm.matmul(&a, &b), &exact);
    let rel_edac = relative_distance(&edac_gemm.matmul(&a, &b), &exact);
    checks.push(tolerance_check(
        "gemm.analog.pdac.end_to_end",
        rel_pdac,
        cfg.gemm_budget,
        format!("relative Frobenius error vs exact, shape {m}x{k}x{n}"),
    ));
    checks.push(invariant_check(
        "gemm.analog.edac_tighter_than_pdac",
        rel_edac < rel_pdac,
        format!("edac {rel_edac:.3e} < pdac {rel_pdac:.3e}"),
    ));

    // The full functional signal path (EO word → DDot → ADC) on a small
    // architecture: same budget, plus the baseline-ordering invariant.
    let arch = ArchConfig {
        cores: 2,
        rows: 4,
        cols: 4,
        wavelengths: 4,
        clock_hz: 1e9,
    };
    let (fm, fk, fn_) = (8usize, 12usize, 6usize);
    let fa = random_mat(fm, fk, &mut rng);
    let fb = random_mat(fk, fn_, &mut rng);
    let fexact = fa.matmul_reference(&fb).unwrap();
    let mut rels = Vec::new();
    for (label, choice) in [
        ("pdac", DriverChoice::PhotonicDac),
        ("edac", DriverChoice::ElectricalDac),
    ] {
        let config = AccelConfig::new(arch.clone(), 8, choice).expect("valid config");
        let engine = FunctionalGemm::new(config).expect("valid config");
        let run = engine.execute(&fa, &fb).expect("shapes chain");
        let rel = relative_distance(&run.output, &fexact);
        checks.push(tolerance_check(
            &format!("accel.functional.{label}.end_to_end"),
            rel,
            cfg.gemm_budget,
            format!(
                "FunctionalGemm({label}) vs exact, shape {fm}x{fk}x{fn_}, {} driver bits",
                engine.driver().bits()
            ),
        ));
        rels.push(rel);
    }
    checks.push(invariant_check(
        "accel.functional.edac_tighter_than_pdac",
        rels[1] < rels[0],
        format!("edac {:.3e} < pdac {:.3e}", rels[1], rels[0]),
    ));
    checks
}

/// Generative-decode workload: the same weight matrix multiplied by a
/// fresh activation row every step. The cached fast path must match the
/// uncached golden pipeline bit for bit at every step, and the cache must
/// convert the weights exactly once.
fn decode_workload_checks(cfg: &ConformanceConfig) -> Vec<CheckResult> {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ 0xDEC0DE);
    let d = 24usize;
    let out_dim = 16usize;
    let w = random_mat(d, out_dim, &mut rng);
    let pdac = PDac::with_optimal_approx(8).unwrap();
    let backend = AnalogGemm::new(pdac.clone(), "pdac8");
    let mut diffs = 0usize;
    for _ in 0..cfg.decode_steps {
        let x = random_mat(1, d, &mut rng);
        let golden = direct_analog_gemm(&x, &w, &pdac, &pdac);
        diffs += differing_bits(&backend.matmul(&x, &w), &golden);
    }
    vec![
        bit_identity_check(
            "decode.cached_vs_uncached",
            diffs,
            format!("{} decode steps, weights {d}x{out_dim}", cfg.decode_steps),
        ),
        invariant_check(
            "decode.weights_converted_once",
            backend.cache().misses() == 1 && backend.cache().hits() == cfg.decode_steps as u64 - 1,
            format!(
                "cache hits={} misses={} over {} steps",
                backend.cache().hits(),
                backend.cache().misses(),
                cfg.decode_steps
            ),
        ),
    ]
}

// ---------------------------------------------------------------------------
// Fault sweeps
// ---------------------------------------------------------------------------

/// Mean absolute output deviation of `faulty` from `clean` over every
/// representable code.
fn mean_abs_deviation(faulty: &FaultyPDac, clean: &FaultyPDac) -> f64 {
    let m = faulty.inner().max_code();
    let count = (2 * m + 1) as f64;
    (-m..=m)
        .map(|c| (faulty.convert(c) - clean.convert(c)).abs())
        .sum::<f64>()
        / count
}

/// Sweeps one fault axis, recording each error into the quarantine
/// histogram and checking finiteness + monotone degradation.
fn sweep_axis(name: &str, magnitudes: &[f64], spec_of: impl Fn(f64) -> FaultSpec) -> CheckResult {
    let pdac = PDac::with_optimal_approx(8).expect("valid bits");
    let clean = FaultyPDac::new(pdac.clone(), FaultSpec::none());
    let errors: Vec<f64> = magnitudes
        .iter()
        .map(|&mag| {
            let faulty = FaultyPDac::new(pdac.clone(), spec_of(mag));
            let err = mean_abs_deviation(&faulty, &clean);
            pdac_telemetry::observe("verify.fault.mean_abs_error", err);
            err
        })
        .collect();
    pdac_telemetry::counter_add("verify.fault.sweeps", 1);
    // Slack: fold-back near the cos extrema can shave a hair off the
    // mean as a handful of codes wrap; degradation must still dominate.
    let slack = 0.01 * errors.last().copied().unwrap_or(0.0) + 1e-12;
    monotone_check(
        name,
        &errors,
        slack,
        format!("magnitudes={magnitudes:?} mean-abs-errors={errors:?}"),
    )
}

/// Single-slot faults across every slot position: outputs must stay
/// finite and inside the physical amplitude range, whatever the word.
fn slot_fault_checks() -> Vec<CheckResult> {
    let pdac = PDac::with_optimal_approx(8).expect("valid bits");
    let mut all_finite = true;
    let mut worst_amp = 0.0f64;
    let mut faulted_codes = 0u64;
    let clean = FaultyPDac::new(pdac.clone(), FaultSpec::none());
    for slot in 0..8usize {
        for fault in [
            SlotFault::StuckOn(slot),
            SlotFault::StuckOff(slot),
            SlotFault::Flipped(slot),
        ] {
            let faulty = FaultyPDac::new(pdac.clone(), FaultSpec::none().with_slot_fault(fault));
            for code in -127..=127 {
                let out = faulty.convert(code);
                all_finite &= out.is_finite();
                worst_amp = worst_amp.max(out.abs());
                if out.to_bits() != clean.convert(code).to_bits() {
                    faulted_codes += 1;
                }
            }
        }
    }
    pdac_telemetry::counter_add("verify.fault.slot_faulted_codes", faulted_codes);
    vec![
        invariant_check(
            "fault.slots.finite",
            all_finite,
            "24 single-slot faults x 255 codes, no NaN/inf".into(),
        ),
        tolerance_check(
            "fault.slots.amplitude_bounded",
            worst_amp,
            1.0 + 1e-9,
            format!("worst |amplitude| under slot faults; {faulted_codes} code conversions moved"),
        ),
    ]
}

/// GEMM-level graceful degradation: analog GEMM error vs exact must grow
/// monotonically with injected TIA drift and never go non-finite.
fn fault_gemm_check(cfg: &ConformanceConfig) -> CheckResult {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ 0xFA17);
    let (m, k, n) = cfg.gemm_shapes[0];
    let a = random_mat(m, k, &mut rng);
    let b = random_mat(k, n, &mut rng);
    let exact = a.matmul_reference(&b).unwrap();
    let errors: Vec<f64> = cfg
        .gain_drifts
        .iter()
        .map(|&drift| {
            let driver = FaultyPDac::new(
                PDac::with_optimal_approx(8).unwrap(),
                FaultSpec::none().with_tia_gain_drift(drift),
            );
            let backend = AnalogGemm::new(driver, format!("pdac8+drift{drift}"));
            let rel = relative_distance(&backend.matmul(&a, &b), &exact);
            pdac_telemetry::observe("verify.fault.gemm_rel_error", rel);
            rel
        })
        .collect();
    let slack = 0.01 * errors.last().copied().unwrap_or(0.0) + 1e-12;
    monotone_check(
        "fault.gemm.drift_monotone",
        &errors,
        slack,
        format!("drifts={:?} rel-errors={errors:?}", cfg.gain_drifts),
    )
}

/// Runs the backend-pair conformance matrix (no fault injection).
pub fn run_conformance(cfg: &ConformanceConfig) -> ConformanceReport {
    let _span = pdac_telemetry::span("verify.conformance");
    let mut report = ConformanceReport::default();
    report.extend(kernel_checks(cfg));
    report.extend(pool_kernel_checks(cfg));
    report.extend(lut_checks(cfg));
    report.extend(per_element_budget_checks(cfg));
    report.extend(fault_layer_conformance(cfg));
    report.extend(cached_gemm_checks(cfg));
    report.extend(forward_cache_checks());
    report.extend(end_to_end_budget_checks(cfg));
    report.extend(decode_workload_checks(cfg));
    report.extend(decode_row_checks(cfg));
    report.extend(paged_kv_checks(cfg));
    report.extend(tracing_invariance_checks(cfg));
    report.extend(energy_meter_invariance_checks(cfg));
    report.extend(serving_energy_checks());
    report.extend(sentinel_invariance_checks(cfg));
    report
}

/// Runs the fault-injection sweeps.
pub fn run_fault_sweeps(cfg: &ConformanceConfig) -> Vec<CheckResult> {
    let _span = pdac_telemetry::span("verify.fault_sweeps");
    let mut checks = vec![
        sweep_axis("fault.sweep.tia_gain_drift", &cfg.gain_drifts, |m| {
            FaultSpec::none().with_tia_gain_drift(m)
        }),
        sweep_axis("fault.sweep.dark_current", &cfg.dark_ratios, |m| {
            FaultSpec::none().with_dark_current_ratio(m)
        }),
        sweep_axis("fault.sweep.laser_droop", &cfg.laser_droops, |m| {
            FaultSpec::none().with_laser_droop(m)
        }),
    ];
    checks.extend(slot_fault_checks());
    checks.push(fault_gemm_check(cfg));
    checks
}

/// The full matrix: conformance plus fault sweeps.
pub fn run_full(cfg: &ConformanceConfig) -> ConformanceReport {
    let mut report = run_conformance(cfg);
    report.extend(run_fault_sweeps(cfg));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differing_bits_counts_exactly() {
        let a = Mat::from_rows(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let mut b = a.clone();
        assert_eq!(differing_bits(&a, &b), 0);
        b.as_mut_slice()[1] = 2.0 + 1e-16;
        // 2.0 + 1e-16 rounds back to 2.0 — still identical.
        assert_eq!(differing_bits(&a, &b), 0);
        b.as_mut_slice()[1] = f64::from_bits(2.0f64.to_bits() + 1);
        assert_eq!(differing_bits(&a, &b), 1);
    }

    #[test]
    fn monotone_check_flags_decrease() {
        let ok = monotone_check("m", &[0.0, 0.1, 0.2], 1e-12, String::new());
        assert!(ok.passed);
        let bad = monotone_check("m", &[0.2, 0.1], 1e-12, String::new());
        assert!(!bad.passed);
        assert!((bad.worst - 0.1).abs() < 1e-15);
        let nan = monotone_check("m", &[0.0, f64::NAN], 1.0, String::new());
        assert!(!nan.passed);
    }

    #[test]
    fn relative_distance_normalizes() {
        let a = Mat::from_rows(1, 2, vec![2.0, 0.0]).unwrap();
        let b = Mat::from_rows(1, 2, vec![1.0, 0.0]).unwrap();
        assert!((relative_distance(&a, &b) - 1.0).abs() < 1e-12);
    }
}
