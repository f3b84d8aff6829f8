//! Functional transformer inference with pluggable GEMM backends.
//!
//! Validates the paper's central application claim: "since our target
//! application is LLMs, which are inherently tolerant to minor
//! inaccuracies, the P-DAC is perfectly suited for such use cases."
//! We run the same seeded, randomly-initialized encoder stack once with
//! exact GEMMs and once with analog GEMMs (P-DAC or electrical DAC), and
//! measure output fidelity (cosine similarity, SQNR, top-1 agreement on a
//! classification head).
//!
//! Weights are seeded and scaled like trained transformer weights
//! (`N(0, 1/√d)`-style); inputs are seeded token embeddings. Pretrained
//! checkpoints and GLUE/ImageNet data are not available offline — the
//! substitution and its rationale are documented in DESIGN.md §3.

use crate::config::TransformerConfig;
use crate::gemm::GemmBackend;
use crate::ops::{gelu_mat, layer_norm_rows, mean_pool_rows, residual, softmax_rows};
use pdac_math::gemm::PackedB;
use pdac_math::rng::SplitMix64;
use pdac_math::stats::{cosine_similarity, sqnr_db};
use pdac_math::Mat;
use std::sync::OnceLock;

/// One encoder layer's weights (fields crate-visible for the batched
/// decode engine in [`crate::batch`]).
#[derive(Debug, Clone)]
pub(crate) struct EncoderLayer {
    pub(crate) wq: Mat,
    pub(crate) wk: Mat,
    pub(crate) wv: Mat,
    pub(crate) wo: Mat,
    pub(crate) w1: Mat,
    pub(crate) w2: Mat,
    pub(crate) ln1_gamma: Vec<f64>,
    pub(crate) ln1_beta: Vec<f64>,
    pub(crate) ln2_gamma: Vec<f64>,
    pub(crate) ln2_beta: Vec<f64>,
    /// Lazily panel-packed weights for the exact batched decode path
    /// (built on first use by [`Self::packs`]; derived data, so excluded
    /// from equality). Solo decode never touches them — the pack memory
    /// roughly doubles the weights, so only batched callers pay for it.
    pub(crate) packs: OnceLock<LayerPacks>,
}

/// Panel-packed forms ([`PackedB`]) of one layer's six weight matrices,
/// bit-identical inputs to `pdac_math::gemm::gemm_prepacked` (packing
/// only changes memory layout — see the math-crate module docs).
#[derive(Debug, Clone)]
pub(crate) struct LayerPacks {
    pub(crate) wq: PackedB,
    pub(crate) wk: PackedB,
    pub(crate) wv: PackedB,
    pub(crate) wo: PackedB,
    pub(crate) w1: PackedB,
    pub(crate) w2: PackedB,
}

impl PartialEq for EncoderLayer {
    /// Weight equality only: `packs` is a deterministic function of the
    /// weights, so two layers with equal weights are equal whether or
    /// not either has packed yet.
    fn eq(&self, other: &Self) -> bool {
        self.wq == other.wq
            && self.wk == other.wk
            && self.wv == other.wv
            && self.wo == other.wo
            && self.w1 == other.w1
            && self.w2 == other.w2
            && self.ln1_gamma == other.ln1_gamma
            && self.ln1_beta == other.ln1_beta
            && self.ln2_gamma == other.ln2_gamma
            && self.ln2_beta == other.ln2_beta
    }
}

/// A `rows × cols` weight of uniform draws scaled to variance `1/rows`,
/// drawn in row-major order in one bulk fill.
fn random_weight(rng: &mut SplitMix64, rows: usize, cols: usize) -> Mat {
    let std = 1.0 / (rows as f64).sqrt();
    let mut w = Mat::zeros(rows, cols);
    rng.fill_range_f64(w.as_mut_slice(), -1.0, 1.0);
    for x in w.as_mut_slice() {
        // One draw's `u * std * 1.732`, in that order.
        *x = *x * std * 1.732;
    }
    w
}

impl EncoderLayer {
    fn random(config: &TransformerConfig, rng: &mut SplitMix64) -> Self {
        let d = config.hidden;
        let ff = config.ff_dim();
        Self {
            wq: random_weight(rng, d, d),
            wk: random_weight(rng, d, d),
            wv: random_weight(rng, d, d),
            wo: random_weight(rng, d, d),
            w1: random_weight(rng, d, ff),
            w2: random_weight(rng, ff, d),
            ln1_gamma: vec![1.0; d],
            ln1_beta: vec![0.0; d],
            ln2_gamma: vec![1.0; d],
            ln2_beta: vec![0.0; d],
            packs: OnceLock::new(),
        }
    }

    /// The layer's panel-packed weights, built once on first call (the
    /// exact backend's batched projections skip their per-call packing
    /// pass with these — see `GemmBackend::matmul_batch_packed_into`).
    pub(crate) fn packs(&self) -> &LayerPacks {
        self.packs.get_or_init(|| {
            let pack = |w: &Mat| PackedB::pack(w.as_slice(), w.rows(), w.cols());
            LayerPacks {
                wq: pack(&self.wq),
                wk: pack(&self.wk),
                wv: pack(&self.wv),
                wo: pack(&self.wo),
                w1: pack(&self.w1),
                w2: pack(&self.w2),
            }
        })
    }

    fn forward(
        &self,
        x: &Mat,
        config: &TransformerConfig,
        backend: &dyn GemmBackend,
        causal: bool,
    ) -> Mat {
        let q = backend.matmul(x, &self.wq);
        let k = backend.matmul(x, &self.wk);
        let v = backend.matmul(x, &self.wv);
        let dh = config.head_dim();
        let scale = 1.0 / (dh as f64).sqrt();
        let s = x.rows();
        let mut context = Mat::zeros(s, config.hidden);
        // Scores and attention-weighted values run on the photonic cores
        // too (these are the "dynamic" matmuls LT emphasizes). Both
        // operands are built for one product, so they bypass the weight
        // cache, where they could never hit and would evict the weights.
        let transient = |a: &Mat, b: &Mat| {
            let mut out = Mat::zeros(1, 1);
            backend.matmul_transient_into(a, b, &mut out);
            out
        };
        for head in 0..config.heads {
            let cols = head * dh..(head + 1) * dh;
            let qh = Mat::from_fn(s, dh, |r, c| q[(r, cols.start + c)]);
            let kh = Mat::from_fn(s, dh, |r, c| k[(r, cols.start + c)]);
            let vh = Mat::from_fn(s, dh, |r, c| v[(r, cols.start + c)]);
            let mut scores = transient(&qh, &kh.transpose()).map(|x| x * scale);
            if causal {
                for r in 0..s {
                    for c in (r + 1)..s {
                        scores[(r, c)] = f64::NEG_INFINITY;
                    }
                }
            }
            let probs = softmax_rows(&scores);
            let ctx = transient(&probs, &vh);
            for r in 0..s {
                for c in 0..dh {
                    context[(r, cols.start + c)] = ctx[(r, c)];
                }
            }
        }
        self.finish_block(x, &context, backend)
    }

    /// Output projection + residual/LN + FFN, shared by both paths.
    fn finish_block(&self, x: &Mat, context: &Mat, backend: &dyn GemmBackend) -> Mat {
        let attn_out = backend.matmul(context, &self.wo);
        let x = layer_norm_rows(
            &residual(x, &attn_out),
            &self.ln1_gamma,
            &self.ln1_beta,
            1e-9,
        );
        let h = gelu_mat(&backend.matmul(&x, &self.w1));
        let ffn_out = backend.matmul(&h, &self.w2);
        layer_norm_rows(
            &residual(&x, &ffn_out),
            &self.ln2_gamma,
            &self.ln2_beta,
            1e-9,
        )
    }
}

/// The cached K/V rows of one layer during auto-regressive decoding
/// ("the KV cache stores precomputed K and V vectors, allowing the model
/// to reuse them for subsequent tokens" — paper Sec. II-A1).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct LayerCache {
    pub(crate) k: Vec<Vec<f64>>,
    pub(crate) v: Vec<Vec<f64>>,
}

impl LayerCache {
    pub(crate) fn push_row(&mut self, k_new: &[f64], v_new: &[f64]) {
        self.k.push(k_new.to_vec());
        self.v.push(v_new.to_vec());
    }

    pub(crate) fn len(&self) -> usize {
        self.k.len()
    }
}

/// A whole-model KV cache for incremental decoding.
///
/// Create with [`TransformerModel::new_cache`], feed tokens through
/// [`TransformerModel::decode_step`].
#[derive(Debug, Clone, PartialEq)]
pub struct KvCache {
    pub(crate) layers: Vec<LayerCache>,
}

impl KvCache {
    /// Number of tokens currently cached.
    pub fn len(&self) -> usize {
        self.layers.first().map_or(0, LayerCache::len)
    }

    /// Whether no tokens have been decoded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A randomly-initialized transformer encoder with a classification head.
///
/// # Examples
///
/// ```
/// use pdac_nn::{TransformerModel, TransformerConfig, ExactGemm};
///
/// let model = TransformerModel::random(TransformerConfig::tiny(), 10, 42);
/// let input = model.random_input(7);
/// let logits = model.logits(&input, &ExactGemm);
/// assert_eq!(logits.len(), 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerModel {
    config: TransformerConfig,
    pub(crate) layers: Vec<EncoderLayer>,
    classifier: Mat,
}

impl TransformerModel {
    /// Builds a model with seeded random weights and `classes` output
    /// logits.
    ///
    /// # Panics
    ///
    /// Panics if the config fails validation or `classes == 0`.
    pub fn random(config: TransformerConfig, classes: usize, seed: u64) -> Self {
        config.validate().expect("config must be valid");
        assert!(classes > 0, "need at least one output class");
        let mut rng = SplitMix64::seed_from_u64(seed);
        let layers = (0..config.layers)
            .map(|_| EncoderLayer::random(&config, &mut rng))
            .collect();
        let classifier = random_weight(&mut rng, config.hidden, classes);
        Self {
            config,
            layers,
            classifier,
        }
    }

    /// The model's shape.
    pub fn config(&self) -> &TransformerConfig {
        &self.config
    }

    /// A seeded random input of shape `seq_len × hidden` (token
    /// embeddings standing in for real data).
    pub fn random_input(&self, seed: u64) -> Mat {
        let mut x = Mat::zeros(self.config.seq_len, self.config.hidden);
        SplitMix64::seed_from_u64(seed).fill_range_f64(x.as_mut_slice(), -1.0, 1.0);
        x
    }

    /// Runs the encoder stack (bidirectional attention), returning the
    /// final hidden states.
    pub fn forward(&self, input: &Mat, backend: &dyn GemmBackend) -> Mat {
        let _span = pdac_telemetry::span("nn.inference.forward");
        assert_eq!(
            input.shape(),
            (self.config.seq_len, self.config.hidden),
            "input shape mismatch"
        );
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.forward(&x, &self.config, backend, false);
        }
        x
    }

    /// Runs the stack with a causal attention mask (decoder-style), for
    /// any number of rows up to the configured sequence length.
    ///
    /// # Panics
    ///
    /// Panics if the input's hidden dimension mismatches the model.
    pub fn forward_causal(&self, input: &Mat, backend: &dyn GemmBackend) -> Mat {
        assert_eq!(input.cols(), self.config.hidden, "hidden dim mismatch");
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.forward(&x, &self.config, backend, true);
        }
        x
    }

    /// Creates an empty KV cache for [`Self::decode_step`].
    pub fn new_cache(&self) -> KvCache {
        KvCache {
            layers: vec![LayerCache::default(); self.layers.len()],
        }
    }

    /// Decodes one token embedding incrementally against the cache,
    /// returning the token's final hidden state (1 × hidden).
    ///
    /// Equivalent to the corresponding row of [`Self::forward_causal`]
    /// over the full prefix — the KV-cache identity of paper Sec. II-A1.
    ///
    /// # Panics
    ///
    /// Panics if `token.len() != hidden` or the cache has a different
    /// layer count.
    pub fn decode_step(
        &self,
        token: &[f64],
        cache: &mut KvCache,
        backend: &dyn GemmBackend,
    ) -> Vec<f64> {
        let mut scratch = crate::batch::DecodeScratch::new();
        self.decode_step_with(token, cache, backend, &mut scratch)
    }

    /// Mean-pooled classification logits.
    pub fn logits(&self, input: &Mat, backend: &dyn GemmBackend) -> Vec<f64> {
        let hidden = self.forward(input, backend);
        let pooled = mean_pool_rows(&hidden);
        self.classifier
            .transpose()
            .matvec(&pooled)
            .expect("classifier matches hidden dim")
    }

    /// Argmax class of the logits.
    pub fn predict(&self, input: &Mat, backend: &dyn GemmBackend) -> usize {
        let logits = self.logits(input, backend);
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
            .map(|(i, _)| i)
            .expect("at least one class")
    }
}

/// Output-fidelity comparison between a reference and a test backend.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityReport {
    /// Test backend name.
    pub backend: String,
    /// Mean cosine similarity of logits over the batch.
    pub mean_cosine: f64,
    /// Mean SQNR of logits in dB.
    pub mean_sqnr_db: f64,
    /// Fraction of inputs whose argmax class agrees.
    pub top1_agreement: f64,
    /// Batch size evaluated.
    pub samples: usize,
}

/// Runs `samples` seeded inputs through `model` under both backends and
/// reports logits fidelity.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn fidelity_study(
    model: &TransformerModel,
    reference: &dyn GemmBackend,
    test: &dyn GemmBackend,
    samples: usize,
) -> FidelityReport {
    assert!(samples > 0, "need at least one sample");
    let mut cos_sum = 0.0;
    let mut sqnr_sum = 0.0;
    let mut agree = 0usize;
    for i in 0..samples {
        let input = model.random_input(1000 + i as u64);
        let ref_logits = model.logits(&input, reference);
        let test_logits = model.logits(&input, test);
        cos_sum += cosine_similarity(&ref_logits, &test_logits).unwrap_or(0.0);
        sqnr_sum += sqnr_db(&ref_logits, &test_logits).min(120.0);
        let ref_arg = argmax(&ref_logits);
        let test_arg = argmax(&test_logits);
        if ref_arg == test_arg {
            agree += 1;
        }
    }
    FidelityReport {
        backend: test.name().to_string(),
        mean_cosine: cos_sum / samples as f64,
        mean_sqnr_db: sqnr_sum / samples as f64,
        top1_agreement: agree as f64 / samples as f64,
        samples,
    }
}

fn argmax(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite values"))
        .map(|(i, _)| i)
        .expect("nonempty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{AnalogGemm, ExactGemm};
    use pdac_core::edac::ElectricalDac;
    use pdac_core::pdac::PDac;

    fn tiny_model() -> TransformerModel {
        TransformerModel::random(TransformerConfig::tiny(), 4, 7)
    }

    #[test]
    fn forward_shape_is_preserved() {
        let m = tiny_model();
        let x = m.random_input(1);
        let out = m.forward(&x, &ExactGemm);
        assert_eq!(out.shape(), (8, 32));
    }

    #[test]
    fn forward_is_deterministic() {
        let m = tiny_model();
        let x = m.random_input(2);
        let a = m.forward(&x, &ExactGemm);
        let b = m.forward(&x, &ExactGemm);
        assert_eq!(a, b);
    }

    #[test]
    fn different_inputs_give_different_outputs() {
        let m = tiny_model();
        let a = m.logits(&m.random_input(1), &ExactGemm);
        let b = m.logits(&m.random_input(2), &ExactGemm);
        assert_ne!(a, b);
    }

    #[test]
    fn layernorm_keeps_activations_bounded() {
        // Activation magnitudes must not blow up through the stack —
        // this is what makes per-tensor quantization viable.
        let m = tiny_model();
        let out = m.forward(&m.random_input(3), &ExactGemm);
        assert!(out.max_abs() < 10.0);
    }

    #[test]
    fn pdac_inference_tracks_exact() {
        let m = tiny_model();
        let pdac = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "pdac-8b");
        let report = fidelity_study(&m, &ExactGemm, &pdac, 8);
        assert!(report.mean_cosine > 0.95, "{report:?}");
        assert!(report.top1_agreement >= 0.75, "{report:?}");
    }

    #[test]
    fn edac_fidelity_beats_pdac_fidelity() {
        let m = tiny_model();
        let pdac = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "pdac-8b");
        let edac = AnalogGemm::new(ElectricalDac::new(8).unwrap(), "edac-8b");
        let rp = fidelity_study(&m, &ExactGemm, &pdac, 6);
        let re = fidelity_study(&m, &ExactGemm, &edac, 6);
        assert!(
            re.mean_sqnr_db > rp.mean_sqnr_db,
            "edac {re:?} vs pdac {rp:?}"
        );
    }

    #[test]
    fn predict_is_stable_under_pdac() {
        let m = tiny_model();
        let pdac = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "pdac-8b");
        let x = m.random_input(11);
        // Most inputs keep their argmax; this seeded one must.
        let exact = m.predict(&x, &ExactGemm);
        let analog = m.predict(&x, &pdac);
        assert_eq!(exact, analog);
    }

    #[test]
    fn decode_steps_match_causal_forward() {
        // The KV-cache identity: decoding token-by-token reproduces the
        // rows of the full causal forward pass exactly.
        let m = tiny_model();
        let input = m.random_input(21);
        let full = m.forward_causal(&input, &ExactGemm);
        let mut cache = m.new_cache();
        for t in 0..input.rows() {
            let hidden = m.decode_step(&input.row(t), &mut cache, &ExactGemm);
            for (c, h) in hidden.iter().enumerate() {
                assert!(
                    (h - full[(t, c)]).abs() < 1e-9,
                    "token {t} dim {c}: {h} vs {}",
                    full[(t, c)]
                );
            }
        }
        assert_eq!(cache.len(), input.rows());
    }

    #[test]
    fn causal_differs_from_bidirectional() {
        let m = tiny_model();
        let input = m.random_input(22);
        let causal = m.forward_causal(&input, &ExactGemm);
        let bidir = m.forward(&input, &ExactGemm);
        // The last token sees everything either way only in the first
        // layer; deeper layers mix, so outputs differ.
        assert_ne!(causal, bidir);
        // But the very first token attends only to itself in both the
        // causal pass's first layer and its decode equivalent.
        assert!(causal[(0, 0)].is_finite());
    }

    #[test]
    fn cache_starts_empty_and_grows() {
        let m = tiny_model();
        let mut cache = m.new_cache();
        assert!(cache.is_empty());
        let token = vec![0.1; 32];
        let _ = m.decode_step(&token, &mut cache, &ExactGemm);
        let _ = m.decode_step(&token, &mut cache, &ExactGemm);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn decode_works_with_analog_backend() {
        let m = tiny_model();
        let pdac = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "pdac");
        let mut exact_cache = m.new_cache();
        let mut analog_cache = m.new_cache();
        let token = m.random_input(5).row(0);
        let he = m.decode_step(&token, &mut exact_cache, &ExactGemm);
        let ha = m.decode_step(&token, &mut analog_cache, &pdac);
        let cs = pdac_math::stats::cosine_similarity(&he, &ha).unwrap();
        assert!(cs > 0.9, "cosine {cs}");
    }

    #[test]
    fn decode_steps_reuse_cached_weight_conversions() {
        // Across decode steps the six stable weight matrices per layer
        // hit the analog backend's weight cache; each weight converts
        // exactly once.
        let m = tiny_model();
        let pdac = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "pdac");
        let mut cache = m.new_cache();
        let input = m.random_input(6);
        let steps = 4;
        for t in 0..steps {
            let _ = m.decode_step(&input.row(t), &mut cache, &pdac);
        }
        // 2 layers × 6 weights miss on step 0, then hit on every later step.
        let weight_matmuls = 2 * 6;
        assert_eq!(pdac.cache().hits(), (steps as u64 - 1) * weight_matmuls);
        assert_eq!(pdac.cache().misses(), weight_matmuls);
    }

    #[test]
    fn forward_passes_reuse_cached_weight_conversions() {
        // 12 layers × 12 heads: the attention products would add 288
        // dead cache entries per forward, evicting all 72 weights from
        // the 128-entry cache before the next pass. Only the weights
        // may enter it.
        let config = TransformerConfig {
            name: "deep-narrow".into(),
            layers: 12,
            hidden: 48,
            heads: 12,
            ff_mult: 4,
            seq_len: 4,
        };
        let m = TransformerModel::random(config, 4, 8);
        let pdac = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "pdac");
        let input = m.random_input(9);
        let _ = m.forward(&input, &pdac);
        let _ = m.forward(&input, &pdac);
        let weight_matmuls = 12 * 6;
        assert_eq!(pdac.cache().misses(), weight_matmuls);
        assert_eq!(pdac.cache().hits(), weight_matmuls);
    }

    #[test]
    #[should_panic(expected = "hidden dim mismatch")]
    fn decode_rejects_wrong_token_width() {
        let m = tiny_model();
        let mut cache = m.new_cache();
        m.decode_step(&[0.0; 7], &mut cache, &ExactGemm);
    }

    #[test]
    #[should_panic(expected = "input shape mismatch")]
    fn wrong_input_shape_rejected() {
        let m = tiny_model();
        let bad = Mat::zeros(3, 32);
        m.forward(&bad, &ExactGemm);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn fidelity_needs_samples() {
        let m = tiny_model();
        fidelity_study(&m, &ExactGemm, &ExactGemm, 0);
    }

    /// FNV-1a over the bit patterns of `values`.
    fn fnv_bits<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
        values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            v.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    #[test]
    fn seeded_weights_and_inputs_keep_their_golden_bits() {
        // Every served digest and verify row descends from this stream;
        // a faster weight fill must reproduce it bit for bit.
        let m = TransformerModel::random(TransformerConfig::tiny(), 4, 42);
        let weights = m
            .layers
            .iter()
            .flat_map(|l| [&l.wq, &l.wk, &l.wv, &l.wo, &l.w1, &l.w2])
            .chain([&m.classifier])
            .flat_map(Mat::as_slice);
        assert_eq!(fnv_bits(weights), 0x8483_5c62_c9d1_e270);
        assert_eq!(
            fnv_bits(m.random_input(7).as_slice()),
            0x33e9_fdcf_f829_2904
        );
    }
}
