//! Batched auto-regressive decode engine.
//!
//! Continuous-batching serving (paper Sec. II-A1: decode is the
//! memory-bound phase that dominates LLM inference) wants the S "current"
//! tokens of S independent sequences pushed through the stack together:
//! every weight matrix is then streamed through the converters **once
//! per step** instead of once per sequence, which is exactly the
//! weight-traffic amortization a photonic GEMM engine needs to stay busy.
//!
//! The engine stacks the S token embeddings into one `S × hidden`
//! activation matrix per layer and runs the six stable weight matmuls
//! batched ([`crate::gemm::GemmBackend::matmul_batch_packed_into`]:
//! per-row activation quantization on analog backends, lazily
//! panel-packed weights on the exact backend). Attention runs
//! **slot-grouped**: sequences are grouped by KV-cache length once per
//! step, and for every (layer, head, group) the grouped queries
//! (`G × dh`), the stacked transposed key gathers (`G·dh × L`) and the
//! stacked value gathers (`G·L × dh`) feed two grouped kernel dispatches
//! ([`crate::gemm::GemmBackend::matmul_grouped_transient_into`]) instead
//! of `2·S` tiny per-sequence matmuls, with the scale + softmax pass
//! vectorized over the grouped `G × L` score matrix. Every per-step
//! buffer lives in a caller-owned [`DecodeScratch`], so once the scratch
//! is primed the engine itself allocates no per-token matrix; an analog
//! backend still allocates two buffers (codes, values) per operand it
//! converts ([`crate::quant::convert`]).
//! The `nn.decode.attention.group_size` histogram records one sample per
//! slot-group per step. See DESIGN.md §14.
//!
//! **One storage layout.** Batched decoding reads and appends K/V rows
//! through a [`PagedKvCache`]'s page tables ([`crate::paged`]); solo
//! [`TransformerModel::decode_step`] keeps one flat [`KvCache`] — the
//! reference every batch ≡ solo check compares against. Both run through
//! the same core, which sees either storage only as K/V row gathers.
//!
//! **Bit-identity contract:** row `s` of [`TransformerModel::decode_batch`]
//! is bit-identical to feeding that sequence's token through
//! [`TransformerModel::decode_step`] alone. This holds because the GEMM
//! kernels reduce each output cell in ascending-k order regardless of
//! batching or grouping (see `pdac_math::gemm`), activations convert per
//! row and stacked operands per block (one scale per block of
//! [`crate::quant::convert`], each block converted as if alone), and
//! softmax/layer-norm/GELU are row-local. The `pdac-verify` conformance
//! matrix asserts this, including ragged multi-group batches.

use crate::config::TransformerConfig;
use crate::gemm::GemmBackend;
use crate::inference::{KvCache, TransformerModel};
use crate::ops::{gelu_mat_inplace, layer_norm_rows_inplace, residual_into, softmax_rows_inplace};
use crate::paged::PagedKvCache;
use pdac_math::Mat;
use pdac_power::{OpClass, TraceEntry};

/// Reusable per-step buffers for the decode hot path.
///
/// Create once (per serving thread) and pass to
/// [`TransformerModel::decode_batch_with`] /
/// [`TransformerModel::decode_step_with`] on every step; all matrices
/// are resized in place, so after the first step at a given batch shape
/// the engine allocates nothing per token. The number of steps that
/// reused a warm scratch is available as [`DecodeScratch::reuses`] and
/// on the `nn.decode.scratch_reuse` telemetry counter.
#[derive(Debug)]
pub struct DecodeScratch {
    // Batched S × · activations (ping-ponged through the layer stack).
    x: Mat,
    q: Mat,
    k_new: Mat,
    v_new: Mat,
    context: Mat,
    attn_out: Mat,
    x1: Mat,
    h: Mat,
    ffn: Mat,
    // Slot-group bookkeeping: sequence indices ordered by (cache length,
    // index), and one (start, count, post-push length) triple per run of
    // equal-length sequences. Computed once per step.
    group_order: Vec<usize>,
    group_bounds: Vec<(usize, usize, usize)>,
    // Grouped per-head attention operands: G query rows (G × dh), the
    // stacked transposed key gathers (G·dh × L), the grouped score
    // matrix (G × L), the stacked value gathers (G·L × dh) and the
    // grouped context rows (G × dh).
    qg: Mat,
    kgt: Mat,
    scores: Mat,
    vg: Mat,
    ctx: Mat,
    primed: bool,
    reuses: u64,
}

impl Default for DecodeScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl DecodeScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        let mat = || Mat::zeros(1, 1);
        Self {
            x: mat(),
            q: mat(),
            k_new: mat(),
            v_new: mat(),
            context: mat(),
            attn_out: mat(),
            x1: mat(),
            h: mat(),
            ffn: mat(),
            group_order: Vec::new(),
            group_bounds: Vec::new(),
            qg: mat(),
            kgt: mat(),
            scores: mat(),
            vg: mat(),
            ctx: mat(),
            primed: false,
            reuses: 0,
        }
    }

    /// How many decode calls reused this scratch's warm buffers (i.e.
    /// ran without growing any batched activation allocation).
    pub fn reuses(&self) -> u64 {
        self.reuses
    }
}

/// The K/V rows a decode step reads and appends, behind one indirection:
/// a [`PagedKvCache`]'s page tables for batched decoding, or one flat
/// [`KvCache`] for solo [`TransformerModel::decode_step`] — the
/// reference every batch ≡ solo and paged ≡ reference check compares
/// against. The decode core is written against this enum only, so both
/// run the *same* arithmetic in the same order — the gathers below are
/// pure data movement, which is what keeps the paged path inside the
/// bit-identity contract.
pub(crate) enum KvRows<'a> {
    /// Page-table indirection: batch row `i` decodes slot `slots[i]` of
    /// the paged cache.
    Paged {
        cache: &'a mut PagedKvCache,
        slots: &'a [usize],
    },
    /// One sequence's flat cache (the solo reference).
    Solo(&'a mut KvCache),
}

impl KvRows<'_> {
    /// Number of sequences in this batch.
    fn seqs(&self) -> usize {
        match self {
            KvRows::Paged { slots, .. } => slots.len(),
            KvRows::Solo(_) => 1,
        }
    }

    /// Validates the cache against the model's layer count.
    fn assert_layers(&self, model_layers: usize) {
        let layers = match self {
            KvRows::Paged { cache, .. } => cache.layer_count(),
            KvRows::Solo(cache) => cache.layers.len(),
        };
        assert_eq!(layers, model_layers, "cache layer mismatch");
    }

    /// Cached tokens for batch row `i`.
    fn len(&self, i: usize) -> usize {
        match self {
            KvRows::Paged { cache, slots } => cache.seq_len(slots[i]),
            KvRows::Solo(cache) => cache.len(),
        }
    }

    /// Sum of cached tokens across the batch (post-push, for the energy
    /// meter).
    fn total_len(&self) -> u64 {
        (0..self.seqs()).map(|i| self.len(i) as u64).sum()
    }

    /// Appends this step's K/V row for batch row `i` at layer `li`.
    fn push_row(&mut self, li: usize, i: usize, k: &[f64], v: &[f64]) {
        match self {
            KvRows::Paged { cache, slots } => cache.push_row(slots[i], li, k, v),
            KvRows::Solo(cache) => cache.layers[li].push_row(k, v),
        }
    }

    /// Transposed key gather for batch row `i`, head columns
    /// `c0..c0 + dh`: writes `out[r * l + t] = K[t][c0 + r]` — identical
    /// element order for both layouts.
    fn gather_kt(&self, li: usize, i: usize, c0: usize, dh: usize, l: usize, out: &mut [f64]) {
        match self {
            KvRows::Paged { cache, slots } => cache.gather_kt(slots[i], li, c0, dh, l, out),
            KvRows::Solo(cache) => {
                for (t, key) in cache.layers[li].k.iter().enumerate() {
                    for (r, &kv) in key[c0..c0 + dh].iter().enumerate() {
                        out[r * l + t] = kv;
                    }
                }
            }
        }
    }

    /// Value gather for batch row `i`: writes
    /// `out[t * dh..(t + 1) * dh] = V[t][c0..c0 + dh]`.
    fn gather_v(&self, li: usize, i: usize, c0: usize, dh: usize, out: &mut [f64]) {
        match self {
            KvRows::Paged { cache, slots } => cache.gather_v(slots[i], li, c0, dh, out),
            KvRows::Solo(cache) => {
                for (t, val) in cache.layers[li].v.iter().enumerate() {
                    out[t * dh..(t + 1) * dh].copy_from_slice(&val[c0..c0 + dh]);
                }
            }
        }
    }
}

/// The shared batched decode core: advances each sequence in `kv`
/// by its row of `tokens`, writing the `S × hidden` final hidden states
/// into `out`.
pub(crate) fn decode_rows(
    model: &TransformerModel,
    tokens: &Mat,
    kv: &mut KvRows<'_>,
    backend: &dyn GemmBackend,
    scratch: &mut DecodeScratch,
    out: &mut Mat,
) {
    let config = model.config();
    let s = tokens.rows();
    let d = config.hidden;
    let ff = config.ff_dim();
    assert_eq!(tokens.cols(), d, "hidden dim mismatch");
    assert_eq!(kv.seqs(), s, "batch size mismatch");
    kv.assert_layers(model.layers.len());

    if scratch.primed && scratch.x.capacity() >= s * d && scratch.h.capacity() >= s * ff {
        scratch.reuses += 1;
        pdac_telemetry::counter_add("nn.decode.scratch_reuse", 1);
    }
    scratch.primed = true;

    // Borrow every buffer individually so the grouped loops below can
    // hold the bookkeeping vectors and the operand matrices at once.
    let DecodeScratch {
        x,
        q,
        k_new,
        v_new,
        context,
        attn_out,
        x1,
        h,
        ffn,
        group_order,
        group_bounds,
        qg,
        kgt,
        scores,
        vg,
        ctx,
        ..
    } = scratch;

    x.resize(s, d);
    x.as_mut_slice().copy_from_slice(tokens.as_slice());

    let dh = config.head_dim();
    let scale = 1.0 / (dh as f64).sqrt();

    // Slot-groups: runs of sequences whose caches hold the same number
    // of rows, ordered by (length, slot index). Every layer pushes one
    // K/V row per sequence before attending, so the grouping — computed
    // from pre-push lengths once per step — is identical in every layer.
    // Unstable sort is fine: the (length, index) keys are unique, so the
    // order is deterministic, and nothing allocates on the warm path.
    group_order.clear();
    group_order.extend(0..s);
    group_order.sort_unstable_by_key(|&sq| (kv.len(sq), sq));
    group_bounds.clear();
    let mut at = 0;
    while at < s {
        let len = kv.len(group_order[at]);
        let mut end = at + 1;
        while end < s && kv.len(group_order[end]) == len {
            end += 1;
        }
        // Post-push context length: this step's K/V row is appended
        // before scoring.
        group_bounds.push((at, end - at, len + 1));
        pdac_telemetry::observe("nn.decode.attention.group_size", (end - at) as f64);
        at = end;
    }

    for (li, layer) in model.layers.iter().enumerate() {
        // Q/K/V projections: one batched GEMM each — the weight operand
        // is prepared (quantized + converted + panel-packed once per
        // matrix by analog backends; panel-packed lazily by the exact
        // backend via `layer.packs()`) for all S sequences.
        let qkv_span = pdac_telemetry::span("nn.decode.qkv");
        backend.matmul_batch_packed_into(x, &layer.wq, &|| &layer.packs().wq, q);
        backend.matmul_batch_packed_into(x, &layer.wk, &|| &layer.packs().wk, k_new);
        backend.matmul_batch_packed_into(x, &layer.wv, &|| &layer.packs().wv, v_new);
        drop(qkv_span);

        let attn_span = pdac_telemetry::span("nn.decode.attention");
        context.resize(s, d);
        for sq in 0..s {
            kv.push_row(li, sq, k_new.row_slice(sq), v_new.row_slice(sq));
        }
        for &(start, g, l) in group_bounds.iter() {
            let seqs = &group_order[start..start + g];
            for head in 0..config.heads {
                let c0 = head * dh;
                qg.resize(g, dh);
                for (gi, &sq) in seqs.iter().enumerate() {
                    qg.row_slice_mut(gi)
                        .copy_from_slice(&q.row_slice(sq)[c0..c0 + dh]);
                }
                // Each sequence's Kᵀ gathered directly in transposed
                // layout — matching the historical `kh.transpose()`
                // element-for-element — and stacked into one G·dh × L
                // operand for the grouped kernel.
                kgt.resize(g * dh, l);
                let kdata = kgt.as_mut_slice();
                for (gi, &sq) in seqs.iter().enumerate() {
                    kv.gather_kt(
                        li,
                        sq,
                        c0,
                        dh,
                        l,
                        &mut kdata[gi * dh * l..(gi + 1) * dh * l],
                    );
                }
                // Grouped transient matmuls: per-step gathers can never
                // hit a weight cache (see `matmul_transient_into`), and
                // grouping runs all G products in one kernel dispatch /
                // conversion pass. Row g stays bit-identical to the solo
                // 1×dh · dh×L product.
                backend.matmul_grouped_transient_into(qg, kgt, scores);
                // Scale + softmax vectorized over the grouped G × L
                // score matrix — both are row-local, so each row matches
                // the solo path's 1 × L pass exactly.
                for v in scores.as_mut_slice() {
                    *v *= scale;
                }
                softmax_rows_inplace(scores);
                vg.resize(g * l, dh);
                let vdata = vg.as_mut_slice();
                for (gi, &sq) in seqs.iter().enumerate() {
                    kv.gather_v(li, sq, c0, dh, &mut vdata[gi * l * dh..(gi + 1) * l * dh]);
                }
                backend.matmul_grouped_transient_into(scores, vg, ctx);
                for (gi, &sq) in seqs.iter().enumerate() {
                    context.row_slice_mut(sq)[c0..c0 + dh].copy_from_slice(ctx.row_slice(gi));
                }
            }
        }

        // Output projection + residual/LN (still the attention stage),
        // then the FFN, batched.
        backend.matmul_batch_packed_into(context, &layer.wo, &|| &layer.packs().wo, attn_out);
        residual_into(x, attn_out, x1);
        layer_norm_rows_inplace(x1, &layer.ln1_gamma, &layer.ln1_beta, 1e-9);
        drop(attn_span);

        let _ffn_span = pdac_telemetry::span("nn.decode.ffn");
        backend.matmul_batch_packed_into(x1, &layer.w1, &|| &layer.packs().w1, h);
        gelu_mat_inplace(h);
        backend.matmul_batch_packed_into(h, &layer.w2, &|| &layer.packs().w2, ffn);
        residual_into(x1, ffn, x);
        layer_norm_rows_inplace(x, &layer.ln2_gamma, &layer.ln2_beta, 1e-9);
    }

    out.resize(s, d);
    out.as_mut_slice().copy_from_slice(x.as_slice());

    record_step_energy(model, kv, s);
}

/// Reports the step's executed activity, [`step_activity`], to the live
/// energy meter ([`pdac_power::meter`]). One call per decode step:
/// three atomic records, nothing on the per-head hot path.
fn record_step_energy(model: &TransformerModel, kv: &KvRows<'_>, s: usize) {
    if !pdac_power::meter::is_active() {
        return;
    }
    // Caches were pushed above, so this is the post-push context.
    for e in step_activity(model.config(), s, kv.total_len()) {
        pdac_power::meter::record(e.class, e.macs, e.bytes_at_8bit, e.elementwise_ops);
    }
}

/// The activity one decode step executes: `rows` sequences advance one
/// token each, and `total_context` is the sum of their context lengths
/// after this step's K/V push. One entry per class, in attention, FFN,
/// other order. This is the one statement of the counts the live energy
/// meter records per step; a serving ledger is its sum over the steps
/// served.
///
/// The counts are attributed to the decode phases: the GEMMs of
/// `nn.decode.qkv` and `nn.decode.attention` land on
/// [`OpClass::Attention`], `nn.decode.ffn` on [`OpClass::Ffn`], and the
/// row-local element-wise work (softmax/LN/GELU/residual) on
/// [`OpClass::Other`], the same convention as
/// [`crate::workload::op_trace`].
///
/// Movement counts only per-step *streamed* bytes (activations in/out of
/// each GEMM, KV gathers, scores): weight operands are backend-resident
/// (converted once into the weight cache), so their one-time streaming
/// is model-load cost, not serving cost. KV paging changes where the
/// gathered rows *live* (and how many fit), not how many stream through
/// the converters per step, so a paged batch row and its solo replay
/// record identical activity. See DESIGN.md §13 and §15.
///
/// # Examples
///
/// ```
/// use pdac_nn::{step_activity, TransformerConfig};
/// use pdac_power::OpClass;
///
/// let config = TransformerConfig::tiny();
/// // Two sequences, each one token deep after the push.
/// let [_, ffn, _] = step_activity(&config, 2, 2);
/// assert_eq!(ffn.class, OpClass::Ffn);
/// let (d, ff) = (config.hidden as u64, config.ff_dim() as u64);
/// assert_eq!(ffn.macs, config.layers as u64 * 2 * 2 * d * ff);
/// ```
pub fn step_activity(
    config: &TransformerConfig,
    rows: usize,
    total_context: u64,
) -> [TraceEntry; 3] {
    let layers = config.layers as u64;
    let (s, d, ff, h) = (
        rows as u64,
        config.hidden as u64,
        config.ff_dim() as u64,
        config.heads as u64,
    );
    let sum_l = total_context;
    // QKV + output projections (4·s·d²) plus per-head score/context
    // matmuls (2·d·l per sequence).
    let attn_macs = layers * (4 * s * d * d + 2 * d * sum_l);
    // Streamed bytes at 8-bit: GEMM activations in/out for the four
    // projections (8·s·d), per-head q/context rows (2·d per seq), score
    // rows in+out (2·h·l), and the K/V cache gathers (2·d·l).
    let attn_bytes = layers * (8 * s * d + 2 * d * s + 2 * h * sum_l + 2 * d * sum_l);
    let ffn_macs = layers * 2 * s * d * ff;
    let ffn_bytes = layers * (2 * s * d + 2 * s * ff);
    // Softmax (h·l per seq), two layer-norms + two residuals (4·s·d),
    // GELU (s·ff).
    let elementwise = layers * (h * sum_l + 4 * s * d + s * ff);
    let entry = |class, macs, bytes_at_8bit, elementwise_ops| TraceEntry {
        class,
        macs,
        bytes_at_8bit,
        elementwise_ops,
    };
    [
        entry(OpClass::Attention, attn_macs, attn_bytes, 0),
        entry(OpClass::Ffn, ffn_macs, ffn_bytes, 0),
        entry(OpClass::Other, 0, 0, elementwise),
    ]
}

impl TransformerModel {
    /// Advances every slot of `cache` by one token: row `s` of `tokens`
    /// is the current token embedding of slot `s`.
    ///
    /// Returns the `S × hidden` final hidden states; row `s` is
    /// **bit-identical** to decoding that slot's token history through
    /// [`Self::decode_step`] alone — page-table indirection (including
    /// prefix-shared pages) is pure data movement.
    ///
    /// # Examples
    ///
    /// ```
    /// use pdac_math::Mat;
    /// use pdac_nn::{ExactGemm, PagedConfig, PagedKvCache, TransformerConfig, TransformerModel};
    ///
    /// let model = TransformerModel::random(TransformerConfig::tiny(), 4, 42);
    /// let mut cache = PagedKvCache::new(&model, 3, PagedConfig::default());
    /// let tokens = Mat::from_fn(3, model.config().hidden, |r, c| {
    ///     ((r * 31 + c) as f64).sin() * 0.1
    /// });
    /// let hidden = model.decode_batch(&tokens, &mut cache, &ExactGemm);
    /// assert_eq!(hidden.shape(), (3, model.config().hidden));
    /// assert_eq!(cache.seq_len(0), 1);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `tokens.rows()` differs from the cache's slot count,
    /// `tokens.cols() != hidden`, or the cache's layer count differs
    /// from the model's.
    pub fn decode_batch(
        &self,
        tokens: &Mat,
        cache: &mut PagedKvCache,
        backend: &dyn GemmBackend,
    ) -> Mat {
        assert_eq!(tokens.rows(), cache.slots(), "batch size mismatch");
        let slots: Vec<usize> = (0..cache.slots()).collect();
        let mut scratch = cache.take_scratch();
        let mut out = Mat::zeros(1, 1);
        self.decode_batch_with(tokens, cache, &slots, backend, &mut scratch, &mut out);
        cache.put_scratch(scratch);
        out
    }

    /// [`Self::decode_batch`] over an arbitrary subset of slots (row `i`
    /// of `tokens` advances `slots[i]`), writing into a caller-owned
    /// output — the form the continuous-batching scheduler uses when
    /// some slots are empty or retired.
    ///
    /// # Panics
    ///
    /// Panics if `tokens.rows() != slots.len()`, `tokens.cols() !=
    /// hidden`, or the cache's layer count differs from the model's.
    pub fn decode_batch_with(
        &self,
        tokens: &Mat,
        cache: &mut PagedKvCache,
        slots: &[usize],
        backend: &dyn GemmBackend,
        scratch: &mut DecodeScratch,
        out: &mut Mat,
    ) {
        debug_assert!(
            slots
                .iter()
                .all(|&a| slots.iter().filter(|&&b| b == a).count() == 1),
            "duplicate slot in decode batch"
        );
        let _span = pdac_telemetry::span("nn.inference.decode_batch");
        pdac_telemetry::counter_add("nn.inference.decoded_tokens", tokens.rows() as u64);
        decode_rows(
            self,
            tokens,
            &mut KvRows::Paged { cache, slots },
            backend,
            scratch,
            out,
        );
    }

    /// [`Self::decode_step`] with a caller-owned scratch, so repeated
    /// single-sequence decoding also runs allocation-lean.
    pub fn decode_step_with(
        &self,
        token: &[f64],
        cache: &mut KvCache,
        backend: &dyn GemmBackend,
        scratch: &mut DecodeScratch,
    ) -> Vec<f64> {
        let _span = pdac_telemetry::span("nn.inference.decode_step");
        pdac_telemetry::counter_add("nn.inference.decoded_tokens", 1);
        assert_eq!(token.len(), self.config().hidden, "hidden dim mismatch");
        let tokens = Mat::from_rows(1, token.len(), token.to_vec()).expect("row vector");
        let mut out = Mat::zeros(1, 1);
        decode_rows(
            self,
            &tokens,
            &mut KvRows::Solo(cache),
            backend,
            scratch,
            &mut out,
        );
        out.row(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransformerConfig;
    use crate::gemm::{AnalogGemm, AsymmetricGemm, ExactGemm};
    use crate::paged::PagedConfig;
    use pdac_core::edac::ElectricalDac;
    use pdac_core::pdac::PDac;

    fn tiny_model() -> TransformerModel {
        TransformerModel::random(TransformerConfig::tiny(), 4, 7)
    }

    fn token_rows(model: &TransformerModel, s: usize, seed: u64) -> Mat {
        let input = model.random_input(seed);
        Mat::from_fn(s, model.config().hidden, |r, c| {
            input[(r % input.rows(), c)]
        })
    }

    /// Block 2, so a few steps already cross page boundaries.
    fn paged(m: &TransformerModel, s: usize) -> PagedKvCache {
        PagedKvCache::new(m, s, PagedConfig::new(2))
    }

    fn assert_batch_matches_sequential(backend: &dyn GemmBackend, steps: usize, s: usize) {
        let m = tiny_model();
        let mut batch = paged(&m, s);
        let mut solo: Vec<KvCache> = (0..s).map(|_| m.new_cache()).collect();
        for t in 0..steps {
            let tokens = token_rows(&m, s, 40 + t as u64);
            let got = m.decode_batch(&tokens, &mut batch, backend);
            for (sq, cache) in solo.iter_mut().enumerate() {
                let want = m.decode_step(&tokens.row(sq), cache, backend);
                assert_eq!(
                    got.row(sq),
                    want,
                    "step {t} seq {sq} diverged from sequential decode"
                );
            }
        }
    }

    #[test]
    fn exact_batch_rows_bit_identical_to_decode_step() {
        assert_batch_matches_sequential(&ExactGemm, 3, 4);
    }

    #[test]
    fn analog_batch_rows_bit_identical_to_decode_step() {
        let pdac = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "pdac");
        assert_batch_matches_sequential(&pdac, 3, 3);
    }

    #[test]
    fn asymmetric_batch_rows_bit_identical_to_decode_step() {
        let b = AsymmetricGemm::new(
            ElectricalDac::new(8).unwrap(),
            PDac::with_optimal_approx(8).unwrap(),
            "edac-act/pdac-wt",
        );
        assert_batch_matches_sequential(&b, 2, 3);
    }

    #[test]
    fn batch_of_one_matches_decode_step() {
        assert_batch_matches_sequential(&ExactGemm, 4, 1);
    }

    #[test]
    fn decode_step_with_reuses_scratch() {
        let m = tiny_model();
        let mut cache = m.new_cache();
        let mut scratch = DecodeScratch::new();
        let input = m.random_input(6);
        for t in 0..4 {
            let _ = m.decode_step_with(&input.row(t), &mut cache, &ExactGemm, &mut scratch);
        }
        // First call primes the buffers; the other three reuse them.
        assert_eq!(scratch.reuses(), 3);
    }

    #[test]
    fn batched_cache_tracks_per_sequence_lengths() {
        let m = tiny_model();
        let mut batch = paged(&m, 2);
        let tokens = token_rows(&m, 2, 9);
        let _ = m.decode_batch(&tokens, &mut batch, &ExactGemm);
        let _ = m.decode_batch(&tokens, &mut batch, &ExactGemm);
        assert_eq!(batch.seq_len(0), 2);
        assert_eq!(batch.seq_len(1), 2);
        batch.reset_slot(1);
        assert_eq!(batch.seq_len(1), 0);
        assert_eq!(batch.seq_len(0), 2);
        assert!(batch.scratch().reuses() >= 1);
    }

    #[test]
    fn ragged_slots_decode_via_decode_batch_with() {
        // Slots at different positions (continuous batching after a
        // retirement) still match their sequential counterparts.
        let m = tiny_model();
        let backend = ExactGemm;
        let mut batch = paged(&m, 2);
        let mut a_ref = m.new_cache();
        let mut b_ref = m.new_cache();
        let mut scratch = DecodeScratch::new();
        let mut out = Mat::zeros(1, 1);
        let warm = token_rows(&m, 1, 3);
        // Advance slot 0 two tokens ahead before batching the pair.
        for _ in 0..2 {
            m.decode_batch_with(&warm, &mut batch, &[0], &backend, &mut scratch, &mut out);
            let _ = m.decode_step(&warm.row(0), &mut a_ref, &backend);
        }
        let tokens = token_rows(&m, 2, 5);
        m.decode_batch_with(
            &tokens,
            &mut batch,
            &[0, 1],
            &backend,
            &mut scratch,
            &mut out,
        );
        let wa = m.decode_step(&tokens.row(0), &mut a_ref, &backend);
        let wb = m.decode_step(&tokens.row(1), &mut b_ref, &backend);
        assert_eq!(out.row(0), wa);
        assert_eq!(out.row(1), wb);
        assert_eq!(batch.seq_len(0), 3);
        assert_eq!(batch.seq_len(1), 1);
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn wrong_batch_size_rejected() {
        let m = tiny_model();
        let mut batch = paged(&m, 2);
        let tokens = token_rows(&m, 3, 1);
        m.decode_batch(&tokens, &mut batch, &ExactGemm);
    }

    #[test]
    #[should_panic(expected = "hidden dim mismatch")]
    fn wrong_hidden_dim_rejected() {
        let m = tiny_model();
        let mut batch = paged(&m, 2);
        let tokens = Mat::zeros(2, 7);
        m.decode_batch(&tokens, &mut batch, &ExactGemm);
    }
}
