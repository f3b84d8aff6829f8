//! `TimedBackend`: a forwarding `GemmBackend` that times every call the
//! decode engine makes and attributes it to a (layer, phase) cell.
//!
//! The decode engine calls its backend in a fixed order per layer: three
//! packed batch GEMMs for the Q, K and V projections, then per head and
//! slot group a grouped score GEMM followed by a grouped P·V GEMM, then
//! packed GEMMs for the output projection and the two FFN matrices. The
//! wrapper follows that order from outside, checking each call's weight
//! shape against it. Any other sequence panics instead of misattributing
//! time.

use std::cell::RefCell;
use std::time::Instant;

use pdac_math::gemm::PackedB;
use pdac_math::Mat;
use pdac_nn::{GemmBackend, TransformerConfig};

/// The decode engine's GEMM phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmPhase {
    Qkv,
    AttnScore,
    AttnPv,
    OutProj,
    FfnUp,
    FfnDown,
}

impl GemmPhase {
    pub const ALL: [GemmPhase; 6] = [
        GemmPhase::Qkv,
        GemmPhase::AttnScore,
        GemmPhase::AttnPv,
        GemmPhase::OutProj,
        GemmPhase::FfnUp,
        GemmPhase::FfnDown,
    ];

    pub fn label(self) -> &'static str {
        match self {
            GemmPhase::Qkv => "qkv",
            GemmPhase::AttnScore => "attn_score",
            GemmPhase::AttnPv => "attn_pv",
            GemmPhase::OutProj => "out_proj",
            GemmPhase::FfnUp => "ffn_up",
            GemmPhase::FfnDown => "ffn_down",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Packed (weight) GEMMs per layer, in call order: wq, wk, wv, wo, w1, w2.
const PACKED_PER_LAYER: usize = 6;

/// Call count, multiply-accumulates and busy time of one (layer, phase).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cell {
    pub calls: u64,
    pub macs: u64,
    pub ns: u64,
}

/// One timed call, in nanoseconds since the wrapper's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmSpan {
    pub layer: usize,
    pub phase: GemmPhase,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
struct State {
    /// Packed calls seen in the current step, `0..layers * 6`.
    packed: usize,
    /// Grouped calls seen since the last V projection.
    grouped: usize,
    cells: Vec<[Cell; 6]>,
    /// Sum of every cell's `ns`.
    busy_ns: u64,
    spans: Vec<GemmSpan>,
    /// Calls recorded as spans before recording stops (totals go on).
    span_cap: usize,
}

/// A `GemmBackend` that forwards to `inner` and times each call.
pub struct TimedBackend<'a> {
    inner: &'a dyn GemmBackend,
    hidden: usize,
    ff: usize,
    head_dim: usize,
    layers: usize,
    epoch: Instant,
    state: RefCell<State>,
}

impl<'a> TimedBackend<'a> {
    /// Wraps `inner` for a model shaped by `config`, keeping up to
    /// `span_cap` calls as spans timed from `epoch`.
    pub fn new(
        inner: &'a dyn GemmBackend,
        config: &TransformerConfig,
        epoch: Instant,
        span_cap: usize,
    ) -> Self {
        Self {
            inner,
            hidden: config.hidden,
            ff: config.ff_dim(),
            head_dim: config.head_dim(),
            layers: config.layers,
            epoch,
            state: RefCell::new(State {
                packed: 0,
                grouped: 0,
                cells: vec![[Cell::default(); 6]; config.layers],
                busy_ns: 0,
                spans: Vec::new(),
                span_cap,
            }),
        }
    }

    /// Per-layer, per-phase totals (indexed `[layer][phase]`).
    pub fn cells(&self) -> Vec<[Cell; 6]> {
        self.state.borrow().cells.clone()
    }

    /// Nanoseconds spent inside the wrapped backend so far.
    pub fn busy_ns(&self) -> u64 {
        self.state.borrow().busy_ns
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.state.borrow().spans.len()
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> Vec<GemmSpan> {
        self.state.borrow().spans.clone()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record(&self, layer: usize, phase: GemmPhase, macs: usize, start_ns: u64) {
        let end_ns = self.now_ns();
        let mut st = self.state.borrow_mut();
        let cell = &mut st.cells[layer][phase.index()];
        cell.calls += 1;
        cell.macs += macs as u64;
        cell.ns += end_ns - start_ns;
        st.busy_ns += end_ns - start_ns;
        if st.spans.len() < st.span_cap {
            st.spans.push(GemmSpan {
                layer,
                phase,
                start_ns,
                end_ns,
            });
        }
    }

    /// Classifies the next packed call from its position in the layer
    /// sequence, checking the weight shape the position implies.
    fn classify_packed(&self, b: &Mat) -> (usize, GemmPhase) {
        let mut st = self.state.borrow_mut();
        let layer = st.packed / PACKED_PER_LAYER;
        let pos = st.packed % PACKED_PER_LAYER;
        let (d, ff) = (self.hidden, self.ff);
        let (phase, want) = match pos {
            0..=2 => (GemmPhase::Qkv, (d, d)),
            3 => (GemmPhase::OutProj, (d, d)),
            4 => (GemmPhase::FfnUp, (d, ff)),
            _ => (GemmPhase::FfnDown, (ff, d)),
        };
        assert_eq!(
            b.shape(),
            want,
            "TimedBackend: call pattern broke: packed call {pos} of layer {layer} \
             should multiply a {want:?} weight"
        );
        if pos == 3 {
            assert!(
                st.grouped > 0 && st.grouped.is_multiple_of(2),
                "TimedBackend: call pattern broke: layer {layer} reached the output \
                 projection after {} grouped attention calls (want a nonzero even count)",
                st.grouped
            );
        } else {
            assert_eq!(
                st.grouped, 0,
                "TimedBackend: call pattern broke: grouped attention call before packed \
                 call {pos} of layer {layer}"
            );
        }
        st.grouped = 0;
        st.packed = (st.packed + 1) % (PACKED_PER_LAYER * self.layers);
        (layer, phase)
    }

    /// Classifies the next grouped call: allowed only between a layer's V
    /// and output projections, alternating score and P·V.
    fn classify_grouped(&self, a: &Mat, b: &Mat) -> (usize, GemmPhase) {
        let mut st = self.state.borrow_mut();
        let layer = st.packed / PACKED_PER_LAYER;
        let pos = st.packed % PACKED_PER_LAYER;
        assert_eq!(
            pos, 3,
            "TimedBackend: call pattern broke: grouped attention call at packed \
             position {pos} of layer {layer}"
        );
        let score = st.grouped.is_multiple_of(2);
        st.grouped += 1;
        let (g, dh) = (a.rows(), self.head_dim);
        // Score: G query rows (G × dh) against stacked Kᵀ blocks (G·dh × L).
        // P·V: G score rows (G × L) against stacked V blocks (G·L × dh).
        let fits = if score {
            a.cols() == dh && b.rows() == g * dh
        } else {
            b.cols() == dh && b.rows() == g * a.cols()
        };
        assert!(
            fits,
            "TimedBackend: call pattern broke: grouped call {} of layer {layer} is not a \
             {} product ({:?} · {:?})",
            st.grouped,
            if score { "score" } else { "P·V" },
            a.shape(),
            b.shape()
        );
        let phase = if score {
            GemmPhase::AttnScore
        } else {
            GemmPhase::AttnPv
        };
        (layer, phase)
    }
}

impl GemmBackend for TimedBackend<'_> {
    fn matmul(&self, a: &Mat, b: &Mat) -> Mat {
        self.inner.matmul(a, b)
    }

    fn matmul_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        self.inner.matmul_into(a, b, out);
    }

    fn matmul_batch_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        self.inner.matmul_batch_into(a, b, out);
    }

    fn matmul_batch_packed_into<'p>(
        &self,
        a: &Mat,
        b: &Mat,
        packed: &dyn Fn() -> &'p PackedB,
        out: &mut Mat,
    ) {
        let (layer, phase) = self.classify_packed(b);
        let start = self.now_ns();
        self.inner.matmul_batch_packed_into(a, b, packed, out);
        self.record(layer, phase, a.rows() * a.cols() * b.cols(), start);
    }

    fn matmul_grouped_transient_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        let (layer, phase) = self.classify_grouped(a, b);
        let start = self.now_ns();
        self.inner.matmul_grouped_transient_into(a, b, out);
        self.record(layer, phase, a.rows() * a.cols() * b.cols(), start);
    }

    fn matmul_transient_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        self.inner.matmul_transient_into(a, b, out);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve_run::{make_backend, model_for};
    use crate::workload::BackendKind;
    use pdac_nn::{ExactGemm, PagedConfig, TransformerModel};
    use pdac_serve::{Completion, Request, TokenServer};

    fn tiny() -> TransformerModel {
        model_for(TransformerConfig::tiny(), 7)
    }

    fn requests(model: &TransformerModel) -> Vec<Request> {
        let input = model.random_input(3);
        // Includes a repeated 5-token prompt so block-2 prefixes are shared.
        [(5usize, 3usize), (1, 4), (5, 2), (3, 5), (0, 2)]
            .iter()
            .enumerate()
            .map(|(id, &(p, n))| Request {
                id: id as u64,
                prompt: (0..p).map(|t| input.row(t)).collect(),
                max_new_tokens: n,
            })
            .collect()
    }

    fn serve(model: &TransformerModel, backend: &dyn GemmBackend) -> (Vec<Completion>, u64) {
        let mut server = TokenServer::new_paged(model, 3, PagedConfig::new(2));
        for r in requests(model) {
            server.admit(r);
        }
        let steps = server.run(backend);
        let mut done = server.take_completions();
        done.sort_by_key(|c| c.id);
        (done, steps)
    }

    fn bits(c: &[Completion]) -> Vec<Vec<Vec<u64>>> {
        c.iter()
            .map(|c| {
                c.hidden
                    .iter()
                    .map(|row| row.iter().map(|v| v.to_bits()).collect())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn wrapped_server_is_bit_identical_and_counts_add_up() {
        let model = tiny();
        let cfg = model.config().clone();
        type Make = fn() -> Box<dyn GemmBackend>;
        let backends: [(&str, Make); 3] = [
            ("exact", || Box::new(ExactGemm)),
            ("pdac", || make_backend(BackendKind::Pdac)),
            ("hybrid", || make_backend(BackendKind::Hybrid)),
        ];
        for (kind, make) in backends {
            let plain = make();
            let (want, want_steps) = serve(&model, plain.as_ref());
            let inner = make();
            let timed = TimedBackend::new(inner.as_ref(), &cfg, Instant::now(), usize::MAX);
            let (got, steps) = serve(&model, &timed);
            assert_eq!(bits(&got), bits(&want), "{kind} completions diverged");
            assert_eq!(steps, want_steps, "{kind} step count");
            let cells = timed.cells();
            let calls = |p: GemmPhase| cells.iter().map(|l| l[p.index()].calls).sum::<u64>();
            let packed: u64 = [
                GemmPhase::Qkv,
                GemmPhase::OutProj,
                GemmPhase::FfnUp,
                GemmPhase::FfnDown,
            ]
            .into_iter()
            .map(calls)
            .sum();
            assert_eq!(packed, steps * cfg.layers as u64 * 6, "{kind}");
            assert!(calls(GemmPhase::AttnScore) > 0);
            assert_eq!(calls(GemmPhase::AttnScore), calls(GemmPhase::AttnPv));
            for layer in &cells {
                assert_eq!(layer[GemmPhase::Qkv.index()].calls, 3 * steps);
                assert!(layer.iter().all(|c| c.macs > 0 && c.calls > 0));
            }
            assert_eq!(
                timed.span_count() as u64,
                cells.iter().flatten().map(|c| c.calls).sum()
            );
        }
    }

    fn timed_for(backend: &dyn GemmBackend) -> TimedBackend<'_> {
        let config = TransformerConfig {
            name: "t".into(),
            layers: 2,
            hidden: 8,
            heads: 2,
            ff_mult: 4,
            seq_len: 4,
        };
        TimedBackend::new(backend, &config, Instant::now(), 0)
    }

    #[test]
    #[should_panic(expected = "call pattern broke")]
    fn out_of_order_weight_shape_panics() {
        let timed = timed_for(&ExactGemm);
        let a = Mat::zeros(1, 8);
        let mut out = Mat::zeros(1, 1);
        // An FFN-up weight where the Q projection belongs.
        let w1 = Mat::zeros(8, 32);
        let pack = PackedB::pack(w1.as_slice(), 8, 32);
        timed.matmul_batch_packed_into(&a, &w1, &|| &pack, &mut out);
    }

    #[test]
    #[should_panic(expected = "call pattern broke")]
    fn grouped_call_before_projections_panics() {
        let timed = timed_for(&ExactGemm);
        let mut out = Mat::zeros(1, 1);
        timed.matmul_grouped_transient_into(&Mat::zeros(1, 4), &Mat::zeros(4, 3), &mut out);
    }

    #[test]
    #[should_panic(expected = "call pattern broke")]
    fn output_projection_without_attention_panics() {
        let timed = timed_for(&ExactGemm);
        let a = Mat::zeros(1, 8);
        let w = Mat::zeros(8, 8);
        let pack = PackedB::pack(w.as_slice(), 8, 8);
        let mut out = Mat::zeros(1, 1);
        for _ in 0..4 {
            timed.matmul_batch_packed_into(&a, &w, &|| &pack, &mut out);
        }
    }
}
