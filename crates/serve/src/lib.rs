#![warn(missing_docs)]

//! `pdac-serve`: a continuous-batching token server over the batched
//! decode engine.
//!
//! The paper motivates the P-DAC with LLM *serving*: auto-regressive
//! decode where weight traffic dominates. A serving scheduler keeps the
//! photonic GEMM engine fed by batching the current tokens of many
//! in-flight requests into one `S × hidden` activation matrix per step
//! (continuous batching: sequences join and leave the batch at token
//! granularity, never blocking on each other).
//!
//! [`TokenServer`] implements the scheduler: requests wait in an
//! admission queue, free slots of one shared [`PagedKvCache`] are filled
//! at the start of every step, each step advances all active sequences
//! by one token through [`TransformerModel::decode_batch_with`], and
//! sequences retire as soon as they reach their token budget. Because
//! the batched engine is row-for-row **bit-identical** to sequential
//! [`TransformerModel::decode_step`] calls, a served request produces
//! exactly the hidden states it would have produced alone
//! ([`solo_reference`]) — scheduling changes throughput, never results.
//!
//! # Telemetry
//!
//! Counters `serve.admitted` / `serve.retired`; the last step's
//! active-batch size on the `serve.batch_occupancy` gauge **and** the
//! `serve.occupancy` histogram (so mean/percentile occupancy survives a
//! run); per-request SLO histograms `serve.queue_wait`, `serve.ttft`
//! (time to first token), `serve.itl` (inter-token latency) and
//! `serve.e2e`, all in seconds.
//!
//! With tracing enabled, every admitted request also produces one span
//! tree rooted at `serve.request` (its `arg` is the request id):
//! `serve.queue_wait` and `serve.request.generate` are recorded under it,
//! while each scheduler step contributes an independent `serve.step` →
//! `nn.inference.decode_batch` → `nn.decode.{qkv,attention,ffn}` →
//! `nn.gemm.*` tree shared by the whole batch. Export either view with
//! [`pdac_telemetry::export`].
//!
//! # Energy ledger
//!
//! With a live energy meter installed ([`pdac_power::meter`]), every
//! step's metered energy delta is split across the active batch in
//! proportion to per-sequence modeled MACs (attention plus FFN, as
//! [`pdac_nn::step_activity`] counts one row) and accumulated per
//! request:
//! histograms `serve.request.energy_j` and `serve.energy_per_token_j`
//! at retirement, plus a `serve.request.energy` child span on the
//! request's tree whose `arg` is the attributed nanojoules. The meter is
//! flushed once per step, keeping the `power.*` gauges live; when its
//! power budget latches over budget, the scheduler defers new
//! admissions until the in-flight batch drains (counter
//! `serve.load_shed`). Server-wide totals are available as
//! [`TokenServer::total_energy_j`] and [`TokenServer::joules_per_token`].
//!
//! # Drift sentinel
//!
//! The drift monitor lives in `pdac-verify`, which depends on this
//! crate, not the other way round. Its `serve` bin drives a
//! [`TokenServer`] with the monitor (`pdac_verify::sentinel`) armed:
//! live analog GEMMs are shadow-sampled and scored inside the sampled
//! call, on the decode thread, against an exact replay and the paper's
//! error budgets, raising `health.alert.*` records into the global
//! health ledger (surfaced by the `/health` endpoint) before the call
//! returns. A server built with [`TokenServer::with_failover`]`(true)`
//! fails over: once the health ledger latches critical, subsequent
//! decode steps reroute to [`ExactGemm`] (counter
//! `serve.sentinel_failover`, [`TokenServer::failover_steps`]) so served
//! results stay trustworthy while the analog path is quarantined. The
//! `serve` bin never arms it; `pdac-verify`'s
//! `failover_reroutes_steps_once_critical_latches` test covers it. See
//! DESIGN.md §17.
//!
//! # KV paging
//!
//! Every server keeps all K/V state in one [`PagedKvCache`] shaped by
//! the [`PagedConfig`] given to [`TokenServer::new_paged`]: sequences
//! share physical K/V pages for equal prompt prefixes (each request's
//! prompt is hashed at block boundaries on admission; a
//! past-its-prompt request *publishes* its full-block prefix pages, and
//! later admissions with a matching prefix map them instead of
//! recomputing), and total KV memory respects the configured byte
//! budget: admission defers a queued request — counter
//! `serve.kv.defer` — while its worst-case page demand can't be met
//! from free pages, budget headroom and evictable prefix entries.
//! Decode results stay bit-identical to solo `decode_step` (the page
//! table is pure indirection). Gauges
//! `serve.kv.{pages,bytes}` and counters
//! `serve.kv.{shared,evicted,over_budget}` track the cache;
//! `serve.kv.request_pages` records each retiring request's mapped page
//! count (also on [`Completion::kv_pages`]). See DESIGN.md §15.
//!
//! # Examples
//!
//! ```
//! use pdac_nn::{ExactGemm, PagedConfig, TransformerConfig, TransformerModel};
//! use pdac_serve::{solo_reference, Request, TokenServer};
//!
//! let model = TransformerModel::random(TransformerConfig::tiny(), 4, 42);
//! let mut server = TokenServer::new_paged(&model, 2, PagedConfig::default());
//! let prompt = model.random_input(1);
//! let requests: Vec<Request> = (0..3)
//!     .map(|id| Request {
//!         id,
//!         prompt: vec![prompt.row(0), prompt.row(1)],
//!         max_new_tokens: 3,
//!     })
//!     .collect();
//! for request in &requests {
//!     server.admit(request.clone());
//! }
//! server.run(&ExactGemm);
//! let mut done = server.take_completions();
//! done.sort_by_key(|c| c.id);
//! assert_eq!(done.len(), 3);
//! for (c, request) in done.iter().zip(&requests) {
//!     assert_eq!(c.hidden, solo_reference(&model, &ExactGemm, request));
//! }
//! ```

use std::collections::VecDeque;

use pdac_math::Mat;
use pdac_nn::{
    prefix_block_hashes, step_activity, DecodeScratch, ExactGemm, GemmBackend, KvStats,
    PagedConfig, PagedKvCache, TransformerModel,
};

/// The embedding fed back as the next input token once a sequence runs
/// past its prompt: a bounded (`tanh`) squash of the last hidden state.
///
/// With random weights there is no vocabulary to sample from; this keeps
/// the auto-regressive loop closed and the activations in the range the
/// quantizers expect. Reference implementations must use the same rule
/// to reproduce served sequences bit-for-bit.
pub fn feedback_embedding(hidden: &[f64]) -> Vec<f64> {
    hidden.iter().map(|v| v.tanh()).collect()
}

/// The hidden states `request` must produce when served: the request
/// decoded alone through [`TransformerModel::decode_step`] over a flat
/// [`pdac_nn::KvCache`], feeding back [`feedback_embedding`] past the
/// prompt (an empty prompt starts from a zero embedding). Every
/// [`Completion::hidden`] of a [`TokenServer`] run on the same backend
/// equals this bit for bit, whatever the batch, schedule or prefix
/// sharing — unless sentinel failover rerouted steps to [`ExactGemm`]
/// ([`TokenServer::failover_steps`]).
pub fn solo_reference(
    model: &TransformerModel,
    backend: &dyn GemmBackend,
    request: &Request,
) -> Vec<Vec<f64>> {
    let mut generated: Vec<Vec<f64>> = Vec::with_capacity(request.max_new_tokens);
    if request.max_new_tokens == 0 {
        return generated;
    }
    let mut cache = model.new_cache();
    let mut scratch = DecodeScratch::new();
    let mut step = |tok: &[f64]| model.decode_step_with(tok, &mut cache, backend, &mut scratch);
    let mut last = None;
    for tok in &request.prompt {
        last = Some(step(tok));
    }
    generated.push(last.unwrap_or_else(|| step(&vec![0.0; model.config().hidden])));
    while generated.len() < request.max_new_tokens {
        let tok = feedback_embedding(generated.last().expect("nonempty"));
        generated.push(step(&tok));
    }
    generated
}

/// One inference request: a prompt of token embeddings plus a budget of
/// tokens to generate.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen identifier, echoed on the [`Completion`].
    pub id: u64,
    /// Prompt token embeddings (each of length `hidden`). May be empty:
    /// the sequence then starts from a zero embedding.
    pub prompt: Vec<Vec<f64>>,
    /// Number of tokens to generate. `0` completes immediately.
    pub max_new_tokens: usize,
}

/// A finished request: the generated hidden states in order.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The request's identifier.
    pub id: u64,
    /// Prompt length that was consumed.
    pub prompt_tokens: usize,
    /// Generated final hidden states, one per new token (the first is
    /// the output of the last prompt token).
    pub hidden: Vec<Vec<f64>>,
    /// Server step index (0-based) at which the request retired, or the
    /// admission step for zero-budget requests.
    pub finished_step: u64,
    /// Modeled joules attributed to this request by the live energy
    /// meter ([`pdac_power::meter`]): each step's metered energy delta is
    /// split across the active batch in proportion to per-sequence
    /// modeled MACs. `0.0` when no meter is installed.
    pub energy_j: f64,
    /// KV pages the request's slot mapped at retirement (`0` for
    /// zero-budget requests, which never take a slot). Shared
    /// prefix pages count once per mapping, so two requests sharing a
    /// prefix each report the full page count while the cache holds one
    /// physical copy.
    pub kv_pages: usize,
}

/// A request waiting for a batch slot, carrying its open trace root.
struct Queued {
    request: Request,
    /// Global-clock time at admission (0 with telemetry disabled).
    admitted_ns: u64,
    /// The request's root span (`serve.request`), open from admission to
    /// retirement; children attach through its context.
    span: pdac_telemetry::OwnedSpan<'static>,
    /// Block-boundary prompt hashes, capped so the last prompt token is
    /// always computed — its hidden output is the request's first
    /// generated entry.
    hashes: Vec<u64>,
}

struct Active {
    id: u64,
    /// The sequence's slot in the server's [`PagedKvCache`].
    slot: usize,
    /// The prompt, each row moved out (left empty) once fed or mapped
    /// from the prefix cache; its length still counts prompt tokens.
    prompt: Vec<Vec<f64>>,
    pos: usize,
    generated: Vec<Vec<f64>>,
    max_new_tokens: usize,
    admitted_ns: u64,
    /// Time the last generated token was emitted (drives `serve.itl`).
    last_token_ns: Option<u64>,
    span: pdac_telemetry::OwnedSpan<'static>,
    /// Time this request left the queue (starts `serve.request.generate`).
    entered_ns: u64,
    /// Modeled joules attributed so far (see [`Completion::energy_j`]).
    energy_j: f64,
    /// Prompt hashes carried from admission.
    hashes: Vec<u64>,
    /// Whether this sequence's prompt prefix has been published to the
    /// cache's prefix index (once, when `pos` passes the prompt).
    published: bool,
}

impl Active {
    fn next_token(&mut self, hidden: usize) -> Vec<f64> {
        if self.pos < self.prompt.len() {
            std::mem::take(&mut self.prompt[self.pos])
        } else if let Some(last) = self.generated.last() {
            feedback_embedding(last)
        } else {
            vec![0.0; hidden]
        }
    }
}

/// Continuous-batching scheduler over a model and a fixed batch
/// capacity.
pub struct TokenServer<'m> {
    model: &'m TransformerModel,
    max_batch: usize,
    queue: VecDeque<Queued>,
    active: Vec<Active>,
    scratch: DecodeScratch,
    out: Mat,
    completions: Vec<Completion>,
    steps: u64,
    fed_tokens: u64,
    generated_tokens: u64,
    occupancy_sum: u64,
    energy_j: f64,
    shed_steps: u64,
    /// The K/V rows of every active sequence.
    kv: PagedKvCache,
    /// Idle slot indices of `kv`.
    free_slots: Vec<usize>,
    /// Admissions deferred for KV budget headroom (`serve.kv.defer`).
    kv_deferred: u64,
    /// Reroute decode steps to the exact backend once the health ledger
    /// latches critical ([`Self::with_failover`]).
    failover_armed: bool,
    /// Decode steps rerouted by the failover hook
    /// (`serve.sentinel_failover`).
    failover_steps: u64,
}

impl<'m> TokenServer<'m> {
    /// A server decoding at most `max_batch` sequences per step, with
    /// all K/V state in one [`PagedKvCache`] of `max_batch` slots shaped
    /// by `config` (block size, byte budget).
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0` or `config.block_tokens == 0`.
    pub fn new_paged(model: &'m TransformerModel, max_batch: usize, config: PagedConfig) -> Self {
        assert!(max_batch > 0, "max_batch must be nonzero");
        Self {
            model,
            max_batch,
            queue: VecDeque::new(),
            active: Vec::new(),
            scratch: DecodeScratch::new(),
            out: Mat::zeros(1, 1),
            completions: Vec::new(),
            steps: 0,
            fed_tokens: 0,
            generated_tokens: 0,
            occupancy_sum: 0,
            energy_j: 0.0,
            shed_steps: 0,
            kv: PagedKvCache::new(model, max_batch, config),
            // Pop order is cosmetic; reversed so slot 0 is used first.
            free_slots: (0..max_batch).rev().collect(),
            kv_deferred: 0,
            failover_armed: false,
            failover_steps: 0,
        }
    }

    /// Arms (or disarms) sentinel failover: while armed, every step
    /// after the health ledger latches critical runs on [`ExactGemm`]
    /// instead of the backend passed to [`Self::step`]. Off by default.
    #[must_use]
    pub fn with_failover(mut self, armed: bool) -> Self {
        self.failover_armed = armed;
        self
    }

    /// Enqueues a request. Zero-budget requests complete immediately.
    ///
    /// # Panics
    ///
    /// Panics if any prompt embedding's length differs from `hidden`.
    pub fn admit(&mut self, request: Request) {
        let hidden = self.model.config().hidden;
        for (i, tok) in request.prompt.iter().enumerate() {
            assert_eq!(tok.len(), hidden, "prompt token {i} hidden dim mismatch");
        }
        pdac_telemetry::counter_add("serve.admitted", 1);
        // Root first, then the queue-wait start stamp: children recorded
        // against `admitted_ns` must not start before their parent.
        let span = pdac_telemetry::open_span(
            "serve.request",
            pdac_telemetry::TraceCtx::NONE,
            Some(request.id),
        );
        let admitted_ns = pdac_telemetry::now_ns();
        if request.max_new_tokens == 0 {
            pdac_telemetry::counter_add("serve.retired", 1);
            pdac_telemetry::observe("serve.e2e", 0.0);
            span.end();
            self.completions.push(Completion {
                id: request.id,
                prompt_tokens: request.prompt.len(),
                hidden: Vec::new(),
                finished_step: self.steps,
                energy_j: 0.0,
                kv_pages: 0,
            });
            return;
        }
        // Hash the prompt at block boundaries once, at admission.
        // Capped at `prompt_len - 1`: the last prompt token's hidden
        // state is the request's first output, so it must be computed
        // even when the whole prompt's pages are shareable.
        let block = self.kv.block_tokens();
        let mut hashes = prefix_block_hashes(request.prompt.iter().map(Vec::as_slice), block);
        hashes.truncate(request.prompt.len().saturating_sub(1) / block);
        self.queue.push_back(Queued {
            request,
            admitted_ns,
            span,
            hashes,
        });
    }

    /// Requests waiting for a slot.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Sequences currently being decoded.
    pub fn active(&self) -> usize {
        self.active.len()
    }

    /// True when nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.active.is_empty()
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Tokens fed through the model (prompt + generated).
    pub fn fed_tokens(&self) -> u64 {
        self.fed_tokens
    }

    /// Tokens generated (post-prompt outputs) so far.
    pub fn generated_tokens(&self) -> u64 {
        self.generated_tokens
    }

    /// Modeled joules attributed across all served steps by the live
    /// energy meter (`0.0` when none is installed).
    pub fn total_energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Modeled joules per generated token so far (`0.0` before the first
    /// token or without a meter).
    pub fn joules_per_token(&self) -> f64 {
        if self.generated_tokens == 0 {
            0.0
        } else {
            self.energy_j / self.generated_tokens as f64
        }
    }

    /// Steps that deferred admissions because the power budget was
    /// latched over budget (the `serve.load_shed` counter).
    pub fn shed_steps(&self) -> u64 {
        self.shed_steps
    }

    /// Decode steps rerouted to the exact backend by the sentinel
    /// failover hook (the `serve.sentinel_failover` counter; always `0`
    /// unless [`Self::with_failover`] armed it).
    pub fn failover_steps(&self) -> u64 {
        self.failover_steps
    }

    /// Paging statistics of the shared KV cache (always `Some`).
    pub fn kv_stats(&self) -> Option<KvStats> {
        Some(self.kv.stats())
    }

    /// Admissions deferred for KV budget headroom so far (the
    /// `serve.kv.defer` counter).
    pub fn kv_deferred(&self) -> u64 {
        self.kv_deferred
    }

    /// Mean active-batch size over all executed steps.
    pub fn mean_occupancy(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.steps as f64
        }
    }

    /// Drains the accumulated completions (in retirement order).
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Admits as many queued requests as fit, advances every active
    /// sequence by one token, and retires finished ones, returning the
    /// requests that finished on this step.
    ///
    /// A no-op (returns empty) when the server is idle.
    pub fn step(&mut self, backend: &dyn GemmBackend) -> Vec<Completion> {
        // Sentinel failover hook (opt-in via `with_failover(true)`):
        // once the drift sentinel has latched the health ledger critical,
        // reroute every subsequent decode step to the exact backend —
        // served results stay trustworthy while the analog path is
        // quarantined. The latch only releases via an operator
        // `health::reset`, so rerouting never flaps mid-request.
        let failover = self.failover_armed && pdac_telemetry::health_critical();
        let backend: &dyn GemmBackend = if failover { &ExactGemm } else { backend };
        // Load-shed hook: while the energy meter's power budget is
        // latched over budget, defer new admissions and let the
        // in-flight batch drain. Only sheds with work in flight — an
        // idle server must keep admitting, or no step would ever run to
        // re-evaluate the budget and clear the latch.
        let shed = !self.active.is_empty() && pdac_power::meter::over_budget();
        if shed && !self.queue.is_empty() {
            self.shed_steps += 1;
            pdac_telemetry::counter_add("serve.load_shed", 1);
        }
        while !shed && self.active.len() < self.max_batch {
            let Some(front) = self.queue.front() else {
                break;
            };
            // Budget-aware admission: defer the request while its
            // worst-case page demand — prompt + generation, minus what
            // the prefix cache already holds — cannot be met from free
            // pages, budget headroom and evictable prefixes. With
            // nothing in flight it admits anyway (over-budget growth is
            // counted, never fatal): deferring would deadlock.
            let shared = self.kv.probe_prefix(&front.hashes);
            let worst = (front.request.prompt.len().max(1) + front.request.max_new_tokens - 1)
                .saturating_sub(shared);
            if !self.active.is_empty() && !self.kv.can_fit(&front.hashes, worst) {
                self.kv_deferred += 1;
                pdac_telemetry::counter_add("serve.kv.defer", 1);
                break;
            }
            let q = self.queue.pop_front().expect("front exists");
            let entered_ns = pdac_telemetry::now_ns();
            // The queue wait becomes a retroactive child span of
            // the request (and the `serve.queue_wait` histogram).
            pdac_telemetry::record_span(
                "serve.queue_wait",
                q.admitted_ns,
                entered_ns,
                q.span.ctx(),
                None,
            );
            // Claim a slot and map any published prefix; the sequence
            // then resumes at the first unshared prompt token.
            let slot = self.free_slots.pop().expect("active < max_batch");
            let pos = self.kv.lookup_prefix(slot, &q.hashes);
            let mut prompt = q.request.prompt;
            prompt[..pos].fill(Vec::new());
            self.active.push(Active {
                id: q.request.id,
                slot,
                prompt,
                pos,
                generated: Vec::new(),
                max_new_tokens: q.request.max_new_tokens,
                admitted_ns: q.admitted_ns,
                last_token_ns: None,
                span: q.span,
                entered_ns,
                energy_j: 0.0,
                hashes: q.hashes,
                published: false,
            });
        }
        if self.active.is_empty() {
            return Vec::new();
        }
        if failover {
            self.failover_steps += 1;
            pdac_telemetry::counter_add("serve.sentinel_failover", 1);
        }
        let _span = pdac_telemetry::span("serve.step");
        let s = self.active.len();
        let hidden = self.model.config().hidden;
        pdac_telemetry::gauge_set("serve.batch_occupancy", s as f64);
        pdac_telemetry::observe("serve.occupancy", s as f64);
        self.occupancy_sum += s as u64;

        let mut data = Vec::with_capacity(s * hidden);
        for a in &mut self.active {
            data.extend_from_slice(&a.next_token(hidden));
        }
        let tokens = Mat::from_rows(s, hidden, data).expect("batch assembly");
        let energy_before = pdac_power::meter::snapshot().map(|snap| snap.total_j());
        let slots: Vec<usize> = self.active.iter().map(|a| a.slot).collect();
        self.model.decode_batch_with(
            &tokens,
            &mut self.kv,
            &slots,
            backend,
            &mut self.scratch,
            &mut self.out,
        );
        // Split the step's metered energy delta across the batch in
        // proportion to per-sequence modeled MACs, counted as the meter
        // counts them (projections and FFN are shape-uniform; the KV
        // terms scale with each context length), then flush so the
        // `power.*` gauges and budget track live.
        if let Some(before) = energy_before {
            if let Some(snap) = pdac_power::meter::flush() {
                let delta = (snap.total_j() - before).max(0.0);
                if delta > 0.0 {
                    let config = self.model.config();
                    let weights: Vec<f64> = self
                        .active
                        .iter()
                        .map(|a| {
                            let len = self.kv.seq_len(a.slot) as u64;
                            let [attn, ffn, _] = step_activity(config, 1, len);
                            (attn.macs + ffn.macs) as f64
                        })
                        .collect();
                    let total_w: f64 = weights.iter().sum();
                    for (a, w) in self.active.iter_mut().zip(&weights) {
                        a.energy_j += delta * w / total_w;
                    }
                    self.energy_j += delta;
                }
            }
        }
        self.fed_tokens += s as u64;
        let token_ns = pdac_telemetry::now_ns();
        for (i, a) in self.active.iter_mut().enumerate() {
            if a.pos < a.prompt.len() {
                a.pos += 1;
            }
            if a.pos >= a.prompt.len() {
                // The whole prompt is now cached: publish its full-block
                // prefix pages so later requests with an equal prefix
                // share them (once per request).
                if !a.published {
                    self.kv.publish_prefix(a.slot, &a.hashes);
                    a.published = true;
                }
                a.generated.push(self.out.row(i));
                self.generated_tokens += 1;
                match a.last_token_ns {
                    None => pdac_telemetry::observe(
                        "serve.ttft",
                        token_ns.saturating_sub(a.admitted_ns) as f64 * 1e-9,
                    ),
                    Some(prev) => pdac_telemetry::observe(
                        "serve.itl",
                        token_ns.saturating_sub(prev) as f64 * 1e-9,
                    ),
                }
                a.last_token_ns = Some(token_ns);
            }
        }

        let step = self.steps;
        let mut retired = Vec::new();
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].generated.len() >= self.active[i].max_new_tokens {
                let a = self.active.remove(i);
                pdac_telemetry::counter_add("serve.retired", 1);
                // Record the slot's page footprint, then return its pages
                // (shared prefixes survive via their prefix-index
                // refcounts) and recycle the slot.
                let kv_pages = self.kv.slot_page_ids(a.slot).len();
                pdac_telemetry::observe("serve.kv.request_pages", kv_pages as f64);
                self.kv.reset_slot(a.slot);
                self.free_slots.push(a.slot);
                let end_ns = pdac_telemetry::now_ns();
                pdac_telemetry::record_span(
                    "serve.request.generate",
                    a.entered_ns,
                    end_ns,
                    a.span.ctx(),
                    None,
                );
                pdac_telemetry::observe(
                    "serve.e2e",
                    end_ns.saturating_sub(a.admitted_ns) as f64 * 1e-9,
                );
                if a.energy_j > 0.0 {
                    pdac_telemetry::observe("serve.request.energy_j", a.energy_j);
                    if !a.generated.is_empty() {
                        pdac_telemetry::observe(
                            "serve.energy_per_token_j",
                            a.energy_j / a.generated.len() as f64,
                        );
                    }
                    // The request's energy ledger rides its span tree:
                    // arg carries the attributed nanojoules.
                    pdac_telemetry::record_span(
                        "serve.request.energy",
                        a.entered_ns,
                        end_ns,
                        a.span.ctx(),
                        Some((a.energy_j * 1e9) as u64),
                    );
                }
                a.span.end();
                retired.push(Completion {
                    id: a.id,
                    prompt_tokens: a.prompt.len(),
                    hidden: a.generated,
                    finished_step: step,
                    energy_j: a.energy_j,
                    kv_pages,
                });
            } else {
                i += 1;
            }
        }
        self.steps += 1;
        self.completions.extend(retired.iter().cloned());
        retired
    }

    /// Steps until idle; returns the number of steps executed.
    pub fn run(&mut self, backend: &dyn GemmBackend) -> u64 {
        let start = self.steps;
        while !self.is_idle() {
            let _ = self.step(backend);
        }
        self.steps - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdac_core::edac::ElectricalDac;
    use pdac_core::pdac::PDac;
    use pdac_nn::{AnalogGemm, ExactGemm, TransformerConfig};

    fn tiny_model() -> TransformerModel {
        TransformerModel::random(TransformerConfig::tiny(), 4, 7)
    }

    fn server(model: &TransformerModel, max_batch: usize) -> TokenServer<'_> {
        TokenServer::new_paged(model, max_batch, PagedConfig::default())
    }

    fn prompt_rows(model: &TransformerModel, len: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = pdac_math::rng::SplitMix64::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                (0..model.config().hidden)
                    .map(|_| rng.gen_range_f64(-1.0, 1.0))
                    .collect()
            })
            .collect()
    }

    fn request(model: &TransformerModel, id: u64, prompt: usize, seed: u64, n: usize) -> Request {
        Request {
            id,
            prompt: prompt_rows(model, prompt, seed),
            max_new_tokens: n,
        }
    }

    /// Byte-level comparison: f64 bit patterns, not `==`.
    fn bits(hidden: &[Vec<f64>]) -> Vec<Vec<u64>> {
        hidden
            .iter()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// Serves the shared spec battery through `server` and checks every
    /// completion against its solo reference.
    fn assert_server_matches_reference(server: &mut TokenServer, backend: &dyn GemmBackend) {
        let model = server.model;
        let requests: Vec<Request> = [(0usize, 3usize), (2, 4), (5, 1), (1, 2)]
            .into_iter()
            .enumerate()
            .map(|(id, (p, n))| request(model, id as u64, p, 100 + id as u64, n))
            .collect();
        for r in &requests {
            server.admit(r.clone());
        }
        server.run(backend);
        let mut done = server.take_completions();
        assert_eq!(done.len(), requests.len());
        done.sort_by_key(|c| c.id);
        for (got, r) in done.iter().zip(&requests) {
            let id = r.id;
            assert_eq!(got.prompt_tokens, r.prompt.len(), "request {id}");
            assert_eq!(got.hidden.len(), r.max_new_tokens, "request {id}");
            assert_eq!(
                bits(&got.hidden),
                bits(&solo_reference(model, backend, r)),
                "request {id} diverged from solo decode"
            );
        }
    }

    #[test]
    fn served_results_bit_identical_to_solo_decode_exact() {
        let model = tiny_model();
        assert_server_matches_reference(&mut server(&model, 2), &ExactGemm);
        assert_server_matches_reference(&mut server(&model, 4), &ExactGemm);
    }

    #[test]
    fn served_results_bit_identical_to_solo_decode_analog() {
        let model = tiny_model();
        let pdac = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "pdac");
        assert_server_matches_reference(&mut server(&model, 3), &pdac);
        let edac = AnalogGemm::new(ElectricalDac::new(8).unwrap(), "edac");
        assert_server_matches_reference(&mut server(&model, 2), &edac);
    }

    #[test]
    fn solo_reference_of_zero_budget_request_is_empty() {
        let model = tiny_model();
        let r = request(&model, 0, 2, 3, 0);
        assert!(solo_reference(&model, &ExactGemm, &r).is_empty());
    }

    #[test]
    fn mid_run_admission_matches_solo_decode() {
        let model = tiny_model();
        let backend = ExactGemm;
        let mut server = server(&model, 4);
        let requests = [request(&model, 0, 3, 1, 6), request(&model, 1, 1, 2, 2)];
        server.admit(requests[0].clone());
        let _ = server.step(&backend);
        let _ = server.step(&backend);
        // A late arrival joins the running batch at token granularity.
        server.admit(requests[1].clone());
        server.run(&backend);
        let mut done = server.take_completions();
        done.sort_by_key(|c| c.id);
        for (c, r) in done.iter().zip(&requests) {
            assert_eq!(
                c.hidden,
                solo_reference(&model, &backend, r),
                "request {}",
                r.id
            );
        }
        // Request 1 (2 tokens incl. prompt output) retires before 0.
        assert!(done[1].finished_step < done[0].finished_step);
    }

    #[test]
    fn oversubscribed_queue_drains_in_fifo_order() {
        let model = tiny_model();
        let mut server = server(&model, 2);
        for id in 0..5 {
            server.admit(request(&model, id, 1, id, 2));
        }
        assert_eq!(server.pending(), 5);
        let retired_now = server.step(&ExactGemm);
        assert!(retired_now.is_empty());
        assert_eq!(server.active(), 2);
        assert_eq!(server.pending(), 3);
        server.run(&ExactGemm);
        assert!(server.is_idle());
        let done = server.take_completions();
        assert_eq!(done.len(), 5);
        // FIFO admission + uniform budgets → FIFO retirement.
        let ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(server.mean_occupancy() > 1.0);
        assert_eq!(server.generated_tokens(), 10);
        assert_eq!(server.fed_tokens(), 10); // 1-token prompts: all outputs count
    }

    #[test]
    fn zero_budget_request_completes_without_decoding() {
        let model = tiny_model();
        let mut server = server(&model, 2);
        server.admit(request(&model, 9, 2, 3, 0));
        assert!(server.is_idle());
        let done = server.take_completions();
        assert_eq!(done.len(), 1);
        assert!(done[0].hidden.is_empty());
        assert_eq!(done[0].kv_pages, 0);
        assert_eq!(server.fed_tokens(), 0);
    }

    #[test]
    #[should_panic(expected = "hidden dim mismatch")]
    fn bad_prompt_width_rejected_at_admission() {
        let model = tiny_model();
        let mut server = server(&model, 1);
        server.admit(Request {
            id: 0,
            prompt: vec![vec![0.0; 3]],
            max_new_tokens: 1,
        });
    }

    #[test]
    #[should_panic(expected = "max_batch must be nonzero")]
    fn zero_batch_capacity_rejected() {
        let model = tiny_model();
        let _ = server(&model, 0);
    }

    // ---- paging ----------------------------------------------------------

    #[test]
    fn paged_server_bit_identical_to_solo_reference() {
        // The battery again at block 2 (every sequence spans several
        // pages), then a leak check: once idle, every slot is empty and
        // only published prefixes still hold pages.
        let model = tiny_model();
        for max_batch in [2usize, 4] {
            let mut server = TokenServer::new_paged(&model, max_batch, PagedConfig::new(2));
            assert_server_matches_reference(&mut server, &ExactGemm);
            assert_eq!(server.active(), 0);
            assert!((0..max_batch).all(|slot| server.kv.seq_len(slot) == 0));
            let mut held = server.kv.mapped_page_ids();
            held.sort_unstable();
            held.dedup();
            let stats = server.kv_stats().expect("always paged");
            assert_eq!(stats.live_pages, held.len(), "batch {max_batch}");
        }
    }

    #[test]
    fn shared_system_prompt_shares_pages_and_matches_unshared_run() {
        // Two requests with an identical system prompt must report
        // `serve.kv.shared > 0` and produce byte-identical completions
        // to the unshared solo run.
        let model = tiny_model();
        let system_prompt = prompt_rows(&model, 5, 500); // block 2 → shares 4
        let requests: Vec<Request> = (0..2)
            .map(|id| Request {
                id,
                prompt: system_prompt.clone(),
                max_new_tokens: 4,
            })
            .collect();
        let mut server = TokenServer::new_paged(&model, 2, PagedConfig::new(2));
        // First request runs alone past its prompt (publishing it), then
        // the second arrives and can share.
        server.admit(requests[0].clone());
        for _ in 0..system_prompt.len() {
            let _ = server.step(&ExactGemm);
        }
        server.admit(requests[1].clone());
        server.run(&ExactGemm);
        let mut done = server.take_completions();
        done.sort_by_key(|c| c.id);
        let stats = server.kv_stats().expect("always paged");
        assert!(stats.shared_tokens > 0, "identical prompts never shared");
        assert_eq!(stats.shared_tokens, 4, "block-aligned share depth");
        assert_eq!(done.len(), 2);
        for (c, r) in done.iter().zip(&requests) {
            assert_eq!(
                bits(&c.hidden),
                bits(&solo_reference(&model, &ExactGemm, r)),
                "request {} diverged from unshared run",
                c.id
            );
        }
        // The sharer reports its mapped footprint.
        assert!(done[1].kv_pages > 0);
    }

    #[test]
    fn kv_budget_defers_admission_until_pages_free() {
        // Budget sized for roughly one request: the second must wait in
        // the queue (serve.kv.defer) instead of blowing the budget, then
        // complete correctly once the first retires.
        let model = tiny_model();
        let layers = model.config().layers;
        let page_bytes = 2 * 2 * model.config().hidden * 8; // block 2
                                                            // Each request caches 6 tokens → 3 pages per layer; the budget
                                                            // holds 4 per layer, so two in flight cannot both fit.
        let budget = layers * 4 * page_bytes;
        let mut server =
            TokenServer::new_paged(&model, 2, PagedConfig::new(2).with_budget_bytes(budget));
        let requests = [request(&model, 0, 4, 600, 3), request(&model, 1, 4, 601, 3)];
        server.admit(requests[0].clone());
        // Let request 0 build up its KV footprint, then enqueue the
        // second: its worst-case demand no longer fits the headroom.
        for _ in 0..3 {
            let _ = server.step(&ExactGemm);
        }
        server.admit(requests[1].clone());
        server.run(&ExactGemm);
        assert!(server.kv_deferred() > 0, "budget never deferred admission");
        let stats = server.kv_stats().expect("always paged");
        assert_eq!(stats.over_budget_pages, 0, "defer should prevent overflow");
        let mut done = server.take_completions();
        done.sort_by_key(|c| c.id);
        assert_eq!(done.len(), 2);
        for (c, r) in done.iter().zip(&requests) {
            assert_eq!(
                c.hidden,
                solo_reference(&model, &ExactGemm, r),
                "request {} diverged under budget pressure",
                r.id
            );
        }
    }
}
