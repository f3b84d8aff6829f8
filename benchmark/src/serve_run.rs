//! One workload run: [`CYCLES`] cycles of set-up, offline round and
//! online segment, then the check.
//!
//! * **setup** builds the model, backend and energy meter and serves a
//!   2-request warm-up on a throwaway server, so analog weight conversions
//!   exist before timing.
//! * **offline** admits a fixed request batch at t = 0 and serves it to
//!   completion on a fresh server. The schedule does not depend on timing,
//!   so every count taken here repeats exactly.
//! * **online** replays seeded Poisson arrivals open-loop from this one
//!   thread on a fresh server until it drains, and times every token from
//!   outside `TokenServer`.
//! * **check** (after the last cycle) replays chosen completions solo and
//!   compares bits.
//!
//! The host's effective speed changes for seconds at a time. Cycling
//! spreads every metric's samples over the whole run, and each metric is
//! the median of its per-cycle values, so a slow spell that covers fewer
//! than half of the cycles does not move it. A fresh server per segment
//! also keeps a queue built up in a slow spell from spilling into the
//! next segment.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use pdac_core::edac::ElectricalDac;
use pdac_core::pdac::PDac;
use pdac_math::rng::SplitMix64;
use pdac_nn::{
    AnalogGemm, AsymmetricGemm, DecodeScratch, GemmBackend, KvStats, PagedConfig,
    TransformerConfig, TransformerModel,
};
use pdac_power::meter::{EnergyMeter, EnergySnapshot};
use pdac_power::model::{DriverKind, PowerModel};
use pdac_power::{ArchConfig, EnergyModel, OpClass, TechParams};
use pdac_serve::{feedback_embedding, Completion, Request, TokenServer};

use crate::json::{obj, Json};
use crate::metrics::{catalog, Metric, Report};
use crate::stats::{median, percentile, sorted};
use crate::timed::{Cell, GemmPhase, GemmSpan, TimedBackend};
use crate::trace::{validate, TraceBuilder};
use crate::workload::{fnv1a, BackendKind, Phase, RequestSpec, Workload, FNV_OFFSET};

/// Batch capacity of every server.
pub const BATCH: usize = 8;
/// Tokens per KV page.
pub const BLOCK_TOKENS: usize = 16;
/// Seed of the model weights (fixed: the run seed only shapes traffic).
pub const MODEL_SEED: u64 = 42;
/// Cycles per run; each gives one sample of every metric.
pub const CYCLES: usize = 5;
/// Completions of each phase (offline, online) replayed solo per run.
/// The solo reference decodes one token per call without the server's
/// prepacked weights, so each replay costs about as much as serving a
/// whole batch of that request's length.
const REPLAYS_PER_PHASE: usize = 2;
/// `--smoke` scales every request count by this factor.
const SMOKE_SCALE: f64 = 0.05;
/// GEMM calls kept as trace spans (per-layer totals keep counting).
const SPAN_CAP: usize = 20_000;

/// The served model's shape.
pub fn bench_config() -> TransformerConfig {
    TransformerConfig {
        name: "serve-bench".into(),
        layers: 2,
        hidden: 256,
        heads: 4,
        ff_mult: 4,
        seq_len: 512,
    }
}

pub fn model_for(config: TransformerConfig, seed: u64) -> TransformerModel {
    TransformerModel::random(config, 4, seed)
}

pub fn make_backend(kind: BackendKind) -> Box<dyn GemmBackend> {
    let pdac = || PDac::with_optimal_approx(8).expect("8-bit P-DAC");
    match kind {
        BackendKind::Pdac => Box::new(AnalogGemm::new(pdac(), "pdac-8b")),
        BackendKind::Hybrid => Box::new(AsymmetricGemm::new(
            pdac(),
            ElectricalDac::new(8).expect("8-bit e-DAC"),
            "hybrid-8b",
        )),
    }
}

/// Installs the process-global energy meter, priced like the serve
/// binary's `auto` mode: P-DAC for the P-DAC backend, hybrid for the
/// hybrid backend. No power budget is armed.
fn install_meter(kind: BackendKind) -> Arc<EnergyMeter> {
    let driver = match kind {
        BackendKind::Hybrid => DriverKind::Hybrid,
        BackendKind::Pdac => DriverKind::PhotonicDac,
    };
    let pm = PowerModel::new(ArchConfig::lt_b(), TechParams::calibrated(), driver);
    pdac_power::meter::install(EnergyMeter::new(EnergyModel::new(pm), 8))
}

fn paged_config(w: &Workload) -> PagedConfig {
    let config = PagedConfig::new(BLOCK_TOKENS);
    match w.kv_budget_bytes {
        Some(bytes) => config.with_budget_bytes(bytes),
        None => config,
    }
}

/// How one run is sized.
#[derive(Debug, Clone, PartialEq)]
pub struct Settings {
    pub seed: u64,
    pub trace: bool,
    /// Two cycles with request counts scaled to [`SMOKE_SCALE`]: a fast
    /// pass that still prints every metric.
    pub smoke: bool,
}

impl Settings {
    fn cycles(&self) -> usize {
        if self.smoke {
            2
        } else {
            CYCLES
        }
    }

    fn scaled(&self, n: usize) -> usize {
        if self.smoke {
            ((n as f64 * SMOKE_SCALE).ceil() as usize).max(2)
        } else {
            n
        }
    }

    /// Completions replayed solo per phase.
    fn replays(&self) -> usize {
        if self.smoke {
            1
        } else {
            REPLAYS_PER_PHASE
        }
    }
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// The catalog's metrics for this kind of run, in catalog order.
    pub metrics: Vec<Metric>,
    /// Facts about the run that are not metrics (digests, sizes, env).
    pub info: Vec<(String, Json)>,
    pub attempted: u64,
    pub failed: u64,
    /// Raw samples (per cycle: set-up time, offline tokens/s, and the
    /// online segment's per-request TTFT, mean ITL and e2e and per-token
    /// ITL), for analysis beyond the reported statistics.
    pub samples: Json,
    /// The Chrome trace of a traced run.
    pub trace: Option<String>,
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct Setup {
    model: TransformerModel,
    backend: Box<dyn GemmBackend>,
    meter: Arc<EnergyMeter>,
}

/// Builds the model, backend and meter and warms them up; returns them
/// with the seconds this took.
fn set_up(w: &Workload) -> (Setup, f64) {
    let start = Instant::now();
    let model = model_for(bench_config(), MODEL_SEED);
    let backend = make_backend(w.backend);
    let meter = install_meter(w.backend);
    warm_up(&model, backend.as_ref(), w);
    let secs = start.elapsed().as_secs_f64();
    (
        Setup {
            model,
            backend,
            meter,
        },
        secs,
    )
}

/// Two requests decoded together on a throwaway server: at least two rows,
/// so the batched paths' weight conversions are built.
fn warm_up(model: &TransformerModel, backend: &dyn GemmBackend, w: &Workload) {
    let hidden = model.config().hidden;
    let mut rng = SplitMix64::seed_from_u64(0x5eed);
    let mut server = TokenServer::new_paged(model, BATCH, paged_config(w));
    for id in 0..2 {
        server.admit(Request {
            id,
            prompt: (0..2)
                .map(|_| (0..hidden).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect())
                .collect(),
            max_new_tokens: 2,
        });
    }
    server.run(backend);
}

// ---------------------------------------------------------------------------
// Offline phase
// ---------------------------------------------------------------------------

/// A fresh server for `w`. Shared-prefix workloads start with every
/// system prompt already in the prefix cache, as on a server that has been
/// up for a while: each is served once here (one tail token, one output).
/// Otherwise the first request for each prompt in a segment would miss,
/// and the TTFT quantiles would depend on where those few misses fall.
fn fresh_server<'m>(
    model: &'m TransformerModel,
    backend: &dyn GemmBackend,
    w: &Workload,
) -> TokenServer<'m> {
    let mut server = TokenServer::new_paged(model, BATCH, paged_config(w));
    for k in 0..w.system_prompts {
        let spec = RequestSpec {
            system: Some(k),
            tail: 1,
            max_new_tokens: 1,
        };
        server.admit(w.request(0, Phase::Offline, k, spec, model.config().hidden));
    }
    server.run(backend);
    server.take_completions();
    server
}

/// Paging counters accumulated over one offline round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct KvCounts {
    shared_hits: u64,
    shared_tokens: u64,
    evicted_pages: u64,
    cow_copies: u64,
    over_budget_pages: u64,
    deferred: u64,
}

impl KvCounts {
    fn of(server: &TokenServer) -> Self {
        let kv: KvStats = server.kv_stats().expect("paged server");
        Self {
            shared_hits: kv.shared_hits,
            shared_tokens: kv.shared_tokens,
            evicted_pages: kv.evicted_pages,
            cow_copies: kv.cow_copies,
            over_budget_pages: kv.over_budget_pages,
            deferred: server.kv_deferred(),
        }
    }

    fn since(self, before: Self) -> Self {
        Self {
            shared_hits: self.shared_hits - before.shared_hits,
            shared_tokens: self.shared_tokens - before.shared_tokens,
            evicted_pages: self.evicted_pages - before.evicted_pages,
            cow_copies: self.cow_copies - before.cow_copies,
            over_budget_pages: self.over_budget_pages - before.over_budget_pages,
            deferred: self.deferred - before.deferred,
        }
    }
}

/// One offline round: the whole batch served to completion.
struct Round {
    wall_s: f64,
    completions: Vec<Completion>,
    steps: u64,
    fed: u64,
    generated: u64,
    kv: KvCounts,
    kv_peak_bytes: usize,
    energy: EnergySnapshot,
}

/// Serves `requests`, all admitted at once, to completion on `server`.
/// Counts cover this round only.
fn offline_round(
    server: &mut TokenServer,
    backend: &dyn GemmBackend,
    requests: &[Request],
    meter: &EnergyMeter,
) -> Round {
    let batch = requests.to_vec();
    let (steps0, fed0, gen0) = (
        server.steps(),
        server.fed_tokens(),
        server.generated_tokens(),
    );
    let kv0 = KvCounts::of(server);
    meter.reset();
    let start = Instant::now();
    for r in batch {
        server.admit(r);
    }
    let mut kv_peak_bytes = 0;
    while !server.is_idle() {
        server.step(backend);
        kv_peak_bytes = kv_peak_bytes.max(server.kv_stats().map_or(0, |s| s.live_bytes));
    }
    let wall_s = start.elapsed().as_secs_f64();
    Round {
        wall_s,
        completions: server.take_completions(),
        steps: server.steps() - steps0,
        fed: server.fed_tokens() - fed0,
        generated: server.generated_tokens() - gen0,
        kv: KvCounts::of(server).since(kv0),
        kv_peak_bytes,
        energy: meter.snapshot(),
    }
}

/// The offline rounds of a run, one untraced round per cycle (and in a
/// traced run a traced round right after it).
#[derive(Default)]
struct Offline {
    /// The first round (its completions are checked and replayed).
    first: Option<Round>,
    first_digest: u64,
    /// Generated tokens per second of each untraced round.
    rates: Vec<f64>,
    /// Rounds whose output digest differed from the first round's.
    diverged_rounds: usize,
    rounds: usize,
    /// Traced over untraced wall time, minus one, per round pair.
    overhead: Vec<f64>,
    /// Per-layer totals of the first traced round.
    cells: Option<Vec<[Cell; 6]>>,
}

impl Offline {
    fn first(&self) -> &Round {
        self.first.as_ref().expect("an offline round was served")
    }

    /// Serves one cycle's rounds with `setup`: the untraced round on
    /// `server`, which must be fresh, and the traced one on a fresh server
    /// of its own.
    fn serve_cycle(
        &mut self,
        setup: &Setup,
        server: &mut TokenServer,
        w: &Workload,
        requests: &[Request],
        trace: bool,
    ) {
        let (model, backend) = (&setup.model, setup.backend.as_ref());
        let round = offline_round(server, backend, requests, &setup.meter);
        let untraced_wall = round.wall_s;
        self.rates.push(round.generated as f64 / round.wall_s);
        self.record(round);
        if trace {
            let timed = TimedBackend::new(backend, model.config(), Instant::now(), 0);
            let mut server = fresh_server(model, backend, w);
            let round = offline_round(&mut server, &timed, requests, &setup.meter);
            self.overhead.push(round.wall_s / untraced_wall - 1.0);
            self.cells.get_or_insert_with(|| timed.cells());
            self.record(round);
        }
    }

    fn record(&mut self, round: Round) {
        let d = digest(&round.completions);
        if self.first.is_none() {
            self.first_digest = d;
            self.first = Some(round);
        } else if d != self.first_digest {
            self.diverged_rounds += 1;
        }
        self.rounds += 1;
    }
}

// ---------------------------------------------------------------------------
// Online phase
// ---------------------------------------------------------------------------

/// A request's place in the server's step sequence, derived from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeline {
    /// Step in which the request left the queue for a batch slot.
    pub entry_step: u64,
    /// Step that emitted its first token.
    pub first_step: u64,
    /// Step that emitted its last token (its `finished_step`).
    pub last_step: u64,
}

/// Follows a `TokenServer` from outside: which step each request entered
/// a slot in, and when each step ran.
///
/// Two scheduler properties make this exact. Admission is FIFO, so the
/// drop in `pending()` across a step names the requests that entered a
/// slot in it. And a slot is never preempted, so a request that retired
/// at step `f` with `n` tokens emitted them at steps `f-n+1 ..= f`.
#[derive(Debug, Default)]
pub struct Tracker {
    /// Server steps run before the tracked ones (e.g. a cache warm-up).
    base: u64,
    waiting: VecDeque<usize>,
    entry_step: Vec<Option<u64>>,
    done: Vec<Option<Completion>>,
    /// `(start_ns, end_ns)` of each step, by step index.
    pub steps: Vec<(u64, u64)>,
}

impl Tracker {
    /// Tracks `requests` requests on a server that has run `base` steps.
    pub fn new(requests: usize, base: u64) -> Self {
        Self {
            base,
            entry_step: vec![None; requests],
            done: vec![None; requests],
            ..Self::default()
        }
    }

    /// Request `index` (whose `Request::id` is `index`) was admitted.
    pub fn admitted(&mut self, index: usize) {
        self.waiting.push_back(index);
    }

    /// The server ran step `step` (its own count, base included) from
    /// `start_ns` to `end_ns`; `entered` requests left the queue and
    /// `retired` finished.
    pub fn stepped(
        &mut self,
        step: u64,
        entered: usize,
        retired: Vec<Completion>,
        start_ns: u64,
        end_ns: u64,
    ) -> Result<(), String> {
        let Some(step) = step.checked_sub(self.base) else {
            return Err(format!("step {step} precedes the tracked steps"));
        };
        if step != self.steps.len() as u64 {
            return Err(format!(
                "step {step} reported after {} steps",
                self.steps.len()
            ));
        }
        for _ in 0..entered {
            let i = self
                .waiting
                .pop_front()
                .ok_or("more requests entered slots than were admitted")?;
            self.entry_step[i] = Some(step);
        }
        for c in retired {
            let i = usize::try_from(c.id)
                .ok()
                .filter(|&i| i < self.done.len())
                .ok_or_else(|| format!("unknown request id {}", c.id))?;
            self.done[i] = Some(c);
        }
        self.steps.push((start_ns, end_ns));
        Ok(())
    }

    /// Each request's timeline (`None` if it never retired), in tracked
    /// step indices (server steps minus the base).
    ///
    /// The guard: a first token before the request's entry step would mean
    /// the derivation above is wrong, and every latency with it, so that
    /// is an error rather than a sample.
    pub fn timelines(&self) -> Result<Vec<Option<Timeline>>, String> {
        self.done
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let Some(c) = c else { return Ok(None) };
                let entry_step = self.entry_step[i]
                    .ok_or_else(|| format!("guard: request {i} retired without entering a slot"))?;
                let n = c.hidden.len() as u64;
                let last_step = c.finished_step.checked_sub(self.base).ok_or_else(|| {
                    format!("guard: request {i} retired before the tracked steps")
                })?;
                let first_step = (last_step + 1)
                    .checked_sub(n)
                    .filter(|&f| f >= entry_step && n > 0)
                    .ok_or_else(|| {
                        format!(
                            "guard: request {i} retired at step {last_step} with {n} tokens, \
                             so its first token precedes its entry step {entry_step}"
                        )
                    })?;
                Ok(Some(Timeline {
                    entry_step,
                    first_step,
                    last_step,
                }))
            })
            .collect()
    }

    pub fn completion(&self, index: usize) -> Option<&Completion> {
        self.done[index].as_ref()
    }
}

/// One online segment: a fresh server fed one cycle's arrivals until it
/// drained. Times are nanoseconds since the run's epoch.
struct Segment {
    phase: Phase,
    specs: Vec<RequestSpec>,
    tracker: Tracker,
    timelines: Vec<Option<Timeline>>,
    due_ns: Vec<u64>,
    admit_lag_ns: Vec<u64>,
    start_ns: u64,
    end_ns: u64,
    /// Backend time inside each step (traced runs).
    step_gemm_ns: Vec<u64>,
    /// Index into `spans` of each step's first GEMM call (traced runs).
    step_span_start: Vec<usize>,
    /// Per-layer GEMM totals and the calls kept as spans (traced runs).
    cells: Vec<[Cell; 6]>,
    spans: Vec<GemmSpan>,
}

fn elapsed_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Open-loop serving of the `n` requests of `phase` on the idle `server`:
/// each iteration admits every request that is due, spins until the next
/// due time if the server is idle, and otherwise runs one step. With
/// `trace = Some(cap)` the backend runs inside a [`TimedBackend`] that
/// keeps up to `cap` calls as spans.
#[allow(clippy::too_many_arguments)]
fn online_segment(
    mut server: TokenServer,
    setup: &Setup,
    w: &Workload,
    seed: u64,
    phase: Phase,
    n: usize,
    epoch: Instant,
    trace: Option<usize>,
) -> Result<Segment, String> {
    let (model, backend) = (&setup.model, setup.backend.as_ref());
    let specs = w.specs(seed, phase, n);
    let requests: Vec<Request> = specs
        .iter()
        .enumerate()
        .map(|(i, &spec)| w.request(seed, phase, i, spec, model.config().hidden))
        .collect();
    let due_s = w.arrivals(seed, phase, n);
    let timed = trace.map(|cap| TimedBackend::new(backend, model.config(), epoch, cap));
    let b: &dyn GemmBackend = match &timed {
        Some(t) => t,
        None => backend,
    };
    let start_ns = elapsed_ns(epoch);
    let due_ns: Vec<u64> = due_s.iter().map(|&t| start_ns + (t * 1e9) as u64).collect();
    let mut pending_requests: Vec<Option<Request>> = requests.into_iter().map(Some).collect();
    let mut tracker = Tracker::new(n, server.steps());
    let mut admit_lag_ns = Vec::with_capacity(n);
    let (mut step_gemm_ns, mut step_span_start) = (Vec::new(), Vec::new());
    let mut next = 0;
    loop {
        let now = elapsed_ns(epoch);
        while next < n && due_ns[next] <= now {
            server.admit(pending_requests[next].take().expect("admitted once"));
            tracker.admitted(next);
            admit_lag_ns.push(now - due_ns[next]);
            next += 1;
        }
        if server.is_idle() {
            if next == n {
                break;
            }
            // Spin rather than sleep: waking from a sleep adds scheduler
            // latency and lets the core clock down, which would land on
            // the next request's latency as generator lateness.
            while elapsed_ns(epoch) < due_ns[next] {
                std::hint::spin_loop();
            }
            continue;
        }
        let pending = server.pending();
        let step = server.steps();
        let gemm_before = timed.as_ref().map_or(0, TimedBackend::busy_ns);
        if let Some(t) = &timed {
            step_span_start.push(t.span_count());
        }
        let start = elapsed_ns(epoch);
        let retired = server.step(b);
        let end = elapsed_ns(epoch);
        if server.steps() != step + 1 {
            return Err(format!("a busy server did not advance at step {step}"));
        }
        if let Some(t) = &timed {
            step_gemm_ns.push(t.busy_ns() - gemm_before);
        }
        tracker.stepped(step, pending - server.pending(), retired, start, end)?;
    }
    let end_ns = elapsed_ns(epoch);
    let timelines = tracker.timelines()?;
    let (cells, spans) = match &timed {
        Some(t) => (t.cells(), t.spans()),
        None => (Vec::new(), Vec::new()),
    };
    Ok(Segment {
        phase,
        specs,
        tracker,
        timelines,
        due_ns,
        admit_lag_ns,
        start_ns,
        end_ns,
        step_gemm_ns,
        step_span_start,
        cells,
        spans,
    })
}

/// One segment's samples, in milliseconds unless named otherwise.
#[derive(Debug, Default)]
struct SegmentStats {
    ttft: Vec<f64>,
    /// Mean inter-token latency of each request (0 for one token).
    tpot: Vec<f64>,
    e2e: Vec<f64>,
    itl: Vec<f64>,
    queue: Vec<f64>,
    prefill: Vec<f64>,
    step: Vec<f64>,
    /// Share of the segment's wall time the server spent stepping.
    busy_frac: f64,
    slo_met: usize,
    sent: usize,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Latencies of the segment's correct requests (`ok`), timed from each
/// request's due time.
fn segment_stats(w: &Workload, seg: &Segment, ok: &[bool]) -> SegmentStats {
    let steps = &seg.tracker.steps;
    let step_start = |k: u64| steps[k as usize].0;
    let step_end = |k: u64| steps[k as usize].1;
    let busy_ns: u64 = steps.iter().map(|&(a, b)| b - a).sum();
    let mut l = SegmentStats {
        step: steps.iter().map(|&(a, b)| ms(b - a)).collect(),
        busy_frac: busy_ns as f64 / (seg.end_ns - seg.start_ns).max(1) as f64,
        sent: seg.specs.len(),
        ..SegmentStats::default()
    };
    for (i, t) in seg.timelines.iter().enumerate() {
        let Some(t) = t else { continue };
        if !ok[i] {
            continue;
        }
        let due = seg.due_ns[i];
        let ttft = ms(step_end(t.first_step) - due);
        l.ttft.push(ttft);
        l.e2e.push(ms(step_end(t.last_step) - due));
        l.queue.push(ms(step_start(t.entry_step) - due));
        l.prefill
            .push(ms(step_end(t.first_step) - step_start(t.entry_step)));
        l.itl
            .extend((t.first_step..t.last_step).map(|k| ms(step_end(k + 1) - step_end(k))));
        let tokens = t.last_step - t.first_step + 1;
        let tpot = if tokens > 1 {
            ms(step_end(t.last_step) - step_end(t.first_step)) / (tokens - 1) as f64
        } else {
            0.0
        };
        l.tpot.push(tpot);
        if ttft <= w.slo_ttft_ms && tpot <= w.slo_tpot_ms {
            l.slo_met += 1;
        }
    }
    l
}

/// The median over segments of each segment's `p`-th percentile of
/// `samples`, with the number of samples behind it. Segments without
/// samples are skipped.
fn across(
    stats: &[SegmentStats],
    samples: impl Fn(&SegmentStats) -> &[f64],
    p: f64,
) -> Result<(f64, usize), String> {
    let per_segment: Vec<f64> = stats
        .iter()
        .map(&samples)
        .filter(|v| !v.is_empty())
        .map(|v| percentile(&sorted(v), p))
        .collect();
    if per_segment.is_empty() {
        return Err("no online request completed correctly".into());
    }
    let n = stats.iter().map(|s| samples(s).len()).sum();
    Ok((median(&per_segment), n))
}

// ---------------------------------------------------------------------------
// Check phase
// ---------------------------------------------------------------------------

/// FNV-1a over every completion's id and hidden-state bits, in id order.
pub fn digest<'c>(completions: impl IntoIterator<Item = &'c Completion>) -> u64 {
    let mut sorted: Vec<&Completion> = completions.into_iter().collect();
    sorted.sort_by_key(|c| c.id);
    sorted.iter().fold(FNV_OFFSET, |h, c| {
        let h = fnv1a(h, &c.id.to_le_bytes());
        c.hidden
            .iter()
            .flatten()
            .fold(h, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
    })
}

/// A request decoded alone through `decode_step` with the server's
/// feedback rule: the reference every served completion must equal.
pub fn solo_generate(
    model: &TransformerModel,
    backend: &dyn GemmBackend,
    prompt: &[Vec<f64>],
    max_new: usize,
) -> Vec<Vec<f64>> {
    let hidden = model.config().hidden;
    let mut cache = model.new_cache();
    let mut scratch = DecodeScratch::new();
    let mut step = |tok: &[f64]| model.decode_step_with(tok, &mut cache, backend, &mut scratch);
    let mut last = None;
    for tok in prompt {
        last = Some(step(tok));
    }
    let mut out = vec![last.unwrap_or_else(|| step(&vec![0.0; hidden]))];
    while out.len() < max_new {
        let tok = feedback_embedding(out.last().expect("nonempty"));
        out.push(step(&tok));
    }
    out
}

fn same_bits(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Whether request `index` of `phase` retired with all its tokens.
fn complete(c: Option<&Completion>, spec: &RequestSpec) -> bool {
    c.is_some_and(|c| c.hidden.len() == spec.max_new_tokens)
}

/// Whether decoding request `index` of `phase` alone reproduces the served
/// completion `c` bit for bit.
fn replays_exactly(
    setup: &Setup,
    w: &Workload,
    seed: u64,
    phase: Phase,
    index: usize,
    spec: RequestSpec,
    c: &Completion,
) -> bool {
    let request = w.request(seed, phase, index, spec, setup.model.config().hidden);
    let want = solo_generate(
        &setup.model,
        setup.backend.as_ref(),
        &request.prompt,
        request.max_new_tokens,
    );
    same_bits(&c.hidden, &want)
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn count(ok: &[bool]) -> usize {
    ok.iter().filter(|&&b| b).count()
}

/// Runs workload `w` once.
pub fn run(w: &Workload, s: &Settings) -> Result<Outcome, String> {
    let config = bench_config();
    let epoch = Instant::now();
    let off_specs = w.specs(s.seed, Phase::Offline, s.scaled(w.offline_requests));
    let off_requests: Vec<Request> = off_specs
        .iter()
        .enumerate()
        .map(|(i, &spec)| w.request(s.seed, Phase::Offline, i, spec, config.hidden))
        .collect();
    let n_seg = s.scaled(w.online_requests);

    // Wall time of each phase summed over the cycles, for sizing runs.
    let (mut offline_s, mut online_s) = (0.0, 0.0);
    let mut setup_s = Vec::new();
    let mut offline = Offline::default();
    let mut segments: Vec<Segment> = Vec::new();
    let mut current: Option<Setup> = None;
    for c in 0..s.cycles() {
        // Drop the previous cycle's model first, so peak memory holds one.
        drop(current.take());
        // Set-up is short, so each cycle times it twice and keeps the
        // second: more samples for the median of a noisy metric.
        setup_s.push(set_up(w).1);
        let (setup, secs) = set_up(w);
        setup_s.push(secs);
        // The online segment runs on the server the offline round
        // drained: it then starts, like the round, with the system prompts
        // cached, and only a shared-prefix server pays to cache them.
        let start = Instant::now();
        let mut server = fresh_server(&setup.model, setup.backend.as_ref(), w);
        offline.serve_cycle(&setup, &mut server, w, &off_requests, s.trace);
        offline_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let spans = segments.iter().map(|g| g.spans.len()).sum::<usize>();
        let trace = s.trace.then_some(SPAN_CAP - spans);
        segments.push(online_segment(
            server,
            &setup,
            w,
            s.seed,
            Phase::Online(c),
            n_seg,
            epoch,
            trace,
        )?);
        online_s += start.elapsed().as_secs_f64();
        current = Some(setup);
    }
    let setup = current.expect("at least one cycle");

    // Check.
    let start = Instant::now();
    let first = offline.first();
    let first_completion = |i: usize| first.completions.iter().find(|c| c.id == i as u64);
    let mut off_ok: Vec<bool> = off_specs
        .iter()
        .enumerate()
        .map(|(i, spec)| complete(first_completion(i), spec))
        .collect();
    for i in w.replay_picks(s.seed, "offline", off_specs.len(), s.replays()) {
        if let Some(c) = first_completion(i) {
            off_ok[i] &= replays_exactly(&setup, w, s.seed, Phase::Offline, i, off_specs[i], c);
        }
    }
    let mut on_ok: Vec<Vec<bool>> = segments
        .iter()
        .map(|g| {
            g.specs
                .iter()
                .enumerate()
                .map(|(i, spec)| complete(g.tracker.completion(i), spec))
                .collect()
        })
        .collect();
    for k in w.replay_picks(s.seed, "online", n_seg * segments.len(), s.replays()) {
        let (c, i) = (k / n_seg, k % n_seg);
        let g = &segments[c];
        if let Some(done) = g.tracker.completion(i) {
            on_ok[c][i] &= replays_exactly(&setup, w, s.seed, g.phase, i, g.specs[i], done);
        }
    }
    let check_s = start.elapsed().as_secs_f64();
    // Every round repeats round 1's schedule, so a round with round 1's
    // digest fails where round 1 did; a round that diverged fails whole.
    let off_sent = off_specs.len() * offline.rounds;
    let off_failed = (off_specs.len() - count(&off_ok)) * offline.rounds
        + off_specs.len() * offline.diverged_rounds;
    let off_failed = off_failed.min(off_sent);
    let on_sent = n_seg * segments.len();
    let on_failed = on_sent - on_ok.iter().map(|ok| count(ok)).sum::<usize>();
    let attempted = (off_sent + on_sent) as u64;
    let failed = (off_failed + on_failed) as u64;

    let stats: Vec<SegmentStats> = segments
        .iter()
        .zip(&on_ok)
        .map(|(g, ok)| segment_stats(w, g, ok))
        .collect();
    let busy: Vec<f64> = stats.iter().map(|st| st.busy_frac).collect();
    let online_digest = segments.iter().fold(FNV_OFFSET, |h, g| {
        let d = digest((0..g.specs.len()).filter_map(|i| g.tracker.completion(i)));
        fnv1a(h, &d.to_le_bytes())
    });

    let mut r = Report::default();
    let put_across = |r: &mut Report, name: &str, samples: fn(&SegmentStats) -> &[f64], p| {
        across(&stats, samples, p).map(|(v, n)| r.put(name, "ms", v, n))
    };
    if s.trace {
        // What the served system delivers: reported, not gated (see
        // metrics.rs).
        r.put(
            "tokens_per_s",
            "tok/s",
            median(&offline.rates),
            offline.rates.len(),
        );
        put_across(&mut r, "ttft_p50_ms", |s| &s.ttft, 50.0)?;
        put_across(&mut r, "ttft_p90_ms", |s| &s.ttft, 90.0)?;
        put_across(&mut r, "itl_p50_ms", |s| &s.itl, 50.0)?;
        put_across(&mut r, "itl_p90_ms", |s| &s.itl, 90.0)?;
        put_across(&mut r, "e2e_p50_ms", |s| &s.e2e, 50.0)?;
        put_across(&mut r, "e2e_p90_ms", |s| &s.e2e, 90.0)?;
        let met: usize = stats.iter().map(|st| st.slo_met).sum();
        r.put(
            "slo_attainment",
            "fraction",
            met as f64 / on_sent as f64,
            on_sent,
        );
        layer_metrics(&mut r, w, &offline, &off_specs, &segments)?;
        put_across(&mut r, "serve.step_ms_p50", |s| &s.step, 50.0)?;
        put_across(&mut r, "serve.step_ms_p99", |s| &s.step, 99.0)?;
        put_across(&mut r, "serve.queue_wait_ms_p50", |s| &s.queue, 50.0)?;
        put_across(&mut r, "serve.queue_wait_ms_p90", |s| &s.queue, 90.0)?;
        put_across(&mut r, "serve.prefill_ms_p50", |s| &s.prefill, 50.0)?;
        r.put("serve.busy_frac", "fraction", median(&busy), busy.len());
        r.put("requests.offline.sent", "count", off_sent as f64, 1);
        r.put(
            "requests.offline.ok",
            "count",
            (off_sent - off_failed) as f64,
            1,
        );
        r.put("requests.offline.failed", "count", off_failed as f64, 1);
        r.put("requests.online.sent", "count", on_sent as f64, 1);
        r.put(
            "requests.online.ok",
            "count",
            (on_sent - on_failed) as f64,
            1,
        );
        r.put("requests.online.failed", "count", on_failed as f64, 1);
    } else {
        r.put("setup_s", "s", median(&setup_s), setup_s.len());
        r.put(
            "modeled_uj_per_token",
            "uJ/token",
            first.energy.total_j() * 1e6 / first.generated as f64,
            1,
        );
        r.put("peak_rss_mib", "MiB", peak_rss_mib()?, 1);
    }
    let metrics = r.select(&catalog(s.trace, config.layers))?;

    let num = |k: &str, v: f64| (k.to_string(), Json::Num(v));
    let int = |k: &str, v: usize| (k.to_string(), Json::Int(v as u64));
    let info = vec![
        (
            "backend".to_string(),
            Json::Str(setup.backend.name().into()),
        ),
        int(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        ),
        (
            "pdac_threads".to_string(),
            Json::Str(std::env::var("PDAC_THREADS").unwrap_or_default()),
        ),
        int("cycles", segments.len()),
        int("offline_requests", off_specs.len()),
        int("online_requests", on_sent),
        int(
            "online_steps",
            segments.iter().map(|g| g.tracker.steps.len()).sum(),
        ),
        num("busy_frac", median(&busy)),
        num("failed_frac", failed as f64 / attempted as f64),
        (
            "phase_s".to_string(),
            obj([
                ("setup", Json::Num(setup_s.iter().sum())),
                ("offline", Json::Num(offline_s)),
                ("online", Json::Num(online_s)),
                ("check", Json::Num(check_s)),
            ]),
        ),
        (
            "output_digest".to_string(),
            obj([
                (
                    "offline",
                    Json::Str(format!("{:016x}", digest(&first.completions))),
                ),
                ("online", Json::Str(format!("{online_digest:016x}"))),
            ]),
        ),
    ];

    let trace = if s.trace {
        let text = chrome_trace(&segments, n_seg);
        validate(&text)?;
        Some(text)
    } else {
        None
    };
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    let samples = obj([
        ("setup_s", nums(&setup_s)),
        ("offline_tokens_per_s", nums(&offline.rates)),
        (
            "segments",
            Json::Arr(
                stats
                    .iter()
                    .map(|st| {
                        obj([
                            ("busy_frac", Json::Num(st.busy_frac)),
                            ("sent", Json::Int(st.sent as u64)),
                            ("slo_met", Json::Int(st.slo_met as u64)),
                            ("ttft_ms", nums(&st.ttft)),
                            ("tpot_ms", nums(&st.tpot)),
                            ("e2e_ms", nums(&st.e2e)),
                            ("itl_ms", nums(&st.itl)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok(Outcome {
        metrics,
        info,
        attempted,
        failed,
        samples,
        trace,
    })
}

/// The per-layer metrics of a traced run that are not per-segment
/// percentiles: deterministic counts from the offline phase, GEMM and
/// step self times summed over the traced online segments.
fn layer_metrics(
    r: &mut Report,
    w: &Workload,
    offline: &Offline,
    off_specs: &[RequestSpec],
    segments: &[Segment],
) -> Result<(), String> {
    let first = offline.first();
    r.put("serve.steps", "count", first.steps as f64, 1);
    r.put("serve.fed_tokens", "count", first.fed as f64, 1);
    // Every step feeds one token per active row.
    r.put(
        "serve.occupancy_mean",
        "rows",
        first.fed as f64 / first.steps as f64,
        first.steps as usize,
    );

    let counts = offline
        .cells
        .as_ref()
        .ok_or("traced run without a traced round")?;
    let steps: usize = segments.iter().map(|g| g.tracker.steps.len()).sum();
    let step_ns: u64 = segments
        .iter()
        .flat_map(|g| &g.tracker.steps)
        .map(|&(a, b)| b - a)
        .sum();
    let sum = |cells: &mut dyn Iterator<Item = &[Cell; 6]>, phase: GemmPhase| {
        cells.fold(Cell::default(), |acc, l| {
            let c = l[phase as usize];
            Cell {
                calls: acc.calls + c.calls,
                macs: acc.macs + c.macs,
                ns: acc.ns + c.ns,
            }
        })
    };
    let mut gemm_ms_per_step = 0.0;
    for phase in GemmPhase::ALL {
        let off = sum(&mut counts.iter(), phase);
        let on = sum(&mut segments.iter().flat_map(|g| &g.cells), phase);
        let name = |m: &str| format!("gemm.{}.{m}", phase.label());
        r.put(&name("calls"), "count", off.calls as f64, 1);
        r.put(&name("gmac"), "GMAC", off.macs as f64 / 1e9, 1);
        let per_step = ms(on.ns) / steps as f64;
        gemm_ms_per_step += per_step;
        r.put(&name("ms_per_step"), "ms", per_step, steps);
        r.put(
            &name("gmac_per_s"),
            "GMAC/s",
            on.macs as f64 / on.ns.max(1) as f64,
            on.calls as usize,
        );
    }
    for l in 0..counts.len() {
        let ns: u64 = segments
            .iter()
            .flat_map(|g| g.cells[l].iter())
            .map(|c| c.ns)
            .sum();
        r.put(
            &format!("gemm.l{l}.ms_per_step"),
            "ms",
            ms(ns) / steps as f64,
            steps,
        );
    }
    // Step self time: each step's duration minus the backend calls inside it.
    let other_ns: u64 = segments
        .iter()
        .flat_map(|g| g.tracker.steps.iter().zip(&g.step_gemm_ns))
        .map(|(&(a, b), &g)| (b - a).saturating_sub(g))
        .sum();
    let other = ms(other_ns) / steps as f64;
    let step_mean = ms(step_ns) / steps as f64;
    // Every backend call must fall inside a step: otherwise the phases do
    // not add up to the step time and the attribution is wrong.
    if ((gemm_ms_per_step + other) / step_mean - 1.0).abs() > 0.01 {
        return Err(format!(
            "per-layer times do not add up: gemm {gemm_ms_per_step:.4} + other {other:.4} \
             vs step {step_mean:.4} ms"
        ));
    }
    r.put("step.other_ms_per_step", "ms", other, steps);
    r.put("step.other_frac", "fraction", other / step_mean, steps);

    let kv = &first.kv;
    let prompt_len =
        |sp: &RequestSpec| w.system_tokens * usize::from(sp.system.is_some()) + sp.tail;
    let block_requests = off_specs
        .iter()
        .filter(|sp| prompt_len(sp) > BLOCK_TOKENS)
        .count();
    let prompt_tokens: usize = off_specs.iter().map(prompt_len).sum();
    r.put(
        "kv.prefix_hit_ratio",
        "fraction",
        kv.shared_hits as f64 / block_requests.max(1) as f64,
        block_requests,
    );
    r.put(
        "kv.prefix_token_frac",
        "fraction",
        kv.shared_tokens as f64 / prompt_tokens.max(1) as f64,
        prompt_tokens,
    );
    r.put(
        "kv.peak_mib",
        "MiB",
        first.kv_peak_bytes as f64 / (1024.0 * 1024.0),
        first.steps as usize,
    );
    r.put("kv.deferred", "count", kv.deferred as f64, 1);
    r.put("kv.evicted_pages", "count", kv.evicted_pages as f64, 1);
    r.put("kv.cow_copies", "count", kv.cow_copies as f64, 1);
    r.put(
        "kv.over_budget_pages",
        "count",
        kv.over_budget_pages as f64,
        1,
    );

    let per_token = |class: OpClass| first.energy.class_j(class) * 1e6 / first.generated as f64;
    for (name, class) in [
        ("power.attention_uj_per_token", OpClass::Attention),
        ("power.ffn_uj_per_token", OpClass::Ffn),
        ("power.other_uj_per_token", OpClass::Other),
    ] {
        r.put(name, "uJ/token", per_token(class), 1);
    }
    let lag: Vec<f64> = segments
        .iter()
        .flat_map(|g| &g.admit_lag_ns)
        .map(|&n| ms(n))
        .collect();
    r.put(
        "loadgen.admit_lag_ms_p99",
        "ms",
        percentile(&sorted(&lag), 99.0),
        lag.len(),
    );
    r.put(
        "trace.overhead_frac",
        "fraction",
        median(&offline.overhead),
        offline.overhead.len(),
    );
    Ok(())
}

/// The traced online segments as a Chrome trace: one tree per request
/// (queue, prefill and decode under the request) and one per step (its
/// GEMM calls, for as many steps as the span cap covers). Request `i` of
/// segment `c` is request `c · n_seg + i`; steps are numbered across
/// segments.
fn chrome_trace(segments: &[Segment], n_seg: usize) -> String {
    let mut t = TraceBuilder::default();
    let mut step_no = 0u64;
    for (c, seg) in segments.iter().enumerate() {
        let steps = &seg.tracker.steps;
        for (i, tl) in seg.timelines.iter().enumerate() {
            let Some(tl) = tl else { continue };
            let due = seg.due_ns[i];
            let entry = steps[tl.entry_step as usize].0;
            let first = steps[tl.first_step as usize].1;
            let last = steps[tl.last_step as usize].1;
            let id = (c * n_seg + i) as u64;
            let tid = 100 + id;
            let args = || vec![("request", Json::Int(id))];
            let root = t.span("request", "request", tid, due, last, 0, args());
            t.span("queue", "request", tid, due, entry, root, args());
            t.span("prefill", "request", tid, entry, first, root, args());
            t.span("decode", "request", tid, first, last, root, args());
        }
        for (k, &(start, end)) in steps.iter().enumerate() {
            let step = t.span(
                "step",
                "serve",
                1,
                start,
                end,
                0,
                vec![("step", Json::Int(step_no))],
            );
            step_no += 1;
            let from = seg.step_span_start[k].min(seg.spans.len());
            let to = seg
                .step_span_start
                .get(k + 1)
                .map_or(seg.spans.len(), |&to| to.min(seg.spans.len()));
            for sp in &seg.spans[from..to] {
                t.span(
                    &format!("gemm.{}", sp.phase.label()),
                    "gemm",
                    1,
                    sp.start_ns,
                    sp.end_ns,
                    step,
                    vec![("layer", Json::Int(sp.layer as u64))],
                );
            }
        }
    }
    t.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdac_nn::ExactGemm;

    fn rows(model: &TransformerModel, len: usize, seed: u64) -> Vec<Vec<f64>> {
        let input = model.random_input(seed);
        (0..len).map(|t| input.row(t)).collect()
    }

    /// Drives a paged server by hand and checks the timelines derived from
    /// `finished_step` and the drop in `pending()` against an oracle read
    /// after every step: how many tokens the server generated in it.
    #[test]
    fn derived_token_steps_match_step_by_step_oracle() {
        let model = model_for(TransformerConfig::tiny(), 7);
        let mut server = TokenServer::new_paged(&model, 2, PagedConfig::new(2));
        // A step run before tracking starts offsets every index by one.
        server.admit(Request {
            id: 99,
            prompt: rows(&model, 1, 9),
            max_new_tokens: 1,
        });
        server.run(&ExactGemm);
        server.take_completions();
        let shared = rows(&model, 5, 1);
        // (tracked step to admit before, prompt, max_new_tokens). Request 2
        // queues behind two busy slots; request 3 repeats request 0's
        // prompt after it was published, so it maps 4 tokens (two blocks)
        // and computes only the last prompt token.
        let plan = [
            (0u64, shared.clone(), 3usize),
            (0, rows(&model, 1, 2), 4),
            (1, rows(&model, 3, 3), 2),
            (7, shared, 2),
        ];
        let mut tracker = Tracker::new(plan.len(), server.steps());
        let mut oracle = Vec::new();
        let mut next = 0;
        for step in 0u64.. {
            while next < plan.len() && plan[next].0 == step {
                server.admit(Request {
                    id: next as u64,
                    prompt: plan[next].1.clone(),
                    max_new_tokens: plan[next].2,
                });
                tracker.admitted(next);
                next += 1;
            }
            if server.is_idle() {
                break;
            }
            let (pending, generated, abs) =
                (server.pending(), server.generated_tokens(), server.steps());
            let retired = server.step(&ExactGemm);
            tracker
                .stepped(abs, pending - server.pending(), retired, step, step + 1)
                .unwrap();
            oracle.push(server.generated_tokens() - generated);
        }
        let timelines: Vec<Timeline> = tracker
            .timelines()
            .unwrap()
            .into_iter()
            .map(Option::unwrap)
            .collect();
        let mut derived = vec![0u64; oracle.len()];
        for t in &timelines {
            for k in t.first_step..=t.last_step {
                derived[k as usize] += 1;
            }
        }
        assert_eq!(derived, oracle);
        let tl = |entry_step, first_step, last_step| Timeline {
            entry_step,
            first_step,
            last_step,
        };
        assert_eq!(
            timelines,
            [tl(0, 4, 6), tl(0, 0, 3), tl(4, 6, 7), tl(7, 7, 8)]
        );
        assert_eq!(server.kv_stats().unwrap().shared_tokens, 4);
    }

    #[test]
    fn guard_rejects_a_first_token_before_slot_entry() {
        let mut tracker = Tracker::new(1, 0);
        tracker.admitted(0);
        tracker.stepped(0, 0, Vec::new(), 0, 1).unwrap();
        // Entered at step 1 but retired there with three tokens: its first
        // token would be at step -1.
        let done = Completion {
            id: 0,
            prompt_tokens: 1,
            hidden: vec![vec![0.0]; 3],
            finished_step: 1,
            energy_j: 0.0,
            kv_pages: 0,
        };
        tracker.stepped(1, 1, vec![done], 1, 2).unwrap();
        let err = tracker.timelines().unwrap_err();
        assert!(err.starts_with("guard:"), "{err}");
        // `run` returns the error and the binary exits 1 without a result.
    }

    #[test]
    fn tracker_rejects_inconsistent_reports() {
        let mut tracker = Tracker::new(1, 5);
        assert!(tracker.stepped(4, 0, Vec::new(), 0, 1).is_err());
        assert!(tracker.stepped(6, 0, Vec::new(), 0, 1).is_err());
        assert!(tracker.stepped(5, 1, Vec::new(), 0, 1).is_err());
    }

    #[test]
    fn solo_replay_matches_the_server() {
        let model = model_for(TransformerConfig::tiny(), 7);
        let backend = make_backend(BackendKind::Pdac);
        let mut server = TokenServer::new_paged(&model, 3, PagedConfig::new(2));
        let prompts = [rows(&model, 3, 1), rows(&model, 1, 2), Vec::new()];
        for (id, p) in prompts.iter().enumerate() {
            server.admit(Request {
                id: id as u64,
                prompt: p.clone(),
                max_new_tokens: 3,
            });
        }
        server.run(backend.as_ref());
        for c in server.take_completions() {
            let want = solo_generate(&model, backend.as_ref(), &prompts[c.id as usize], 3);
            assert!(same_bits(&c.hidden, &want), "request {}", c.id);
        }
    }
}
