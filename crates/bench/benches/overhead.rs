//! What observability, the drift sentinel and the energy meter cost the
//! decode hot path, measured one decode step at a time.
//!
//! One serving shape, fixed here: an 8-bit P-DAC model (hidden 64, 2
//! layers, 4 heads) decoding 8 sequences through a 4-token prompt and
//! 100 generated tokens. The sentinel needs an analog backend to tap,
//! and the meter and tracing cost a fixed amount per step or per call,
//! so a small step makes them a larger, easier-to-see share of it.
//!
//! Each entry of [`TOGGLES`] names a base state, an on state and how the
//! cost is gated. Two `PagedKvCache`s decode the same token stream in
//! lockstep, one in each state. At every step the harness times the
//! base side's step and the on side's step back to back, alternating
//! which runs first; every switch is set outside the timed windows. The
//! overhead is [`paired_step_overhead`], the median over
//! all steps of all reps of `1 − base/on`: a real per-step cost taxes
//! every pair, while host noise lands on few pairs and barely moves the
//! median.
//!
//! Emits `BENCH_overhead.json` (override with `PDAC_BENCH_OUT`), one
//! record per toggle. Every record carries `overhead`, which
//! `bench_gate` holds to the checked-in baseline plus its slack; toggles
//! with a budget also assert it here, after the document is written.
//! The sentinel scores its samples inside the decode step that took
//! them, so its cost is fixed work on the decode thread: the full-rate
//! toggle, which scores every eligible GEMM, is the one that shows a
//! slower replay kernel, and the default-rate toggle holds the budget
//! a serving deployment pays. A clean run must raise no sentinel alert.

use std::sync::Arc;
use std::time::Instant;

use pdac_bench::feedback::{decode_feedback, random_prompt, timed_decode};
use pdac_bench::microbench::{out_path, paired_step_overhead};
use pdac_core::pdac::PDac;
use pdac_math::Mat;
use pdac_nn::tap::GemmTap;
use pdac_nn::{AnalogGemm, PagedConfig, PagedKvCache, TransformerConfig, TransformerModel};
use pdac_power::meter::EnergyMeter;
use pdac_power::model::{DriverKind, PowerModel};
use pdac_power::{ArchConfig, EnergyModel, TechParams};
use pdac_telemetry::Json;
use pdac_verify::sentinel::{Sentinel, DEFAULT_RATE};

const HIDDEN: usize = 64;
const LAYERS: usize = 2;
const HEADS: usize = 4;
const BATCH: usize = 8;
const PROMPT: usize = 4;
const GENERATED: usize = 100;
/// Passes over the token stream per toggle; every step of every pass is
/// one pair.
const REPS: usize = 3;

/// A process-wide instrumentation state.
#[derive(Clone, Copy)]
enum State {
    /// Telemetry off, no tap, no meter.
    Bare,
    /// Telemetry on without span events.
    Metrics,
    /// Telemetry on with span events into the trace ring.
    Tracing,
    /// Metrics-only plus the drift sentinel sampling at this rate.
    Sentinel(f64),
    /// Telemetry off with an energy meter installed.
    Meter,
}

impl State {
    fn label(self) -> String {
        match self {
            State::Bare => "bare".into(),
            State::Metrics => "metrics".into(),
            State::Tracing => "tracing".into(),
            State::Sentinel(rate) => format!("sentinel@{rate}"),
            State::Meter => "meter".into(),
        }
    }

    /// Sets every switch to this state: telemetry level, meter, and the
    /// tap of the toggle's running sentinel (if it has one).
    fn arm(self, meter: &Arc<EnergyMeter>, sentinel: Option<&Arc<dyn GemmTap>>) {
        match self {
            State::Bare | State::Meter => pdac_telemetry::disable(),
            State::Metrics | State::Tracing | State::Sentinel(_) => {
                pdac_telemetry::enable();
                pdac_telemetry::set_tracing(matches!(self, State::Tracing));
            }
        }
        if let State::Meter = self {
            pdac_power::meter::install_shared(Arc::clone(meter));
        } else {
            pdac_power::meter::uninstall();
        }
        match (self, sentinel) {
            (State::Sentinel(_), Some(tap)) => pdac_nn::tap::install(Arc::clone(tap)),
            _ => pdac_nn::tap::uninstall(),
        }
    }
}

/// How a toggle's cost is held.
#[derive(Clone, Copy)]
enum Gate {
    /// Only by `bench_gate`: baseline plus its slack.
    Slack,
    /// By `bench_gate`, and here: the overhead must stay under this.
    Budget(f64),
}

struct Toggle {
    name: &'static str,
    base: State,
    on: State,
    gate: Gate,
}

const TOGGLES: [Toggle; 5] = [
    Toggle {
        name: "metrics",
        base: State::Bare,
        on: State::Metrics,
        gate: Gate::Slack,
    },
    Toggle {
        name: "tracing",
        base: State::Bare,
        on: State::Tracing,
        gate: Gate::Budget(0.05),
    },
    Toggle {
        name: "sentinel",
        base: State::Metrics,
        on: State::Sentinel(DEFAULT_RATE),
        gate: Gate::Budget(0.03),
    },
    Toggle {
        name: "sentinel_full",
        base: State::Metrics,
        on: State::Sentinel(1.0),
        gate: Gate::Slack,
    },
    Toggle {
        name: "meter",
        base: State::Bare,
        on: State::Meter,
        gate: Gate::Budget(0.02),
    },
];

/// One decode step in `state`, armed before the timed window. Returns
/// the step's seconds and its hidden rows.
fn timed_step(
    model: &TransformerModel,
    backend: &AnalogGemm,
    cache: &mut PagedKvCache,
    tokens: &Mat,
    state: State,
    meter: &Arc<EnergyMeter>,
    sentinel: Option<&Arc<dyn GemmTap>>,
) -> (f64, Mat) {
    state.arm(meter, sentinel);
    let start = Instant::now();
    let out = model.decode_batch(tokens, cache, backend);
    (start.elapsed().as_secs_f64(), out)
}

/// Paired per-step seconds `(base, on)` of `toggle` over [`REPS`] passes
/// of the token stream, and the sentinel alerts raised on the way. A
/// sentinel toggle starts one sentinel for the whole measurement; its
/// tap is installed for the on side's steps only.
fn measure(
    model: &TransformerModel,
    backend: &AnalogGemm,
    prompt: &[Mat],
    toggle: &Toggle,
    meter: &Arc<EnergyMeter>,
) -> (Vec<f64>, Vec<f64>, u64) {
    let sentinel = match toggle.on {
        State::Sentinel(rate) => Some(Sentinel::install(rate)),
        _ => None,
    };
    let tap = pdac_nn::tap::installed();
    let (mut base_s, mut on_s) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let mut base_cache = PagedKvCache::new(model, BATCH, PagedConfig::default());
        let mut on_cache = PagedKvCache::new(model, BATCH, PagedConfig::default());
        decode_feedback(prompt, GENERATED, |tokens| {
            let run = |cache: &mut PagedKvCache, state| {
                timed_step(model, backend, cache, tokens, state, meter, tap.as_ref())
            };
            let (base, on) = if base_s.len() % 2 == 0 {
                let base = run(&mut base_cache, toggle.base);
                (base, run(&mut on_cache, toggle.on))
            } else {
                let on = run(&mut on_cache, toggle.on);
                (run(&mut base_cache, toggle.base), on)
            };
            assert_eq!(base.1, on.1, "{}: the two sides diverged", toggle.name);
            base_s.push(base.0);
            on_s.push(on.0);
            base.1
        });
    }
    State::Bare.arm(meter, None);
    drop(tap);
    let alerts = sentinel.map_or(0, |handle| handle.finish().alerts);
    (base_s, on_s, alerts)
}

fn main() {
    let config = TransformerConfig {
        name: "overhead-bench".to_string(),
        layers: LAYERS,
        hidden: HIDDEN,
        heads: HEADS,
        ff_mult: 4,
        seq_len: PROMPT + GENERATED,
    };
    let model = TransformerModel::random(config, 4, 42);
    let backend = AnalogGemm::new(PDac::with_optimal_approx(8).expect("8-bit pdac"), "pdac8");
    let prompt = random_prompt(BATCH, HIDDEN, PROMPT, 11);
    let meter = Arc::new(EnergyMeter::new(
        EnergyModel::new(PowerModel::new(
            ArchConfig::lt_b(),
            TechParams::calibrated(),
            DriverKind::PhotonicDac,
        )),
        8,
    ));

    // Warm pass (weight cache, scratch, allocator) outside any timing.
    let mut warm = PagedKvCache::new(&model, BATCH, PagedConfig::default());
    let _ = timed_decode(&model, &backend, &mut warm, &prompt, 1);

    let mut records = Vec::new();
    let mut over_budget = Vec::new();
    for toggle in &TOGGLES {
        let (base_s, on_s, alerts) = measure(&model, &backend, &prompt, toggle, &meter);
        assert_eq!(
            alerts, 0,
            "{}: a clean pdac8 run raised alerts",
            toggle.name
        );
        let overhead = paired_step_overhead(&base_s, &on_s).expect("paired step times");
        let ms_per_step = |s: &[f64]| 1e3 * s.iter().sum::<f64>() / s.len() as f64;
        let (base, on) = (toggle.base.label(), toggle.on.label());
        println!(
            "overhead/{}: {:+.2}% ({on} vs {base}: {:.3} vs {:.3} ms/step over {} steps)",
            toggle.name,
            overhead * 100.0,
            ms_per_step(&on_s),
            ms_per_step(&base_s),
            base_s.len()
        );
        let mut fields = vec![
            ("toggle".into(), Json::Str(toggle.name.into())),
            ("base".into(), Json::Str(base)),
            ("on".into(), Json::Str(on)),
            ("steps".into(), Json::Int(base_s.len() as u64)),
            ("base_ms_per_step".into(), Json::Num(ms_per_step(&base_s))),
            ("on_ms_per_step".into(), Json::Num(ms_per_step(&on_s))),
            ("overhead".into(), Json::Num(overhead)),
        ];
        if let Gate::Budget(budget) = toggle.gate {
            fields.push(("budget".into(), Json::Num(budget)));
            if overhead >= budget {
                over_budget.push(format!(
                    "{} costs {:.2}% per step (budget {:.2}%)",
                    toggle.name,
                    overhead * 100.0,
                    budget * 100.0
                ));
            }
        }
        records.push(Json::Obj(fields));
    }

    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("overhead".into())),
        ("backend".into(), Json::Str("pdac8".into())),
        ("hidden".into(), Json::Int(HIDDEN as u64)),
        ("layers".into(), Json::Int(LAYERS as u64)),
        ("heads".into(), Json::Int(HEADS as u64)),
        ("batch".into(), Json::Int(BATCH as u64)),
        ("prompt".into(), Json::Int(PROMPT as u64)),
        ("generated".into(), Json::Int(GENERATED as u64)),
        ("reps".into(), Json::Int(REPS as u64)),
        ("results".into(), Json::Arr(records)),
    ]);
    let path = out_path(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_overhead.json"
    ));
    std::fs::write(&path, doc.render() + "\n").expect("write bench json");
    println!("overhead: wrote {path}");
    assert!(over_budget.is_empty(), "{}", over_budget.join("; "));
    println!("overhead: every budgeted toggle within budget");
}
