//! Throughput of the batched decode engine against the sequential
//! baseline: the same sequences decoded one at a time through
//! `decode_step`. Batching streams each weight through the converters
//! once per step instead of once per sequence, which is what pays in the
//! memory-bound decode phase.
//!
//! The shapes are fixed here, in [`CASES`], and every floor is asserted
//! on every run:
//!
//! * `sweep` — the exact backend at hidden 64, batches 1/4/8/16: no
//!   batch size may decode slower than sequential (every speedup ≥ 1).
//!   At a small hidden size the per-step fixed cost is large, so this is
//!   where batching has the least to amortize. At batch 1 both paths do
//!   the same work and the batched path's lead is thin, so the case
//!   takes 10 reps: each side needs enough runs to meet a quiet spell
//!   of a shared host.
//! * `batch8` — exact and P-DAC at hidden 256, batch 8: exact batched
//!   must reach 2× exact sequential, and P-DAC batched must reach 0.5×
//!   exact batched (`pdac_batched_over_exact_batched`, what the analog
//!   operand path costs a served batch). P-DAC batched over P-DAC
//!   sequential is reported without a floor: weights are converted once
//!   and looked up by matrix id, so sequential P-DAC decode pays no
//!   per-call weight cost for batching to amortize.
//!
//! No single shape holds both: at hidden 256 batch 1 reads about 1×,
//! and at hidden 64–128 exact batch 8 reads at most about 2×.
//!
//! Each batched or sequential time is the fastest of the case's
//! interleaved reps: each rep runs the backends' batched decodes in
//! ABBA order (BAAB on odd reps), and likewise their sequential decodes,
//! so host noise that comes and goes between runs cannot set a ratio.
//!
//! Emits `BENCH_decode.json` (override with `PDAC_BENCH_OUT`), one
//! record per case, backend and batch, each carrying its case's name and
//! shape so `bench_gate` matches records of the same configuration only.

use std::time::Instant;

use pdac_bench::feedback::{random_prompt, timed_decode};
use pdac_bench::microbench::out_path;
use pdac_core::pdac::PDac;
use pdac_math::Mat;
use pdac_nn::{
    AnalogGemm, ExactGemm, GemmBackend, PagedConfig, PagedKvCache, TransformerConfig,
    TransformerModel,
};
use pdac_serve::feedback_embedding;
use pdac_telemetry::Json;

/// One measured configuration and the floors it must hold. Every case
/// runs the exact backend; a case with a P-DAC floor also runs the
/// 8-bit P-DAC backend beside it.
struct Case {
    name: &'static str,
    hidden: usize,
    layers: usize,
    heads: usize,
    prompt: usize,
    generated: usize,
    batches: &'static [usize],
    reps: usize,
    /// Floor on exact batched over exact sequential, at every batch.
    exact_speedup_floor: f64,
    /// Floor on P-DAC batched over exact batched, at every batch.
    pdac_over_exact_floor: Option<f64>,
}

const CASES: [Case; 2] = [
    Case {
        name: "sweep",
        hidden: 64,
        layers: 2,
        heads: 4,
        prompt: 2,
        generated: 16,
        batches: &[1, 4, 8, 16],
        reps: 10,
        exact_speedup_floor: 1.0,
        pdac_over_exact_floor: None,
    },
    Case {
        name: "batch8",
        hidden: 256,
        layers: 2,
        heads: 4,
        prompt: 4,
        generated: 8,
        batches: &[8],
        reps: 3,
        exact_speedup_floor: 2.0,
        pdac_over_exact_floor: Some(0.5),
    },
];

/// A timed decode of `prompt.len() + gen` steps; returns elapsed seconds.
type Runner = fn(&TransformerModel, &dyn GemmBackend, &[Mat], usize) -> f64;

/// Decodes `s` sequences for `prompt.len() + gen` steps through the
/// batched engine; returns elapsed seconds.
fn run_batched(
    model: &TransformerModel,
    backend: &dyn GemmBackend,
    prompt: &[Mat],
    gen: usize,
) -> f64 {
    let mut batch = PagedKvCache::new(model, prompt[0].rows(), PagedConfig::default());
    timed_decode(model, backend, &mut batch, prompt, gen).0
}

/// The same workload, one sequence at a time through `decode_step` (the
/// pre-batching serving strategy); returns elapsed seconds.
fn run_sequential(
    model: &TransformerModel,
    backend: &dyn GemmBackend,
    prompt: &[Mat],
    gen: usize,
) -> f64 {
    let s = prompt[0].rows();
    let start = Instant::now();
    for seq in 0..s {
        let mut cache = model.new_cache();
        let mut last = model.decode_step(&prompt[0].row(seq), &mut cache, backend);
        for tok in &prompt[1..] {
            last = model.decode_step(&tok.row(seq), &mut cache, backend);
        }
        for _ in 0..gen {
            let next = feedback_embedding(&last);
            last = model.decode_step(&next, &mut cache, backend);
        }
    }
    start.elapsed().as_secs_f64()
}

/// Measures `case`, appending one record per backend and batch to
/// `records` and one message per missed floor to `failures`.
fn measure(case: &Case, records: &mut Vec<Json>, failures: &mut Vec<String>) {
    let config = TransformerConfig {
        name: format!("decode-bench-{}", case.name),
        layers: case.layers,
        hidden: case.hidden,
        heads: case.heads,
        ff_mult: 4,
        seq_len: case.prompt + case.generated,
    };
    config.validate().expect("valid bench config");
    let model = TransformerModel::random(config, 4, 42);
    let mut backends: Vec<(&str, Box<dyn GemmBackend>)> = vec![("exact", Box::new(ExactGemm))];
    if case.pdac_over_exact_floor.is_some() {
        let pdac = PDac::with_optimal_approx(8).expect("8-bit pdac");
        backends.push(("pdac", Box::new(AnalogGemm::new(pdac, "pdac-8b"))));
    }
    let gen = case.generated;

    for &s in case.batches {
        let prompt = random_prompt(s, case.hidden, case.prompt, 7 * s as u64 + 1);
        let total_tokens = (s * (case.prompt + gen)) as f64;
        // One warm pass per backend primes weight caches and packs out
        // of the timed region.
        for (_, backend) in &backends {
            let _ = run_batched(&model, backend.as_ref(), &prompt, 1);
        }
        let mut batched_s = vec![f64::INFINITY; backends.len()];
        let mut sequential_s = vec![f64::INFINITY; backends.len()];
        let mut order: Vec<usize> = (0..backends.len()).collect();
        for rep in 0..case.reps {
            // Even reps run the backends in ABBA order, odd reps in
            // BAAB, and batched and sequential swap which runs first. A
            // one-directional clock ramp would otherwise bias each ratio
            // the same way every rep, and the min never cancels it.
            if rep > 0 {
                order.reverse();
            }
            let round = |run: Runner, best: &mut [f64]| {
                for &b in order.iter().chain(order.iter().rev()) {
                    best[b] = best[b].min(run(&model, backends[b].1.as_ref(), &prompt, gen));
                }
            };
            if rep % 2 == 0 {
                round(run_batched, &mut batched_s);
                round(run_sequential, &mut sequential_s);
            } else {
                round(run_sequential, &mut sequential_s);
                round(run_batched, &mut batched_s);
            }
        }
        let exact_batched_tps = total_tokens / batched_s[0].max(1e-12);
        for (b, (label, _)) in backends.iter().enumerate() {
            let at = format!("decode_engine/{}/{label}/batch{s}", case.name);
            let batched_tps = total_tokens / batched_s[b].max(1e-12);
            let sequential_tps = total_tokens / sequential_s[b].max(1e-12);
            let speedup = batched_tps / sequential_tps.max(1e-12);
            println!(
                "{at}: batched {batched_tps:>9.1} tok/s, \
                 sequential {sequential_tps:>9.1} tok/s, speedup {speedup:.2}x"
            );
            let mut record = vec![
                ("case".into(), Json::Str(case.name.into())),
                ("backend".into(), Json::Str((*label).into())),
                ("hidden".into(), Json::Int(case.hidden as u64)),
                ("layers".into(), Json::Int(case.layers as u64)),
                ("heads".into(), Json::Int(case.heads as u64)),
                ("prompt".into(), Json::Int(case.prompt as u64)),
                ("generated".into(), Json::Int(gen as u64)),
                ("reps".into(), Json::Int(case.reps as u64)),
                ("batch".into(), Json::Int(s as u64)),
                ("tokens".into(), Json::Int(total_tokens as u64)),
                ("batched_s".into(), Json::Num(batched_s[b])),
                ("sequential_s".into(), Json::Num(sequential_s[b])),
                ("batched_tokens_per_s".into(), Json::Num(batched_tps)),
                ("sequential_tokens_per_s".into(), Json::Num(sequential_tps)),
                ("speedup".into(), Json::Num(speedup)),
            ];
            if b == 0 {
                if speedup < case.exact_speedup_floor {
                    failures.push(format!(
                        "{at}: speedup {speedup:.3}x below the {}x floor",
                        case.exact_speedup_floor
                    ));
                }
            } else if let Some(floor) = case.pdac_over_exact_floor {
                let ratio = batched_tps / exact_batched_tps;
                println!("{at}: batched {ratio:.2}x of exact batched");
                record.push(("pdac_batched_over_exact_batched".into(), Json::Num(ratio)));
                if ratio < floor {
                    failures.push(format!(
                        "{at}: {ratio:.3}x of exact batched, below the {floor}x floor"
                    ));
                }
            }
            records.push(Json::Obj(record));
        }
    }
}

fn main() {
    let mut records = Vec::new();
    let mut failures = Vec::new();
    for case in &CASES {
        measure(case, &mut records, &mut failures);
    }
    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("decode_engine".into())),
        ("results".into(), Json::Arr(records)),
    ]);
    let path = out_path(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_decode.json"
    ));
    std::fs::write(&path, doc.render() + "\n").expect("write bench json");
    println!("decode_engine: wrote {path}");
    assert!(failures.is_empty(), "{}", failures.join("; "));
    println!("decode_engine: every floor held");
}
