//! Throughput of the batched decode engine: aggregate tokens/s at batch
//! sizes {1, 4, 8, 16} for the exact and the P-DAC analog backend,
//! against the sequential baseline (the same sequences decoded one at a
//! time through `decode_step`).
//!
//! Emits `BENCH_decode.json` (override with `PDAC_BENCH_OUT`). Knobs
//! for CI smoke runs: `PDAC_BENCH_DECODE_HIDDEN` / `_LAYERS` / `_HEADS`
//! (default 256/4/4), `_PROMPT` / `_TOKENS` (default 8/24), `_BATCHES`
//! (default `1,4,8,16`), `_BACKENDS` (default `exact,pdac`), `_REPS`
//! (default 1 — each batched/sequential time is the fastest of N
//! interleaved rounds of two runs per backend, cancelling clock drift
//! on busy machines), and `_FLOOR` (assert every measured speedup ≥
//! this ratio — the CI smoke uses it to fail any batch size slower than
//! sequential).
//!
//! When both backends run, each P-DAC record also carries
//! `pdac_batched_over_exact_batched`: P-DAC batched tokens/s over exact
//! batched tokens/s at the same batch size — what the analog operand
//! path costs a served batch. Both sides of that ratio are timed side by
//! side: each rep runs the backends' batched decodes in ABBA order (BAAB
//! on odd reps), and likewise their sequential decodes, and each side
//! keeps its fastest run, so host noise that comes and goes between
//! runs cannot set the ratio. Two batch-8 floors are asserted only at
//! the default configuration: exact batched ≥2× exact sequential, and
//! `pdac_batched_over_exact_batched` ≥0.5. P-DAC batched over P-DAC
//! sequential is reported but has no floor: weights are converted once
//! and looked up by matrix id, so sequential P-DAC decode pays no
//! per-call weight cost for batching to amortize, and the ratio says
//! little about the analog path.

use std::time::Instant;

use pdac_bench::microbench::{env_opt, env_usize, out_path};
use pdac_core::pdac::PDac;
use pdac_math::Mat;
use pdac_nn::{
    AnalogGemm, ExactGemm, GemmBackend, PagedConfig, PagedKvCache, TransformerConfig,
    TransformerModel,
};
use pdac_serve::feedback_embedding;
use pdac_telemetry::Json;

fn prompt_tokens(model: &TransformerModel, s: usize, len: usize, seed: u64) -> Vec<Mat> {
    let mut rng = pdac_math::rng::SplitMix64::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            Mat::from_fn(s, model.config().hidden, |_, _| {
                rng.gen_range_f64(-1.0, 1.0)
            })
        })
        .collect()
}

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
    let s = prompt[0].rows();
    let mut batch = PagedKvCache::new(model, s, PagedConfig::default());
    let start = Instant::now();
    let mut last = model.decode_batch(&prompt[0], &mut batch, backend);
    for tok in &prompt[1..] {
        last = model.decode_batch(tok, &mut batch, backend);
    }
    for _ in 0..gen {
        let hidden = model.config().hidden;
        let mut data = Vec::with_capacity(s * hidden);
        for r in 0..s {
            data.extend(feedback_embedding(last.row_slice(r)));
        }
        let next = Mat::from_rows(s, hidden, data).expect("feedback batch");
        last = model.decode_batch(&next, &mut batch, backend);
    }
    start.elapsed().as_secs_f64()
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

fn main() {
    let hidden = env_usize("PDAC_BENCH_DECODE_HIDDEN", 256);
    let layers = env_usize("PDAC_BENCH_DECODE_LAYERS", 4);
    let heads = env_usize("PDAC_BENCH_DECODE_HEADS", 4);
    let prompt_len = env_usize("PDAC_BENCH_DECODE_PROMPT", 8);
    let gen = env_usize("PDAC_BENCH_DECODE_TOKENS", 24);
    let batches: Vec<usize> = std::env::var("PDAC_BENCH_DECODE_BATCHES")
        .unwrap_or_else(|_| "1,4,8,16".to_string())
        .split(',')
        .filter_map(|v| v.trim().parse().ok())
        .collect();
    let backend_names =
        std::env::var("PDAC_BENCH_DECODE_BACKENDS").unwrap_or_else(|_| "exact,pdac".to_string());
    let reps = env_usize("PDAC_BENCH_DECODE_REPS", 1).max(1);
    let floor = env_opt::<f64>("PDAC_BENCH_DECODE_FLOOR");
    let default_run = hidden == 256 && layers == 4 && prompt_len == 8 && gen == 24;

    let config = TransformerConfig {
        name: "decode-bench".to_string(),
        layers,
        hidden,
        heads,
        ff_mult: 4,
        seq_len: prompt_len + gen,
    };
    config.validate().expect("valid bench config");
    let model = TransformerModel::random(config, 4, 42);

    let backends: Vec<(&str, Box<dyn GemmBackend>)> = vec![
        ("exact", Box::new(ExactGemm) as Box<dyn GemmBackend>),
        (
            "pdac",
            Box::new(AnalogGemm::new(
                PDac::with_optimal_approx(8).expect("8-bit pdac"),
                "pdac-8b",
            )),
        ),
    ]
    .into_iter()
    .filter(|(label, _)| backend_names.split(',').any(|b| b.trim() == *label))
    .collect();

    let mut records = Vec::new();
    let mut pdac_batch8_over_exact = None;
    let mut exact_batch8_speedup = None;
    for &s in &batches {
        let prompt = prompt_tokens(&model, s, prompt_len, 7 * s as u64 + 1);
        let total_tokens = (s * (prompt_len + gen)) as f64;
        // One warm pass per backend primes weight caches and packs out
        // of the timed region.
        for (_, backend) in &backends {
            let _ = run_batched(&model, backend.as_ref(), &prompt, 1.min(gen));
        }
        // Each side's fastest run over `reps` interleaved rounds: runs
        // side by side see the same thermal/clock conditions, and the min
        // discards scheduler hiccups that would otherwise swing the
        // ratios.
        let mut batched_s = vec![f64::INFINITY; backends.len()];
        let mut sequential_s = vec![f64::INFINITY; backends.len()];
        let mut order: Vec<usize> = (0..backends.len()).collect();
        for rep in 0..reps {
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
        let mut exact_batched_tps = None;
        for (b, (label, _)) in backends.iter().enumerate() {
            let (batched_s, sequential_s) = (batched_s[b], sequential_s[b]);
            let batched_tps = total_tokens / batched_s.max(1e-12);
            let sequential_tps = total_tokens / sequential_s.max(1e-12);
            let speedup = batched_tps / sequential_tps.max(1e-12);
            println!(
                "decode_engine/{label}/batch{s}: batched {batched_tps:>9.1} tok/s, \
                 sequential {sequential_tps:>9.1} tok/s, speedup {speedup:.2}x"
            );
            if let Some(floor) = floor {
                assert!(
                    speedup >= floor,
                    "decode_engine/{label}/batch{s}: speedup {speedup:.3}x \
                     below the {floor}x floor"
                );
            }
            let mut record = vec![
                ("backend".into(), Json::Str((*label).into())),
                ("batch".into(), Json::Int(s as u64)),
                ("tokens".into(), Json::Int(total_tokens as u64)),
                ("batched_s".into(), Json::Num(batched_s)),
                ("sequential_s".into(), Json::Num(sequential_s)),
                ("batched_tokens_per_s".into(), Json::Num(batched_tps)),
                ("sequential_tokens_per_s".into(), Json::Num(sequential_tps)),
                ("speedup".into(), Json::Num(speedup)),
            ];
            match *label {
                "exact" => {
                    exact_batched_tps = Some(batched_tps);
                    if s == 8 {
                        exact_batch8_speedup = Some(speedup);
                    }
                }
                "pdac" => {
                    if let Some(exact_tps) = exact_batched_tps {
                        let ratio = batched_tps / f64::max(exact_tps, 1e-12);
                        println!(
                            "decode_engine/pdac/batch{s}: batched {ratio:.2}x of exact batched"
                        );
                        record.push(("pdac_batched_over_exact_batched".into(), Json::Num(ratio)));
                        if s == 8 {
                            pdac_batch8_over_exact = Some(ratio);
                        }
                    }
                }
                _ => {}
            }
            records.push(Json::Obj(record));
        }
    }

    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("decode_engine".into())),
        ("hidden".into(), Json::Int(hidden as u64)),
        ("layers".into(), Json::Int(layers as u64)),
        ("heads".into(), Json::Int(heads as u64)),
        ("prompt".into(), Json::Int(prompt_len as u64)),
        ("generated".into(), Json::Int(gen as u64)),
        ("reps".into(), Json::Int(reps as u64)),
        ("results".into(), Json::Arr(records)),
    ]);
    let path = out_path(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_decode.json"
    ));
    std::fs::write(&path, doc.render() + "\n").expect("write bench json");
    println!("decode_engine: wrote {path}");

    if default_run {
        if let Some(ratio) = pdac_batch8_over_exact {
            assert!(
                ratio >= 0.5,
                "P-DAC batch-8 at {ratio:.2}x of exact batched, below the 0.5x floor"
            );
            println!(
                "decode_engine: P-DAC batch-8 at {ratio:.2}x of exact batched (floor 0.5x) OK"
            );
        }
        if let Some(speedup) = exact_batch8_speedup {
            assert!(
                speedup >= 2.0,
                "exact batch-8 speedup {speedup:.2}x below the 2x floor"
            );
            println!("decode_engine: exact batch-8 speedup {speedup:.2}x (floor 2x) OK");
        }
    }
}
