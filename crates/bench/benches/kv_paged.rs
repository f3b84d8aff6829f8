//! Prefix sharing on the paged KV cache: memory footprint and
//! throughput of a shared-prefix decode batch, with and without reuse.
//!
//! The workload is the serving shape that paging exists for: `BATCH`
//! sequences whose prompts share a long common prefix (75% by default).
//! Both sides decode through the same `PagedKvCache` shape. The
//! unshared side decodes every sequence's full prompt and never calls
//! `publish_prefix` / `lookup_prefix`; the paged side computes the
//! shared prefix **once**, publishes it, and maps it into every slot
//! via `lookup_prefix`, then decodes only the divergent tails. Both
//! sides must produce bit-identical final hidden states — asserted
//! every rep.
//!
//! Emits `BENCH_kv.json` (override with `PDAC_BENCH_OUT`) with two
//! gated ratios per backend:
//!
//! * `unshared_bytes_over_paged_bytes` — backing bytes of the unshared
//!   cache over the prefix-sharing one (page granularity, shared pages
//!   counted once). ≥ 2× at the default 75%-shared shape, i.e. sharing
//!   fits in ≤ 0.5× the unshared footprint.
//! * `paged_tps_over_unshared` — end-to-end decode throughput ratio at
//!   equal serving work. Prefix reuse skips recompute, so this should
//!   sit ≥ 1; the default-config floor is 0.95 (within 5% of unshared).
//!
//! Knobs: `PDAC_BENCH_KV_HIDDEN` / `_LAYERS` / `_HEADS` (default
//! 64/2/4), `_BATCH` (8), `_PROMPT` / `_SHARED` (32/24), `_TOKENS`
//! (generated per sequence, 4), `_BLOCK` (page size in tokens, 4),
//! `_BACKENDS` (`exact,pdac`), `_REPS` (3 — interleaved min-of-reps).

use std::time::Instant;

use pdac_bench::feedback::{decode_feedback, timed_decode};
use pdac_bench::microbench::{env_usize, out_path};
use pdac_core::pdac::PDac;
use pdac_math::rng::SplitMix64;
use pdac_math::Mat;
use pdac_nn::{
    prefix_block_hashes, AnalogGemm, DecodeScratch, ExactGemm, GemmBackend, PagedConfig,
    PagedKvCache, TransformerConfig, TransformerModel,
};
use pdac_telemetry::Json;

/// Per-step token matrices for `s` sequences sharing the first `shared`
/// prompt positions; divergent tails and per-sequence rows are seeded
/// independently.
fn prompt_tokens(hidden: usize, s: usize, prompt: usize, shared: usize, seed: u64) -> Vec<Mat> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..prompt)
        .map(|t| {
            if t < shared {
                let row: Vec<f64> = (0..hidden).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect();
                Mat::from_fn(s, hidden, |_, c| row[c])
            } else {
                Mat::from_fn(s, hidden, |_, _| rng.gen_range_f64(-1.0, 1.0))
            }
        })
        .collect()
}

/// Full-prompt decode through the paged cache without prefix reuse;
/// returns elapsed seconds, the final hidden rows, and the backing bytes.
fn run_unshared(
    model: &TransformerModel,
    backend: &dyn GemmBackend,
    prompt: &[Mat],
    gen: usize,
    block: usize,
) -> (f64, Mat, usize) {
    let mut cache = PagedKvCache::new(model, prompt[0].rows(), PagedConfig::new(block));
    let (elapsed, last) = timed_decode(model, backend, &mut cache, prompt, gen);
    (elapsed, last, cache.allocator().backing_bytes())
}

/// The same workload through the paged cache with prefix sharing: slot 0
/// decodes the shared prefix once and publishes it, every slot then maps
/// the published pages and decodes only its divergent tail. Returns
/// elapsed seconds, the final hidden rows, and the paged backing bytes.
fn run_paged(
    model: &TransformerModel,
    backend: &dyn GemmBackend,
    prompt: &[Mat],
    shared: usize,
    gen: usize,
    block: usize,
) -> (f64, Mat, usize) {
    let s = prompt[0].rows();
    let hidden = model.config().hidden;
    let mut cache = PagedKvCache::new(model, s, PagedConfig::new(block));
    let mut scratch = DecodeScratch::new();
    let mut got = Mat::zeros(1, 1);
    let shared_rows: Vec<Vec<f64>> = prompt[..shared]
        .iter()
        .map(|t| t.row_slice(0).to_vec())
        .collect();
    let hashes = prefix_block_hashes(shared_rows.iter().map(Vec::as_slice), block);
    let slots: Vec<usize> = (0..s).collect();
    let start = Instant::now();
    // Shared prefix: computed once on slot 0, published, remapped.
    for tok in &prompt[..shared] {
        let one = Mat::from_fn(1, hidden, |_, c| tok.row_slice(0)[c]);
        model.decode_batch_with(&one, &mut cache, &[0], backend, &mut scratch, &mut got);
    }
    cache.publish_prefix(0, &hashes);
    cache.reset_slot(0);
    for &slot in &slots {
        let mapped = cache.lookup_prefix(slot, &hashes);
        assert_eq!(mapped, shared, "published prefix must map fully");
    }
    // Divergent tails + generation, batched across all slots.
    let last = decode_feedback(&prompt[shared..], gen, |tokens| {
        model.decode_batch(tokens, &mut cache, backend)
    });
    let elapsed = start.elapsed().as_secs_f64();
    let paged_bytes = cache.allocator().backing_bytes();
    (elapsed, last, paged_bytes)
}

fn main() {
    let hidden = env_usize("PDAC_BENCH_KV_HIDDEN", 64);
    let layers = env_usize("PDAC_BENCH_KV_LAYERS", 2);
    let heads = env_usize("PDAC_BENCH_KV_HEADS", 4);
    let batch = env_usize("PDAC_BENCH_KV_BATCH", 8);
    let prompt_len = env_usize("PDAC_BENCH_KV_PROMPT", 32);
    let shared = env_usize("PDAC_BENCH_KV_SHARED", 24);
    let gen = env_usize("PDAC_BENCH_KV_TOKENS", 4);
    let block = env_usize("PDAC_BENCH_KV_BLOCK", 4).max(1);
    let reps = env_usize("PDAC_BENCH_KV_REPS", 3).max(1);
    let backend_names =
        std::env::var("PDAC_BENCH_KV_BACKENDS").unwrap_or_else(|_| "exact,pdac".to_string());
    let default_run = hidden == 64 && prompt_len == 32 && shared == 24 && batch == 8;
    assert!(
        shared < prompt_len,
        "PDAC_BENCH_KV_SHARED must leave a divergent prompt tail \
         (shared {shared}, prompt {prompt_len})"
    );
    assert!(
        shared.is_multiple_of(block),
        "PDAC_BENCH_KV_SHARED must be a multiple of PDAC_BENCH_KV_BLOCK \
         so the whole prefix is publishable"
    );

    let config = TransformerConfig {
        name: "kv-bench".to_string(),
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
    for (label, backend) in &backends {
        let prompt = prompt_tokens(hidden, batch, prompt_len, shared, 42);
        // Both sides serve the same work: batch × (prompt + generated)
        // tokens of completed sequence state.
        let served_tokens = (batch * (prompt_len + gen)) as f64;
        // Warm pass primes the weight caches out of the timed region.
        let _ = run_unshared(&model, backend.as_ref(), &prompt, 1.min(gen), block);
        let _ = run_paged(&model, backend.as_ref(), &prompt, shared, 1.min(gen), block);
        let mut unshared_s = f64::INFINITY;
        let mut paged_s = f64::INFINITY;
        let mut unshared_bytes = 0usize;
        let mut paged_bytes = 0usize;
        for rep in 0..reps {
            let (run_a, run_b);
            if rep % 2 == 0 {
                run_a = run_unshared(&model, backend.as_ref(), &prompt, gen, block);
                run_b = run_paged(&model, backend.as_ref(), &prompt, shared, gen, block);
            } else {
                run_b = run_paged(&model, backend.as_ref(), &prompt, shared, gen, block);
                run_a = run_unshared(&model, backend.as_ref(), &prompt, gen, block);
            }
            let (us, unshared_last, ub) = run_a;
            let (ps, paged_last, pb) = run_b;
            // Sharing must be pure data movement: the shared-prefix run
            // ends on the same bits as the recompute-everything run.
            let diffs = unshared_last
                .as_slice()
                .iter()
                .zip(paged_last.as_slice())
                .filter(|(x, y)| x.to_bits() != y.to_bits())
                .count();
            assert_eq!(
                diffs, 0,
                "kv_paged/{label}: shared run diverged from unshared"
            );
            unshared_s = unshared_s.min(us);
            paged_s = paged_s.min(ps);
            unshared_bytes = ub;
            paged_bytes = pb;
        }
        let unshared_tps = served_tokens / unshared_s.max(1e-12);
        let paged_tps = served_tokens / paged_s.max(1e-12);
        let tps_ratio = paged_tps / unshared_tps.max(1e-12);
        let bytes_ratio = unshared_bytes as f64 / (paged_bytes as f64).max(1.0);
        println!(
            "kv_paged/{label}: unshared {unshared_tps:>9.1} tok/s / {unshared_bytes} B, \
             paged {paged_tps:>9.1} tok/s / {paged_bytes} B, \
             bytes ratio {bytes_ratio:.2}x, tps ratio {tps_ratio:.2}x"
        );
        if default_run {
            assert!(
                bytes_ratio >= 2.0,
                "kv_paged/{label}: shared cache used more than 0.5x the unshared \
                 bytes ({bytes_ratio:.2}x reduction, floor 2x)"
            );
            assert!(
                tps_ratio >= 0.95,
                "kv_paged/{label}: shared throughput {tps_ratio:.2}x of unshared, \
                 below the 0.95x floor"
            );
        }
        records.push(Json::Obj(vec![
            ("backend".into(), Json::Str((*label).into())),
            ("mode".into(), Json::Str("shared_prefix".into())),
            ("batch".into(), Json::Int(batch as u64)),
            ("prompt".into(), Json::Int(prompt_len as u64)),
            ("shared".into(), Json::Int(shared as u64)),
            ("block".into(), Json::Int(block as u64)),
            ("unshared_s".into(), Json::Num(unshared_s)),
            ("paged_s".into(), Json::Num(paged_s)),
            // Num, not Int: byte footprints are measurements — keeping
            // them out of the record identity lets allocation-pattern
            // changes gate on the ratio instead of "missing record".
            ("unshared_bytes".into(), Json::Num(unshared_bytes as f64)),
            ("paged_bytes".into(), Json::Num(paged_bytes as f64)),
            ("unshared_tokens_per_s".into(), Json::Num(unshared_tps)),
            ("paged_tokens_per_s".into(), Json::Num(paged_tps)),
            (
                "unshared_bytes_over_paged_bytes".into(),
                Json::Num(bytes_ratio),
            ),
            ("paged_tps_over_unshared".into(), Json::Num(tps_ratio)),
        ]));
    }

    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("kv_paged".into())),
        ("hidden".into(), Json::Int(hidden as u64)),
        ("layers".into(), Json::Int(layers as u64)),
        ("heads".into(), Json::Int(heads as u64)),
        ("generated".into(), Json::Int(gen as u64)),
        ("reps".into(), Json::Int(reps as u64)),
        ("results".into(), Json::Arr(records)),
    ]);
    let path = out_path(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kv.json"));
    std::fs::write(&path, doc.render() + "\n").expect("write bench json");
    println!("kv_paged: wrote {path}");
}
