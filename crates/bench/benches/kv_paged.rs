//! Prefix sharing on the paged KV cache: memory footprint and
//! throughput of a shared-prefix decode batch, with and without reuse.
//!
//! The workload is the serving shape that paging exists for, fixed
//! here: [`BATCH`] sequences whose [`PROMPT`]-token prompts share their
//! first [`SHARED`] tokens (75%), on a hidden-64 model with
//! [`BLOCK`]-token pages, for the exact and the 8-bit P-DAC backend.
//! Both sides decode through the same `PagedKvCache` shape. The
//! unshared side decodes every sequence's full prompt and never calls
//! `publish_prefix` / `lookup_prefix`; the paged side computes the
//! shared prefix **once**, publishes it, and maps it into every slot
//! via `lookup_prefix`, then decodes only the divergent tails. Both
//! sides must produce bit-identical final hidden states — asserted
//! every rep. Each side's time is the fastest of [`REPS`] interleaved
//! reps.
//!
//! Emits `BENCH_kv.json` (override with `PDAC_BENCH_OUT`) with two
//! gated ratios per backend, each floor asserted on every run after the
//! document is written:
//!
//! * `unshared_bytes_over_paged_bytes` — backing bytes of the unshared
//!   cache over the prefix-sharing one (page granularity, shared pages
//!   counted once). At least [`BYTES_FLOOR`]: sharing fits in ≤ 0.5×
//!   the unshared footprint.
//! * `paged_tps_over_unshared` — end-to-end decode throughput ratio at
//!   equal serving work. Prefix reuse skips recompute, so this should
//!   sit ≥ 1; the floor is [`TPS_FLOOR`] (within 5% of unshared).

use std::time::Instant;

use pdac_bench::feedback::{decode_feedback, timed_decode};
use pdac_bench::microbench::out_path;
use pdac_core::pdac::PDac;
use pdac_math::rng::SplitMix64;
use pdac_math::Mat;
use pdac_nn::{
    prefix_block_hashes, AnalogGemm, DecodeScratch, ExactGemm, GemmBackend, PagedConfig,
    PagedKvCache, TransformerConfig, TransformerModel,
};
use pdac_telemetry::Json;

/// The measured case's name, carried by every record.
const CASE: &str = "shared_prefix";
const HIDDEN: usize = 64;
const LAYERS: usize = 2;
const HEADS: usize = 4;
const BATCH: usize = 8;
const PROMPT: usize = 32;
/// Prompt positions every sequence shares: whole blocks, leaving a
/// divergent tail.
const SHARED: usize = 24;
/// Tokens generated per sequence.
const GENERATED: usize = 4;
/// Page size in tokens.
const BLOCK: usize = 4;
const REPS: usize = 3;
/// Floor on `unshared_bytes_over_paged_bytes`.
const BYTES_FLOOR: f64 = 2.0;
/// Floor on `paged_tps_over_unshared`.
const TPS_FLOOR: f64 = 0.95;

const _: () = assert!(SHARED < PROMPT && SHARED.is_multiple_of(BLOCK));

/// Per-step token matrices for [`BATCH`] sequences sharing the first
/// [`SHARED`] prompt positions; divergent tails and per-sequence rows
/// are seeded independently.
fn prompt_tokens(seed: u64) -> Vec<Mat> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..PROMPT)
        .map(|t| {
            if t < SHARED {
                let row: Vec<f64> = (0..HIDDEN).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect();
                Mat::from_fn(BATCH, HIDDEN, |_, c| row[c])
            } else {
                Mat::from_fn(BATCH, HIDDEN, |_, _| rng.gen_range_f64(-1.0, 1.0))
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
) -> (f64, Mat, usize) {
    let mut cache = PagedKvCache::new(model, BATCH, PagedConfig::new(BLOCK));
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
    gen: usize,
) -> (f64, Mat, usize) {
    let mut cache = PagedKvCache::new(model, BATCH, PagedConfig::new(BLOCK));
    let mut scratch = DecodeScratch::new();
    let mut got = Mat::zeros(1, 1);
    let shared_rows: Vec<Vec<f64>> = prompt[..SHARED]
        .iter()
        .map(|t| t.row_slice(0).to_vec())
        .collect();
    let hashes = prefix_block_hashes(shared_rows.iter().map(Vec::as_slice), BLOCK);
    let start = Instant::now();
    // Shared prefix: computed once on slot 0, published, remapped.
    for tok in &prompt[..SHARED] {
        let one = Mat::from_fn(1, HIDDEN, |_, c| tok.row_slice(0)[c]);
        model.decode_batch_with(&one, &mut cache, &[0], backend, &mut scratch, &mut got);
    }
    cache.publish_prefix(0, &hashes);
    cache.reset_slot(0);
    for slot in 0..BATCH {
        let mapped = cache.lookup_prefix(slot, &hashes);
        assert_eq!(mapped, SHARED, "published prefix must map fully");
    }
    // Divergent tails + generation, batched across all slots.
    let last = decode_feedback(&prompt[SHARED..], gen, |tokens| {
        model.decode_batch(tokens, &mut cache, backend)
    });
    let elapsed = start.elapsed().as_secs_f64();
    (elapsed, last, cache.allocator().backing_bytes())
}

fn main() {
    let config = TransformerConfig {
        name: "kv-bench".to_string(),
        layers: LAYERS,
        hidden: HIDDEN,
        heads: HEADS,
        ff_mult: 4,
        seq_len: PROMPT + GENERATED,
    };
    let model = TransformerModel::random(config, 4, 42);
    let backends: [(&str, Box<dyn GemmBackend>); 2] = [
        ("exact", Box::new(ExactGemm)),
        (
            "pdac",
            Box::new(AnalogGemm::new(
                PDac::with_optimal_approx(8).expect("8-bit pdac"),
                "pdac-8b",
            )),
        ),
    ];
    let prompt = prompt_tokens(42);
    // Both sides serve the same work: batch × (prompt + generated)
    // tokens of completed sequence state.
    let served_tokens = (BATCH * (PROMPT + GENERATED)) as f64;

    let mut records = Vec::new();
    let mut failures = Vec::new();
    for (label, backend) in &backends {
        let backend = backend.as_ref();
        // Warm pass primes the weight caches out of the timed region.
        let _ = run_unshared(&model, backend, &prompt, 1);
        let _ = run_paged(&model, backend, &prompt, 1);
        let mut unshared_s = f64::INFINITY;
        let mut paged_s = f64::INFINITY;
        let mut unshared_bytes = 0usize;
        let mut paged_bytes = 0usize;
        for rep in 0..REPS {
            let (run_a, run_b);
            if rep % 2 == 0 {
                run_a = run_unshared(&model, backend, &prompt, GENERATED);
                run_b = run_paged(&model, backend, &prompt, GENERATED);
            } else {
                run_b = run_paged(&model, backend, &prompt, GENERATED);
                run_a = run_unshared(&model, backend, &prompt, GENERATED);
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
        if bytes_ratio < BYTES_FLOOR {
            failures.push(format!(
                "kv_paged/{label}: shared cache used more than 0.5x the unshared \
                 bytes ({bytes_ratio:.2}x reduction, floor {BYTES_FLOOR}x)"
            ));
        }
        if tps_ratio < TPS_FLOOR {
            failures.push(format!(
                "kv_paged/{label}: shared throughput {tps_ratio:.2}x of unshared, \
                 below the {TPS_FLOOR}x floor"
            ));
        }
        records.push(Json::Obj(vec![
            ("case".into(), Json::Str(CASE.into())),
            ("backend".into(), Json::Str((*label).into())),
            ("hidden".into(), Json::Int(HIDDEN as u64)),
            ("layers".into(), Json::Int(LAYERS as u64)),
            ("heads".into(), Json::Int(HEADS as u64)),
            ("batch".into(), Json::Int(BATCH as u64)),
            ("prompt".into(), Json::Int(PROMPT as u64)),
            ("shared".into(), Json::Int(SHARED as u64)),
            ("generated".into(), Json::Int(GENERATED as u64)),
            ("block".into(), Json::Int(BLOCK as u64)),
            ("reps".into(), Json::Int(REPS as u64)),
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
        ("results".into(), Json::Arr(records)),
    ]);
    let path = out_path(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kv.json"));
    std::fs::write(&path, doc.render() + "\n").expect("write bench json");
    println!("kv_paged: wrote {path}");
    assert!(failures.is_empty(), "{}", failures.join("; "));
    println!("kv_paged: every floor held");
}
