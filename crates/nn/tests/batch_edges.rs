//! Edge-case coverage for the KV caches and the batched decode engine.
//!
//! Batched decoding runs on slot subsets of one [`PagedKvCache`]; every
//! batched row is checked against solo `decode_step` over a flat
//! [`KvCache`], the reference.

use pdac_math::Mat;
use pdac_nn::{
    prefix_block_hashes, DecodeScratch, ExactGemm, KvCache, PagedConfig, PagedKvCache,
    TransformerConfig, TransformerModel,
};

fn tiny() -> TransformerModel {
    TransformerModel::random(TransformerConfig::tiny(), 4, 11)
}

fn tokens_for(model: &TransformerModel, rows: usize, seed: u64) -> Mat {
    let mut rng = pdac_math::rng::SplitMix64::seed_from_u64(seed);
    Mat::from_fn(rows, model.config().hidden, |_, _| {
        rng.gen_range_f64(-1.0, 1.0)
    })
}

/// `slots` empty sequences at block 2, so a few tokens already span
/// several pages.
fn paged(model: &TransformerModel, slots: usize) -> PagedKvCache {
    PagedKvCache::new(model, slots, PagedConfig::new(2))
}

#[test]
fn decode_runs_past_configured_seq_len() {
    // The KV cache is unbounded: decoding beyond `config.seq_len` keeps
    // appending rows (serving traces routinely outrun the training
    // context in this synthetic setup).
    let m = tiny();
    let seq_len = m.config().seq_len;
    let mut cache = m.new_cache();
    let mut scratch = DecodeScratch::new();
    for t in 0..seq_len + 3 {
        let tok = tokens_for(&m, 1, 100 + t as u64);
        let h = m.decode_step_with(&tok.row(0), &mut cache, &ExactGemm, &mut scratch);
        assert!(h.iter().all(|v| v.is_finite()), "step {t} non-finite");
    }
    assert_eq!(cache.len(), seq_len + 3);
}

#[test]
fn empty_prompt_first_token_attends_to_itself() {
    // Step 0 against an empty cache: the token attends only to itself,
    // so the result equals the one-row causal forward.
    let m = tiny();
    let tok = tokens_for(&m, 1, 5);
    let mut cache = m.new_cache();
    assert!(cache.is_empty());
    let h = m.decode_step(&tok.row(0), &mut cache, &ExactGemm);
    let full = m.forward_causal(&tok, &ExactGemm);
    for (c, v) in h.iter().enumerate() {
        assert!((v - full[(0, c)]).abs() < 1e-9, "dim {c}");
    }
    assert_eq!(cache.len(), 1);
}

#[test]
fn batched_empty_start_matches_sequential() {
    let m = tiny();
    let mut batch = paged(&m, 4);
    let toks = tokens_for(&m, 4, 9);
    let got = m.decode_batch(&toks, &mut batch, &ExactGemm);
    for s in 0..4 {
        let mut cache = m.new_cache();
        let want = m.decode_step(&toks.row(s), &mut cache, &ExactGemm);
        assert_eq!(got.row(s), want, "seq {s}");
    }
}

/// Warms slot `i` of `cache` (and a mirror in `solos[i]`) by `depths[i]`
/// single-slot steps so a subsequent batch starts at exactly those
/// cache lengths.
fn warm_ragged(
    m: &TransformerModel,
    depths: &[usize],
    cache: &mut PagedKvCache,
    solos: &mut [KvCache],
    scratch: &mut DecodeScratch,
) {
    let mut out = Mat::zeros(1, 1);
    for (i, &depth) in depths.iter().enumerate() {
        for t in 0..depth {
            let tok = tokens_for(m, 1, (i * 53 + t) as u64);
            m.decode_batch_with(&tok, cache, &[i], &ExactGemm, scratch, &mut out);
            let _ = m.decode_step(&tok.row(0), &mut solos[i], &ExactGemm);
        }
    }
}

/// One batched step over `slots`, asserted row-by-row against solo
/// `decode_step` on each slot's mirror in `solos`.
fn step_and_compare(
    m: &TransformerModel,
    cache: &mut PagedKvCache,
    slots: &[usize],
    solos: &mut [KvCache],
    scratch: &mut DecodeScratch,
    seed: u64,
) {
    let toks = tokens_for(m, slots.len(), seed);
    let mut out = Mat::zeros(1, 1);
    m.decode_batch_with(&toks, cache, slots, &ExactGemm, scratch, &mut out);
    for (i, &slot) in slots.iter().enumerate() {
        let want = m.decode_step(&toks.row(i), &mut solos[slot], &ExactGemm);
        assert_eq!(out.row(i), want, "slot {slot}");
    }
}

/// A paged cache plus solo mirrors warmed to `depths`.
fn warmed(
    m: &TransformerModel,
    depths: &[usize],
    scratch: &mut DecodeScratch,
) -> (PagedKvCache, Vec<KvCache>) {
    let mut cache = paged(m, depths.len());
    let mut solos: Vec<KvCache> = depths.iter().map(|_| m.new_cache()).collect();
    warm_ragged(m, depths, &mut cache, &mut solos, scratch);
    (cache, solos)
}

#[test]
fn ragged_batch_positions_stay_independent() {
    // Three sequences at positions 0, 2 and 5 advanced together match
    // their isolated counterparts bit-for-bit, and only their own
    // slots grow.
    let m = tiny();
    let depths = [0usize, 2, 5];
    let mut scratch = DecodeScratch::new();
    let (mut cache, mut solos) = warmed(&m, &depths, &mut scratch);
    step_and_compare(&m, &mut cache, &[0, 1, 2], &mut solos, &mut scratch, 77);
    for (i, &depth) in depths.iter().enumerate() {
        assert_eq!(cache.seq_len(i), depth + 1);
    }
}

#[test]
fn scratch_survives_batch_size_changes() {
    // Shrinking then regrowing the live batch (continuous batching
    // admission/retirement) keeps results correct with one scratch.
    let m = tiny();
    let mut cache = paged(&m, 3);
    let mut solos: Vec<KvCache> = (0..3).map(|_| m.new_cache()).collect();
    let mut scratch = DecodeScratch::new();
    step_and_compare(&m, &mut cache, &[0, 1, 2], &mut solos, &mut scratch, 1);
    step_and_compare(&m, &mut cache, &[1], &mut solos, &mut scratch, 2);
    step_and_compare(&m, &mut cache, &[0, 2], &mut solos, &mut scratch, 3);
    assert_eq!(
        (cache.seq_len(0), cache.seq_len(1), cache.seq_len(2)),
        (2, 2, 2)
    );
    // Steps 2 and 3 fit inside step 1's buffers.
    assert_eq!(scratch.reuses(), 2);
}

#[test]
fn all_equal_lengths_decode_as_one_slot_group() {
    // Every slot at the same depth: the attention phase collapses to a
    // single slot-group spanning the whole batch.
    let m = tiny();
    let mut scratch = DecodeScratch::new();
    let (mut cache, mut solos) = warmed(&m, &[3; 4], &mut scratch);
    step_and_compare(&m, &mut cache, &[0, 1, 2, 3], &mut solos, &mut scratch, 21);
    assert!((0..4).all(|i| cache.seq_len(i) == 4));
}

#[test]
fn all_distinct_lengths_decode_as_s_slot_groups() {
    // Every slot at a different depth: S sequences, S slot-groups of
    // one — the degenerate grouping where nothing is shared.
    let m = tiny();
    let depths = [0usize, 1, 2, 3];
    let mut scratch = DecodeScratch::new();
    let (mut cache, mut solos) = warmed(&m, &depths, &mut scratch);
    // Two steps: depths stay pairwise distinct, so the grouping stays
    // fully fragmented both times.
    step_and_compare(&m, &mut cache, &[0, 1, 2, 3], &mut solos, &mut scratch, 22);
    step_and_compare(&m, &mut cache, &[0, 1, 2, 3], &mut solos, &mut scratch, 23);
    for (i, &depth) in depths.iter().enumerate() {
        assert_eq!(cache.seq_len(i), depth + 2);
    }
}

#[test]
fn group_membership_tracks_retiring_sequences() {
    // Continuous batching: sequences leave the batch mid-run, so the
    // same slot lands in differently shaped slot-groups step to step.
    let m = tiny();
    let mut scratch = DecodeScratch::new();
    let (mut cache, mut solos) = warmed(&m, &[2, 2, 1, 2], &mut scratch);
    // Step 1, full batch: groups {2} and {0, 1, 3}.
    step_and_compare(&m, &mut cache, &[0, 1, 2, 3], &mut solos, &mut scratch, 31);
    // Slots 1 and 3 retire. Step 2: groups {2} and {0} — the survivor
    // of the big group now shares with nobody.
    step_and_compare(&m, &mut cache, &[2, 0], &mut solos, &mut scratch, 32);
    // Slot 2 catches up to slot 0's depth. Step 3: one group.
    step_and_compare(&m, &mut cache, &[2], &mut solos, &mut scratch, 33);
    assert_eq!(cache.seq_len(2), cache.seq_len(0));
    step_and_compare(&m, &mut cache, &[2, 0], &mut solos, &mut scratch, 34);
}

#[test]
fn prime_head_dim_grouped_attention_matches_sequential() {
    // hidden 28 / 4 heads gives head dim 7 — a prime that defeats any
    // accidental power-of-two assumptions in the gather strides or the
    // grouped-GEMM chunking.
    let m = TransformerModel::random(
        TransformerConfig {
            name: "prime-dh".into(),
            layers: 2,
            hidden: 28,
            heads: 4,
            ff_mult: 4,
            seq_len: 8,
        },
        4,
        19,
    );
    let mut scratch = DecodeScratch::new();
    let (mut cache, mut solos) = warmed(&m, &[0, 2, 2, 5], &mut scratch);
    step_and_compare(&m, &mut cache, &[0, 1, 2, 3], &mut solos, &mut scratch, 41);
    step_and_compare(&m, &mut cache, &[0, 1, 2, 3], &mut solos, &mut scratch, 42);
}

#[test]
#[should_panic(expected = "cache layer mismatch")]
fn mismatched_cache_layer_count_rejected() {
    let m = tiny();
    let other = TransformerModel::random(
        TransformerConfig {
            layers: m.config().layers + 1,
            ..m.config().clone()
        },
        4,
        3,
    );
    let mut wrong = other.new_cache();
    let tok = tokens_for(&m, 1, 1);
    m.decode_step(&tok.row(0), &mut wrong, &ExactGemm);
}

#[test]
#[should_panic(expected = "batch size mismatch")]
fn batch_width_mismatch_rejected() {
    let m = tiny();
    let mut batch = paged(&m, 3);
    let toks = tokens_for(&m, 2, 4);
    m.decode_batch(&toks, &mut batch, &ExactGemm);
}

#[test]
#[should_panic(expected = "batch must be nonzero")]
fn zero_batch_rejected() {
    let m = tiny();
    let _ = paged(&m, 0);
}

// ---- prefix sharing, eviction and retirement ----------------------------

fn prompt_list(model: &TransformerModel, len: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = pdac_math::rng::SplitMix64::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            (0..model.config().hidden)
                .map(|_| rng.gen_range_f64(-1.0, 1.0))
                .collect()
        })
        .collect()
}

/// Feeds `prompt[cache.seq_len(slot)..]` one token at a time through the
/// paged engine; returns the last hidden row.
fn decode_prompt_paged(
    model: &TransformerModel,
    cache: &mut PagedKvCache,
    slot: usize,
    prompt: &[Vec<f64>],
    scratch: &mut DecodeScratch,
) -> Vec<f64> {
    let mut out = Mat::zeros(1, 1);
    for tok in &prompt[cache.seq_len(slot)..] {
        let tokens = Mat::from_rows(1, tok.len(), tok.clone()).expect("token row");
        model.decode_batch_with(&tokens, cache, &[slot], &ExactGemm, scratch, &mut out);
    }
    out.row(0)
}

/// The same prompt through a solo flat cache (the bit-identity oracle).
fn decode_prompt_solo(
    model: &TransformerModel,
    cache: &mut KvCache,
    prompt: &[Vec<f64>],
) -> Vec<f64> {
    let mut last = Vec::new();
    for tok in &prompt[cache.len()..] {
        last = model.decode_step(tok, cache, &ExactGemm);
    }
    last
}

#[test]
fn paged_prompt_shorter_than_one_block() {
    // Block 8, prompt 3: no block boundary is ever reached, so nothing
    // publishes and nothing shares — and decode still matches solo.
    let m = tiny();
    let mut cache = PagedKvCache::new(&m, 1, PagedConfig::new(8));
    let mut scratch = DecodeScratch::new();
    let prompt = prompt_list(&m, 3, 61);
    let got = decode_prompt_paged(&m, &mut cache, 0, &prompt, &mut scratch);
    let mut solo = m.new_cache();
    let want = decode_prompt_solo(&m, &mut solo, &prompt);
    assert_eq!(got, want);
    let hashes = prefix_block_hashes(prompt.iter().map(Vec::as_slice), 8);
    assert!(hashes.is_empty(), "no full block to hash");
    cache.publish_prefix(0, &hashes);
    assert_eq!(cache.stats().prefix_entries, 0);
    // One (partial) page per layer.
    assert_eq!(cache.stats().live_pages, m.config().layers);
}

#[test]
fn paged_prompt_exactly_block_aligned_shares_fully() {
    // Block 2, prompt 4: the whole prompt is shareable; a second slot
    // maps it and continues bit-identically to a solo decode.
    let m = tiny();
    let mut cache = PagedKvCache::new(&m, 2, PagedConfig::new(2));
    let mut scratch = DecodeScratch::new();
    let prompt = prompt_list(&m, 4, 62);
    let hashes = prefix_block_hashes(prompt.iter().map(Vec::as_slice), 2);
    let _ = decode_prompt_paged(&m, &mut cache, 0, &prompt, &mut scratch);
    cache.publish_prefix(0, &hashes);
    let shared = cache.lookup_prefix(1, &hashes);
    assert_eq!(shared, 4, "block-aligned prompt shares fully");
    // Slot 1 skips the whole prompt and decodes one fresh token.
    let next = prompt_list(&m, 1, 63);
    let got = decode_prompt_paged(
        &m,
        &mut cache,
        1,
        &[prompt.clone(), next.clone()].concat(),
        &mut scratch,
    );
    let mut solo = m.new_cache();
    let want = decode_prompt_solo(&m, &mut solo, &[prompt, next].concat());
    assert_eq!(got, want, "shared-prefix continuation diverged from solo");
    assert!(cache.stats().shared_tokens >= 4);
}

#[test]
fn paged_retirement_mid_prefix_share() {
    // The publisher retires while another slot still shares its prefix:
    // the sharer keeps decoding bit-identically, and only the
    // publisher's exclusive tail page is freed.
    let m = tiny();
    let layers = m.config().layers;
    let mut cache = PagedKvCache::new(&m, 2, PagedConfig::new(2));
    let mut scratch = DecodeScratch::new();
    // 5 tokens at block 2: boundaries at 2 and 4, partial tail page.
    let prompt = prompt_list(&m, 5, 64);
    let hashes = prefix_block_hashes(prompt.iter().map(Vec::as_slice), 2);
    let _ = decode_prompt_paged(&m, &mut cache, 0, &prompt, &mut scratch);
    cache.publish_prefix(0, &hashes);
    let shared = cache.lookup_prefix(1, &hashes);
    assert_eq!(shared, 4);
    let free_before = cache.allocator().free_pages();
    cache.reset_slot(0); // publisher retires mid-share
                         // Shared full pages survive (prefix + slot 1 mappings); only the
                         // partial tail page per layer returns to the free list.
    assert_eq!(cache.allocator().free_pages(), free_before + layers);
    assert_eq!(cache.seq_len(1), 4);
    let tail = prompt_list(&m, 2, 65);
    let full: Vec<Vec<f64>> = prompt[..4].iter().cloned().chain(tail).collect();
    let got = decode_prompt_paged(&m, &mut cache, 1, &full, &mut scratch);
    let mut solo = m.new_cache();
    let want = decode_prompt_solo(&m, &mut solo, &full);
    assert_eq!(got, want, "sharer diverged after publisher retirement");
}

#[test]
fn paged_eviction_under_one_block_budget() {
    // Block 1, budget = one token's pages (`layers`): caching a second
    // distinct token forces the published prefix out, and decode stays
    // bit-identical through eviction — then through the over-budget
    // fallback once nothing evictable remains.
    let m = tiny();
    let layers = m.config().layers;
    let page_bytes = 2 * m.config().hidden * 8;
    let mut cache = PagedKvCache::new(
        &m,
        1,
        PagedConfig::new(1).with_budget_bytes(layers * page_bytes),
    );
    let mut scratch = DecodeScratch::new();
    let a = prompt_list(&m, 1, 66);
    let hashes_a = prefix_block_hashes(a.iter().map(Vec::as_slice), 1);
    let _ = decode_prompt_paged(&m, &mut cache, 0, &a, &mut scratch);
    cache.publish_prefix(0, &hashes_a);
    cache.reset_slot(0);
    assert_eq!(cache.allocator().free_pages(), 0, "prefix pins the budget");

    let b = prompt_list(&m, 1, 67);
    let got = decode_prompt_paged(&m, &mut cache, 0, &b, &mut scratch);
    let mut solo = m.new_cache();
    let want = decode_prompt_solo(&m, &mut solo, &b);
    assert_eq!(got, want, "decode diverged across eviction");
    assert_eq!(cache.stats().evicted_pages, layers as u64);
    assert_eq!(
        cache.probe_prefix(&hashes_a),
        0,
        "entry gone after eviction"
    );
    assert_eq!(cache.stats().over_budget_pages, 0);

    // Second token for the same slot: budget exhausted, nothing left to
    // evict → counted over-budget growth, decode still bit-identical.
    let b2: Vec<Vec<f64>> = b.iter().cloned().chain(prompt_list(&m, 1, 68)).collect();
    let got2 = decode_prompt_paged(&m, &mut cache, 0, &b2, &mut scratch);
    let want2 = decode_prompt_solo(&m, &mut solo, &b2);
    assert_eq!(got2, want2, "decode diverged across over-budget growth");
    assert_eq!(cache.stats().over_budget_pages, layers as u64);
}

#[test]
fn paged_reset_slot_returns_pages_to_free_list() {
    let m = tiny();
    let mut cache = PagedKvCache::new(&m, 1, PagedConfig::new(2));
    let mut scratch = DecodeScratch::new();
    let prompt = prompt_list(&m, 5, 69);
    let _ = decode_prompt_paged(&m, &mut cache, 0, &prompt, &mut scratch);
    let total = cache.allocator().total_pages();
    assert!(total > 0);
    assert_eq!(cache.stats().live_pages, total);
    cache.reset_slot(0);
    assert_eq!(cache.stats().live_pages, 0);
    assert_eq!(cache.allocator().free_pages(), total, "all pages recycled");
    // The recycled pages are reused, not re-grown.
    let _ = decode_prompt_paged(&m, &mut cache, 0, &prompt, &mut scratch);
    assert_eq!(cache.allocator().total_pages(), total);
}
