//! Seeded randomized battery for the paged KV allocator
//! (`pdac_nn::paged`): long alloc/free/share/CoW interleavings checked
//! against shadow models. Deterministic (SplitMix64 throughout); enable
//! the `slow-proptests` feature for the extended step counts.
//!
//! Invariants under test:
//! * no page is simultaneously on the free list and mapped;
//! * every page's refcount equals the number of mappings (slot page
//!   tables + prefix-cache entries) pointing at it;
//! * the byte budget bounds backing growth (`try_alloc` never exceeds
//!   it; over-budget fallbacks are exactly counted);
//! * copy-on-write never mutates a shared page — every slot's K/V rows
//!   stay bit-identical to its shadow history through arbitrary
//!   fork/divergence interleavings;
//! * evict-then-recompute reproduces the evicted K/V bits exactly.

use std::collections::HashMap;

use pdac_math::rng::SplitMix64;
use pdac_math::Mat;
use pdac_nn::{
    prefix_block_hashes, DecodeScratch, ExactGemm, PageAllocator, PageId, PagedConfig,
    PagedKvCache, TransformerConfig, TransformerModel,
};

const ALLOC_STEPS: usize = if cfg!(feature = "slow-proptests") {
    60_000
} else {
    12_000
};
const CACHE_STEPS: usize = if cfg!(feature = "slow-proptests") {
    20_000
} else {
    4_000
};

/// Allocator-only stress: random try_alloc / retain / release against a
/// shadow refcount map, with the free list and the budget checked every
/// step.
#[test]
fn allocator_stress_refcounts_and_budget() {
    for seed in [1u64, 2, 3] {
        let mut rng = SplitMix64::seed_from_u64(0xA110C + seed);
        let budget_pages = 24usize;
        let width = 4;
        let block = 2;
        let page_bytes = 2 * block * width * 8;
        let mut alloc = PageAllocator::new(width, block, Some(budget_pages * page_bytes));
        // Shadow: the refcount we believe each live page has.
        let mut shadow: HashMap<PageId, u32> = HashMap::new();
        let mut denied = 0usize;
        for step in 0..ALLOC_STEPS {
            match rng.gen_range_usize(0, 10) {
                // Allocate (budget-respecting).
                0..=3 => match alloc.try_alloc() {
                    Some(id) => {
                        assert_eq!(
                            shadow.insert(id, 1),
                            None,
                            "step {step}: allocator handed out a mapped page {id:?}"
                        );
                    }
                    None => {
                        denied += 1;
                        assert_eq!(
                            alloc.free_pages(),
                            0,
                            "step {step}: denied while free pages remain"
                        );
                        assert!(
                            (alloc.total_pages() + 1) * page_bytes > budget_pages * page_bytes,
                            "step {step}: denied below budget"
                        );
                    }
                },
                // Add a mapping to a random live page.
                4..=5 => {
                    if let Some((&id, _)) = pick(&shadow, &mut rng) {
                        alloc.retain(id);
                        *shadow.get_mut(&id).unwrap() += 1;
                    }
                }
                // Drop a mapping from a random live page.
                _ => {
                    if let Some((&id, _)) = pick(&shadow, &mut rng) {
                        let freed = alloc.release(id);
                        let refs = shadow.get_mut(&id).unwrap();
                        *refs -= 1;
                        assert_eq!(freed, *refs == 0, "step {step}: free-transition mismatch");
                        if *refs == 0 {
                            shadow.remove(&id);
                        }
                    }
                }
            }
            // Budget is a hard bound on backing growth for try_alloc.
            assert!(
                alloc.backing_bytes() <= budget_pages * page_bytes,
                "step {step}: budget exceeded"
            );
            // Refcounts match the shadow exactly.
            for (&id, &refs) in &shadow {
                assert_eq!(alloc.refs(id), refs, "step {step}: refcount drift {id:?}");
            }
            // Free list: disjoint from the mapped set, no duplicates,
            // and together they tile the slab.
            let free = alloc.free_ids();
            let mut sorted = free.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), free.len(), "step {step}: duplicate free id");
            for id in &free {
                assert!(
                    !shadow.contains_key(id),
                    "step {step}: page {id:?} free and mapped"
                );
                assert_eq!(alloc.refs(*id), 0, "step {step}: free page with refs");
            }
            assert_eq!(free.len() + shadow.len(), alloc.total_pages());
            assert_eq!(alloc.live_pages(), shadow.len());
        }
        assert!(denied > 0, "seed {seed}: budget pressure never exercised");
    }
}

fn pick<'a>(map: &'a HashMap<PageId, u32>, rng: &mut SplitMix64) -> Option<(&'a PageId, &'a u32)> {
    if map.is_empty() {
        return None;
    }
    let n = rng.gen_range_usize(0, map.len() - 1);
    map.iter().nth(n)
}

/// Per-slot shadow of what the cache must contain: one (K, V) row pair
/// per token per layer.
type ShadowRows = Vec<Vec<(Vec<f64>, Vec<f64>)>>; // [layer][token]

fn fresh_row(width: usize, rng: &mut SplitMix64) -> Vec<f64> {
    (0..width).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect()
}

/// Cache-level stress: push/reset/fork/publish/lookup interleavings with
/// full shadow-data verification — any CoW that mutated a shared page,
/// any eviction that freed a still-mapped page, or any refcount drift
/// shows up as a bit mismatch or an accounting failure.
#[test]
fn cache_stress_cow_prefix_and_accounting() {
    const LAYERS: usize = 2;
    const WIDTH: usize = 4;
    const BLOCK: usize = 2;
    const SLOTS: usize = 4;
    for seed in [11u64, 12] {
        let mut rng = SplitMix64::seed_from_u64(0xCAC4E + seed);
        let page_bytes = 2 * BLOCK * WIDTH * 8;
        let budget_pages = 40usize;
        let mut cache = PagedKvCache::with_dims(
            LAYERS,
            WIDTH,
            SLOTS,
            PagedConfig::new(BLOCK).with_budget_bytes(budget_pages * page_bytes),
        );
        let mut shadow: Vec<ShadowRows> = vec![vec![Vec::new(); LAYERS]; SLOTS];
        // Hash → the shadow rows the published prefix must reproduce.
        let mut published: HashMap<u64, ShadowRows> = HashMap::new();
        // The "token history" a slot's prefix hashes are derived from:
        // its layer-0 K rows (content-derived, so forked slots agree).
        let hashes_of = |rows: &ShadowRows| -> Vec<u64> {
            let toks: Vec<&[f64]> = rows[0].iter().map(|(k, _)| k.as_slice()).collect();
            prefix_block_hashes(toks, BLOCK)
        };
        for step in 0..CACHE_STEPS {
            match rng.gen_range_usize(0, 12) {
                // Push one token (all layers) into a random slot.
                0..=5 => {
                    let slot = rng.gen_range_usize(0, SLOTS - 1);
                    for (layer, rows) in shadow[slot].iter_mut().enumerate() {
                        let k = fresh_row(WIDTH, &mut rng);
                        let v = fresh_row(WIDTH, &mut rng);
                        cache.push_row(slot, layer, &k, &v);
                        rows.push((k, v));
                    }
                }
                // Retire a random slot.
                6 => {
                    let slot = rng.gen_range_usize(0, SLOTS - 1);
                    cache.reset_slot(slot);
                    for layer in &mut shadow[slot] {
                        layer.clear();
                    }
                }
                // Fork a non-empty slot onto an empty one.
                7..=8 => {
                    let src = rng.gen_range_usize(0, SLOTS - 1);
                    let dst = rng.gen_range_usize(0, SLOTS - 1);
                    if src != dst && !shadow[src][0].is_empty() && shadow[dst][0].is_empty() {
                        cache.fork_slot(dst, src);
                        shadow[dst] = shadow[src].clone();
                    }
                }
                // Publish a slot's full-block prefixes.
                9..=10 => {
                    let slot = rng.gen_range_usize(0, SLOTS - 1);
                    if shadow[slot][0].len() >= BLOCK {
                        let hashes = hashes_of(&shadow[slot]);
                        cache.publish_prefix(slot, &hashes);
                        for (i, &h) in hashes.iter().enumerate() {
                            let tokens = (i + 1) * BLOCK;
                            let entry: ShadowRows = shadow[slot]
                                .iter()
                                .map(|layer| layer[..tokens].to_vec())
                                .collect();
                            published.insert(h, entry);
                        }
                    }
                }
                // Map a published prefix into an empty slot.
                _ => {
                    let slot = rng.gen_range_usize(0, SLOTS - 1);
                    if shadow[slot][0].is_empty() && !published.is_empty() {
                        let n = rng.gen_range_usize(0, published.len() - 1);
                        let hash = *published.keys().nth(n).unwrap();
                        let shared = cache.lookup_prefix(slot, &[hash]);
                        if shared > 0 {
                            let entry = &published[&hash];
                            assert_eq!(shared, entry[0].len(), "step {step}: share depth");
                            shadow[slot] = entry.clone();
                        }
                        // shared == 0 ⇒ the entry was evicted meanwhile;
                        // the slot stays empty — nothing to verify.
                    }
                }
            }
            if step % 50 == 0 || step + 1 == CACHE_STEPS {
                verify_cache(&cache, &shadow, step);
                let budget = budget_pages * page_bytes;
                let overflow = cache.stats().over_budget_pages as usize * page_bytes;
                assert!(
                    cache.allocator().backing_bytes() <= budget + overflow,
                    "step {step}: uncounted budget overflow"
                );
            }
        }
        let stats = cache.stats();
        assert!(stats.cow_copies > 0, "seed {seed}: CoW never exercised");
        assert!(
            stats.shared_hits > 0,
            "seed {seed}: sharing never exercised"
        );
    }
}

/// Full accounting + data check: refcount multiset equality, free-list
/// disjointness, and bit-exact K/V rows per slot.
fn verify_cache(cache: &PagedKvCache, shadow: &[ShadowRows], step: usize) {
    // Refcounts equal mapping multiplicity (slots + prefix entries).
    let mut counts: HashMap<PageId, u32> = HashMap::new();
    for id in cache.mapped_page_ids() {
        *counts.entry(id).or_default() += 1;
    }
    for (&id, &c) in &counts {
        assert_eq!(
            cache.allocator().refs(id),
            c,
            "step {step}: refcount != mapping multiplicity for {id:?}"
        );
    }
    assert_eq!(
        cache.allocator().live_pages(),
        counts.len(),
        "step {step}: live pages != distinct mapped pages"
    );
    // Free list disjoint from every mapping.
    for id in cache.allocator().free_ids() {
        assert!(
            !counts.contains_key(&id),
            "step {step}: page {id:?} free and mapped"
        );
    }
    // Every slot's rows are bit-identical to its shadow — shared pages
    // were never mutated by another slot's divergence.
    for (slot, rows) in shadow.iter().enumerate() {
        assert_eq!(
            cache.seq_len(slot),
            rows[0].len(),
            "step {step} slot {slot}"
        );
        for (layer, layer_rows) in rows.iter().enumerate() {
            for (t, (k, v)) in layer_rows.iter().enumerate() {
                assert_eq!(
                    cache.k_row(slot, layer, t),
                    &k[..],
                    "step {step}: slot {slot} layer {layer} token {t} K drifted"
                );
                assert_eq!(
                    cache.v_row(slot, layer, t),
                    &v[..],
                    "step {step}: slot {slot} layer {layer} token {t} V drifted"
                );
            }
        }
    }
}

fn tiny() -> TransformerModel {
    TransformerModel::random(TransformerConfig::tiny(), 4, 23)
}

fn prompt_rows(model: &TransformerModel, len: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            (0..model.config().hidden)
                .map(|_| rng.gen_range_f64(-1.0, 1.0))
                .collect()
        })
        .collect()
}

fn decode_prompt(
    model: &TransformerModel,
    cache: &mut PagedKvCache,
    slot: usize,
    prompt: &[Vec<f64>],
    scratch: &mut DecodeScratch,
) {
    let mut out = Mat::zeros(1, 1);
    let start = cache.seq_len(slot);
    for tok in &prompt[start..] {
        let tokens = Mat::from_rows(1, tok.len(), tok.clone()).expect("token row");
        model.decode_batch_with(&tokens, cache, &[slot], &ExactGemm, scratch, &mut out);
    }
}

/// Snapshot of every K/V bit a slot holds.
fn kv_bits(cache: &PagedKvCache, slot: usize) -> Vec<Vec<(Vec<u64>, Vec<u64>)>> {
    (0..cache.layer_count())
        .map(|layer| {
            (0..cache.seq_len(slot))
                .map(|t| {
                    (
                        cache
                            .k_row(slot, layer, t)
                            .iter()
                            .map(|v| v.to_bits())
                            .collect(),
                        cache
                            .v_row(slot, layer, t)
                            .iter()
                            .map(|v| v.to_bits())
                            .collect(),
                    )
                })
                .collect()
        })
        .collect()
}

/// Evict-then-recompute determinism: a published prefix forced out by
/// budget pressure and recomputed from the same tokens reproduces the
/// evicted K/V bits exactly (decode is deterministic, so eviction is
/// safe to treat as "recompute later").
#[test]
fn evict_then_recompute_reproduces_bits() {
    let m = tiny();
    let layers = m.config().layers;
    let block = 2;
    let prompt_len = 4;
    let page_bytes = 2 * block * m.config().hidden * 8;
    // Budget: exactly the pages of one fully-cached prompt.
    let budget = layers * (prompt_len / block) * page_bytes;
    let mut cache = PagedKvCache::new(&m, 1, PagedConfig::new(block).with_budget_bytes(budget));
    let mut scratch = DecodeScratch::new();

    let prompt_a = prompt_rows(&m, prompt_len, 301);
    let hashes_a = prefix_block_hashes(prompt_a.iter().map(Vec::as_slice), block);
    decode_prompt(&m, &mut cache, 0, &prompt_a, &mut scratch);
    let bits_a = kv_bits(&cache, 0);
    cache.publish_prefix(0, &hashes_a);
    cache.reset_slot(0);
    // The prefix entries pin the whole budget.
    assert_eq!(cache.allocator().free_pages(), 0);
    assert_eq!(cache.stats().evicted_pages, 0);

    // A different prompt needs pages → the LRU prefix must be evicted.
    let prompt_b = prompt_rows(&m, prompt_len, 302);
    decode_prompt(&m, &mut cache, 0, &prompt_b, &mut scratch);
    let stats = cache.stats();
    assert!(stats.evicted_pages > 0, "budget pressure did not evict");
    assert_eq!(stats.over_budget_pages, 0, "eviction should have sufficed");
    cache.reset_slot(0);

    // The evicted prefix misses — and recomputing it reproduces every
    // evicted bit.
    assert_eq!(cache.probe_prefix(&hashes_a), 0, "entry survived eviction");
    let shared = cache.lookup_prefix(0, &hashes_a);
    assert_eq!(shared, 0);
    decode_prompt(&m, &mut cache, 0, &prompt_a, &mut scratch);
    assert_eq!(
        kv_bits(&cache, 0),
        bits_a,
        "recompute diverged from evicted bits"
    );
}

/// Releasing a page twice is a hard bug, not a silent refcount skew.
#[test]
#[should_panic(expected = "release of free page")]
fn double_free_panics() {
    let mut alloc = PageAllocator::new(2, 2, None);
    let id = alloc.try_alloc().expect("unbounded alloc");
    alloc.release(id);
    alloc.release(id);
}
