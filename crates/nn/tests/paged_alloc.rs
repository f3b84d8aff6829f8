//! Seeded randomized battery for the paged KV allocator
//! (`pdac_nn::paged`): long alloc/free/share interleavings checked
//! against shadow models, plus one scripted eviction sequence pinned
//! step by step. Deterministic (SplitMix64 throughout); enable the
//! `slow-proptests` feature for the extended step counts.
//!
//! Invariants under test:
//! * no page is simultaneously on the free list and mapped;
//! * every page's refcount equals the number of mappings (slot page
//!   tables + prefix-cache entries) pointing at it;
//! * the byte budget bounds backing growth (`try_alloc` never exceeds
//!   it; over-budget fallbacks are exactly counted);
//! * a request admitted by `can_fit` maps its prefix and pushes its
//!   fresh tokens without growing the cache past its budget;
//! * a slot's divergence never mutates a shared page — every slot's K/V
//!   rows stay bit-identical to its shadow history through arbitrary
//!   publish/lookup/divergence interleavings;
//! * evict-then-recompute reproduces the evicted K/V bits exactly;
//! * eviction order, probes, `can_fit` and `KvStats` follow a recorded
//!   golden script.

use std::collections::HashMap;

use pdac_math::rng::SplitMix64;
use pdac_math::Mat;
use pdac_nn::{
    prefix_block_hashes, DecodeScratch, ExactGemm, KvStats, PageAllocator, PageId, PagedConfig,
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

/// Cache-level stress: push/reset/publish/lookup interleavings with
/// full shadow-data verification — any push that mutated a shared page,
/// any eviction that freed a still-mapped page, or any refcount drift
/// shows up as a bit mismatch or an accounting failure.
#[test]
fn cache_stress_prefix_sharing_and_accounting() {
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
        // Admissions `can_fit` accepted whose pushes evicted a prefix.
        let mut fits_by_eviction = 0u32;
        // Hash → the hash chain up to that block and the shadow rows the
        // published prefix must reproduce.
        let mut published: HashMap<u64, (Vec<u64>, ShadowRows)> = HashMap::new();
        // The "token history" a slot's prefix hashes are derived from:
        // its layer-0 K rows (content-derived, so a sharer's hashes
        // agree with the publisher's).
        let hashes_of = |rows: &ShadowRows| -> Vec<u64> {
            let toks: Vec<&[f64]> = rows[0].iter().map(|(k, _)| k.as_slice()).collect();
            prefix_block_hashes(toks, BLOCK)
        };
        for step in 0..CACHE_STEPS {
            match rng.gen_range_usize(0, 10) {
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
                // Publish a slot's full-block prefixes.
                7..=8 => {
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
                            published.insert(h, (hashes[..=i].to_vec(), entry));
                        }
                    }
                }
                // Admit into an empty slot: map a published prefix, then
                // push fresh tokens. Pushes that `can_fit` accepted must
                // not grow the cache past its budget.
                _ => {
                    let slot = rng.gen_range_usize(0, SLOTS - 1);
                    if shadow[slot][0].is_empty() && !published.is_empty() {
                        let n = rng.gen_range_usize(0, published.len() - 1);
                        let (chain, rows) = published.values().nth(n).unwrap();
                        // The most fresh tokens `can_fit` admits.
                        let fresh = (0..=budget_pages * BLOCK / LAYERS)
                            .rev()
                            .find(|&t| cache.can_fit(chain, t))
                            .expect("no tokens always fit");
                        let before = cache.stats();
                        let probed = cache.probe_prefix(chain);
                        let shared = cache.lookup_prefix(slot, chain);
                        // Evicted blocks shorten the share from the end:
                        // what is left is a whole-block head of the prefix.
                        assert_eq!(shared, probed, "step {step}: lookup depth != probe");
                        assert!(
                            shared <= rows[0].len() && shared.is_multiple_of(BLOCK),
                            "step {step}: share depth {shared}"
                        );
                        shadow[slot] = rows.iter().map(|layer| layer[..shared].to_vec()).collect();
                        for _ in 0..fresh {
                            for (layer, rows) in shadow[slot].iter_mut().enumerate() {
                                let k = fresh_row(WIDTH, &mut rng);
                                let v = fresh_row(WIDTH, &mut rng);
                                cache.push_row(slot, layer, &k, &v);
                                rows.push((k, v));
                            }
                        }
                        let after = cache.stats();
                        assert_eq!(
                            after.over_budget_pages, before.over_budget_pages,
                            "step {step}: can_fit admitted {fresh} tokens past the budget"
                        );
                        fits_by_eviction += u32::from(after.evicted_pages > before.evicted_pages);
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
        assert!(
            stats.shared_hits > 0,
            "seed {seed}: sharing never exercised"
        );
        assert!(
            fits_by_eviction > 0,
            "seed {seed}: no admitted request needed eviction"
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

/// One step of the scripted eviction sequence.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push the slot's next token of the prompt (every layer).
    Push(usize, usize),
    /// Publish the slot's full blocks under the prompt's hashes.
    Publish(usize, usize),
    /// Map the prompt's published prefix into the empty slot.
    Lookup(usize, usize),
    /// Retire the slot.
    Reset(usize),
}

/// A golden step: the operation, then `probe_prefix` of every prompt,
/// `evictable_pages()`, the most tokens `can_fit` admits and the
/// `stats()` counts after it.
type GoldenStep = (Op, [usize; 5], usize, usize, [u64; 6]);

/// Golden eviction order under a 12-page budget (2 layers, 2-token
/// blocks, so every block is 2 pages and each new block evicts at most
/// one entry). Prompts `A`–`E` span 1, 2, 3, 4 and 3 blocks; `D` opens
/// with `C`'s first two blocks. `stats()` is recorded as
/// `[live_pages, shared_tokens, shared_hits, evicted_pages,
/// over_budget_pages, prefix_entries]` (`live_bytes` follows from
/// `live_pages`; `cow_copies` is 0). The values were recorded from the
/// prefix index that kept one entry per block boundary holding all the
/// pages up to it, and the per-block index must reproduce them.
#[test]
fn eviction_order_matches_the_golden_script() {
    use Op::{Lookup, Publish, Push, Reset};
    const LAYERS: usize = 2;
    const WIDTH: usize = 4;
    const BLOCK: usize = 2;
    const PAGE_BYTES: usize = 2 * BLOCK * WIDTH * 8;
    const MAX_FIT: usize = 40;
    const LENS: [usize; 5] = [2, 4, 6, 8, 6];
    const A: usize = 0;
    const B: usize = 1;
    const C: usize = 2;
    const D: usize = 3;
    const E: usize = 4;
    #[rustfmt::skip]
    const GOLDEN: [GoldenStep; 48] = [
        (Push(0, A), [0, 0, 0, 0, 0], 0, 10, [2, 0, 0, 0, 0, 0]),
        (Push(0, A), [0, 0, 0, 0, 0], 0, 10, [2, 0, 0, 0, 0, 0]),
        (Publish(0, A), [2, 0, 0, 0, 0], 0, 10, [2, 0, 0, 0, 0, 1]),
        (Reset(0), [2, 0, 0, 0, 0], 2, 12, [2, 0, 0, 0, 0, 1]),
        (Push(0, B), [2, 0, 0, 0, 0], 2, 10, [4, 0, 0, 0, 0, 1]),
        (Push(0, B), [2, 0, 0, 0, 0], 2, 10, [4, 0, 0, 0, 0, 1]),
        (Push(0, B), [2, 0, 0, 0, 0], 2, 8, [6, 0, 0, 0, 0, 1]),
        (Push(0, B), [2, 0, 0, 0, 0], 2, 8, [6, 0, 0, 0, 0, 1]),
        (Publish(0, B), [2, 4, 0, 0, 0], 2, 8, [6, 0, 0, 0, 0, 3]),
        (Reset(0), [2, 4, 0, 0, 0], 6, 12, [6, 0, 0, 0, 0, 3]),
        (Push(1, C), [2, 4, 0, 0, 0], 6, 10, [8, 0, 0, 0, 0, 3]),
        (Push(1, C), [2, 4, 0, 0, 0], 6, 10, [8, 0, 0, 0, 0, 3]),
        (Push(1, C), [2, 4, 0, 0, 0], 6, 8, [10, 0, 0, 0, 0, 3]),
        (Push(1, C), [2, 4, 0, 0, 0], 6, 8, [10, 0, 0, 0, 0, 3]),
        (Push(1, C), [2, 4, 0, 0, 0], 6, 6, [12, 0, 0, 0, 0, 3]),
        (Push(1, C), [2, 4, 0, 0, 0], 6, 6, [12, 0, 0, 0, 0, 3]),
        (Publish(1, C), [2, 4, 6, 4, 0], 6, 6, [12, 0, 0, 0, 0, 6]),
        (Lookup(2, D), [2, 4, 6, 4, 0], 6, 6, [12, 4, 1, 0, 0, 6]),
        (Push(2, D), [0, 4, 6, 4, 0], 4, 4, [12, 4, 1, 2, 0, 5]),
        (Push(2, D), [0, 4, 6, 4, 0], 4, 4, [12, 4, 1, 2, 0, 5]),
        (Push(2, D), [0, 2, 6, 4, 0], 2, 2, [12, 4, 1, 4, 0, 4]),
        (Push(2, D), [0, 2, 6, 4, 0], 2, 2, [12, 4, 1, 4, 0, 4]),
        (Publish(2, D), [0, 2, 6, 8, 0], 2, 2, [12, 4, 1, 4, 0, 6]),
        (Reset(1), [0, 2, 6, 8, 0], 4, 4, [12, 4, 1, 4, 0, 6]),
        (Lookup(0, B), [0, 2, 6, 8, 0], 2, 2, [12, 6, 2, 4, 0, 6]),
        (Push(0, B), [0, 2, 4, 8, 0], 0, 0, [12, 6, 2, 6, 0, 5]),
        (Push(0, B), [0, 2, 4, 8, 0], 0, 0, [12, 6, 2, 6, 0, 5]),
        (Reset(2), [0, 2, 4, 8, 0], 8, 8, [12, 6, 2, 6, 0, 5]),
        (Push(1, E), [0, 2, 4, 6, 0], 6, 6, [12, 6, 2, 8, 0, 4]),
        (Push(1, E), [0, 2, 4, 6, 0], 6, 6, [12, 6, 2, 8, 0, 4]),
        (Push(1, E), [0, 2, 4, 4, 0], 4, 4, [12, 6, 2, 10, 0, 3]),
        (Push(1, E), [0, 2, 4, 4, 0], 4, 4, [12, 6, 2, 10, 0, 3]),
        (Push(1, E), [0, 2, 2, 2, 0], 2, 2, [12, 6, 2, 12, 0, 2]),
        (Push(1, E), [0, 2, 2, 2, 0], 2, 2, [12, 6, 2, 12, 0, 2]),
        (Publish(1, E), [0, 2, 2, 2, 6], 2, 2, [12, 6, 2, 12, 0, 5]),
        (Lookup(2, D), [0, 2, 2, 2, 6], 0, 0, [12, 8, 3, 12, 0, 5]),
        (Push(2, D), [0, 2, 2, 2, 6], 0, 0, [14, 8, 3, 12, 2, 5]),
        (Push(2, D), [0, 2, 2, 2, 6], 0, 0, [14, 8, 3, 12, 2, 5]),
        (Reset(0), [0, 2, 2, 2, 6], 2, 4, [12, 8, 3, 12, 2, 5]),
        (Reset(1), [0, 2, 2, 2, 6], 8, 10, [12, 8, 3, 12, 2, 5]),
        (Reset(2), [0, 2, 2, 2, 6], 10, 14, [10, 8, 3, 12, 2, 5]),
        (Lookup(0, C), [0, 2, 2, 2, 6], 8, 12, [10, 10, 4, 12, 2, 5]),
        (Push(0, C), [0, 2, 2, 2, 6], 8, 10, [12, 10, 4, 12, 2, 5]),
        (Push(0, C), [0, 2, 2, 2, 6], 8, 10, [12, 10, 4, 12, 2, 5]),
        (Push(0, C), [0, 2, 2, 2, 6], 8, 8, [14, 10, 4, 12, 2, 5]),
        (Push(0, C), [0, 2, 2, 2, 6], 8, 8, [14, 10, 4, 12, 2, 5]),
        (Publish(0, C), [0, 2, 6, 4, 6], 8, 8, [14, 10, 4, 12, 2, 7]),
        (Reset(0), [0, 2, 6, 4, 6], 14, 14, [14, 10, 4, 12, 2, 7]),
    ];
    // Token `t` of a prompt; `D` shares `C`'s first four tokens.
    let token = |prompt: usize, t: usize| -> Vec<f64> {
        let prompt = if prompt == D && t < 4 { C } else { prompt };
        (0..WIDTH)
            .map(|c| (prompt * 100 + t * 10 + c) as f64 * 0.01)
            .collect()
    };
    let hashes: Vec<Vec<u64>> = LENS
        .iter()
        .enumerate()
        .map(|(p, &len)| {
            let toks: Vec<Vec<f64>> = (0..len).map(|t| token(p, t)).collect();
            prefix_block_hashes(toks.iter().map(Vec::as_slice), BLOCK)
        })
        .collect();
    let mut cache = PagedKvCache::with_dims(
        LAYERS,
        WIDTH,
        3,
        PagedConfig::new(BLOCK).with_budget_bytes(12 * PAGE_BYTES),
    );
    for (step, &(op, probes, evictable, fit, s)) in GOLDEN.iter().enumerate() {
        match op {
            Push(slot, p) => {
                let k = token(p, cache.seq_len(slot));
                let v: Vec<f64> = k.iter().map(|x| -x).collect();
                for layer in 0..LAYERS {
                    cache.push_row(slot, layer, &k, &v);
                }
            }
            Publish(slot, p) => cache.publish_prefix(slot, &hashes[p]),
            Lookup(slot, p) => {
                cache.lookup_prefix(slot, &hashes[p]);
            }
            Reset(slot) => cache.reset_slot(slot),
        }
        let at = format!("step {step} ({op:?})");
        let got: Vec<usize> = hashes.iter().map(|h| cache.probe_prefix(h)).collect();
        assert_eq!(got, probes, "{at}: probes");
        assert_eq!(cache.evictable_pages(), evictable, "{at}: evictable pages");
        let most = (0..=MAX_FIT).rev().find(|&n| cache.can_fit(&[], n));
        assert_eq!(most, Some(fit), "{at}: can_fit");
        let live_pages = s[0] as usize;
        let want = KvStats {
            live_pages,
            live_bytes: live_pages * PAGE_BYTES,
            shared_tokens: s[1],
            shared_hits: s[2],
            evicted_pages: s[3],
            cow_copies: 0,
            over_budget_pages: s[4],
            prefix_entries: s[5] as usize,
        };
        assert_eq!(cache.stats(), want, "{at}: stats");
    }
}
