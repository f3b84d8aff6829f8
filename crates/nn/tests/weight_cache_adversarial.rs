//! Adversarial WeightCache scenarios: identity-key edge cases the happy
//! path never exercises — in-place mutation and reverting, equal-content
//! clones, allocation reuse after drop, LRU ordering under capacity
//! pressure, counter accounting under interleaved weight streams, and
//! one matrix converted for several drivers.

use pdac_core::converter::MzmDriver;
use pdac_core::edac::ElectricalDac;
use pdac_core::lut::ConverterLut;
use pdac_core::pdac::PDac;
use pdac_math::gemm::{PackedB, PackedCodes};
use pdac_math::rng::SplitMix64;
use pdac_math::Mat;
use pdac_nn::prepared::{WeightCache, DEFAULT_CACHE_CAPACITY};
use pdac_nn::quant::convert;
use std::rc::Rc;

fn random_mat(rows: usize, cols: usize, seed: u64) -> Mat {
    let mut rng = SplitMix64::seed_from_u64(seed);
    Mat::from_fn(rows, cols, |_, _| rng.gen_range_f64(-1.0, 1.0))
}

/// A cache converting through `driver`'s table.
fn cache_for(driver: &dyn MzmDriver, capacity: usize) -> WeightCache {
    WeightCache::new(ConverterLut::new(driver), capacity)
}

/// The 8-bit e-DAC cache most scenarios run against.
fn edac_cache(capacity: usize) -> WeightCache {
    cache_for(&ElectricalDac::new(8).unwrap(), capacity)
}

/// Panels rendered with `Debug`, which prints every f64 in shortest
/// round-trip form and keeps the sign of zero: equal renderings mean
/// equal bits.
fn panel_bits(packed: &PackedB) -> String {
    format!("{packed:?}")
}

/// `mat` converted per tensor through the scalar `driver` and packed
/// (the uncached golden pipeline), rendered like [`decoded`].
fn golden(mat: &Mat, driver: &dyn MzmDriver) -> String {
    let converted = convert(mat, mat.rows(), driver);
    panel_bits(&PackedB::pack(converted.as_slice(), mat.rows(), mat.cols()))
}

/// A cache entry's decoded values.
fn decoded(codes: &PackedCodes) -> String {
    panel_bits(&codes.decode())
}

#[test]
fn mutate_then_revert_misses_with_correct_data() {
    // Reverting restores the original bits, but the key is the matrix's
    // id, and each `&mut` access dropped it: the revert is new content
    // as far as the cache can tell, so it misses and converts again.
    let cache = edac_cache(DEFAULT_CACHE_CAPACITY);
    let edac = ElectricalDac::new(8).unwrap();
    let mut w = random_mat(5, 4, 1);
    let original = w.as_slice()[7];
    let first = cache.get_or_prepare(&w);

    w.as_mut_slice()[7] = original + 0.25;
    let mutated = cache.get_or_prepare(&w);
    assert_eq!(cache.misses(), 2, "mutation must defeat the id key");
    assert_ne!(first, mutated);
    assert_eq!(decoded(&mutated), golden(&w, &edac));

    w.as_mut_slice()[7] = original;
    let reverted = cache.get_or_prepare(&w);
    assert_eq!((cache.misses(), cache.hits()), (3, 0));
    assert!(!Rc::ptr_eq(&first, &reverted));
    assert_eq!(reverted, first);
    assert_eq!(decoded(&reverted), golden(&w, &edac));
}

#[test]
fn sign_flip_to_negative_zero_misses() {
    // -0.0 and 0.0 compare equal but differ in bit pattern; writing one
    // drops the matrix's id, so the cache must not serve the entry built
    // before the write.
    let cache = edac_cache(DEFAULT_CACHE_CAPACITY);
    let mut w = Mat::zeros(2, 2);
    let _ = cache.get_or_prepare(&w);
    w.as_mut_slice()[0] = -0.0;
    let _ = cache.get_or_prepare(&w);
    assert_eq!(cache.misses(), 2);
}

#[test]
fn equal_content_clone_shares_one_entry_until_mutated() {
    // A clone keeps its source's id (it holds the same content), so it
    // hits the source's entry; mutating the clone gives it new content
    // and drops its id, and only the clone misses.
    let cache = edac_cache(DEFAULT_CACHE_CAPACITY);
    let edac = ElectricalDac::new(8).unwrap();
    let w = random_mat(4, 4, 2);
    let a = cache.get_or_prepare(&w);
    let mut clone = w.clone();
    let b = cache.get_or_prepare(&clone);
    assert_eq!((cache.misses(), cache.hits()), (1, 1));
    assert_eq!(cache.len(), 1);
    assert!(Rc::ptr_eq(&a, &b));

    clone.as_mut_slice()[0] += 0.5;
    let c = cache.get_or_prepare(&clone);
    assert_eq!(cache.misses(), 2, "the mutated clone must miss");
    assert_eq!(decoded(&c), golden(&clone, &edac));
    let d = cache.get_or_prepare(&w);
    assert_eq!(cache.hits(), 2, "the original must still hit");
    assert!(Rc::ptr_eq(&a, &d));
}

#[test]
fn allocation_reuse_never_serves_stale_data() {
    // Drop a cached matrix and allocate same-shaped replacements; the
    // allocator may hand back the dead address. Whatever address each
    // replacement lands on, the cache must always return *its* data.
    let cache = edac_cache(DEFAULT_CACHE_CAPACITY);
    let edac = ElectricalDac::new(8).unwrap();
    for seed in 0..16u64 {
        let w = random_mat(6, 6, 100 + seed);
        let codes = cache.get_or_prepare(&w);
        assert_eq!(
            decoded(&codes),
            golden(&w, &edac),
            "stale cache entry served for seed {seed}"
        );
    }
}

#[test]
fn lru_evicts_in_recency_order() {
    let cache = edac_cache(3);
    let mats: Vec<Mat> = (0..5).map(|s| random_mat(3, 3, 200 + s)).collect();

    for m in &mats[..3] {
        let _ = cache.get_or_prepare(m); // cache: [0, 1, 2]
    }
    let _ = cache.get_or_prepare(&mats[0]); // refresh 0 → LRU is 1
    let _ = cache.get_or_prepare(&mats[3]); // evicts 1 → [2, 0, 3]
    let _ = cache.get_or_prepare(&mats[2]); // refresh 2 → LRU is 0
    let _ = cache.get_or_prepare(&mats[4]); // evicts 0 → [3, 2, 4]
    assert_eq!(cache.len(), 3);

    let hits_before = cache.hits();
    for survivor in [2usize, 3, 4] {
        let _ = cache.get_or_prepare(&mats[survivor]);
    }
    assert_eq!(
        cache.hits(),
        hits_before + 3,
        "matrices 2, 3, 4 must have survived in LRU order"
    );
    let misses_before = cache.misses();
    let _ = cache.get_or_prepare(&mats[0]);
    let _ = cache.get_or_prepare(&mats[1]);
    assert_eq!(
        cache.misses(),
        misses_before + 2,
        "matrices 0 and 1 must have been evicted"
    );
}

#[test]
fn interleaved_streams_thrash_at_capacity_one_and_hit_at_two() {
    let a = random_mat(4, 4, 300);
    let b = random_mat(4, 4, 301);

    let tiny = edac_cache(1);
    for _ in 0..4 {
        let _ = tiny.get_or_prepare(&a);
        let _ = tiny.get_or_prepare(&b);
    }
    assert_eq!(tiny.misses(), 8, "capacity 1 thrashes under two streams");
    assert_eq!(tiny.hits(), 0);
    assert_eq!(tiny.len(), 1);

    let cache = edac_cache(2);
    for _ in 0..4 {
        let _ = cache.get_or_prepare(&a);
        let _ = cache.get_or_prepare(&b);
    }
    assert_eq!(cache.misses(), 2, "one cold miss per stream");
    assert_eq!(cache.hits(), 6);
    assert_eq!(cache.len(), 2);
}

#[test]
fn each_cache_serves_its_own_driver() {
    // One matrix through caches bound to drivers that share a bit width
    // (e-DAC and P-DAC at 8 bits) and to one that does not (P-DAC at 4):
    // every cache must return its own driver's conversion, on the miss
    // and on the hit.
    let drivers: [(&str, Box<dyn MzmDriver>); 3] = [
        ("edac8", Box::new(ElectricalDac::new(8).unwrap())),
        ("pdac8", Box::new(PDac::with_optimal_approx(8).unwrap())),
        ("pdac4", Box::new(PDac::with_optimal_approx(4).unwrap())),
    ];
    let w = random_mat(4, 4, 400);
    let mut seen: Vec<String> = Vec::new();
    for (name, driver) in &drivers {
        let cache = cache_for(driver.as_ref(), DEFAULT_CACHE_CAPACITY);
        let want = golden(&w, driver.as_ref());
        assert_eq!(decoded(&cache.get_or_prepare(&w)), want, "{name} miss");
        assert_eq!(decoded(&cache.get_or_prepare(&w)), want, "{name} hit");
        assert_eq!((cache.misses(), cache.hits()), (1, 1), "{name}");
        assert!(!seen.contains(&want), "{name} converts like another driver");
        seen.push(want);
    }
}
