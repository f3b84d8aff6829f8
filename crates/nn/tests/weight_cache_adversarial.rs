//! Adversarial WeightCache scenarios: identity-key edge cases the happy
//! path never exercises — in-place mutation and reverting, equal-content
//! clones at fresh addresses, allocation reuse after drop, LRU ordering
//! under capacity pressure, and counter accounting under interleaved
//! weight streams.

use pdac_core::converter::MzmDriver;
use pdac_core::edac::ElectricalDac;
use pdac_core::pdac::PDac;
use pdac_math::gemm::PackedB;
use pdac_math::rng::SplitMix64;
use pdac_math::Mat;
use pdac_nn::prepared::WeightCache;
use pdac_nn::quant::QuantizedMat;
use std::rc::Rc;

fn random_mat(rows: usize, cols: usize, seed: u64) -> Mat {
    let mut rng = SplitMix64::seed_from_u64(seed);
    Mat::from_fn(rows, cols, |_, _| rng.gen_range_f64(-1.0, 1.0))
}

/// The uncached pipeline: quantize, convert, pack.
fn direct(mat: &Mat, driver: &dyn MzmDriver) -> PackedB {
    let converted = QuantizedMat::quantize(mat, driver.bits()).dequantize_with(driver);
    PackedB::pack(converted.as_slice(), mat.rows(), mat.cols())
}

#[test]
fn mutate_then_revert_hits_with_correct_data() {
    // Same allocation, same shape, same bit pattern after the revert:
    // every key component collides — which is exactly when a hit is
    // *correct*, and the cached data must still match the contents.
    let cache = WeightCache::default();
    let edac = ElectricalDac::new(8).unwrap();
    let mut w = random_mat(5, 4, 1);
    let original = w.as_slice()[7];
    let first = cache.get_or_prepare(&w, &edac);

    w.as_mut_slice()[7] = original + 0.25;
    let mutated = cache.get_or_prepare(&w, &edac);
    assert_eq!(cache.misses(), 2, "mutation must defeat the address key");
    assert_ne!(first, mutated);
    assert_eq!(*mutated, direct(&w, &edac));

    w.as_mut_slice()[7] = original;
    let reverted = cache.get_or_prepare(&w, &edac);
    assert_eq!(
        cache.hits(),
        1,
        "reverted contents restore the original key"
    );
    assert!(Rc::ptr_eq(&first, &reverted));
    assert_eq!(*reverted, direct(&w, &edac));
}

#[test]
fn sign_flip_changes_fingerprint() {
    // -0.0 and 0.0 compare equal but differ in bit pattern; the
    // fingerprint hashes bits, so the cache must treat them as distinct
    // contents rather than serving a stale entry.
    let cache = WeightCache::default();
    let edac = ElectricalDac::new(8).unwrap();
    let mut w = Mat::zeros(2, 2);
    let _ = cache.get_or_prepare(&w, &edac);
    w.as_mut_slice()[0] = -0.0;
    let _ = cache.get_or_prepare(&w, &edac);
    assert_eq!(cache.misses(), 2);
}

#[test]
fn equal_content_clone_misses_but_converts_identically() {
    // A clone carries identical bits at a different address: identity is
    // per-allocation, so it must miss — and both entries must coexist.
    let cache = WeightCache::default();
    let edac = ElectricalDac::new(8).unwrap();
    let w = random_mat(4, 4, 2);
    let clone = w.clone();
    let a = cache.get_or_prepare(&w, &edac);
    let b = cache.get_or_prepare(&clone, &edac);
    assert_eq!(cache.misses(), 2);
    assert_eq!(cache.hits(), 0);
    assert_eq!(cache.len(), 2);
    assert!(!Rc::ptr_eq(&a, &b));
    assert_eq!(a, b);
}

#[test]
fn allocation_reuse_never_serves_stale_data() {
    // Drop a cached matrix and allocate same-shaped replacements; the
    // allocator may hand back the dead address. Whatever address each
    // replacement lands on, the cache must always return *its* data.
    let cache = WeightCache::default();
    let edac = ElectricalDac::new(8).unwrap();
    for seed in 0..16u64 {
        let w = random_mat(6, 6, 100 + seed);
        let packed = cache.get_or_prepare(&w, &edac);
        assert_eq!(
            *packed,
            direct(&w, &edac),
            "stale cache entry served for seed {seed}"
        );
    }
}

#[test]
fn lru_evicts_in_recency_order() {
    let cache = WeightCache::new(3);
    let edac = ElectricalDac::new(8).unwrap();
    let mats: Vec<Mat> = (0..5).map(|s| random_mat(3, 3, 200 + s)).collect();

    for m in &mats[..3] {
        let _ = cache.get_or_prepare(m, &edac); // cache: [0, 1, 2]
    }
    let _ = cache.get_or_prepare(&mats[0], &edac); // refresh 0 → LRU is 1
    let _ = cache.get_or_prepare(&mats[3], &edac); // evicts 1 → [2, 0, 3]
    let _ = cache.get_or_prepare(&mats[2], &edac); // refresh 2 → LRU is 0
    let _ = cache.get_or_prepare(&mats[4], &edac); // evicts 0 → [3, 2, 4]
    assert_eq!(cache.len(), 3);

    let hits_before = cache.hits();
    for survivor in [2usize, 3, 4] {
        let _ = cache.get_or_prepare(&mats[survivor], &edac);
    }
    assert_eq!(
        cache.hits(),
        hits_before + 3,
        "matrices 2, 3, 4 must have survived in LRU order"
    );
    let misses_before = cache.misses();
    let _ = cache.get_or_prepare(&mats[0], &edac);
    let _ = cache.get_or_prepare(&mats[1], &edac);
    assert_eq!(
        cache.misses(),
        misses_before + 2,
        "matrices 0 and 1 must have been evicted"
    );
}

#[test]
fn interleaved_streams_thrash_at_capacity_one_and_hit_at_two() {
    let edac = ElectricalDac::new(8).unwrap();
    let a = random_mat(4, 4, 300);
    let b = random_mat(4, 4, 301);

    let tiny = WeightCache::new(1);
    for _ in 0..4 {
        let _ = tiny.get_or_prepare(&a, &edac);
        let _ = tiny.get_or_prepare(&b, &edac);
    }
    assert_eq!(tiny.misses(), 8, "capacity 1 thrashes under two streams");
    assert_eq!(tiny.hits(), 0);
    assert_eq!(tiny.len(), 1);

    let cache = WeightCache::new(2);
    for _ in 0..4 {
        let _ = cache.get_or_prepare(&a, &edac);
        let _ = cache.get_or_prepare(&b, &edac);
    }
    assert_eq!(cache.misses(), 2, "one cold miss per stream");
    assert_eq!(cache.hits(), 6);
    assert_eq!(cache.len(), 2);
}

#[test]
fn interleaved_drivers_share_no_entries() {
    // The same matrix under drivers of different bit widths must occupy
    // two slots; the cached data for each must match its own driver.
    let cache = WeightCache::default();
    let e8 = ElectricalDac::new(8).unwrap();
    let p4 = PDac::with_optimal_approx(4).unwrap();
    let w = random_mat(4, 4, 400);
    let via_e8 = cache.get_or_prepare(&w, &e8);
    let via_p4 = cache.get_or_prepare(&w, &p4);
    assert_eq!(cache.misses(), 2);
    assert_eq!(cache.len(), 2);
    assert_eq!(*via_e8, direct(&w, &e8));
    assert_eq!(*via_p4, direct(&w, &p4));
    let _ = cache.get_or_prepare(&w, &e8);
    let _ = cache.get_or_prepare(&w, &p4);
    assert_eq!(cache.hits(), 2, "both entries answer their own driver");
}
