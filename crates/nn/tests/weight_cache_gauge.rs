//! The `nn.gemm.weight_cache.bytes` gauge sums every live weight cache.
//!
//! Lives in its own integration-test process because the gauge is a
//! process-global total: parallel lib tests building caches concurrently
//! would move it under the exact assertions.

use pdac_core::edac::ElectricalDac;
use pdac_core::lut::ConverterLut;
use pdac_core::pdac::PDac;
use pdac_math::rng::SplitMix64;
use pdac_math::Mat;
use pdac_nn::prepared::WeightCache;

fn random_mat(rows: usize, cols: usize, seed: u64) -> Mat {
    let mut rng = SplitMix64::seed_from_u64(seed);
    Mat::from_fn(rows, cols, |_, _| rng.gen_range_f64(-1.0, 1.0))
}

fn gauge() -> f64 {
    pdac_telemetry::snapshot()
        .gauges
        .iter()
        .find(|(name, _)| name == "nn.gemm.weight_cache.bytes")
        .map_or(0.0, |&(_, v)| v)
}

#[test]
fn gauge_sums_every_live_cache() {
    pdac_telemetry::enable();
    let pdac = WeightCache::new(ConverterLut::new(&PDac::with_optimal_approx(8).unwrap()), 4);
    let edac = WeightCache::new(ConverterLut::new(&ElectricalDac::new(4).unwrap()), 1);
    let total =
        |caches: &[&WeightCache]| caches.iter().map(|c| c.resident_bytes()).sum::<usize>() as f64;

    let _ = pdac.get_or_prepare(&random_mat(64, 32, 1));
    let _ = edac.get_or_prepare(&random_mat(16, 8, 2));
    assert_eq!(pdac.resident_bytes(), 64 * 32 + 2_048);
    assert_eq!(edac.resident_bytes(), 16 * 8 + 2_048);
    assert_eq!(gauge(), total(&[&pdac, &edac]));

    // The other cache's miss keeps this one's bytes in the total.
    let _ = pdac.get_or_prepare(&random_mat(8, 16, 3));
    assert_eq!(gauge(), total(&[&pdac, &edac]));

    // An eviction returns only the evicting cache's bytes.
    let _ = edac.get_or_prepare(&random_mat(4, 8, 4));
    assert_eq!(edac.resident_bytes(), 4 * 8 + 2_048);
    assert_eq!(gauge(), total(&[&pdac, &edac]));

    // A clone counts its shared entries once more until it is dropped.
    let copy = pdac.clone();
    assert_eq!(gauge(), total(&[&pdac, &edac, &copy]));
    drop(copy);
    assert_eq!(gauge(), total(&[&pdac, &edac]));
    drop(edac);
    assert_eq!(gauge(), total(&[&pdac]));
    drop(pdac);
    assert_eq!(gauge(), 0.0);
}
