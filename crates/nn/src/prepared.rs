//! The weight-conversion cache.
//!
//! Analog GEMM pays an operand-conversion tax on every call: quantize,
//! then push each code through the converter. For activations that work
//! is unavoidable (new values every call), but weight matrices are
//! identical across every token of generative decoding — re-converting
//! them per step is pure waste. [`WeightCache`] memoizes each weight's
//! quantize+convert result behind the unchanged
//! [`crate::gemm::GemmBackend`] call surface using interior mutability.
//! A cached weight is stored once, as packed GEMM panels ([`PackedB`]):
//! the only form the analog kernels read.
//!
//! Cache keys combine the operand's data address, shape, driver bit
//! width, and a 64-bit FNV-1a fingerprint of the element bits. The
//! fingerprint makes the cache safe against both in-place mutation (same
//! address, new contents → miss) and address reuse after deallocation
//! (same address, different matrix → fingerprint mismatch → miss); a
//! false hit would need an address *and* fingerprint collision on an
//! equal-shaped matrix. Entries are evicted least-recently-used beyond
//! [`WeightCache::capacity`]. Hits and misses are counted locally and on
//! the `nn.gemm.weight_cache.{hit,miss}` telemetry counters.

use crate::quant::QuantizedMat;
use pdac_core::converter::MzmDriver;
use pdac_math::gemm::PackedB;
use pdac_math::Mat;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// Default maximum number of cached weights.
pub const DEFAULT_CACHE_CAPACITY: usize = 128;

/// Identity of a cached weight: where it lived, its shape, the drive
/// precision, and what its bits hashed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct OperandKey {
    ptr: usize,
    rows: usize,
    cols: usize,
    bits: u8,
    fingerprint: u64,
}

impl OperandKey {
    fn of(mat: &Mat, bits: u8) -> Self {
        Self {
            ptr: mat.as_slice().as_ptr() as usize,
            rows: mat.rows(),
            cols: mat.cols(),
            bits,
            fingerprint: fingerprint(mat.as_slice()),
        }
    }
}

/// 64-bit content hash over the raw bit patterns of the elements:
/// word-wise FNV-1a run as four independent lanes (a single FNV chain is
/// one long serial multiply dependency; four lanes pipeline, keeping the
/// per-call hashing cost far below the conversion work the cache saves),
/// folded together with the length at the end.
fn fingerprint(data: &[f64]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;
    let mut lanes = [
        OFFSET,
        OFFSET ^ 0x9e37_79b9_7f4a_7c15,
        OFFSET ^ 0xc2b2_ae3d_27d4_eb4f,
        OFFSET ^ 0x1656_67b1_9e37_79f9,
    ];
    for chunk in data.chunks(lanes.len()) {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane = (*lane ^ v.to_bits()).wrapping_mul(PRIME);
        }
    }
    let mut h = OFFSET ^ data.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(PRIME);
    }
    h
}

/// An LRU memo of converted, panel-packed weights keyed by operand
/// identity, shared behind `&self` (interior mutability) so
/// [`crate::gemm::GemmBackend`] implementations can consult it from
/// their immutable `matmul`.
///
/// # Examples
///
/// ```
/// use pdac_core::pdac::PDac;
/// use pdac_math::Mat;
/// use pdac_nn::prepared::WeightCache;
///
/// let w = Mat::from_rows(2, 2, vec![0.5, -0.25, 0.125, 1.0])?;
/// let pdac = PDac::with_optimal_approx(8).unwrap();
/// let cache = WeightCache::default();
/// let packed = cache.get_or_prepare(&w, &pdac);
/// assert_eq!((packed.k(), packed.n()), (2, 2));
/// let _ = cache.get_or_prepare(&w, &pdac);
/// assert_eq!((cache.misses(), cache.hits()), (1, 1));
/// # Ok::<(), pdac_math::matrix::MatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WeightCache {
    entries: RefCell<HashMap<OperandKey, (Rc<PackedB>, u64)>>,
    stamp: Cell<u64>,
    capacity: usize,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl Default for WeightCache {
    fn default() -> Self {
        Self::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl WeightCache {
    /// Creates a cache holding at most `capacity` weights.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be nonzero");
        Self {
            entries: RefCell::new(HashMap::new()),
            stamp: Cell::new(0),
            capacity,
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// Returns `mat` quantized per tensor at the driver's bit width,
    /// converted through `driver` and packed into GEMM panels — built on
    /// first sight, answered from the memo on repeats.
    /// [`Mat::matmul_prepacked_into`] over the result is bit-identical to
    /// a plain matmul against the converted matrix.
    pub fn get_or_prepare(&self, mat: &Mat, driver: &dyn MzmDriver) -> Rc<PackedB> {
        let key = OperandKey::of(mat, driver.bits());
        let stamp = self.stamp.get().wrapping_add(1);
        self.stamp.set(stamp);
        if let Some((packed, last_used)) = self.entries.borrow_mut().get_mut(&key) {
            *last_used = stamp;
            self.hits.set(self.hits.get() + 1);
            pdac_telemetry::counter_add("nn.gemm.weight_cache.hit", 1);
            return Rc::clone(packed);
        }
        self.misses.set(self.misses.get() + 1);
        pdac_telemetry::counter_add("nn.gemm.weight_cache.miss", 1);
        let packed = {
            let _span = pdac_telemetry::span("nn.gemm.prepare_operand");
            let converted = QuantizedMat::quantize(mat, key.bits).dequantize_with(driver);
            Rc::new(PackedB::pack(converted.as_slice(), mat.rows(), mat.cols()))
        };
        let mut entries = self.entries.borrow_mut();
        if entries.len() >= self.capacity {
            // Evict the least-recently-used entry.
            if let Some(oldest) = entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| *k)
            {
                entries.remove(&oldest);
                pdac_telemetry::counter_add("nn.gemm.weight_cache.evictions", 1);
            }
        }
        entries.insert(key, (Rc::clone(&packed), stamp));
        packed
    }

    /// Maximum number of cached weights.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently cached weights.
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Drops every cached weight (statistics are kept).
    pub fn clear(&self) {
        self.entries.borrow_mut().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdac_core::edac::ElectricalDac;
    use pdac_core::pdac::PDac;
    use pdac_math::rng::SplitMix64;

    fn random_mat(rows: usize, cols: usize, seed: u64) -> Mat {
        let mut rng = SplitMix64::seed_from_u64(seed);
        Mat::from_fn(rows, cols, |_, _| rng.gen_range_f64(-1.0, 1.0))
    }

    /// The uncached pipeline: quantize, scalar convert, pack.
    fn direct(w: &Mat, driver: &dyn MzmDriver) -> PackedB {
        let converted = QuantizedMat::quantize(w, driver.bits()).dequantize_with(driver);
        PackedB::pack(converted.as_slice(), w.rows(), w.cols())
    }

    #[test]
    fn prepare_matches_direct_quantize_convert() {
        let w = random_mat(6, 5, 1);
        let pdac = PDac::with_optimal_approx(8).unwrap();
        let cache = WeightCache::default();
        assert_eq!(*cache.get_or_prepare(&w, &pdac), direct(&w, &pdac));
    }

    #[test]
    fn repeated_lookups_hit() {
        let cache = WeightCache::default();
        let w = random_mat(4, 4, 2);
        let pdac = PDac::with_optimal_approx(8).unwrap();
        let first = cache.get_or_prepare(&w, &pdac);
        let second = cache.get_or_prepare(&w, &pdac);
        assert!(Rc::ptr_eq(&first, &second));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_bits_are_distinct_entries() {
        let cache = WeightCache::default();
        let w = random_mat(4, 4, 3);
        let p8 = PDac::with_optimal_approx(8).unwrap();
        let p4 = PDac::with_optimal_approx(4).unwrap();
        let _ = cache.get_or_prepare(&w, &p8);
        let _ = cache.get_or_prepare(&w, &p4);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn in_place_mutation_invalidates() {
        let cache = WeightCache::default();
        let mut w = random_mat(4, 4, 4);
        let edac = ElectricalDac::new(8).unwrap();
        let before = cache.get_or_prepare(&w, &edac);
        // Same allocation, new contents: the fingerprint must miss.
        w.as_mut_slice()[0] += 0.5;
        let after = cache.get_or_prepare(&w, &edac);
        assert_eq!(cache.misses(), 2);
        assert_ne!(before, after);
        assert_eq!(*after, direct(&w, &edac));
    }

    #[test]
    fn eviction_respects_capacity_and_recency() {
        let cache = WeightCache::new(2);
        let edac = ElectricalDac::new(8).unwrap();
        let a = random_mat(3, 3, 10);
        let b = random_mat(3, 3, 11);
        let c = random_mat(3, 3, 12);
        let _ = cache.get_or_prepare(&a, &edac);
        let _ = cache.get_or_prepare(&b, &edac);
        let _ = cache.get_or_prepare(&a, &edac); // refresh a
        let _ = cache.get_or_prepare(&c, &edac); // evicts b (LRU)
        assert_eq!(cache.len(), 2);
        let _ = cache.get_or_prepare(&a, &edac);
        assert_eq!(cache.hits(), 2, "a must have survived eviction");
    }

    #[test]
    fn clear_empties_but_keeps_stats() {
        let cache = WeightCache::default();
        let w = random_mat(2, 2, 20);
        let edac = ElectricalDac::new(8).unwrap();
        let _ = cache.get_or_prepare(&w, &edac);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 1);
        let _ = cache.get_or_prepare(&w, &edac);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_rejected() {
        WeightCache::new(0);
    }

    #[test]
    fn packed_panels_match_plain_matmul() {
        let w = random_mat(12, 9, 55);
        let x = random_mat(3, 12, 56);
        let pdac = PDac::with_optimal_approx(8).unwrap();
        let cache = WeightCache::default();
        let mut via_packed = Mat::zeros(1, 1);
        x.matmul_prepacked_into(&cache.get_or_prepare(&w, &pdac), &mut via_packed)
            .unwrap();
        let converted = QuantizedMat::quantize(&w, 8).dequantize_with(&pdac);
        assert_eq!(via_packed, x.matmul(&converted).unwrap());
    }
}
