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
//! One cache serves one weight-path table: it owns the
//! [`ConverterLut`] it converts through, so an entry can never be served
//! to another driver. The key is the weight's [`Mat::id`] alone. That is
//! safe because ids are never reused (a dropped matrix's id names nothing
//! again, whatever address the allocator hands out next) and every
//! `&mut` access to a matrix drops its id (mutate in place → fresh id →
//! miss). A lookup is one hash-map probe; the weight's elements are read
//! only on a miss. Entries are evicted least-recently-used beyond the
//! capacity given to [`WeightCache::new`]. Hits and misses are counted
//! locally and on the `nn.gemm.weight_cache.{hit,miss}` telemetry
//! counters.

use crate::quant::QuantizedMat;
use pdac_core::converter::MzmDriver;
use pdac_core::lut::ConverterLut;
use pdac_math::gemm::PackedB;
use pdac_math::Mat;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// Default maximum number of cached weights.
pub const DEFAULT_CACHE_CAPACITY: usize = 128;

/// An LRU memo of weights converted through one table and packed into
/// panels, keyed by [`Mat::id`] and shared behind `&self` (interior
/// mutability) so [`crate::gemm::GemmBackend`] implementations can
/// consult it from their immutable `matmul`.
///
/// # Examples
///
/// ```
/// use pdac_core::lut::ConverterLut;
/// use pdac_core::pdac::PDac;
/// use pdac_math::Mat;
/// use pdac_nn::prepared::{WeightCache, DEFAULT_CACHE_CAPACITY};
///
/// let w = Mat::from_rows(2, 2, vec![0.5, -0.25, 0.125, 1.0])?;
/// let lut = ConverterLut::new(&PDac::with_optimal_approx(8).unwrap());
/// let cache = WeightCache::new(lut, DEFAULT_CACHE_CAPACITY);
/// let packed = cache.get_or_prepare(&w);
/// assert_eq!((packed.k(), packed.n()), (2, 2));
/// let _ = cache.get_or_prepare(&w);
/// assert_eq!((cache.misses(), cache.hits()), (1, 1));
/// # Ok::<(), pdac_math::matrix::MatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WeightCache {
    lut: ConverterLut,
    entries: RefCell<HashMap<u64, (Rc<PackedB>, u64)>>,
    stamp: Cell<u64>,
    capacity: usize,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl WeightCache {
    /// Creates a cache that converts through `lut` and holds at most
    /// `capacity` weights.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(lut: ConverterLut, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be nonzero");
        Self {
            lut,
            entries: RefCell::new(HashMap::new()),
            stamp: Cell::new(0),
            capacity,
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// The weight-path table every entry is converted through.
    pub fn lut(&self) -> &ConverterLut {
        &self.lut
    }

    /// Returns `mat` quantized per tensor at the table's bit width,
    /// converted through the table and packed into GEMM panels — built on
    /// first sight of `mat.id()`, answered from the memo on repeats.
    /// [`Mat::matmul_prepacked_into`] over the result is bit-identical to
    /// a plain matmul against the converted matrix.
    pub fn get_or_prepare(&self, mat: &Mat) -> Rc<PackedB> {
        let key = mat.id();
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
            let converted = QuantizedMat::quantize(mat, self.lut.bits()).dequantize_with(&self.lut);
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

    /// A default-capacity cache converting through `driver`'s table.
    fn cache_for(driver: &dyn MzmDriver) -> WeightCache {
        WeightCache::new(ConverterLut::new(driver), DEFAULT_CACHE_CAPACITY)
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
        let cache = cache_for(&pdac);
        assert_eq!(*cache.get_or_prepare(&w), direct(&w, &pdac));
    }

    #[test]
    fn repeated_lookups_hit() {
        let w = random_mat(4, 4, 2);
        let cache = cache_for(&PDac::with_optimal_approx(8).unwrap());
        let first = cache.get_or_prepare(&w);
        let second = cache.get_or_prepare(&w);
        assert!(Rc::ptr_eq(&first, &second));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn in_place_mutation_invalidates() {
        let mut w = random_mat(4, 4, 4);
        let edac = ElectricalDac::new(8).unwrap();
        let cache = cache_for(&edac);
        let before = cache.get_or_prepare(&w);
        // Same allocation, new contents: the `&mut` access dropped the
        // id, so the lookup must miss.
        w.as_mut_slice()[0] += 0.5;
        let after = cache.get_or_prepare(&w);
        assert_eq!(cache.misses(), 2);
        assert_ne!(before, after);
        assert_eq!(*after, direct(&w, &edac));
    }

    #[test]
    fn eviction_respects_capacity_and_recency() {
        let edac = ElectricalDac::new(8).unwrap();
        let cache = WeightCache::new(ConverterLut::new(&edac), 2);
        let a = random_mat(3, 3, 10);
        let b = random_mat(3, 3, 11);
        let c = random_mat(3, 3, 12);
        let _ = cache.get_or_prepare(&a);
        let _ = cache.get_or_prepare(&b);
        let _ = cache.get_or_prepare(&a); // refresh a
        let _ = cache.get_or_prepare(&c); // evicts b (LRU)
        assert_eq!(cache.len(), 2);
        let _ = cache.get_or_prepare(&a);
        assert_eq!(cache.hits(), 2, "a must have survived eviction");
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_rejected() {
        WeightCache::new(ConverterLut::new(&ElectricalDac::new(8).unwrap()), 0);
    }

    #[test]
    fn packed_panels_match_plain_matmul() {
        let w = random_mat(12, 9, 55);
        let x = random_mat(3, 12, 56);
        let pdac = PDac::with_optimal_approx(8).unwrap();
        let cache = cache_for(&pdac);
        let mut via_packed = Mat::zeros(1, 1);
        x.matmul_prepacked_into(&cache.get_or_prepare(&w), &mut via_packed)
            .unwrap();
        let converted = QuantizedMat::quantize(&w, 8).dequantize_with(&pdac);
        assert_eq!(via_packed, x.matmul(&converted).unwrap());
    }
}
