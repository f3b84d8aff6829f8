//! The weight-conversion cache.
//!
//! Analog GEMM pays an operand-conversion tax on every call: quantize,
//! then push each code through the converter. For activations that work
//! is unavoidable (new values every call), but weight matrices are
//! identical across every token of generative decoding — re-converting
//! them per step is pure waste. [`WeightCache`] memoizes each weight's
//! quantize+convert result behind the unchanged
//! [`crate::gemm::GemmBackend`] call surface using interior mutability.
//!
//! A cached weight is stored once, in byte form ([`PackedCodes`]): its
//! converter codes, one byte per element in GEMM panel order, plus one
//! table of the 2·max_code + 1 levels they stand for (the weight-path
//! table times the weight's scale). That is the form the analog kernel
//! reads: it decodes `levels[code]` as it streams the panels, which is
//! the f64 a converted, packed weight would hold, so products are
//! bit-identical to converting in f64. A weight costs one byte per
//! element instead of eight; [`WeightCache::resident_bytes`] reports one
//! cache's total, and the `nn.gemm.weight_cache.bytes` gauge the sum over
//! every live cache.
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

use crate::quant::quantize_packed;
use pdac_core::converter::MzmDriver;
use pdac_core::lut::ConverterLut;
use pdac_math::gemm::{PackedCodes, LEVELS};
use pdac_math::Mat;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default maximum number of cached weights.
pub const DEFAULT_CACHE_CAPACITY: usize = 128;

/// Sum of [`WeightCache::resident_bytes`] over every live cache (a clone
/// counts the entries it shares with its source once more), published as
/// the `nn.gemm.weight_cache.bytes` gauge.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Moves one cache's share of [`LIVE_BYTES`] from `old` to `new` bytes
/// and publishes the total.
fn publish(old: usize, new: usize) {
    let total = if new >= old {
        LIVE_BYTES.fetch_add(new - old, Ordering::Relaxed) + (new - old)
    } else {
        LIVE_BYTES.fetch_sub(old - new, Ordering::Relaxed) - (old - new)
    };
    pdac_telemetry::gauge_set("nn.gemm.weight_cache.bytes", total as f64);
}

/// An LRU memo of weights converted through one table and kept in byte
/// form, keyed by [`Mat::id`] and shared behind `&self` (interior
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
/// let codes = cache.get_or_prepare(&w);
/// assert_eq!((codes.k(), codes.n()), (2, 2));
/// let _ = cache.get_or_prepare(&w);
/// assert_eq!((cache.misses(), cache.hits()), (1, 1));
/// // One 8-byte panel stripe of codes plus a 256-entry f64 level table.
/// assert_eq!(cache.resident_bytes(), 2 * 8 + 256 * 8);
/// # Ok::<(), pdac_math::matrix::MatError>(())
/// ```
#[derive(Debug)]
pub struct WeightCache {
    lut: ConverterLut,
    entries: RefCell<HashMap<u64, (Rc<PackedCodes>, u64)>>,
    stamp: Cell<u64>,
    capacity: usize,
    resident: Cell<usize>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl WeightCache {
    /// Creates a cache that converts through `lut` and holds at most
    /// `capacity` weights.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, or if `lut` has more levels than a byte
    /// can index (bits above 8).
    pub fn new(lut: ConverterLut, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be nonzero");
        assert!(
            lut.len() <= LEVELS,
            "cached weights are stored as byte codes: a {}-bit table has {} levels, \
             more than the {LEVELS} a byte indexes (use at most 8 bits)",
            lut.bits(),
            lut.len()
        );
        Self {
            lut,
            entries: RefCell::new(HashMap::new()),
            stamp: Cell::new(0),
            capacity,
            resident: Cell::new(0),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// The weight-path table every entry is converted through.
    pub fn lut(&self) -> &ConverterLut {
        &self.lut
    }

    /// Returns `mat` quantized per tensor at the table's bit width and
    /// kept in byte form (codes in GEMM panels plus their level table) —
    /// built on first sight of `mat.id()`, answered from the memo on
    /// repeats. [`Mat::matmul_codes_into`] over the result is
    /// bit-identical to a plain matmul against the converted matrix.
    pub fn get_or_prepare(&self, mat: &Mat) -> Rc<PackedCodes> {
        let key = mat.id();
        let stamp = self.stamp.get().wrapping_add(1);
        self.stamp.set(stamp);
        if let Some((codes, last_used)) = self.entries.borrow_mut().get_mut(&key) {
            *last_used = stamp;
            self.hits.set(self.hits.get() + 1);
            pdac_telemetry::counter_add("nn.gemm.weight_cache.hit", 1);
            return Rc::clone(codes);
        }
        self.misses.set(self.misses.get() + 1);
        pdac_telemetry::counter_add("nn.gemm.weight_cache.miss", 1);
        let codes = {
            let _span = pdac_telemetry::span("nn.gemm.prepare_operand");
            Rc::new(quantize_packed(mat, &self.lut))
        };
        let mut entries = self.entries.borrow_mut();
        let mut resident = self.resident.get() + codes.resident_bytes();
        if entries.len() >= self.capacity {
            // Evict the least-recently-used entry.
            if let Some(oldest) = entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| *k)
            {
                if let Some((evicted, _)) = entries.remove(&oldest) {
                    resident -= evicted.resident_bytes();
                }
                pdac_telemetry::counter_add("nn.gemm.weight_cache.evictions", 1);
            }
        }
        entries.insert(key, (Rc::clone(&codes), stamp));
        publish(self.resident.replace(resident), resident);
        codes
    }

    /// Bytes the cached weights hold: codes plus level tables.
    pub fn resident_bytes(&self) -> usize {
        self.resident.get()
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

impl Clone for WeightCache {
    /// A cache holding the same entries (shared, not copied), whose bytes
    /// the gauge counts as well.
    fn clone(&self) -> Self {
        publish(0, self.resident.get());
        Self {
            lut: self.lut.clone(),
            entries: self.entries.clone(),
            stamp: self.stamp.clone(),
            capacity: self.capacity,
            resident: self.resident.clone(),
            hits: self.hits.clone(),
            misses: self.misses.clone(),
        }
    }
}

impl Drop for WeightCache {
    fn drop(&mut self) {
        publish(self.resident.get(), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::convert;
    use pdac_core::edac::ElectricalDac;
    use pdac_core::pdac::PDac;
    use pdac_math::gemm::PackedB;
    use pdac_math::rng::SplitMix64;

    fn random_mat(rows: usize, cols: usize, seed: u64) -> Mat {
        let mut rng = SplitMix64::seed_from_u64(seed);
        Mat::from_fn(rows, cols, |_, _| rng.gen_range_f64(-1.0, 1.0))
    }

    /// A default-capacity cache converting through `driver`'s table.
    fn cache_for(driver: &dyn MzmDriver) -> WeightCache {
        WeightCache::new(ConverterLut::new(driver), DEFAULT_CACHE_CAPACITY)
    }

    /// Panel values rendered with `Debug`, which prints every f64 in
    /// shortest round-trip form and keeps the sign of zero: equal
    /// renderings mean equal bits.
    fn panel_bits(packed: &PackedB) -> String {
        format!("{packed:?}")
    }

    /// Asserts that `codes` decode to `w` converted per tensor through
    /// the scalar `driver`, packed: the uncached golden pipeline.
    fn assert_decodes_to(codes: &PackedCodes, w: &Mat, driver: &dyn MzmDriver) {
        let converted = convert(w, w.rows(), driver);
        let want = PackedB::pack(converted.as_slice(), w.rows(), w.cols());
        assert_eq!(panel_bits(&codes.decode()), panel_bits(&want));
    }

    #[test]
    fn prepare_matches_direct_quantize_convert() {
        let w = random_mat(6, 5, 1);
        let pdac = PDac::with_optimal_approx(8).unwrap();
        let cache = cache_for(&pdac);
        assert_decodes_to(&cache.get_or_prepare(&w), &w, &pdac);
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
        assert_decodes_to(&after, &w, &edac);
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
    #[should_panic(expected = "use at most 8 bits")]
    fn tables_wider_than_a_byte_rejected() {
        WeightCache::new(
            ConverterLut::new(&ElectricalDac::new(9).unwrap()),
            DEFAULT_CACHE_CAPACITY,
        );
    }

    #[test]
    fn resident_bytes_count_codes_and_tables_through_eviction() {
        let cache = WeightCache::new(ConverterLut::new(&ElectricalDac::new(8).unwrap()), 2);
        assert_eq!(cache.resident_bytes(), 0);
        let wide = random_mat(256, 1024, 13);
        let _ = cache.get_or_prepare(&wide);
        assert_eq!(cache.resident_bytes(), 262_144 + 2_048);
        // A hit adds nothing; a 3×9 weight pads to two 8-column panels.
        let _ = cache.get_or_prepare(&wide);
        let ragged = random_mat(3, 9, 14);
        let _ = cache.get_or_prepare(&ragged);
        assert_eq!(cache.resident_bytes(), 262_144 + 2_048 + 2 * 3 * 8 + 2_048);
        // Evicting the wide weight (least recently used) returns its bytes.
        let _ = cache.get_or_prepare(&random_mat(2, 8, 15));
        assert_eq!(
            cache.resident_bytes(),
            (2 * 3 * 8 + 2_048) + (2 * 8 + 2_048)
        );
    }

    #[test]
    fn packed_panels_match_plain_matmul() {
        let w = random_mat(12, 9, 55);
        let x = random_mat(3, 12, 56);
        let pdac = PDac::with_optimal_approx(8).unwrap();
        let cache = cache_for(&pdac);
        let mut via_codes = Mat::zeros(1, 1);
        x.matmul_codes_into(&cache.get_or_prepare(&w), &mut via_codes)
            .unwrap();
        let converted = convert(&w, w.rows(), &pdac);
        assert_eq!(via_codes, x.matmul(&converted).unwrap());
    }
}
