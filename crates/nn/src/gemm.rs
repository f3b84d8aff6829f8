//! Pluggable GEMM backends.
//!
//! The accelerator's matrix multiplies can run in two fidelity regimes:
//!
//! * [`ExactGemm`] — full-precision `f64` reference,
//! * [`AnalogGemm`] — operands quantized and pushed through converter
//!   drive paths (P-DAC, electrical DAC, or one of each via
//!   [`AsymmetricGemm::new`]) before the dot product. The photonic DDot
//!   itself computes the dot product exactly (see `pdac-photonics`), so
//!   the analog error is entirely in the operand modulation — exactly the
//!   paper's error model. Every analog multiply takes the same route:
//!   convert each operand through its path's table
//!   ([`crate::quant::convert`]), then one exact f64 GEMM (DESIGN.md
//!   §16). Cached weights stay in byte form (codes plus a level table)
//!   and are decoded inside the GEMM kernel.
//!
//! The [`GemmBackend`] trait lets the same transformer forward pass run in
//! any regime; the fidelity study diffs their outputs.

use crate::prepared::{WeightCache, DEFAULT_CACHE_CAPACITY};
use crate::quant::convert;
use pdac_core::converter::MzmDriver;
use pdac_core::lut::ConverterLut;
use pdac_math::gemm::PackedB;
use pdac_math::Mat;

/// A matrix-multiply backend.
///
/// # Row-identity contract
///
/// Batched decode and grouped attention rest on two stacked forms
/// reproducing their solo twins **bit for bit**, row by row:
///
/// * **batch ≡ solo** — the rows of `a` belong to independent sequences,
///   and row `r` of [`Self::matmul_batch_into`] (and of
///   [`Self::matmul_batch_packed_into`]) equals [`Self::matmul`] of the
///   1×k matrix holding row `r` alone;
/// * **grouped ≡ solo transient** — row `g` of
///   [`Self::matmul_grouped_transient_into`] equals
///   [`Self::matmul_transient_into`] of row `g` of `a` against block `g`
///   of the stacked `b`.
///
/// The default methods keep the contract by construction (they run the
/// solo form per row and stack the results). Overrides must keep it too:
/// [`ExactGemm`] because every tuned kernel reduces each output cell in
/// the same ascending-`k` order whatever the row count, [`AnalogGemm`]
/// because it scales activations per row and stacked operands per block,
/// exactly as the solo path scales each of them per tensor.
pub trait GemmBackend {
    /// Computes `a · b`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    fn matmul(&self, a: &Mat, b: &Mat) -> Mat;

    /// Computes `a · b` into a caller-owned output matrix (reshaped and
    /// fully overwritten), so hot loops can reuse one allocation across
    /// calls. Must produce exactly [`Self::matmul`]'s result; the
    /// default literally delegates.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    fn matmul_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        *out = self.matmul(a, b);
    }

    /// Batched decode matmul: the rows of `a` belong to **independent
    /// sequences**; batch ≡ solo under the trait's row-identity contract.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    fn matmul_batch_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        out.resize(a.rows(), b.cols());
        let mut row = Mat::zeros(1, a.cols());
        for r in 0..a.rows() {
            row.as_mut_slice().copy_from_slice(a.row_slice(r));
            let prod = self.matmul(&row, b);
            out.row_slice_mut(r).copy_from_slice(prod.row_slice(0));
        }
    }

    /// [`Self::matmul_batch_into`] with a caller-supplied prepacked form
    /// of `b` on offer. `packed` must pack exactly `b` (same values,
    /// `PackedB::pack(b)`); callers with long-lived weights memoize the
    /// pack (see `EncoderLayer::packs`) and hand it in as a lazy closure
    /// so backends that cannot use it never force the packing.
    ///
    /// The default ignores the offer and delegates (analog backends
    /// already keep each *converted* weight in their [`WeightCache`], as
    /// byte codes in the same panel layout plus a level table; a pack of
    /// the unconverted values is useless to them).
    /// [`ExactGemm`] overrides it: the pack skips the per-call
    /// `B`-panel-packing pass that otherwise dominates small batched
    /// GEMMs. Batch ≡ solo, as for [`Self::matmul_batch_into`].
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    fn matmul_batch_packed_into<'p>(
        &self,
        a: &Mat,
        b: &Mat,
        packed: &dyn Fn() -> &'p PackedB,
        out: &mut Mat,
    ) {
        let _ = packed;
        self.matmul_batch_into(a, b, out);
    }

    /// Grouped transient matmul for batched attention: `a` holds one
    /// query-like row per grouped sequence (`G × k`), `b` stacks each
    /// sequence's **own** ephemeral right operand (`G` contiguous
    /// `k × n` blocks, so `b` is `(G·k) × n`), and `out` is `G × n`.
    /// Grouped ≡ solo transient under the trait's row-identity contract;
    /// backends override the per-row default to run all `G` products in
    /// one kernel dispatch / conversion pass.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != a.rows() · a.cols()`.
    fn matmul_grouped_transient_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        let (g, k) = a.shape();
        assert_eq!(b.rows(), g * k, "stacked operand row count");
        out.resize(g, b.cols());
        let mut row = Mat::zeros(1, k);
        let mut block = Mat::zeros(k, b.cols());
        let mut prod = Mat::zeros(1, b.cols());
        let block_len = k * b.cols();
        for r in 0..g {
            row.as_mut_slice().copy_from_slice(a.row_slice(r));
            block
                .as_mut_slice()
                .copy_from_slice(&b.as_slice()[r * block_len..(r + 1) * block_len]);
            self.matmul_transient_into(&row, &block, &mut prod);
            out.row_slice_mut(r).copy_from_slice(prod.row_slice(0));
        }
    }

    /// Computes `a · b` where `b` is **ephemeral** — a matrix built for
    /// this call (attention keys/values gathered from a KV cache) that
    /// will never be seen again. Must produce exactly
    /// [`Self::matmul_into`]'s result; the default literally delegates.
    /// Caching backends override it to skip their weight-conversion
    /// cache: memoizing a once-per-step operand cannot hit, and at
    /// decode batch sizes the flood of dead entries evicts the *actual*
    /// weights, forcing a full re-convert + re-pack of every layer each
    /// step.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    fn matmul_transient_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        self.matmul_into(a, b, out);
    }

    /// Human-readable backend name for reports.
    fn name(&self) -> &str;
}

/// The exact `f64` reference backend.
///
/// # Examples
///
/// ```
/// use pdac_nn::gemm::{ExactGemm, GemmBackend};
/// use pdac_math::Mat;
///
/// let a = Mat::identity(2);
/// let b = Mat::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(ExactGemm.matmul(&a, &b), b);
/// # Ok::<(), pdac_math::matrix::MatError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactGemm;

impl GemmBackend for ExactGemm {
    fn matmul(&self, a: &Mat, b: &Mat) -> Mat {
        a.matmul(b).expect("inner dimensions must agree")
    }

    fn matmul_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        a.matmul_into(b, out).expect("inner dimensions must agree");
    }

    /// Exact batched form: one GEMM over the whole stack. Row-identical
    /// to per-row products because every tuned kernel computes each
    /// output cell as the same ascending-`k` reduction regardless of the
    /// operand's row count (see `pdac_math::gemm`).
    fn matmul_batch_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        a.matmul_into(b, out).expect("inner dimensions must agree");
    }

    /// Exact packed batched form: with more than one row the prepacked
    /// kernel skips the per-call `B`-packing pass (bit-identical — the
    /// pack only changes memory layout). Single rows keep the plain
    /// vecmat path so solo-decode callers never pay for building packs
    /// whose memory roughly doubles the weights.
    fn matmul_batch_packed_into<'p>(
        &self,
        a: &Mat,
        b: &Mat,
        packed: &dyn Fn() -> &'p PackedB,
        out: &mut Mat,
    ) {
        if a.rows() > 1 {
            a.matmul_prepacked_into(packed(), out)
                .expect("inner dimensions must agree");
        } else {
            self.matmul_into(a, b, out);
        }
    }

    /// Exact grouped form: all `G` row products in one pooled kernel
    /// dispatch (`pdac_math::gemm::gemm_grouped`); per cell it is the
    /// same ascending-`k` reduction as `G` separate vecmats.
    fn matmul_grouped_transient_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        a.matmul_grouped_into(b, out)
            .expect("stacked operand rows must equal G·k");
    }

    fn name(&self) -> &str {
        "exact"
    }
}

/// The operand form of one analog call — how `a` is scaled and where `b`
/// comes from — one per analog entry point of [`GemmBackend`]. The
/// scales are [`convert`]'s block layouts: per tensor, per row, or per
/// stacked block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    /// `matmul`: `a` per tensor, `b` from the weight cache.
    Solo,
    /// `matmul_transient`: `a` and `b` per tensor, `b` converted fresh.
    Transient,
    /// `matmul_batch`: `a` per row, `b` from the weight cache.
    Batch,
    /// `matmul_grouped_transient`: `a` per row, `b` per stacked block.
    Grouped,
}

impl Form {
    /// Rows per scale block of `a`: one per row when the rows are
    /// independent sequences, else the whole tensor.
    fn a_block_rows(self, a: &Mat) -> usize {
        match self {
            Form::Batch | Form::Grouped => 1,
            Form::Solo | Form::Transient => a.rows(),
        }
    }

    /// The telemetry span and the [`crate::tap`] op name.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Form::Solo => ("nn.gemm.analog", "matmul"),
            Form::Transient => ("nn.gemm.analog", "transient"),
            Form::Batch => ("nn.gemm.analog_batch", "batch"),
            Form::Grouped => ("nn.gemm.analog_grouped", "grouped"),
        }
    }
}

/// Analog GEMM through converter drive paths: convert both operands
/// through their paths' [`ConverterLut`]s ([`convert`], which injects the
/// converter's error), then multiply exactly (the DDot identity).
///
/// The activation operand (`a`) and the weight-like operand (`b`) each
/// have a table. [`Self::new`] tabulates one driver for both paths;
/// [`AsymmetricGemm::new`] tabulates one driver per path — the hybrid
/// design with P-DAC activations and electrical weights. Per-call
/// conversion is then an array read rather than a drive-path evaluation.
/// The weight table lives in the [`WeightCache`], which memoizes `b` of
/// cached calls in byte form — one code per element in GEMM panel order
/// plus the weight's table of levels — so repeated multiplies against
/// the same weights (every decode step of generative inference) skip
/// quantize+convert entirely and stream one byte per weight element;
/// the kernel decodes `levels[code]` as it goes. Both shortcuts are
/// bit-identical to the direct path.
///
/// # Panics
///
/// The constructors panic if the weight-path table has more than 256
/// levels (bits above 8): cached weights are byte codes.
#[derive(Debug, Clone)]
pub struct AnalogGemm {
    lut_a: ConverterLut,
    cache: WeightCache,
    name: String,
}

impl AnalogGemm {
    /// Tabulates `driver` once and uses the table for both operands.
    ///
    /// # Panics
    ///
    /// Panics if `driver` has more than 8 bits.
    pub fn new(driver: impl MzmDriver, name: impl Into<String>) -> Self {
        let lut = ConverterLut::new(&driver);
        Self::with_luts(lut.clone(), lut, name)
    }

    /// Builds the backend from an activation-path and a weight-path table.
    ///
    /// # Panics
    ///
    /// Panics if the tables' bit widths differ, or if the weight-path
    /// table has more levels than a byte code indexes.
    fn with_luts(lut_a: ConverterLut, lut_b: ConverterLut, name: impl Into<String>) -> Self {
        assert_eq!(
            lut_a.bits(),
            lut_b.bits(),
            "both operand paths must share a bit width"
        );
        Self {
            lut_a,
            cache: WeightCache::new(lut_b, DEFAULT_CACHE_CAPACITY),
            name: name.into(),
        }
    }

    /// The weight-conversion cache (for hit/miss inspection).
    pub fn cache(&self) -> &WeightCache {
        &self.cache
    }

    /// Every analog entry point: convert `a` through the activation
    /// table and `b` through the cache's weight table, then one exact
    /// f64 GEMM, under one span and the MAC counter, with the drift tap
    /// on the finished output. The cached forms decode `b` inside the
    /// kernel (`levels[code]`); the cache-free forms run the same
    /// conversion up front, so skipping the cache for dead-after-this-call
    /// operands cannot change a bit.
    fn run(&self, form: Form, a: &Mat, b: &Mat, out: &mut Mat) {
        let (span, op) = form.names();
        let _span = pdac_telemetry::span(span);
        pdac_telemetry::counter_add("nn.gemm.macs", (a.rows() * a.cols() * b.cols()) as u64);
        let lut_b = self.cache.lut();
        let aq = convert(a, form.a_block_rows(a), &self.lut_a);
        let shapes = match form {
            Form::Solo | Form::Batch => {
                let bq = self.cache.get_or_prepare(b);
                aq.matmul_codes_into(&bq, out)
            }
            Form::Transient => aq.matmul_into(&convert(b, b.rows(), lut_b), out),
            Form::Grouped => aq.matmul_grouped_into(&convert(b, a.cols(), lut_b), out),
        };
        shapes.expect("operand shapes must agree");
        crate::tap::observe(&self.name, op, a, b, out);
    }
}

impl GemmBackend for AnalogGemm {
    fn matmul(&self, a: &Mat, b: &Mat) -> Mat {
        let mut out = Mat::zeros(1, 1);
        self.matmul_into(a, b, &mut out);
        out
    }

    fn matmul_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        self.run(Form::Solo, a, b, out);
    }

    /// Cache-free: both operands convert fresh, so an operand that is
    /// dead after this call never enters the cache.
    fn matmul_transient_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        self.run(Form::Transient, a, b, out);
    }

    /// Per-row activation scales ([`convert`] with one-row blocks)
    /// against the cached byte-form weight: the weight
    /// converts once per distinct matrix instead of once per sequence,
    /// and one pass over its codes serves up to 8 rows.
    fn matmul_batch_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        self.run(Form::Batch, a, b, out);
    }

    /// Per-row activation scales and per-block operand scales
    /// ([`convert`], one block per sequence), then
    /// one exact grouped kernel. Cache-free like
    /// [`Self::matmul_transient_into`].
    fn matmul_grouped_transient_into(&self, a: &Mat, b: &Mat, out: &mut Mat) {
        self.run(Form::Grouped, a, b, out);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// The hybrid design's constructor: different drive paths for the two
/// operands — dynamic activations (`a`) ride the P-DAC while weight-like
/// operands (`b`) keep the exact electrical path. It builds an
/// [`AnalogGemm`] with one table per path; the type has no values.
#[derive(Debug)]
pub enum AsymmetricGemm {}

impl AsymmetricGemm {
    /// Tabulates `driver_a` for the activation path and `driver_b` for
    /// the weight path.
    ///
    /// # Panics
    ///
    /// Panics if the drivers' bit widths differ or exceed 8.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        driver_a: impl MzmDriver,
        driver_b: impl MzmDriver,
        name: impl Into<String>,
    ) -> AnalogGemm {
        AnalogGemm::with_luts(
            ConverterLut::new(&driver_a),
            ConverterLut::new(&driver_b),
            name,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdac_core::edac::ElectricalDac;
    use pdac_core::pdac::PDac;
    use pdac_math::rng::SplitMix64;
    use pdac_math::stats::cosine_similarity;

    fn random_mat(rows: usize, cols: usize, seed: u64) -> Mat {
        let mut rng = SplitMix64::seed_from_u64(seed);
        Mat::from_fn(rows, cols, |_, _| rng.gen_range_f64(-1.0, 1.0))
    }

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Shapes `(m, k, n)` on every branch of the prepacked kernel the
    /// cached forms run: one row, fewer rows than a register tile, whole
    /// tiles, and a product above `PAR_MIN_MACS` (pooled when threads > 1).
    const CACHE_PATH_SHAPES: [(usize, usize, usize); 5] = [
        (9, 13, 6),
        (1, 512, 512),
        (2, 13, 6),
        (16, 64, 64),
        (70, 64, 64),
    ];

    fn hybrid8(name: &str) -> AnalogGemm {
        AsymmetricGemm::new(
            PDac::with_optimal_approx(8).unwrap(),
            ElectricalDac::new(8).unwrap(),
            name,
        )
    }

    #[test]
    fn exact_matches_reference() {
        let a = random_mat(5, 7, 1);
        let b = random_mat(7, 3, 2);
        assert_eq!(ExactGemm.matmul(&a, &b), a.matmul(&b).unwrap());
        assert_eq!(ExactGemm.name(), "exact");
    }

    #[test]
    fn analog_pdac_is_close_but_not_exact() {
        let a = random_mat(8, 16, 3);
        let b = random_mat(16, 8, 4);
        let exact = ExactGemm.matmul(&a, &b);
        let analog = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "pdac8");
        let got = analog.matmul(&a, &b);
        assert_ne!(got, exact);
        let cs = cosine_similarity(got.as_slice(), exact.as_slice()).unwrap();
        assert!(cs > 0.99, "cosine similarity {cs}");
    }

    #[test]
    fn analog_edac_is_closer_than_pdac() {
        let a = random_mat(8, 16, 5);
        let b = random_mat(16, 8, 6);
        let exact = ExactGemm.matmul(&a, &b);
        let pdac = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "pdac8");
        let edac = AnalogGemm::new(ElectricalDac::new(8).unwrap(), "edac8");
        let dp = pdac.matmul(&a, &b).distance(&exact);
        let de = edac.matmul(&a, &b).distance(&exact);
        assert!(de < dp, "edac {de} vs pdac {dp}");
    }

    #[test]
    fn higher_precision_improves_analog_gemm() {
        let a = random_mat(8, 16, 7);
        let b = random_mat(16, 8, 8);
        let exact = ExactGemm.matmul(&a, &b);
        let d4 = AnalogGemm::new(PDac::with_optimal_approx(4).unwrap(), "p4")
            .matmul(&a, &b)
            .distance(&exact);
        let d8 = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "p8")
            .matmul(&a, &b)
            .distance(&exact);
        assert!(d8 < d4, "8-bit {d8} vs 4-bit {d4}");
    }

    #[test]
    fn asymmetric_accuracy_between_pure_paths() {
        let a = random_mat(8, 16, 21);
        let b = random_mat(16, 8, 22);
        let exact = ExactGemm.matmul(&a, &b);
        let full_pdac = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "pp");
        let full_edac = AnalogGemm::new(ElectricalDac::new(8).unwrap(), "ee");
        let hybrid = hybrid8("hybrid");
        let dp = full_pdac.matmul(&a, &b).distance(&exact);
        let de = full_edac.matmul(&a, &b).distance(&exact);
        let dh = hybrid.matmul(&a, &b).distance(&exact);
        assert!(de < dh && dh < dp, "{de} < {dh} < {dp} violated");
        assert_eq!(hybrid.name(), "hybrid");
    }

    #[test]
    #[should_panic(expected = "share a bit width")]
    fn asymmetric_rejects_mismatched_bits() {
        AsymmetricGemm::new(
            PDac::with_optimal_approx(8).unwrap(),
            ElectricalDac::new(4).unwrap(),
            "bad",
        );
    }

    #[test]
    #[should_panic(expected = "use at most 8 bits")]
    fn nine_bit_drivers_rejected() {
        AnalogGemm::new(ElectricalDac::new(9).unwrap(), "e9");
    }

    /// One drive path is the diagonal case of two: `AnalogGemm::new(d)`
    /// and `AsymmetricGemm::new(d, d)` must agree bit for bit on every
    /// analog entry point, for both physical drivers.
    #[test]
    fn one_path_is_the_diagonal_of_two() {
        type Entry = fn(&AnalogGemm, &Mat, &Mat, &mut Mat);
        fn check(driver: impl MzmDriver + Clone) {
            let one = AnalogGemm::new(driver.clone(), "one");
            let two = AsymmetricGemm::new(driver.clone(), driver, "two");
            let solo = (random_mat(4, 12, 221), random_mat(12, 6, 222));
            let grouped = (random_mat(3, 8, 223), random_mat(3 * 8, 5, 224));
            let entries: [(&str, Entry, &(Mat, Mat)); 4] = [
                ("matmul_into", |g, a, b, o| g.matmul_into(a, b, o), &solo),
                (
                    "transient",
                    |g, a, b, o| g.matmul_transient_into(a, b, o),
                    &solo,
                ),
                ("batch", |g, a, b, o| g.matmul_batch_into(a, b, o), &solo),
                (
                    "grouped",
                    |g, a, b, o| g.matmul_grouped_transient_into(a, b, o),
                    &grouped,
                ),
            ];
            let (mut x, mut y) = (Mat::zeros(1, 1), Mat::zeros(1, 1));
            for (entry, call, (a, b)) in entries {
                call(&one, a, b, &mut x);
                call(&two, a, b, &mut y);
                assert_eq!(x.shape(), y.shape(), "{entry}");
                assert_eq!(bits(&x), bits(&y), "{entry}");
            }
        }
        check(PDac::with_optimal_approx(8).unwrap());
        check(ElectricalDac::new(8).unwrap());
    }

    #[test]
    fn analog_lut_cache_path_is_bit_identical_to_direct() {
        // The LUT + weight-cache fast path must reproduce the golden
        // pipeline (scalar-driver conversion, reference matmul) exactly,
        // on the converting call and on the cached repeat.
        let driver = PDac::with_optimal_approx(8).unwrap();
        let analog = AnalogGemm::new(driver.clone(), "p8");
        for (i, &(m, k, n)) in CACHE_PATH_SHAPES.iter().enumerate() {
            let a = random_mat(m, k, 31 + 2 * i as u64);
            let b = random_mat(k, n, 32 + 2 * i as u64);
            let golden = convert(&a, m, &driver).matmul_reference(&convert(&b, k, &driver));
            let direct = bits(&golden.unwrap());
            assert_eq!(bits(&analog.matmul(&a, &b)), direct, "{m}x{k}x{n}");
            assert_eq!(bits(&analog.matmul(&a, &b)), direct, "{m}x{k}x{n} cached");
        }
    }

    #[test]
    fn analog_weight_cache_hits_across_calls() {
        let w = random_mat(12, 4, 33);
        let analog = AnalogGemm::new(ElectricalDac::new(8).unwrap(), "e8");
        for step in 0..5 {
            let x = random_mat(1, 12, 40 + step);
            let _ = analog.matmul(&x, &w);
        }
        assert_eq!(analog.cache().misses(), 1);
        assert_eq!(analog.cache().hits(), 4);
    }

    #[test]
    fn asymmetric_cache_path_is_bit_identical_to_direct() {
        let pdac = PDac::with_optimal_approx(8).unwrap();
        let edac = ElectricalDac::new(8).unwrap();
        let hybrid = AsymmetricGemm::new(pdac.clone(), edac, "hy");
        for (i, &(m, k, n)) in CACHE_PATH_SHAPES.iter().enumerate() {
            let a = random_mat(m, k, 34 + 2 * i as u64);
            let b = random_mat(k, n, 35 + 2 * i as u64);
            let golden = convert(&a, m, &pdac).matmul_reference(&convert(&b, k, &edac));
            let direct = bits(&golden.unwrap());
            assert_eq!(bits(&hybrid.matmul(&a, &b)), direct, "{m}x{k}x{n}");
            assert_eq!(hybrid.cache().misses(), i as u64 + 1);
            assert_eq!(bits(&hybrid.matmul(&a, &b)), direct, "{m}x{k}x{n} cached");
            assert_eq!(hybrid.cache().hits(), i as u64 + 1);
        }
    }

    #[test]
    fn analog_gemm_zero_operand() {
        let a = Mat::zeros(3, 3);
        let b = random_mat(3, 3, 9);
        let analog = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "p8");
        let got = analog.matmul(&a, &b);
        assert!(got.max_abs() < 1e-12);
    }

    /// Every output row of the batched form must match the 1×k matmul of
    /// that row alone — the invariant `decode_batch` is built on.
    fn assert_batch_rows_match(backend: &dyn GemmBackend, a: &Mat, b: &Mat) {
        let mut batched = Mat::zeros(1, 1);
        backend.matmul_batch_into(a, b, &mut batched);
        assert_eq!(batched.shape(), (a.rows(), b.cols()));
        for r in 0..a.rows() {
            let row = Mat::from_rows(1, a.cols(), a.row_slice(r).to_vec()).unwrap();
            let single = backend.matmul(&row, b);
            assert_eq!(
                batched.row_slice(r),
                single.row_slice(0),
                "{} row {r}",
                backend.name()
            );
        }
    }

    #[test]
    fn exact_batch_rows_match_single_rows() {
        let a = random_mat(6, 16, 61);
        let b = random_mat(16, 8, 62);
        assert_batch_rows_match(&ExactGemm, &a, &b);
    }

    #[test]
    fn analog_batch_rows_match_single_rows() {
        // Rows with very different magnitudes: per-tensor batching would
        // change every row's quantization scale and fail this test.
        let mut a = random_mat(5, 16, 63);
        for (r, f) in [(0usize, 10.0), (1, 0.01)] {
            for v in a.row_slice_mut(r) {
                *v *= f;
            }
        }
        let b = random_mat(16, 8, 64);
        let pdac = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "p8");
        assert_batch_rows_match(&pdac, &a, &b);
        assert_batch_rows_match(&hybrid8("hy"), &a, &b);
    }

    #[test]
    fn matmul_into_matches_matmul() {
        let a = random_mat(4, 12, 65);
        let b = random_mat(12, 6, 66);
        let pdac = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "p8");
        let hybrid = hybrid8("hy");
        let mut out = Mat::zeros(1, 1);
        for backend in [&ExactGemm as &dyn GemmBackend, &pdac, &hybrid] {
            backend.matmul_into(&a, &b, &mut out);
            assert_eq!(out, backend.matmul(&a, &b), "{}", backend.name());
        }
    }

    #[test]
    fn matmul_transient_matches_cached_and_skips_cache() {
        let a = random_mat(3, 14, 81);
        let b = random_mat(14, 9, 82);
        let pdac = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "p8");
        let hybrid = hybrid8("hy");
        let mut out = Mat::zeros(1, 1);
        for backend in [&ExactGemm as &dyn GemmBackend, &pdac, &hybrid] {
            backend.matmul_transient_into(&a, &b, &mut out);
            assert_eq!(out, backend.matmul(&a, &b), "{}", backend.name());
        }
        // The transient call itself must leave the weight cache alone:
        // the only traffic above came from the `matmul` comparisons.
        assert_eq!(pdac.cache().misses() + pdac.cache().hits(), 1);
        assert_eq!(hybrid.cache().misses() + hybrid.cache().hits(), 1);
    }

    /// Every output row of the grouped transient form must match the
    /// solo transient matmul of that row against its own stacked block —
    /// the invariant the grouped attention path is built on.
    fn assert_grouped_rows_match(backend: &dyn GemmBackend, a: &Mat, b: &Mat) {
        let (g, k) = a.shape();
        let n = b.cols();
        let mut grouped = Mat::zeros(1, 1);
        backend.matmul_grouped_transient_into(a, b, &mut grouped);
        assert_eq!(grouped.shape(), (g, n));
        let mut solo = Mat::zeros(1, 1);
        for r in 0..g {
            let row = Mat::from_rows(1, k, a.row_slice(r).to_vec()).unwrap();
            let block =
                Mat::from_rows(k, n, b.as_slice()[r * k * n..(r + 1) * k * n].to_vec()).unwrap();
            backend.matmul_transient_into(&row, &block, &mut solo);
            assert_eq!(
                grouped.row_slice(r),
                solo.row_slice(0),
                "{} group {r}",
                backend.name()
            );
        }
    }

    #[test]
    fn grouped_transient_rows_match_solo_transient() {
        // Per-group operands with wildly different magnitudes so any
        // shared quantization scale across blocks would fail.
        let (g, k, n) = (5, 8, 6);
        let a = random_mat(g, k, 101);
        let mut b = random_mat(g * k, n, 102);
        for (blk, f) in [(0usize, 12.0), (3, 0.02)] {
            for r in 0..k {
                for v in b.row_slice_mut(blk * k + r) {
                    *v *= f;
                }
            }
        }
        let pdac = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "p8");
        let hybrid = hybrid8("hy");
        for backend in [&ExactGemm as &dyn GemmBackend, &pdac, &hybrid] {
            assert_grouped_rows_match(backend, &a, &b);
        }
        // Grouped transients must leave the weight cache untouched.
        assert_eq!(pdac.cache().misses() + pdac.cache().hits(), 0);
        assert_eq!(hybrid.cache().misses() + hybrid.cache().hits(), 0);
    }

    #[test]
    fn grouped_transient_single_group_matches_transient() {
        let a = random_mat(1, 10, 103);
        let b = random_mat(10, 7, 104);
        let pdac = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "p8");
        let hybrid = hybrid8("hy");
        let mut grouped = Mat::zeros(1, 1);
        let mut solo = Mat::zeros(1, 1);
        for backend in [&ExactGemm as &dyn GemmBackend, &pdac, &hybrid] {
            backend.matmul_grouped_transient_into(&a, &b, &mut grouped);
            backend.matmul_transient_into(&a, &b, &mut solo);
            assert_eq!(grouped, solo, "{}", backend.name());
        }
    }

    #[test]
    fn batch_packed_matches_batch_for_exact() {
        let b = random_mat(16, 8, 105);
        let packed = pdac_math::gemm::PackedB::pack(b.as_slice(), 16, 8);
        let mut plain = Mat::zeros(1, 1);
        let mut via_pack = Mat::zeros(1, 1);
        for rows in [1, 2, 6] {
            let a = random_mat(rows, 16, 106 + rows as u64);
            ExactGemm.matmul_batch_into(&a, &b, &mut plain);
            ExactGemm.matmul_batch_packed_into(&a, &b, &|| &packed, &mut via_pack);
            assert_eq!(via_pack, plain, "rows={rows}");
        }
    }

    #[test]
    fn batch_packed_single_row_never_forces_the_pack() {
        let a = random_mat(1, 12, 107);
        let b = random_mat(12, 5, 108);
        let mut out = Mat::zeros(1, 1);
        ExactGemm.matmul_batch_packed_into(
            &a,
            &b,
            &|| -> &'static pdac_math::gemm::PackedB { unreachable!("m == 1 must not pack") },
            &mut out,
        );
        assert_eq!(out, ExactGemm.matmul(&a, &b));
    }

    #[test]
    fn batch_packed_default_ignores_the_pack() {
        // Analog backends keep *converted* weights in byte form in their
        // own cache; the raw-value pack must be ignored, not misused.
        let a = random_mat(4, 12, 109);
        let b = random_mat(12, 5, 110);
        let packed = pdac_math::gemm::PackedB::pack(b.as_slice(), 12, 5);
        let pdac = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "p8");
        let hybrid = hybrid8("hy");
        let mut plain = Mat::zeros(1, 1);
        let mut via_pack = Mat::zeros(1, 1);
        for backend in [&pdac as &dyn GemmBackend, &hybrid] {
            backend.matmul_batch_into(&a, &b, &mut plain);
            backend.matmul_batch_packed_into(&a, &b, &|| &packed, &mut via_pack);
            assert_eq!(via_pack, plain, "{}", backend.name());
        }
    }

    #[test]
    fn an_infinite_activation_poisons_only_its_row() {
        // One overflowed activation must not panic the batch: its row
        // has no finite scale and comes out NaN, and the other row keeps
        // its solo bits.
        let w = random_mat(4, 3, 71);
        let mut x = random_mat(2, 4, 72);
        x[(0, 1)] = f64::INFINITY;
        let analog = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "p8");
        let mut out = Mat::zeros(1, 1);
        analog.matmul_batch_into(&x, &w, &mut out);
        assert!(out.row_slice(0).iter().all(|v| v.is_nan()), "{out:?}");
        let row1 = Mat::from_rows(1, 4, x.row_slice(1).to_vec()).unwrap();
        let mut solo = Mat::zeros(1, 1);
        analog.matmul_batch_into(&row1, &w, &mut solo);
        let row_bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(row_bits(solo.row_slice(0)), row_bits(out.row_slice(1)));
    }

    #[test]
    fn analog_batch_hits_weight_cache_once_per_call() {
        let w = random_mat(12, 4, 67);
        let analog = AnalogGemm::new(ElectricalDac::new(8).unwrap(), "e8");
        let mut out = Mat::zeros(1, 1);
        for step in 0..5 {
            let x = random_mat(8, 12, 70 + step);
            analog.matmul_batch_into(&x, &w, &mut out);
        }
        assert_eq!(analog.cache().misses(), 1);
        assert_eq!(analog.cache().hits(), 4);
    }
}
