//! Tensor quantization onto the converter code grid.
//!
//! Before modulation, activations and weights are quantized with a
//! symmetric scale (the largest magnitude maps to the full-scale code),
//! one scale per block of rows: the whole tensor, each row, or each
//! stacked operand ([`QuantizedMat`]). Dequantization happens
//! physically: the MZM emits `scale · driver.convert(code)` — so
//! replacing the ideal driver with a P-DAC injects exactly the
//! approximation error of paper Sec. III-C into every operand.
//!
//! A cached weight skips the dequantized matrix: [`quantize_packed`]
//! keeps its codes as bytes in GEMM panels next to the table of levels
//! they stand for, and the kernel reads `levels[code]`.

use pdac_core::converter::MzmDriver;
use pdac_core::lut::ConverterLut;
use pdac_math::gemm::PackedCodes;
use pdac_math::quant::abs_max;
use pdac_math::{Mat, Quantizer};

/// The shared scale rule: symmetric `max|x|`, unit scale for all-zero
/// data so the quantizer stays valid.
#[inline]
fn scale_of(xs: &[f64]) -> f64 {
    let m = abs_max(xs);
    if m == 0.0 {
        1.0
    } else {
        m
    }
}

/// A tensor quantized to signed codes with one symmetric scale per
/// block of rows.
///
/// Every analog operand is one of three block layouts:
///
/// * **per tensor** ([`Self::quantize`]) — one block: solo and transient
///   operands, and cached weights;
/// * **per row** (`quantize_blocks(x, 1, ..)`) — the batched decode
///   engine stacks the current-token activations of S independent
///   sequences into one S×hidden matrix; a shared scale would couple the
///   sequences (one outlier row rescales all of them);
/// * **grouped** (`quantize_blocks(x, k, ..)`) — grouped attention
///   stacks each sequence's own transient `k × n` operand (a gathered Kᵀ
///   or V) into one `(G·k) × n` matrix.
///
/// Each block gets exactly the per-tensor scale rule, so block `g` of
/// [`Self::quantize_blocks`] + [`Self::dequantize_with`] is
/// bit-identical to [`Self::quantize`] of block `g` alone (same scale,
/// same codes, same conversion) — what keeps batched and grouped
/// products equal to their solo twins row for row.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMat {
    codes: Vec<i32>,
    rows: usize,
    cols: usize,
    block_rows: usize,
    scales: Vec<f64>,
    bits: u8,
}

impl QuantizedMat {
    /// Quantizes `x` at `bits` precision with the symmetric per-tensor
    /// scale `max|x|` (scale 1 for an all-zero tensor).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=16`.
    pub fn quantize(x: &Mat, bits: u8) -> Self {
        // A 0-row matrix has nothing to scale, but a block needs a row.
        Self::quantize_blocks(x, x.rows().max(1), bits)
    }

    /// Quantizes each `block_rows`-row block of `x` at `bits` precision
    /// with that block's symmetric scale `max|block|` (scale 1 for an
    /// all-zero block) — the per-tensor rule of [`Self::quantize`]
    /// applied block by block.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=16`, `block_rows` is zero, or
    /// `x.rows()` is not a multiple of `block_rows`.
    pub fn quantize_blocks(x: &Mat, block_rows: usize, bits: u8) -> Self {
        assert!(block_rows > 0, "block_rows must be nonzero");
        assert_eq!(
            x.rows() % block_rows,
            0,
            "row count must be a whole number of blocks"
        );
        let block_len = block_rows * x.cols();
        let blocks = x.rows() / block_rows;
        let mut codes = Vec::with_capacity(x.rows() * x.cols());
        let mut scales = Vec::with_capacity(blocks);
        for g in 0..blocks {
            let block = &x.as_slice()[g * block_len..(g + 1) * block_len];
            let scale = scale_of(block);
            let q = Quantizer::new(bits, scale).expect("validated bit width and positive scale");
            q.quantize_slice(block, &mut codes);
            scales.push(scale);
        }
        Self {
            codes,
            rows: x.rows(),
            cols: x.cols(),
            block_rows,
            scales,
            bits,
        }
    }

    /// One scale per block, in row order (a single entry for a
    /// per-tensor quantization).
    pub fn scales(&self) -> &[f64] {
        &self.scales
    }

    /// Bit precision.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Raw codes, row-major.
    pub fn codes(&self) -> &[i32] {
        &self.codes
    }

    /// Ideal dequantization (no converter error).
    pub fn dequantize_ideal(&self) -> Mat {
        let len = self.block_rows * self.cols;
        let mut data = Vec::with_capacity(self.codes.len());
        for (g, &scale) in self.scales.iter().enumerate() {
            let q = Quantizer::new(self.bits, scale).expect("stored params are valid");
            let codes = &self.codes[g * len..(g + 1) * len];
            data.extend(codes.iter().map(|&c| q.dequantize(c)));
        }
        Mat::from_rows(self.rows, self.cols, data).expect("shape preserved")
    }

    /// Physical dequantization through an MZM drive path: every element
    /// of block `g` becomes `scales[g] · driver.convert(code)`.
    ///
    /// Converts the whole code slice with one [`MzmDriver::convert_all`]
    /// call — a single virtual dispatch instead of one per element, so
    /// table-backed drivers ([`pdac_core::ConverterLut`]) run their tight
    /// lookup loop. Bit-identical to per-element `convert`.
    ///
    /// # Panics
    ///
    /// Panics if the driver's bit width differs from the tensor's.
    pub fn dequantize_with(&self, driver: &dyn MzmDriver) -> Mat {
        assert_eq!(driver.bits(), self.bits, "driver/tensor bit width mismatch");
        let mut data = driver.convert_all(&self.codes);
        let len = self.block_rows * self.cols;
        for (g, &scale) in self.scales.iter().enumerate() {
            for v in &mut data[g * len..(g + 1) * len] {
                *v *= scale;
            }
        }
        Mat::from_rows(self.rows, self.cols, data).expect("shape preserved")
    }
}

/// Quantizes `x` per tensor at `lut`'s bit width and writes each code,
/// offset to `code + max_code`, straight into byte-coded GEMM panels
/// whose level table is `lut.table()[i] · scale`. Level `i` is exactly
/// what [`QuantizedMat::dequantize_with`] gives code `i − max_code`, so
/// [`PackedCodes::decode`] equals the packed [`QuantizedMat::quantize`] +
/// `dequantize_with(lut)` bit for bit.
///
/// One pass after the abs-max: no code vector, no converted matrix, no
/// f64 panels.
///
/// # Panics
///
/// Panics if `lut` has more than 256 levels (bits above 8).
pub fn quantize_packed(x: &Mat, lut: &ConverterLut) -> PackedCodes {
    let scale = scale_of(x.as_slice());
    let q = Quantizer::new(lut.bits(), scale).expect("validated bit width and positive scale");
    let max_code = q.max_code();
    let levels: Vec<f64> = lut.table().iter().map(|&level| level * scale).collect();
    PackedCodes::pack_with(x.as_slice(), x.rows(), x.cols(), &levels, |v| {
        // In 0..=2·max_code, which is below 256 when the table fits.
        (q.quantize(v) + max_code) as u8
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdac_core::edac::ElectricalDac;
    use pdac_core::pdac::PDac;

    fn ramp() -> Mat {
        Mat::from_fn(4, 4, |r, c| (r as f64 - 1.5) * 0.4 + (c as f64 - 1.5) * 0.1)
    }

    #[test]
    fn quantize_preserves_shape_and_scale() {
        let x = ramp();
        let q = QuantizedMat::quantize(&x, 8);
        assert_eq!(q.shape(), (4, 4));
        assert_eq!(q.bits(), 8);
        assert_eq!(q.scales().len(), 1);
        assert!((q.scales()[0] - x.max_abs()).abs() < 1e-12);
    }

    #[test]
    fn ideal_round_trip_error_bounded() {
        let x = ramp();
        let q = QuantizedMat::quantize(&x, 8);
        let back = q.dequantize_ideal();
        let step = q.scales()[0] / 127.0;
        for (a, b) in x.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= step / 2.0 + 1e-12);
        }
    }

    #[test]
    fn zero_tensor_quantizes_to_zero() {
        let x = Mat::zeros(2, 2);
        let q = QuantizedMat::quantize(&x, 8);
        assert!(q.codes().iter().all(|&c| c == 0));
        assert_eq!(q.dequantize_ideal().as_slice(), &[0.0; 4]);
    }

    #[test]
    fn pdac_dequantization_respects_error_bound() {
        let x = ramp();
        let q = QuantizedMat::quantize(&x, 8);
        let pdac = PDac::with_optimal_approx(8).unwrap();
        let ideal = q.dequantize_ideal();
        let analog = q.dequantize_with(&pdac);
        for (i, (a, b)) in ideal.as_slice().iter().zip(analog.as_slice()).enumerate() {
            if a.abs() > 1e-9 {
                assert!(((a - b) / a).abs() < 0.086, "elem {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn edac_dequantization_is_tighter_than_pdac() {
        let x = ramp();
        let q = QuantizedMat::quantize(&x, 8);
        let pdac = PDac::with_optimal_approx(8).unwrap();
        let edac = ElectricalDac::new(8).unwrap();
        let ideal = q.dequantize_ideal();
        let ep = q.dequantize_with(&pdac).distance(&ideal);
        let ee = q.dequantize_with(&edac).distance(&ideal);
        assert!(ee < ep);
    }

    #[test]
    #[should_panic(expected = "bit width mismatch")]
    fn mismatched_driver_bits_rejected() {
        let q = QuantizedMat::quantize(&ramp(), 8);
        let pdac = PDac::with_optimal_approx(4).unwrap();
        q.dequantize_with(&pdac);
    }

    #[test]
    fn row_quantize_rows_match_per_tensor_single_rows() {
        // The batching invariant: each row of the row-quantized stack is
        // bit-identical to per-tensor quantization of that row alone.
        let mut rng = pdac_math::rng::SplitMix64::seed_from_u64(77);
        let x = Mat::from_fn(5, 12, |_, _| rng.gen_range_f64(-3.0, 3.0));
        let pdac = PDac::with_optimal_approx(8).unwrap();
        let batched = QuantizedMat::quantize_blocks(&x, 1, 8);
        assert_eq!(batched.shape(), (5, 12));
        let deq = batched.dequantize_with(&pdac);
        for r in 0..x.rows() {
            let row = Mat::from_rows(1, 12, x.row_slice(r).to_vec()).unwrap();
            let single = QuantizedMat::quantize(&row, 8);
            assert_eq!(batched.scales()[r], single.scales()[0], "row {r}");
            let single_deq = single.dequantize_with(&pdac);
            assert_eq!(deq.row_slice(r), single_deq.row_slice(0), "row {r}");
        }
    }

    #[test]
    fn row_quantize_zero_row_uses_unit_scale() {
        let mut x = Mat::from_fn(2, 4, |_, c| c as f64 + 1.0);
        x.row_slice_mut(1).fill(0.0);
        let q = QuantizedMat::quantize_blocks(&x, 1, 8);
        assert_eq!(q.scales()[1], 1.0);
        assert_eq!(q.bits(), 8);
        assert!(q.codes()[4..].iter().all(|&c| c == 0));
        // The zero row dequantizes exactly as a per-tensor zero row would
        // (the driver's code-0 level, whatever it is, times unit scale).
        let edac = ElectricalDac::new(8).unwrap();
        let zero_row = Mat::zeros(1, 4);
        let single = QuantizedMat::quantize(&zero_row, 8);
        assert_eq!(
            q.dequantize_with(&edac).row_slice(1),
            single.dequantize_with(&edac).row_slice(0)
        );
    }

    #[test]
    #[should_panic(expected = "bit width mismatch")]
    fn row_quantize_rejects_mismatched_driver_bits() {
        let q = QuantizedMat::quantize_blocks(&ramp(), 1, 8);
        q.dequantize_with(&PDac::with_optimal_approx(4).unwrap());
    }

    #[test]
    fn group_quantize_blocks_match_per_tensor_single_blocks() {
        // The grouped-attention invariant: each block of the stacked
        // quantization is bit-identical to per-tensor quantization of
        // that block alone.
        let mut rng = pdac_math::rng::SplitMix64::seed_from_u64(91);
        let (groups, block_rows, cols) = (4, 3, 6);
        let mut x = Mat::from_fn(groups * block_rows, cols, |_, _| {
            rng.gen_range_f64(-2.0, 2.0)
        });
        // Give blocks very different magnitudes so a shared per-tensor
        // scale would fail the comparison.
        for (g, f) in [(0usize, 8.0), (2, 0.05)] {
            for r in 0..block_rows {
                for v in x.row_slice_mut(g * block_rows + r) {
                    *v *= f;
                }
            }
        }
        let pdac = PDac::with_optimal_approx(8).unwrap();
        let stacked = QuantizedMat::quantize_blocks(&x, block_rows, 8);
        assert_eq!(stacked.shape(), (groups * block_rows, cols));
        let deq = stacked.dequantize_with(&pdac);
        for g in 0..groups {
            let mut data = Vec::new();
            for r in 0..block_rows {
                data.extend_from_slice(x.row_slice(g * block_rows + r));
            }
            let block = Mat::from_rows(block_rows, cols, data).unwrap();
            let single = QuantizedMat::quantize(&block, 8);
            assert_eq!(stacked.scales()[g], single.scales()[0], "block {g}");
            let single_deq = single.dequantize_with(&pdac);
            for r in 0..block_rows {
                assert_eq!(
                    deq.row_slice(g * block_rows + r),
                    single_deq.row_slice(r),
                    "block {g} row {r}"
                );
            }
        }
    }

    #[test]
    fn group_quantize_zero_block_uses_unit_scale() {
        let mut x = Mat::from_fn(4, 3, |_, c| c as f64 + 1.0);
        x.row_slice_mut(2).fill(0.0);
        x.row_slice_mut(3).fill(0.0);
        let q = QuantizedMat::quantize_blocks(&x, 2, 8);
        assert_eq!(q.scales()[1], 1.0);
        assert!(q.codes()[6..].iter().all(|&c| c == 0));
    }

    #[test]
    #[should_panic(expected = "whole number of blocks")]
    fn group_quantize_rejects_ragged_blocks() {
        QuantizedMat::quantize_blocks(&ramp(), 3, 8);
    }

    /// Bits of `PackedB` panels (`Debug` prints every f64 in shortest
    /// round-trip form with the sign of zero).
    fn panel_bits(p: &pdac_math::gemm::PackedB) -> String {
        format!("{p:?}")
    }

    #[test]
    fn packed_codes_decode_to_the_dequantized_matrix() {
        let mut rng = pdac_math::rng::SplitMix64::seed_from_u64(93);
        let cases = [
            (PDac::with_optimal_approx(8).unwrap(), 6, 5),
            (PDac::with_optimal_approx(4).unwrap(), 3, 17),
            (PDac::with_optimal_approx(8).unwrap(), 1, 1),
        ];
        for (driver, rows, cols) in cases {
            let lut = ConverterLut::new(&driver);
            let random = Mat::from_fn(rows, cols, |_, _| rng.gen_range_f64(-2.0, 2.0));
            for x in [random, Mat::zeros(rows, cols)] {
                let want = QuantizedMat::quantize(&x, lut.bits()).dequantize_with(&lut);
                let want = pdac_math::gemm::PackedB::pack(want.as_slice(), rows, cols);
                let got = quantize_packed(&x, &lut);
                assert_eq!((got.k(), got.n()), (rows, cols));
                assert_eq!(
                    panel_bits(&got.decode()),
                    panel_bits(&want),
                    "{rows}x{cols}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 256 entries")]
    fn packed_codes_reject_tables_wider_than_a_byte() {
        let lut = ConverterLut::new(&ElectricalDac::new(9).unwrap());
        quantize_packed(&ramp(), &lut);
    }
}
