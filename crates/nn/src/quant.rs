//! Operand conversion onto the converter code grid.
//!
//! A value is quantized once, to a code, and becomes
//! `scale · driver(code)` only at the modulator. [`convert`] is that
//! rule, stated once: one symmetric scale per block of rows (the largest
//! magnitude maps to the full-scale code), [`Quantizer::quantize_slice`]
//! into codes, then `driver.convert(code) · scale`. Every f64 operand
//! takes it: the analog GEMM's activations and transient operands and
//! the accelerator simulator's operands through [`ConverterLut`]s, and
//! every golden model through the scalar driver, so a fast path and its
//! reference differ only in the driver. Through a P-DAC, conversion
//! injects exactly the approximation error of paper Sec. III-C into
//! every operand.
//!
//! A cached weight skips the converted matrix: [`quantize_packed`] keeps
//! its codes as bytes in GEMM panels next to the table of levels they
//! stand for, and the kernel reads `levels[code]`.

use pdac_core::converter::MzmDriver;
use pdac_core::lut::ConverterLut;
use pdac_math::gemm::PackedCodes;
use pdac_math::quant::abs_max;
use pdac_math::{Mat, Quantizer};

/// The shared scale rule: symmetric `max|x|`, unit scale for all-zero
/// data so the quantizer stays valid, and `None` for data holding ±∞,
/// which has no finite scale.
#[inline]
fn scale_of(xs: &[f64]) -> Option<f64> {
    match abs_max(xs) {
        0.0 => Some(1.0),
        m if m.is_finite() => Some(m),
        _ => None,
    }
}

/// Converts `x` through `driver` with one symmetric scale per
/// `block_rows`-row block: each element becomes
/// `driver.convert(code) · scale`, where `scale` is its block's `max|x|`
/// (1 for an all-zero block) and `code` is [`Quantizer::quantize`] at the
/// driver's bit width. A block holding ±∞ has no finite scale: every
/// element of it converts to NaN, so one overflowed row poisons only its
/// own block.
///
/// Every analog operand takes one of three block layouts:
///
/// * **per tensor** (`block_rows = x.rows()`) — solo and transient
///   operands;
/// * **per row** (`block_rows = 1`) — the batched decode engine stacks
///   the current-token activations of S independent sequences into one
///   S×hidden matrix; a shared scale would couple the sequences (one
///   outlier row rescales all of them);
/// * **grouped** (`block_rows = k`) — grouped attention stacks each
///   sequence's own transient `k × n` operand (a gathered Kᵀ or V) into
///   one `(G·k) × n` matrix.
///
/// Each block gets exactly the per-tensor rule, so block `g` of the
/// result is bit-identical to converting block `g` alone — what keeps
/// batched and grouped products equal to their solo twins row for row.
///
/// Generic over the driver, so a [`ConverterLut`] inlines to a table
/// read, while a scalar driver runs its physical drive path per element
/// (the golden model). Two buffers: one block's codes and the converted
/// values.
///
/// # Panics
///
/// Panics if `block_rows` does not split the rows of `x` into whole
/// blocks (a 0-row `x` has no blocks, so any `block_rows` goes), or if
/// the driver's bit width is outside `2..=16`.
pub fn convert<D: MzmDriver + ?Sized>(x: &Mat, block_rows: usize, driver: &D) -> Mat {
    // Zero rows are a multiple of anything, even of zero.
    assert!(
        x.rows().is_multiple_of(block_rows),
        "row count must be a whole number of blocks"
    );
    let xs = x.as_slice();
    let block_len = block_rows * x.cols();
    let bits = driver.bits();
    let mut codes = Vec::with_capacity(block_len.min(xs.len()));
    let mut values = Vec::with_capacity(xs.len());
    for block in xs.chunks(block_len.max(1)) {
        let Some(scale) = scale_of(block) else {
            values.resize(values.len() + block.len(), f64::NAN);
            continue;
        };
        let q = Quantizer::new(bits, scale).expect("validated bit width and positive scale");
        codes.clear();
        q.quantize_slice(block, &mut codes);
        values.extend(codes.iter().map(|&c| driver.convert(c) * scale));
    }
    Mat::from_rows(x.rows(), x.cols(), values).expect("shape preserved")
}

/// Quantizes `x` per tensor at `lut`'s bit width and writes each code,
/// offset to `code + max_code`, straight into byte-coded GEMM panels
/// whose level table is `lut.table()[i] · scale`. Level `i` is exactly
/// what [`convert`] gives code `i − max_code`, so [`PackedCodes::decode`]
/// equals the packed per-tensor `convert(x, x.rows(), lut)` bit for bit.
///
/// One pass after the abs-max: no code vector, no converted matrix, no
/// f64 panels. A weight holding ±∞ gets a table of NaN levels, so it
/// decodes to NaN as [`convert`] would give it.
///
/// # Panics
///
/// Panics if `lut` has more than 256 levels (bits above 8).
pub fn quantize_packed(x: &Mat, lut: &ConverterLut) -> PackedCodes {
    let (scale, levels) = match scale_of(x.as_slice()) {
        Some(scale) => (scale, lut.table().iter().map(|&l| l * scale).collect()),
        None => (1.0, vec![f64::NAN; lut.table().len()]),
    };
    let q = Quantizer::new(lut.bits(), scale).expect("validated bit width and positive scale");
    let max_code = q.max_code();
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
    use pdac_math::rng::SplitMix64;

    fn ramp() -> Mat {
        Mat::from_fn(4, 4, |r, c| (r as f64 - 1.5) * 0.4 + (c as f64 - 1.5) * 0.1)
    }

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Rows `rows` of `x` as a matrix of their own.
    fn rows_of(x: &Mat, rows: std::ops::Range<usize>) -> Mat {
        let data = rows.clone().flat_map(|r| x.row_slice(r).to_vec()).collect();
        Mat::from_rows(rows.len(), x.cols(), data).unwrap()
    }

    #[test]
    fn blocks_convert_as_if_alone() {
        // The batching and grouping invariant: each block of a per-row or
        // stacked conversion is bit-identical to converting that block
        // alone. Blocks 8x and 0.05x the rest would fail any shared
        // scale, and an all-zero block must take unit scale: the e-DAC's
        // code-0 level is nonzero, so any other scale would show.
        let (blocks, block_rows, cols) = (4, 3, 6);
        let mut rng = SplitMix64::seed_from_u64(91);
        let mut x = Mat::from_fn(blocks * block_rows, cols, |_, _| {
            rng.gen_range_f64(-2.0, 2.0)
        });
        for (g, f) in [(0usize, 8.0), (2, 0.05), (3, 0.0)] {
            for r in 0..block_rows {
                for v in x.row_slice_mut(g * block_rows + r) {
                    *v *= f;
                }
            }
        }
        let edac = ElectricalDac::new(8).unwrap();
        assert_ne!(edac.convert(0), 0.0);
        let pdac = ConverterLut::new(&PDac::with_optimal_approx(8).unwrap());
        let drivers: [&dyn MzmDriver; 2] = [&pdac, &edac];
        for driver in drivers {
            for rows in [1, block_rows] {
                let stacked = convert(&x, rows, driver);
                assert_eq!(stacked.shape(), x.shape());
                for g in 0..x.rows() / rows {
                    let span = g * rows..(g + 1) * rows;
                    let alone = convert(&rows_of(&x, span.clone()), rows, driver);
                    assert_eq!(
                        bits(&rows_of(&stacked, span)),
                        bits(&alone),
                        "{rows}-row block {g}"
                    );
                }
            }
            let zero = rows_of(&convert(&x, block_rows, driver), 9..12);
            assert!(zero.as_slice().iter().all(|&v| v == driver.convert(0)));
        }
        // A 0-row input has no blocks: any block size goes.
        let empty = Mat::from_rows(0, cols, Vec::new()).unwrap();
        for rows in [0, 1, 5] {
            assert_eq!(convert(&empty, rows, &edac).shape(), (0, cols));
        }
    }

    #[test]
    #[should_panic(expected = "whole number of blocks")]
    fn ragged_blocks_rejected() {
        convert(&ramp(), 3, &ElectricalDac::new(8).unwrap());
    }

    #[test]
    fn tables_convert_like_their_scalar_drivers() {
        // The fast path and the golden model differ only in the driver:
        // a table must give its driver's bits for every block layout.
        let drivers: [Box<dyn MzmDriver>; 3] = [
            Box::new(PDac::with_optimal_approx(4).unwrap()),
            Box::new(PDac::with_optimal_approx(8).unwrap()),
            Box::new(ElectricalDac::new(8).unwrap()),
        ];
        let mut rng = SplitMix64::seed_from_u64(92);
        let x = Mat::from_fn(12, 40, |_, _| rng.gen_range_f64(-3.0, 3.0));
        for driver in &drivers {
            let lut = ConverterLut::new(driver.as_ref());
            for rows in [1, 4, x.rows()] {
                assert_eq!(
                    bits(&convert(&x, rows, &lut)),
                    bits(&convert(&x, rows, driver.as_ref())),
                    "{}-bit, {rows}-row blocks",
                    driver.bits()
                );
            }
        }
    }

    #[test]
    fn pdac_error_is_bounded_and_edac_is_tighter() {
        // Against the error-free grid (`Quantizer::round_trip` at the
        // tensor's scale): the P-DAC stays within its Eq. 18 budget, and
        // the e-DAC lands closer.
        let x = ramp();
        let q = Quantizer::new(8, x.max_abs()).unwrap();
        let ideal = x.map(|v| q.round_trip(v));
        let pdac = convert(&x, x.rows(), &PDac::with_optimal_approx(8).unwrap());
        let edac = convert(&x, x.rows(), &ElectricalDac::new(8).unwrap());
        for (i, (a, b)) in ideal.as_slice().iter().zip(pdac.as_slice()).enumerate() {
            if a.abs() > 1e-9 {
                assert!(((a - b) / a).abs() < 0.086, "elem {i}: {a} vs {b}");
            }
        }
        assert!(edac.distance(&ideal) < pdac.distance(&ideal));
    }

    /// Bits of `PackedB` panels (`Debug` prints every f64 in shortest
    /// round-trip form with the sign of zero).
    fn panel_bits(p: &pdac_math::gemm::PackedB) -> String {
        format!("{p:?}")
    }

    #[test]
    fn packed_codes_decode_to_the_converted_matrix() {
        let mut rng = SplitMix64::seed_from_u64(93);
        let cases = [
            (PDac::with_optimal_approx(8).unwrap(), 6, 5),
            (PDac::with_optimal_approx(4).unwrap(), 3, 17),
            (PDac::with_optimal_approx(8).unwrap(), 1, 1),
        ];
        for (driver, rows, cols) in cases {
            let lut = ConverterLut::new(&driver);
            let random = Mat::from_fn(rows, cols, |_, _| rng.gen_range_f64(-2.0, 2.0));
            for x in [random, Mat::zeros(rows, cols)] {
                let want = convert(&x, rows, &lut);
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
    fn infinite_weights_decode_to_nan() {
        // ±∞ has no finite scale; it must not panic the weight cache.
        let lut = ConverterLut::new(&PDac::with_optimal_approx(8).unwrap());
        let mut w = ramp();
        w[(1, 2)] = f64::NEG_INFINITY;
        let nan = pdac_math::gemm::PackedB::pack(&[f64::NAN; 16], 4, 4);
        assert_eq!(
            panel_bits(&quantize_packed(&w, &lut).decode()),
            panel_bits(&nan)
        );
    }

    #[test]
    #[should_panic(expected = "at most 256 entries")]
    fn packed_codes_reject_tables_wider_than_a_byte() {
        let lut = ConverterLut::new(&ElectricalDac::new(9).unwrap());
        quantize_packed(&ramp(), &lut);
    }
}
