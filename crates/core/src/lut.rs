//! Dense lookup tables over MZM drive paths.
//!
//! A `bits`-bit driver has only `2·max_code + 1` distinct codes, yet the
//! physical conversion pipeline (optical word encode → photodetection →
//! TIA bank → MZM push-pull) would re-run per operand element in the
//! analog GEMM hot path. [`ConverterLut`] evaluates any [`MzmDriver`] once
//! per code into a dense table and then *is* an [`MzmDriver`] itself, so
//! every downstream `convert`/`convert_value` becomes an O(1) array read
//! — bit-identical to the wrapped driver, because the table stores its
//! exact outputs. Operand conversion (`pdac_nn::quant::convert`) is
//! generic over the driver: handed a table it inlines the read, handed
//! the scalar driver it is the golden model the table is checked
//! against.

use crate::converter::MzmDriver;

/// A dense code → amplitude table wrapping (and standing in for) an
/// [`MzmDriver`].
///
/// # Examples
///
/// ```
/// use pdac_core::lut::ConverterLut;
/// use pdac_core::pdac::PDac;
/// use pdac_core::converter::MzmDriver;
///
/// let pdac = PDac::with_optimal_approx(8)?;
/// let lut = ConverterLut::new(&pdac);
/// for code in [-127, -64, 0, 64, 127] {
///     assert_eq!(lut.convert(code), pdac.convert(code));
/// }
/// # Ok::<(), pdac_core::pdac::PDacError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConverterLut {
    bits: u8,
    max_code: i32,
    /// `table[code + max_code]` for `code` in `-max_code..=max_code`.
    table: Vec<f64>,
}

impl ConverterLut {
    /// Tabulates `driver` by evaluating its full conversion pipeline once
    /// per representable code.
    pub fn new(driver: &(impl MzmDriver + ?Sized)) -> Self {
        let _span = pdac_telemetry::span("core.lut.build");
        let bits = driver.bits();
        let max_code = driver.max_code();
        let table = (-max_code..=max_code).map(|c| driver.convert(c)).collect();
        pdac_telemetry::counter_add("core.lut.builds", 1);
        Self {
            bits,
            max_code,
            table,
        }
    }

    /// Number of tabulated codes (`2·max_code + 1`).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty (never, for valid drivers; provided for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The raw table, indexed by `code + max_code()`.
    pub fn table(&self) -> &[f64] {
        &self.table
    }
}

impl MzmDriver for ConverterLut {
    fn bits(&self) -> u8 {
        self.bits
    }

    /// O(1) table read; out-of-range codes saturate like the wrapped
    /// driver's clamp. Inline, so a generic bulk loop in another crate
    /// reads the table in place instead of calling out per element.
    #[inline]
    fn convert(&self, code: i32) -> f64 {
        let idx = (code.clamp(-self.max_code, self.max_code) + self.max_code) as usize;
        self.table[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edac::ElectricalDac;
    use crate::pdac::PDac;

    /// Exhaustive LUT-vs-scalar equivalence over every representable code
    /// (plus saturating out-of-range codes) for both drive paths at both
    /// evaluation precisions.
    #[test]
    fn lut_matches_scalar_for_every_code_pdac_and_edac() {
        for bits in [4u8, 8] {
            let drivers: Vec<(&str, Box<dyn MzmDriver>)> = vec![
                ("pdac", Box::new(PDac::with_optimal_approx(bits).unwrap())),
                ("edac", Box::new(ElectricalDac::new(bits).unwrap())),
            ];
            for (name, driver) in drivers {
                let lut = ConverterLut::new(driver.as_ref());
                assert_eq!(lut.bits(), bits);
                assert_eq!(lut.len(), (2 * driver.max_code() + 1) as usize);
                let m = driver.max_code();
                for code in (-m - 10)..=(m + 10) {
                    let want = driver.convert(code);
                    let got = lut.convert(code);
                    assert!(
                        want.to_bits() == got.to_bits(),
                        "{name} {bits}-bit code={code}: {want} vs {got}"
                    );
                }
            }
        }
    }

    #[test]
    fn lut_convert_value_matches_scalar() {
        let pdac = PDac::with_optimal_approx(8).unwrap();
        let lut = ConverterLut::new(&pdac);
        let mut x = -1.0;
        while x <= 1.0 {
            assert_eq!(
                lut.convert_value(x).to_bits(),
                pdac.convert_value(x).to_bits()
            );
            x += 0.0173;
        }
    }

    #[test]
    fn lut_of_lut_is_identity() {
        let pdac = PDac::with_optimal_approx(6).unwrap();
        let once = ConverterLut::new(&pdac);
        let twice = ConverterLut::new(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn works_through_dyn_driver() {
        let boxed: Box<dyn MzmDriver> = Box::new(ElectricalDac::new(8).unwrap());
        let lut = ConverterLut::new(boxed.as_ref());
        assert_eq!(lut.convert(64), boxed.convert(64));
        assert!(!lut.is_empty());
    }
}
