//! The common interface of MZM drive paths.
//!
//! Both the baseline electrical-DAC path and the P-DAC ultimately do the
//! same job: turn a signed digital code into the analog optical amplitude
//! emitted by an MZM. [`MzmDriver`] abstracts over the two so the
//! accelerator simulator and the NN fidelity studies can swap them freely.

use pdac_math::Quantizer;

/// A driver that converts signed digital codes into MZM output amplitudes
/// (normalized to a unit input field).
///
/// Implementors: [`crate::PDac`] (photonic, approximate) and
/// [`crate::ElectricalDac`] (electrical, exact to LSB precision).
pub trait MzmDriver {
    /// Bit width of accepted codes.
    fn bits(&self) -> u8;

    /// Largest magnitude code, `2^(bits−1) − 1`.
    fn max_code(&self) -> i32 {
        (1i32 << (self.bits() - 1)) - 1
    }

    /// Converts a code to the emitted analog amplitude in `[−1, 1]`.
    /// Codes outside the representable range saturate.
    fn convert(&self, code: i32) -> f64;

    /// The ideal (error-free) value of a code: `code / max_code`.
    fn ideal_value(&self, code: i32) -> f64 {
        let m = self.max_code();
        code.clamp(-m, m) as f64 / m as f64
    }

    /// Quantizes a real value in `[−1, 1]` to a code
    /// ([`Quantizer::quantize`] at scale 1) and converts it.
    ///
    /// # Panics
    ///
    /// Panics if the bit width is outside `2..=16`.
    fn convert_value(&self, x: f64) -> f64 {
        let q = Quantizer::new(self.bits(), 1.0).expect("driver bit width in 2..=16");
        self.convert(q.quantize(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial driver used to exercise the trait's default methods.
    struct Passthrough;

    impl MzmDriver for Passthrough {
        fn bits(&self) -> u8 {
            4
        }
        fn convert(&self, code: i32) -> f64 {
            self.ideal_value(code)
        }
    }

    #[test]
    fn default_max_code() {
        assert_eq!(Passthrough.max_code(), 7);
    }

    #[test]
    fn ideal_value_saturates() {
        let d = Passthrough;
        assert_eq!(d.ideal_value(7), 1.0);
        assert_eq!(d.ideal_value(100), 1.0);
        assert_eq!(d.ideal_value(-100), -1.0);
    }

    #[test]
    fn convert_value_quantizes() {
        let d = Passthrough;
        let got = d.convert_value(0.5);
        // round(0.5·7) = 4 -> 4/7.
        assert!((got - 4.0 / 7.0).abs() < 1e-12);
    }
}
