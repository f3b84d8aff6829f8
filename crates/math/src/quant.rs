//! Symmetric signed fixed-point quantization.
//!
//! The P-DAC maps a `b`-bit digital code `d` to the normalized analog value
//! `r = d / (2^(b−1) − 1) ∈ [−1, 1]` (paper Sec. III-C: "if digital value is
//! 0x40 in 8-bit system, the analog value can be calculated as
//! 0x40 / (2⁷ − 1) = 0.5"). The same quantizer is used by the NN crate to
//! quantize activations and weights before they are modulated.

/// A symmetric signed `b`-bit quantizer over `[−scale, scale]`.
///
/// Codes range over `[−(2^(b−1) − 1), 2^(b−1) − 1]`; the most negative
/// two's-complement code is unused so the grid is symmetric (standard for
/// NN quantization and required for the MZM's sign-symmetric transfer).
///
/// # Examples
///
/// ```
/// use pdac_math::Quantizer;
///
/// let q = Quantizer::new(8, 1.0)?;
/// assert_eq!(q.quantize(0.5), 64); // the paper's 0x40 example
/// assert!((q.dequantize(64) - 64.0 / 127.0).abs() < 1e-12);
/// # Ok::<(), pdac_math::quant::QuantError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    bits: u8,
    scale: f64,
}

/// Errors from [`Quantizer`] construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantError {
    /// Bit width outside the supported `2..=16` range.
    UnsupportedBits(u8),
    /// Scale was zero, negative, or non-finite.
    BadScale,
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::UnsupportedBits(b) => {
                write!(f, "bit width {b} outside supported range 2..=16")
            }
            QuantError::BadScale => write!(f, "scale must be positive and finite"),
        }
    }
}

impl std::error::Error for QuantError {}

impl Quantizer {
    /// Creates a quantizer with the given bit width and full-scale range.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedBits`] for `bits` outside `2..=16`
    /// and [`QuantError::BadScale`] for a non-positive or non-finite scale.
    pub fn new(bits: u8, scale: f64) -> Result<Self, QuantError> {
        if !(2..=16).contains(&bits) {
            return Err(QuantError::UnsupportedBits(bits));
        }
        if !(scale.is_finite() && scale > 0.0) {
            return Err(QuantError::BadScale);
        }
        Ok(Self { bits, scale })
    }

    /// Bit width.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Full-scale value mapped to the maximum code.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Largest representable code magnitude, `2^(b−1) − 1`.
    pub fn max_code(&self) -> i32 {
        (1 << (self.bits - 1)) - 1
    }

    /// Quantization step in value units.
    pub fn step(&self) -> f64 {
        self.scale / self.max_code() as f64
    }

    /// Quantizes `x` (round-to-nearest, saturating at the code range).
    /// The one statement of the code rule: every bulk quantizer calls it.
    ///
    /// The result equals `code.clamp(-m, m) as i32`, but without the
    /// saturating cast's per-lane range branches, which kept bulk loops
    /// from vectorizing. After the clamp, `code` is an integer of at most
    /// 15 bits (or NaN), so adding 1.5·2⁵² leaves it, in two's
    /// complement, in the sum's low 32 mantissa bits; NaN maps to code 0,
    /// as `as i32` maps it.
    #[inline]
    pub fn quantize(&self, x: f64) -> i32 {
        const ROUND_TO_LOW_BITS: f64 = 6_755_399_441_055_744.0; // 1.5·2⁵²
        let m = self.max_code() as f64;
        let code = (x / self.scale * m).round().clamp(-m, m);
        let low = (code + ROUND_TO_LOW_BITS).to_bits() as i32;
        if code.is_nan() {
            0
        } else {
            low
        }
    }

    /// Reconstructs the value represented by `code` (codes saturate).
    pub fn dequantize(&self, code: i32) -> f64 {
        let m = self.max_code();
        let code = code.clamp(-m, m);
        code as f64 / m as f64 * self.scale
    }

    /// Round-trips `x` through the quantizer (quantize then dequantize).
    pub fn round_trip(&self, x: f64) -> f64 {
        self.dequantize(self.quantize(x))
    }

    /// Normalized value `r = code / max_code ∈ [−1, 1]` — the quantity the
    /// P-DAC physically encodes.
    pub fn normalized(&self, code: i32) -> f64 {
        let m = self.max_code();
        code.clamp(-m, m) as f64 / m as f64
    }

    /// Iterator over every representable code, ascending.
    pub fn codes(&self) -> impl Iterator<Item = i32> {
        let m = self.max_code();
        -m..=m
    }

    /// Quantizes a whole slice in one tight pass, appending to `out`:
    /// [`Quantizer::quantize`] per element, inlined so the
    /// divide/round/clamp chain vectorizes.
    pub fn quantize_slice(&self, xs: &[f64], out: &mut Vec<i32>) {
        out.reserve(xs.len());
        out.extend(xs.iter().map(|&x| self.quantize(x)));
    }
}

/// Largest absolute value in `xs` (`0.0` for an empty slice), computed
/// with lane-striped partial maxima so the scan vectorizes. `max` and
/// `abs` are exact and order-independent over non-NaN data, so the
/// result is bit-identical to the sequential fold
/// `xs.iter().fold(0.0, |m, v| m.max(v.abs()))`.
pub fn abs_max(xs: &[f64]) -> f64 {
    const LANES: usize = 8;
    let mut lanes = [0.0f64; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in chunks.by_ref() {
        for (l, &v) in lanes.iter_mut().zip(chunk) {
            *l = l.max(v.abs());
        }
    }
    let mut m = 0.0f64;
    for &v in chunks.remainder() {
        m = m.max(v.abs());
    }
    for &l in &lanes {
        m = m.max(l);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(Quantizer::new(1, 1.0).is_err());
        assert!(Quantizer::new(17, 1.0).is_err());
        assert!(Quantizer::new(8, 0.0).is_err());
        assert!(Quantizer::new(8, f64::NAN).is_err());
        assert!(Quantizer::new(8, -1.0).is_err());
        assert!(Quantizer::new(2, 1.0).is_ok());
        assert!(Quantizer::new(16, 1.0).is_ok());
    }

    #[test]
    fn paper_0x40_example() {
        let q = Quantizer::new(8, 1.0).unwrap();
        assert_eq!(q.max_code(), 127);
        assert_eq!(q.quantize(0.5), 64);
        let r = q.normalized(0x40);
        assert!((r - 0.503_937).abs() < 1e-5); // 64/127
    }

    #[test]
    fn quantize_saturates() {
        let q = Quantizer::new(4, 1.0).unwrap();
        assert_eq!(q.quantize(10.0), 7);
        assert_eq!(q.quantize(-10.0), -7);
        assert_eq!(q.dequantize(100), 1.0);
        assert_eq!(q.dequantize(-100), -1.0);
    }

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let q = Quantizer::new(6, 2.0).unwrap();
        let half = q.step() / 2.0;
        let mut x = -2.0;
        while x <= 2.0 {
            let err = (q.round_trip(x) - x).abs();
            assert!(err <= half + 1e-12, "x={x} err={err} half={half}");
            x += 0.0137;
        }
    }

    #[test]
    fn symmetric_grid() {
        let q = Quantizer::new(8, 1.0).unwrap();
        for code in q.codes() {
            let r = q.normalized(code);
            let r_neg = q.normalized(-code);
            assert_eq!(r, -r_neg);
        }
    }

    #[test]
    fn codes_cover_full_range() {
        let q = Quantizer::new(4, 1.0).unwrap();
        let codes: Vec<i32> = q.codes().collect();
        assert_eq!(codes.len(), 15); // -7..=7
        assert_eq!(codes[0], -7);
        assert_eq!(*codes.last().unwrap(), 7);
    }

    #[test]
    fn step_scales_with_range() {
        let q1 = Quantizer::new(8, 1.0).unwrap();
        let q2 = Quantizer::new(8, 2.0).unwrap();
        assert!((q2.step() - 2.0 * q1.step()).abs() < 1e-15);
    }

    #[test]
    fn slice_forms_match_per_element_quantize_bitwise() {
        let q = Quantizer::new(8, 0.73).unwrap();
        let xs: Vec<f64> = (0..1003)
            .map(|i| (i as f64 * 0.0317 - 16.0) * if i % 5 == 0 { 10.0 } else { 0.1 })
            .collect();
        let want: Vec<i32> = xs.iter().map(|&x| q.quantize(x)).collect();
        let mut got = Vec::new();
        q.quantize_slice(&xs, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn quantize_matches_the_saturating_cast_bitwise() {
        // The code rule as first written, saturating `as i32` included.
        fn reference(x: f64, scale: f64, m: f64) -> i32 {
            (x / scale * m).round().clamp(-m, m) as i32
        }
        let specials = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN with low payload bits
            f64::from_bits(0xfff0_0000_0000_0001), // signalling NaN
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::from_bits(1), // smallest subnormal
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            -f64::MIN_POSITIVE / 3.0,
        ];
        for bits in 2..=16u8 {
            for scale in [1e-300, f64::MIN_POSITIVE, 0.3, 1.0, 2.7, 1e300] {
                let q = Quantizer::new(bits, scale).unwrap();
                let m = q.max_code();
                let mf = f64::from(m);
                let mut xs: Vec<f64> = specials.iter().flat_map(|&x| [x, x * scale]).collect();
                // Every half-code, saturation edges included, and the
                // f64 on either side of it.
                for k in -m - 1..=m {
                    let x = (f64::from(k) + 0.5) / mf * scale;
                    xs.extend([x.next_down(), x, x.next_up()]);
                }
                let want: Vec<i32> = xs.iter().map(|&x| reference(x, scale, mf)).collect();
                for (&x, &want) in xs.iter().zip(&want) {
                    assert_eq!(q.quantize(x), want, "bits={bits} scale={scale} x={x:e}");
                }
                // The bulk form, which is what vectorizes.
                let mut got = Vec::new();
                q.quantize_slice(&xs, &mut got);
                assert_eq!(got, want, "bits={bits} scale={scale} slice");
            }
        }
    }

    #[test]
    fn abs_max_matches_sequential_fold() {
        for len in [0, 1, 7, 8, 9, 64, 1001] {
            let xs: Vec<f64> = (0..len)
                .map(|i| ((i as f64) * 0.917 - 31.0) * if i % 3 == 0 { -1.0 } else { 1.0 })
                .collect();
            let want = xs.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            assert_eq!(abs_max(&xs), want, "len={len}");
        }
        assert_eq!(abs_max(&[]), 0.0);
        assert_eq!(abs_max(&[-3.5]), 3.5);
    }

    #[test]
    fn error_display() {
        assert!(QuantError::UnsupportedBits(1).to_string().contains("1"));
        assert!(QuantError::BadScale.to_string().contains("positive"));
    }
}
