//! Functional GEMM execution through the photonic models.
//!
//! Every operand element travels the real signal path: per-tensor
//! quantization → converter drive ([`pdac_core::MzmDriver`]: P-DAC or
//! electrical DAC) → the optical field amplitudes consumed by a
//! [`DDotUnit`] → per-cycle balanced detection → ADC requantization of
//! each wavelength-chunk partial product → digital accumulation. The
//! output error therefore composes exactly the paper's error sources:
//! operand quantization, arccos-approximation error (P-DAC only), and
//! output ADC quantization.

use crate::config::AccelConfig;
use crate::memory::MemoryHierarchy;
use crate::scheduler::{GemmShape, TilingPlan};
use crate::stats::RunStats;
use pdac_core::{Adc, ConverterLut, MzmDriver};
use pdac_math::Mat;
use pdac_nn::quant::convert;
use pdac_photonics::DDotUnit;
use std::fmt;

/// Errors from functional execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Operand inner dimensions disagree.
    DimMismatch {
        /// Shape of the left operand.
        left: (usize, usize),
        /// Shape of the right operand.
        right: (usize, usize),
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::DimMismatch { left, right } => write!(
                f,
                "operand dimensions {}x{} and {}x{} do not chain",
                left.0, left.1, right.0, right.1
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// The result of one functional GEMM.
#[derive(Debug, Clone, PartialEq)]
pub struct GemmRun {
    /// The computed output matrix.
    pub output: Mat,
    /// Cycle/activity statistics.
    pub stats: RunStats,
}

/// A functional GEMM engine bound to one configuration.
pub struct FunctionalGemm {
    config: AccelConfig,
    driver: Box<dyn MzmDriver>,
    lut: ConverterLut,
    ddot: DDotUnit,
    noise: Option<(f64, u64)>,
}

impl fmt::Debug for FunctionalGemm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FunctionalGemm")
            .field("config", &self.config)
            .field("driver_bits", &self.driver.bits())
            .finish()
    }
}

impl FunctionalGemm {
    /// Builds the engine (instantiates the configured converter and a
    /// DDot unit sized to the architecture's wavelength count).
    ///
    /// # Errors
    ///
    /// Currently infallible for validated configs; the `Result` reserves
    /// room for converter-construction failures.
    pub fn new(config: AccelConfig) -> Result<Self, crate::config::ConfigError> {
        let driver = config.build_driver();
        let lut = ConverterLut::new(driver.as_ref());
        let ddot = DDotUnit::ideal(config.arch().wavelengths);
        Ok(Self {
            config,
            driver,
            lut,
            ddot,
            noise: None,
        })
    }

    /// Enables Gaussian detector-current noise of the given σ on every
    /// DDot balanced detection (failure injection for robustness
    /// studies). Seeded: repeated executions are reproducible.
    pub fn with_detector_noise(mut self, sigma: f64, seed: u64) -> Self {
        assert!(sigma >= 0.0, "noise sigma must be nonnegative");
        self.noise = Some((sigma, seed));
        self
    }

    /// The configuration.
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// The converter drive path the engine modulates operands through
    /// (used by conformance tooling to derive per-element error budgets).
    pub fn driver(&self) -> &dyn MzmDriver {
        self.driver.as_ref()
    }

    /// Executes `a · b` through the full analog path.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::DimMismatch`] when `a.cols() != b.rows()`.
    pub fn execute(&self, a: &Mat, b: &Mat) -> Result<GemmRun, ExecError> {
        if a.cols() != b.rows() {
            return Err(ExecError::DimMismatch {
                left: a.shape(),
                right: b.shape(),
            });
        }
        let _run_span = pdac_telemetry::span("accel.gemm.execute");
        let shape = GemmShape::new(a.rows(), a.cols(), b.cols());
        let arch = self.config.arch();
        let plan = {
            let _s = pdac_telemetry::span("accel.stage.tiling");
            TilingPlan::plan(shape, arch)
        };

        // Per-tensor scales (the modulator encodes values in [-1, 1]).
        let scale_a = nonzero(a.max_abs());
        let scale_b = nonzero(b.max_abs());

        // Modulated operand values, per tensor through the code table:
        // scale · driver(quantize(x)).
        let (am, bm) = {
            let _s = pdac_telemetry::span("accel.stage.conversion");
            pdac_telemetry::counter_add(
                "accel.gemm.operand_elements",
                (a.rows() * a.cols() + b.rows() * b.cols()) as u64,
            );
            (
                convert(a, a.rows(), &self.lut),
                convert(b, b.rows(), &self.lut),
            )
        };

        let lambda = arch.wavelengths;
        // Each chunk partial is ADC-sampled before digital accumulation.
        // Partial magnitude is bounded by λ·scale_a·scale_b.
        let adc = Adc::new(self.config.bits(), lambda as f64 * scale_a * scale_b)
            .expect("validated bits and positive scale");

        let mut out = Mat::zeros(shape.m, shape.n);
        let mut x = vec![0.0; lambda];
        let mut y = vec![0.0; lambda];
        let mut noise_model = self
            .noise
            .map(|(sigma, seed)| pdac_photonics::noise::NoiseModel::gaussian_current(sigma, seed));
        for i in 0..shape.m {
            for j in 0..shape.n {
                let mut acc = 0.0;
                let mut k0 = 0;
                while k0 < shape.k {
                    let chunk = (shape.k - k0).min(lambda);
                    for t in 0..lambda {
                        if t < chunk {
                            x[t] = am[(i, k0 + t)];
                            y[t] = bm[(k0 + t, j)];
                        } else {
                            // Dark wavelengths for the padded tail.
                            x[t] = 0.0;
                            y[t] = 0.0;
                        }
                    }
                    let partial = {
                        let _s = pdac_telemetry::span("accel.stage.optical");
                        match noise_model.as_mut() {
                            Some(n) => self
                                .ddot
                                .dot_noisy(&x, &y, n)
                                .expect("operand length matches unit channels"),
                            None => self
                                .ddot
                                .dot(&x, &y)
                                .expect("operand length matches unit channels"),
                        }
                    };
                    {
                        let _s = pdac_telemetry::span("accel.stage.adc");
                        acc += adc.requantize(partial);
                    }
                    k0 += chunk;
                }
                out[(i, j)] = acc;
            }
        }

        // Memory traffic for this GEMM: B is the stationary (weight-like)
        // operand, A the streaming activations.
        let mut mem = MemoryHierarchy::default();
        {
            let _s = pdac_telemetry::span("accel.stage.memory");
            let word = u64::from(self.config.bits()).div_ceil(8).max(1);
            mem.load_weights(shape.k as u64 * shape.n as u64 * word);
            mem.load_activations(shape.m as u64 * shape.k as u64 * word);
            mem.store_results(shape.m as u64 * shape.n as u64 * word);
        }

        let stats = RunStats::from_plan(&plan, mem.counters());
        stats.record_telemetry();
        // Feed the live energy ledger: a standalone functional GEMM has
        // no transformer phase, so it lands on the generic class. Both
        // operands stream through the converters here (no weight cache),
        // so all three operand surfaces count as movement.
        pdac_power::meter::record(
            pdac_power::OpClass::Other,
            stats.macs,
            (shape.k * shape.n + shape.m * shape.k + shape.m * shape.n) as u64,
            0,
        );
        Ok(GemmRun { output: out, stats })
    }
}

fn nonzero(x: f64) -> f64 {
    if x == 0.0 {
        1.0
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DriverChoice;
    use pdac_math::rng::SplitMix64;
    use pdac_power::ArchConfig;

    fn small_arch() -> ArchConfig {
        ArchConfig {
            cores: 2,
            rows: 4,
            cols: 4,
            wavelengths: 4,
            clock_hz: 1e9,
        }
    }

    fn random_mat(rows: usize, cols: usize, seed: u64) -> Mat {
        let mut rng = SplitMix64::seed_from_u64(seed);
        Mat::from_fn(rows, cols, |_, _| rng.gen_range_f64(-1.0, 1.0))
    }

    fn engine(choice: DriverChoice, bits: u8) -> FunctionalGemm {
        let config = AccelConfig::new(small_arch(), bits, choice).unwrap();
        FunctionalGemm::new(config).unwrap()
    }

    #[test]
    fn baseline_output_close_to_exact() {
        let e = engine(DriverChoice::ElectricalDac, 8);
        let a = random_mat(6, 12, 1);
        let b = random_mat(12, 5, 2);
        let run = e.execute(&a, &b).unwrap();
        let exact = a.matmul(&b).unwrap();
        let rel = run.output.distance(&exact) / exact.distance(&Mat::zeros(6, 5)).max(1e-9);
        assert!(rel < 0.05, "relative distance {rel}");
    }

    #[test]
    fn pdac_output_close_but_with_more_error() {
        let a = random_mat(6, 12, 3);
        let b = random_mat(12, 5, 4);
        let exact = a.matmul(&b).unwrap();
        let base = engine(DriverChoice::ElectricalDac, 8)
            .execute(&a, &b)
            .unwrap();
        let pdac = engine(DriverChoice::PhotonicDac, 8)
            .execute(&a, &b)
            .unwrap();
        let db = base.output.distance(&exact);
        let dp = pdac.output.distance(&exact);
        assert!(dp > db, "P-DAC error {dp} should exceed baseline {db}");
        // But still strongly correlated.
        let cs =
            pdac_math::stats::cosine_similarity(pdac.output.as_slice(), exact.as_slice()).unwrap();
        assert!(cs > 0.99, "cosine {cs}");
    }

    #[test]
    fn first_order_worse_than_optimal() {
        let a = random_mat(8, 16, 5);
        let b = random_mat(16, 8, 6);
        let exact = a.matmul(&b).unwrap();
        let opt = engine(DriverChoice::PhotonicDac, 8)
            .execute(&a, &b)
            .unwrap();
        let first = engine(DriverChoice::PhotonicDacFirstOrder, 8)
            .execute(&a, &b)
            .unwrap();
        assert!(
            first.output.distance(&exact) > opt.output.distance(&exact),
            "first-order should be less accurate"
        );
    }

    #[test]
    fn stats_match_plan() {
        let e = engine(DriverChoice::PhotonicDac, 8);
        let a = random_mat(4, 4, 7);
        let b = random_mat(4, 4, 8);
        let run = e.execute(&a, &b).unwrap();
        // 4×4×4 on 4×4 arrays with 4 λ: one core-cycle.
        assert_eq!(run.stats.core_cycles, 1);
        assert_eq!(run.stats.conversions, 32); // (4+4)·4
        assert_eq!(run.stats.adc_samples, 16);
        assert_eq!(run.stats.macs, 64);
    }

    #[test]
    fn ragged_shapes_pad_with_dark_wavelengths() {
        let e = engine(DriverChoice::ElectricalDac, 8);
        let a = random_mat(3, 7, 9);
        let b = random_mat(7, 2, 10);
        let run = e.execute(&a, &b).unwrap();
        let exact = a.matmul(&b).unwrap();
        assert_eq!(run.output.shape(), (3, 2));
        let rel = run.output.distance(&exact) / exact.distance(&Mat::zeros(3, 2)).max(1e-9);
        assert!(rel < 0.05, "rel={rel}");
    }

    #[test]
    fn dim_mismatch_reported() {
        let e = engine(DriverChoice::PhotonicDac, 8);
        let a = random_mat(2, 3, 1);
        let b = random_mat(4, 2, 2);
        let err = e.execute(&a, &b).unwrap_err();
        assert!(matches!(err, ExecError::DimMismatch { .. }));
        assert!(err.to_string().contains("do not chain"));
    }

    #[test]
    fn zero_matrices_give_zero() {
        let e = engine(DriverChoice::PhotonicDac, 8);
        let a = Mat::zeros(3, 4);
        let b = Mat::zeros(4, 3);
        let run = e.execute(&a, &b).unwrap();
        assert!(run.output.max_abs() < 1e-12);
    }

    #[test]
    fn memory_traffic_counted() {
        let e = engine(DriverChoice::PhotonicDac, 8);
        let a = random_mat(4, 4, 11);
        let b = random_mat(4, 4, 12);
        let run = e.execute(&a, &b).unwrap();
        // 16 weight bytes + 16 activation bytes + 16 result bytes routed
        // through the hierarchy.
        assert!(run.stats.traffic.total() > 0);
        assert_eq!(run.stats.traffic.m2_write, 16);
    }

    #[test]
    fn detector_noise_degrades_but_is_reproducible() {
        let a = random_mat(6, 8, 15);
        let b = random_mat(8, 6, 16);
        let exact = a.matmul(&b).unwrap();
        let quiet = engine(DriverChoice::ElectricalDac, 8);
        let noisy = engine(DriverChoice::ElectricalDac, 8).with_detector_noise(5e-3, 9);
        let dq = quiet.execute(&a, &b).unwrap().output.distance(&exact);
        let r1 = noisy.execute(&a, &b).unwrap();
        let r2 = noisy.execute(&a, &b).unwrap();
        assert_eq!(r1.output, r2.output, "seeded noise must be reproducible");
        assert!(
            r1.output.distance(&exact) > dq,
            "noise must degrade accuracy"
        );
    }

    #[test]
    fn lut_modulation_is_bit_identical_to_driver() {
        // The engine's table conversion against the driver's own
        // per-element rule at the tensor's scale.
        for choice in [DriverChoice::PhotonicDac, DriverChoice::ElectricalDac] {
            let e = engine(choice, 8);
            let x = random_mat(7, 9, 17);
            let scale = x.max_abs();
            let via_lut = convert(&x, x.rows(), &e.lut);
            let via_driver = x.map(|v| scale * e.driver.convert_value(v / scale));
            assert_eq!(via_lut, via_driver, "{choice:?}");
        }
    }

    #[test]
    fn higher_precision_reduces_error() {
        let a = random_mat(6, 8, 13);
        let b = random_mat(8, 6, 14);
        let exact = a.matmul(&b).unwrap();
        let d4 = engine(DriverChoice::ElectricalDac, 4)
            .execute(&a, &b)
            .unwrap()
            .output
            .distance(&exact);
        let d8 = engine(DriverChoice::ElectricalDac, 8)
            .execute(&a, &b)
            .unwrap()
            .output
            .distance(&exact);
        assert!(d8 < d4, "8-bit {d8} vs 4-bit {d4}");
    }
}
