//! Task-level accuracy under analog execution.
//!
//! The paper argues LLMs tolerate the P-DAC's bounded error because
//! "exact numerical precision is not as critical, as long as the output
//! falls within an acceptable range". Without GLUE/ImageNet offline, we
//! build the equivalent controlled experiment: the *exact* model defines
//! the ground-truth label of every input (a teacher task), and accuracy
//! of an analog backend is its agreement with that teacher. Sweeping bit
//! width traces the accuracy-vs-precision curve that motivates the
//! paper's 4-bit/8-bit design points.

use crate::config::TransformerConfig;
use crate::gemm::{AnalogGemm, ExactGemm};
use crate::inference::TransformerModel;
use pdac_core::converter::MzmDriver;
use pdac_core::edac::ElectricalDac;
use pdac_core::lut::ConverterLut;
use pdac_core::pdac::PDac;

/// One point of the accuracy curve.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyPoint {
    /// Converter label.
    pub converter: String,
    /// Bit precision.
    pub bits: u8,
    /// Agreement with the exact model's labels, in `[0, 1]`.
    pub accuracy: f64,
}

/// Which converter drives the analog GEMMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConverterKind {
    /// Electrical DAC baseline.
    ElectricalDac,
    /// P-DAC with the paper's Eq. 18 approximation.
    PDacOptimal,
    /// P-DAC with the first-order Eq. 15 approximation.
    PDacFirstOrder,
    /// P-DAC with the minimax-trimmed segments.
    PDacMinimax,
}

impl ConverterKind {
    /// All kinds, in report order.
    pub const ALL: [ConverterKind; 4] = [
        ConverterKind::ElectricalDac,
        ConverterKind::PDacOptimal,
        ConverterKind::PDacFirstOrder,
        ConverterKind::PDacMinimax,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ConverterKind::ElectricalDac => "e-DAC",
            ConverterKind::PDacOptimal => "P-DAC (Eq.18)",
            ConverterKind::PDacFirstOrder => "P-DAC (1st-order)",
            ConverterKind::PDacMinimax => "P-DAC (minimax)",
        }
    }

    fn build(self, bits: u8) -> Box<dyn MzmDriver> {
        match self {
            ConverterKind::ElectricalDac => {
                Box::new(ElectricalDac::new(bits).expect("validated bits"))
            }
            ConverterKind::PDacOptimal => {
                Box::new(PDac::with_optimal_approx(bits).expect("validated bits"))
            }
            ConverterKind::PDacFirstOrder => {
                Box::new(PDac::with_first_order_approx(bits).expect("validated bits"))
            }
            ConverterKind::PDacMinimax => {
                Box::new(PDac::with_minimax_approx(bits).expect("validated bits"))
            }
        }
    }
}

/// Teacher-task accuracy of one converter at one precision: fraction of
/// `samples` seeded inputs whose argmax class matches the exact model.
///
/// # Panics
///
/// Panics if `samples == 0` or `bits` outside `2..=8` (cached analog
/// weights are byte codes).
pub fn teacher_accuracy(
    model: &TransformerModel,
    kind: ConverterKind,
    bits: u8,
    samples: usize,
) -> f64 {
    assert!(samples > 0, "need at least one sample");
    let backend = AnalogGemm::new(ConverterLut::new(kind.build(bits).as_ref()), kind.label());
    let mut agree = 0usize;
    for i in 0..samples {
        let input = model.random_input(5000 + i as u64);
        if model.predict(&input, &ExactGemm) == model.predict(&input, &backend) {
            agree += 1;
        }
    }
    agree as f64 / samples as f64
}

/// Sweeps the accuracy curve over converters × bit widths.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn accuracy_curve(
    config: TransformerConfig,
    bits: &[u8],
    samples: usize,
    seed: u64,
) -> Vec<AccuracyPoint> {
    let model = TransformerModel::random(config, 16, seed);
    let mut points = Vec::new();
    for &b in bits {
        for kind in ConverterKind::ALL {
            points.push(AccuracyPoint {
                converter: kind.label().to_string(),
                bits: b,
                accuracy: teacher_accuracy(&model, kind, b, samples),
            });
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TransformerModel {
        TransformerModel::random(TransformerConfig::tiny(), 16, 31)
    }

    #[test]
    fn eight_bit_pdac_accuracy_is_high() {
        let acc = teacher_accuracy(&model(), ConverterKind::PDacOptimal, 8, 10);
        assert!(acc >= 0.7, "accuracy {acc}");
    }

    #[test]
    fn edac_at_least_as_accurate_as_first_order_pdac() {
        let m = model();
        let edac = teacher_accuracy(&m, ConverterKind::ElectricalDac, 6, 10);
        let first = teacher_accuracy(&m, ConverterKind::PDacFirstOrder, 6, 10);
        assert!(edac >= first, "edac {edac} vs first-order {first}");
    }

    #[test]
    fn accuracy_curve_covers_grid() {
        let pts = accuracy_curve(TransformerConfig::tiny(), &[4, 8], 3, 7);
        assert_eq!(pts.len(), 8); // 2 bits × 4 converters
        assert!(pts.iter().all(|p| (0.0..=1.0).contains(&p.accuracy)));
    }

    #[test]
    fn more_bits_never_hurt_much() {
        // Not strictly monotone with tiny samples, but 8-bit should not
        // be far below 4-bit for the optimal P-DAC.
        let m = model();
        let a4 = teacher_accuracy(&m, ConverterKind::PDacOptimal, 4, 12);
        let a8 = teacher_accuracy(&m, ConverterKind::PDacOptimal, 8, 12);
        assert!(a8 + 0.25 >= a4, "a4={a4} a8={a8}");
    }
}
