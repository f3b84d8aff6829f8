//! Hybrid design-point extension: P-DAC activations, electrical weights.
//!
//! The P-DAC trades accuracy for power. A natural middle design keeps the
//! exact electrical path on one operand bank (the weight-like column
//! operands, whose values repeat across tiles) and converts only the
//! dynamic row operands photonically. This study places the hybrid on
//! both axes — power saving and output fidelity — between the two pure
//! designs, turning the paper's binary choice into a Pareto segment.

use crate::lt_b_models;
use pdac_core::edac::ElectricalDac;
use pdac_core::pdac::PDac;
use pdac_nn::config::TransformerConfig;
use pdac_nn::inference::{fidelity_study, TransformerModel};
use pdac_nn::{AnalogGemm, AsymmetricGemm, ExactGemm};
use pdac_power::model::{power_saving, DriverKind, PowerModel};
use pdac_power::{ArchConfig, TechParams};

/// One design point of the Pareto comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Design label.
    pub name: String,
    /// Fractional power saving over the baseline at 8-bit.
    pub power_saving: f64,
    /// Mean logits SQNR vs exact execution, dB.
    pub sqnr_db: f64,
}

/// Evaluates the three designs at 8-bit.
pub fn pareto(samples: usize) -> Vec<DesignPoint> {
    let (baseline, _) = lt_b_models();
    let tech = TechParams::calibrated();
    let arch = ArchConfig::lt_b();
    let model = TransformerModel::random(TransformerConfig::tiny(), 16, 99);

    let mut points = Vec::new();
    for (name, kind) in [
        ("e-DAC baseline", DriverKind::ElectricalDac),
        ("hybrid", DriverKind::Hybrid),
        ("full P-DAC", DriverKind::PhotonicDac),
    ] {
        let pm = PowerModel::new(arch.clone(), tech.clone(), kind);
        let saving = power_saving(&baseline, &pm, 8);
        let backend = match kind {
            DriverKind::ElectricalDac => {
                AnalogGemm::new(ElectricalDac::new(8).expect("valid"), name)
            }
            DriverKind::Hybrid => AsymmetricGemm::new(
                PDac::with_optimal_approx(8).expect("valid"),
                ElectricalDac::new(8).expect("valid"),
                name,
            ),
            DriverKind::PhotonicDac => {
                AnalogGemm::new(PDac::with_optimal_approx(8).expect("valid"), name)
            }
        };
        let sqnr = fidelity_study(&model, &ExactGemm, &backend, samples).mean_sqnr_db;
        points.push(DesignPoint {
            name: name.to_string(),
            power_saving: saving,
            sqnr_db: sqnr,
        });
    }
    points
}

/// Renders the Pareto comparison.
pub fn report(samples: usize) -> String {
    let mut out = String::from(
        "Hybrid design point — power vs fidelity at 8-bit (LT-B)\n\
         ========================================================\n\n\
         design            saving%    logits SQNR dB\n",
    );
    for p in pareto(samples) {
        out.push_str(&format!(
            "  {:<16} {:>7.1}   {:>13.1}\n",
            p.name,
            100.0 * p.power_saving,
            p.sqnr_db
        ));
    }
    out.push_str(
        "\n(the hybrid keeps the exact electrical path on the weight bank:\n\
         roughly half the P-DAC's power saving at a large chunk of the\n\
         electrical design's fidelity — a Pareto point the paper's\n\
         all-or-nothing comparison skips)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_is_pareto_intermediate() {
        let points = pareto(5);
        let by_name = |n: &str| points.iter().find(|p| p.name.contains(n)).unwrap();
        let base = by_name("baseline");
        let hybrid = by_name("hybrid");
        let pdac = by_name("full");
        // Power: baseline < hybrid < pdac savings.
        assert!(base.power_saving < hybrid.power_saving);
        assert!(hybrid.power_saving < pdac.power_saving);
        // Fidelity: baseline > hybrid > pdac.
        assert!(base.sqnr_db > hybrid.sqnr_db, "{base:?} vs {hybrid:?}");
        assert!(hybrid.sqnr_db > pdac.sqnr_db, "{hybrid:?} vs {pdac:?}");
    }

    #[test]
    fn report_renders() {
        let r = report(2);
        assert!(r.contains("hybrid"));
        assert!(r.contains("SQNR"));
    }
}
