//! End-to-end numerical fidelity study.
//!
//! Validates the paper's Sec. III-B claim — LLMs tolerate the P-DAC's
//! bounded analog error — by running a seeded transformer encoder under
//! exact, electrical-DAC and P-DAC GEMM backends and reporting logits
//! fidelity (cosine similarity, SQNR, top-1 agreement).

use pdac_core::edac::ElectricalDac;
use pdac_core::pdac::PDac;
use pdac_nn::config::TransformerConfig;
use pdac_nn::inference::{fidelity_study, FidelityReport, TransformerModel};
use pdac_nn::{AnalogGemm, ExactGemm};

/// Runs the study on a model shape at the given bit widths.
///
/// # Panics
///
/// Panics if `samples == 0` or any width is outside `2..=8` (cached
/// analog weights are byte codes).
pub fn run(config: TransformerConfig, bits: &[u8], samples: usize) -> Vec<FidelityReport> {
    let classes = 16;
    let model = TransformerModel::random(config, classes, 2024);
    let mut reports = Vec::new();
    for &b in bits {
        let pdac = AnalogGemm::new(
            PDac::with_optimal_approx(b).expect("validated bits"),
            format!("P-DAC {b}-bit"),
        );
        let edac = AnalogGemm::new(
            ElectricalDac::new(b).expect("validated bits"),
            format!("e-DAC {b}-bit"),
        );
        reports.push(fidelity_study(&model, &ExactGemm, &edac, samples));
        reports.push(fidelity_study(&model, &ExactGemm, &pdac, samples));
    }
    reports
}

/// Renders the study as a text report.
pub fn report(bits: &[u8], samples: usize) -> String {
    let mut out = String::from(
        "Fidelity study — transformer logits under analog GEMM\n\
         ======================================================\n\
         (randomly-initialized encoder standing in for pretrained\n\
         checkpoints; see DESIGN.md §3)\n\n\
         backend          cosine     SQNR dB   top-1 agree\n",
    );
    for r in run(TransformerConfig::tiny(), bits, samples) {
        out.push_str(&format!(
            "  {:<14} {:>7.4}   {:>7.1}   {:>9.0}%\n",
            r.backend,
            r.mean_cosine,
            r.mean_sqnr_db,
            100.0 * r.top1_agreement
        ));
    }
    out
}

/// Extended study: accuracy across bit widths and approximation
/// variants (first-order Eq. 15, the paper's Eq. 18, and the
/// minimax-trimmed design) — the "LLM tolerance" claim quantified.
pub fn variants_report(samples: usize) -> String {
    use pdac_core::approx::ArccosApprox;
    use pdac_core::minimax::minimax_three_segment;

    let model = TransformerModel::random(TransformerConfig::tiny(), 16, 2024);
    let mut out = String::from(
        "Accuracy vs bits and approximation variant (logits vs exact)\n\
         =============================================================\n\n\
         variant            bits   cosine    SQNR dB   top-1%\n",
    );
    let trimmed = minimax_three_segment(2);
    for bits in [4u8, 6, 8] {
        let variants: Vec<(&str, PDac)> = vec![
            (
                "first-order",
                PDac::with_first_order_approx(bits).expect("valid bits"),
            ),
            (
                "paper Eq.18",
                PDac::with_optimal_approx(bits).expect("valid bits"),
            ),
            (
                "minimax-trim",
                PDac::new(trimmed.to_approx(), bits).expect("valid bits"),
            ),
            (
                "exact-arccos",
                PDac::new(ArccosApprox::optimal(), bits).expect("valid bits"),
            ),
        ];
        for (name, driver) in variants {
            let backend = AnalogGemm::new(driver, name);
            let r = fidelity_study(&model, &ExactGemm, &backend, samples);
            out.push_str(&format!(
                "  {name:<16} {bits:>4}   {:.4}   {:>7.1}   {:>6.0}\n",
                r.mean_cosine,
                r.mean_sqnr_db,
                100.0 * r.top1_agreement
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimax_variant_beats_paper_variant_in_sqnr() {
        use pdac_core::minimax::minimax_three_segment;
        let model = TransformerModel::random(TransformerConfig::tiny(), 8, 77);
        let paper = AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "paper");
        let trimmed = AnalogGemm::new(
            PDac::new(minimax_three_segment(2).to_approx(), 8).unwrap(),
            "trimmed",
        );
        let rp = fidelity_study(&model, &ExactGemm, &paper, 5);
        let rt = fidelity_study(&model, &ExactGemm, &trimmed, 5);
        assert!(
            rt.mean_sqnr_db > rp.mean_sqnr_db,
            "trimmed {rt:?} vs paper {rp:?}"
        );
    }

    #[test]
    fn variants_report_renders() {
        let r = variants_report(2);
        assert!(r.contains("minimax-trim"));
        assert!(r.contains("first-order"));
    }

    #[test]
    fn pdac_fidelity_is_high_at_8_bits() {
        let reports = run(TransformerConfig::tiny(), &[8], 6);
        let pdac = reports
            .iter()
            .find(|r| r.backend.contains("P-DAC"))
            .unwrap();
        assert!(pdac.mean_cosine > 0.95, "{pdac:?}");
        assert!(pdac.top1_agreement >= 0.5, "{pdac:?}");
    }

    #[test]
    fn edac_fidelity_exceeds_pdac() {
        let reports = run(TransformerConfig::tiny(), &[8], 6);
        let pdac = reports
            .iter()
            .find(|r| r.backend.contains("P-DAC"))
            .unwrap();
        let edac = reports
            .iter()
            .find(|r| r.backend.contains("e-DAC"))
            .unwrap();
        assert!(edac.mean_sqnr_db > pdac.mean_sqnr_db);
    }

    #[test]
    fn report_renders() {
        let r = report(&[8], 2);
        assert!(r.contains("P-DAC 8-bit"));
        assert!(r.contains("cosine"));
    }
}
