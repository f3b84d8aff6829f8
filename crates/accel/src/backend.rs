//! Running neural workloads *on* the simulated accelerator.
//!
//! [`AccelBackend`] adapts [`FunctionalGemm`] to the
//! [`pdac_nn::GemmBackend`] interface, so an entire transformer forward
//! pass executes GEMM-by-GEMM through the photonic models — converter,
//! DDot, ADC — while accumulating cycle, conversion and traffic
//! statistics for the whole network. This closes the loop between the
//! paper's two evaluation views: numerical fidelity (Sec. III) and
//! energy (Sec. IV) come from one simulated execution.

use crate::functional::FunctionalGemm;
use crate::stats::RunStats;
use pdac_math::Mat;
use pdac_nn::GemmBackend;
use pdac_power::model::PowerModel;
use std::cell::RefCell;

/// A [`GemmBackend`] that executes every matmul on the functional
/// accelerator simulator and accumulates run statistics.
///
/// # Examples
///
/// ```
/// use pdac_accel::backend::AccelBackend;
/// use pdac_accel::config::AccelConfig;
/// use pdac_nn::{GemmBackend, TransformerConfig};
/// use pdac_nn::inference::TransformerModel;
///
/// let backend = AccelBackend::new(AccelConfig::lt_b_pdac(8)?)?;
/// let model = TransformerModel::random(TransformerConfig::tiny(), 4, 1);
/// let out = model.forward(&model.random_input(2), &backend);
/// assert_eq!(out.shape(), (8, 32));
/// assert!(backend.gemms_executed() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct AccelBackend {
    engine: FunctionalGemm,
    runs: RefCell<Vec<RunStats>>,
}

impl std::fmt::Debug for AccelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccelBackend")
            .field("engine", &self.engine)
            .field("gemms", &self.runs.borrow().len())
            .finish()
    }
}

impl AccelBackend {
    /// Builds a backend from an accelerator configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from [`FunctionalGemm::new`].
    pub fn new(config: crate::config::AccelConfig) -> Result<Self, crate::config::ConfigError> {
        Ok(Self {
            engine: FunctionalGemm::new(config)?,
            runs: RefCell::new(Vec::new()),
        })
    }

    /// Number of GEMMs executed so far.
    pub fn gemms_executed(&self) -> usize {
        self.runs.borrow().len()
    }

    /// Total wall-clock cycles across all executed GEMMs (sequential
    /// execution assumption).
    pub fn total_cycles(&self) -> u64 {
        self.runs.borrow().iter().map(|r| r.cycles).sum()
    }

    /// Total useful MACs.
    pub fn total_macs(&self) -> u64 {
        self.runs.borrow().iter().map(|r| r.macs).sum()
    }

    /// Total operand conversions (modulation events).
    pub fn total_conversions(&self) -> u64 {
        self.runs.borrow().iter().map(|r| r.conversions).sum()
    }

    /// Total energy across all executed GEMMs under `power`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=16`.
    pub fn total_energy_j(&self, power: &PowerModel, bits: u8) -> f64 {
        self.runs
            .borrow()
            .iter()
            .map(|r| r.energy_j(power, bits))
            .sum()
    }

    /// Clears accumulated statistics.
    pub fn reset_stats(&self) {
        self.runs.borrow_mut().clear();
    }
}

impl GemmBackend for AccelBackend {
    fn matmul(&self, a: &Mat, b: &Mat) -> Mat {
        let run = self
            .engine
            .execute(a, b)
            .expect("caller provides chained dimensions");
        self.runs.borrow_mut().push(run.stats);
        run.output
    }

    fn name(&self) -> &str {
        "accelerator"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AccelConfig, DriverChoice};
    use pdac_math::stats::cosine_similarity;
    use pdac_nn::inference::TransformerModel;
    use pdac_nn::{ExactGemm, TransformerConfig};
    use pdac_power::model::DriverKind;
    use pdac_power::{ArchConfig, TechParams};

    fn small_config(choice: DriverChoice) -> AccelConfig {
        AccelConfig::new(
            ArchConfig {
                cores: 2,
                rows: 4,
                cols: 4,
                wavelengths: 8,
                clock_hz: 5e9,
            },
            8,
            choice,
        )
        .unwrap()
    }

    #[test]
    fn transformer_runs_on_accelerator() {
        let backend = AccelBackend::new(small_config(DriverChoice::PhotonicDac)).unwrap();
        let model = TransformerModel::random(TransformerConfig::tiny(), 4, 9);
        let input = model.random_input(3);
        let accel_out = model.forward(&input, &backend);
        let exact_out = model.forward(&input, &ExactGemm);
        let cs = cosine_similarity(accel_out.as_slice(), exact_out.as_slice()).unwrap();
        assert!(cs > 0.95, "cosine {cs}");
        // tiny: 2 layers × (3 proj + 2·heads attn matmuls + 1 out + 2 ffn).
        assert_eq!(backend.gemms_executed(), 2 * (4 + 2 * 4 + 2));
        assert!(backend.total_cycles() > 0);
        assert!(backend.total_conversions() > 0);
    }

    #[test]
    fn stats_reset() {
        let backend = AccelBackend::new(small_config(DriverChoice::PhotonicDac)).unwrap();
        let a = Mat::identity(4);
        let _ = backend.matmul(&a, &a);
        assert_eq!(backend.gemms_executed(), 1);
        backend.reset_stats();
        assert_eq!(backend.gemms_executed(), 0);
        assert_eq!(backend.total_macs(), 0);
    }

    #[test]
    fn pdac_backend_spends_less_energy_than_baseline() {
        // Same network, same cycles — the energy difference comes from
        // the power model, exactly as in the paper.
        let model = TransformerModel::random(TransformerConfig::tiny(), 4, 9);
        let input = model.random_input(4);

        let pdac_backend = AccelBackend::new(small_config(DriverChoice::PhotonicDac)).unwrap();
        let base_backend = AccelBackend::new(small_config(DriverChoice::ElectricalDac)).unwrap();
        let _ = model.forward(&input, &pdac_backend);
        let _ = model.forward(&input, &base_backend);
        assert_eq!(pdac_backend.total_cycles(), base_backend.total_cycles());

        let arch = ArchConfig::lt_b();
        let pdac_power = PowerModel::new(
            arch.clone(),
            TechParams::calibrated(),
            DriverKind::PhotonicDac,
        );
        let base_power = PowerModel::new(arch, TechParams::calibrated(), DriverKind::ElectricalDac);
        let ep = pdac_backend.total_energy_j(&pdac_power, 8);
        let eb = base_backend.total_energy_j(&base_power, 8);
        assert!(ep < eb, "pdac {ep} vs baseline {eb}");
    }

    #[test]
    fn decode_batch_on_accelerator_matches_sequential() {
        // AccelBackend only implements `matmul`; the batched decode path
        // must fall back to the trait's default per-row forms and stay
        // bit-identical to sequential `decode_step` calls even when every
        // product runs through the functional accelerator simulator.
        use pdac_nn::{PagedConfig, PagedKvCache};

        let backend = AccelBackend::new(small_config(DriverChoice::PhotonicDac)).unwrap();
        let model = TransformerModel::random(TransformerConfig::tiny(), 4, 11);
        let hidden = model.config().hidden;
        let s = 3;
        let mut batch = PagedKvCache::new(&model, s, PagedConfig::new(2));
        let mut singles: Vec<_> = (0..s).map(|_| model.new_cache()).collect();
        let mut rng = pdac_math::rng::SplitMix64::seed_from_u64(77);
        for _step in 0..3 {
            let tokens = Mat::from_fn(s, hidden, |_, _| rng.gen_range_f64(-1.0, 1.0));
            let batched = model.decode_batch(&tokens, &mut batch, &backend);
            for (seq, cache) in singles.iter_mut().enumerate() {
                let single = model.decode_step(&tokens.row(seq), cache, &backend);
                assert_eq!(batched.row_slice(seq), &single[..], "seq {seq}");
            }
        }
        assert!(backend.gemms_executed() > 0);
    }

    #[test]
    fn backend_name() {
        let backend = AccelBackend::new(small_config(DriverChoice::PhotonicDac)).unwrap();
        assert_eq!(backend.name(), "accelerator");
    }
}
