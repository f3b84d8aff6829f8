//! Run statistics and energy integration.
//!
//! [`RunStats`] collects the activity counters of a simulated GEMM;
//! [`RunStats::energy_j`] integrates them against a `pdac-power`
//! [`PowerModel`] (compute power × runtime) plus per-byte memory energy,
//! so the two abstraction levels of the reproduction — analytical energy
//! modeling and functional simulation — stay consistent.

use crate::memory::TrafficCounters;
use crate::scheduler::TilingPlan;
use pdac_power::model::PowerModel;
use pdac_power::ArchConfig;
use std::fmt;

/// Per-byte energy of the on-chip SRAM hierarchy, picojoules. DRAM
/// streaming uses the calibrated FFN movement rate from `TechParams`.
const SRAM_PJ_PER_BYTE: f64 = 8.0;

/// Activity counters from one simulated GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Useful multiply-accumulates.
    pub macs: u64,
    /// Core-cycles of issued work.
    pub core_cycles: u64,
    /// Wall-clock cycles after distribution over cores.
    pub cycles: u64,
    /// Operand modulations (converter activations).
    pub conversions: u64,
    /// ADC samples.
    pub adc_samples: u64,
    /// Memory traffic.
    pub traffic: TrafficCounters,
}

impl RunStats {
    /// Builds stats from a tiling plan and traffic counters.
    pub fn from_plan(plan: &TilingPlan, traffic: TrafficCounters) -> Self {
        Self {
            macs: plan.shape.macs(),
            core_cycles: plan.core_cycles,
            cycles: plan.cycles,
            conversions: plan.conversions,
            adc_samples: plan.adc_samples,
            traffic,
        }
    }

    /// Publishes these counters into the global telemetry collector under
    /// the `accel.stats.*` namespace, so the analytical layer and any
    /// functional run share one metrics view. No-op when telemetry is
    /// disabled.
    pub fn record_telemetry(&self) {
        pdac_telemetry::counter_add("accel.stats.macs", self.macs);
        pdac_telemetry::counter_add("accel.stats.core_cycles", self.core_cycles);
        pdac_telemetry::counter_add("accel.stats.cycles", self.cycles);
        pdac_telemetry::counter_add("accel.stats.conversions", self.conversions);
        pdac_telemetry::counter_add("accel.stats.adc_samples", self.adc_samples);
        pdac_telemetry::counter_add("accel.stats.bytes_total", self.traffic.total());
        pdac_telemetry::counter_add("accel.stats.bytes_dram", self.traffic.dram_total());
    }

    /// Runtime in seconds at the architecture clock.
    pub fn runtime_s(&self, arch: &ArchConfig) -> f64 {
        self.cycles as f64 / arch.clock_hz
    }

    /// Achieved fraction of peak throughput (0.0 for an empty run, so a
    /// zero-cycle plan cannot divide by zero).
    pub fn utilization(&self, arch: &ArchConfig) -> f64 {
        let peak = self.cycles as f64 * arch.macs_per_cycle() as f64;
        if peak == 0.0 {
            return 0.0;
        }
        self.macs as f64 / peak
    }

    /// Total energy in joules under `power`: compute power integrated
    /// over the runtime, plus SRAM traffic at a flat on-chip rate and
    /// DRAM traffic at the calibrated streaming rate.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=16`.
    pub fn energy_j(&self, power: &PowerModel, bits: u8) -> f64 {
        let compute = power.breakdown(bits).total_watts() * self.runtime_s(power.arch());
        let sram_bytes = (self.traffic.total() - self.traffic.dram_total()) as f64;
        let movement = sram_bytes * SRAM_PJ_PER_BYTE * 1e-12
            + self.traffic.dram_total() as f64 * power.tech().ffn_movement_pj_per_byte * 1e-12;
        compute + movement
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} MACs in {} cycles ({} conversions, {} ADC samples; {})",
            self.macs, self.cycles, self.conversions, self.adc_samples, self.traffic
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::GemmShape;
    use pdac_power::model::DriverKind;
    use pdac_power::TechParams;

    fn plan() -> (TilingPlan, ArchConfig) {
        let arch = ArchConfig::lt_b();
        (TilingPlan::plan(GemmShape::new(64, 64, 64), &arch), arch)
    }

    #[test]
    fn from_plan_copies_counts() {
        let (p, _) = plan();
        let s = RunStats::from_plan(&p, TrafficCounters::default());
        assert_eq!(s.macs, 64 * 64 * 64);
        assert_eq!(s.cycles, p.cycles);
        assert_eq!(s.conversions, p.conversions);
    }

    #[test]
    fn utilization_zero_cycles_is_zero() {
        let arch = ArchConfig::lt_b();
        let s = RunStats {
            macs: 0,
            core_cycles: 0,
            cycles: 0,
            conversions: 0,
            adc_samples: 0,
            traffic: TrafficCounters::default(),
        };
        assert_eq!(s.utilization(&arch), 0.0);
    }

    #[test]
    fn utilization_full_for_exact_fit() {
        let (p, arch) = plan();
        let s = RunStats::from_plan(&p, TrafficCounters::default());
        assert!((s.utilization(&arch) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn energy_scales_with_cycles() {
        let arch = ArchConfig::lt_b();
        let small = TilingPlan::plan(GemmShape::new(64, 64, 64), &arch);
        let large = TilingPlan::plan(GemmShape::new(128, 64, 64), &arch);
        let pm = PowerModel::new(
            arch.clone(),
            TechParams::calibrated(),
            DriverKind::PhotonicDac,
        );
        let es = RunStats::from_plan(&small, TrafficCounters::default()).energy_j(&pm, 8);
        let el = RunStats::from_plan(&large, TrafficCounters::default()).energy_j(&pm, 8);
        assert!((el / es - 2.0).abs() < 1e-9);
    }

    #[test]
    fn pdac_energy_below_baseline_energy() {
        let (p, arch) = plan();
        let s = RunStats::from_plan(&p, TrafficCounters::default());
        let base = PowerModel::new(
            arch.clone(),
            TechParams::calibrated(),
            DriverKind::ElectricalDac,
        );
        let pdac = PowerModel::new(arch, TechParams::calibrated(), DriverKind::PhotonicDac);
        assert!(s.energy_j(&pdac, 8) < s.energy_j(&base, 8));
    }

    #[test]
    fn movement_energy_added() {
        let (p, arch) = plan();
        let traffic = TrafficCounters {
            dram_read: 1_000_000,
            ..Default::default()
        };
        let with = RunStats::from_plan(&p, traffic);
        let without = RunStats::from_plan(&p, TrafficCounters::default());
        let pm = PowerModel::new(arch, TechParams::calibrated(), DriverKind::PhotonicDac);
        let delta = with.energy_j(&pm, 8) - without.energy_j(&pm, 8);
        let expected = 1e6 * 140.0e-12;
        assert!((delta - expected).abs() < 1e-9);
    }

    #[test]
    fn display_contains_counts() {
        let (p, _) = plan();
        let s = RunStats::from_plan(&p, TrafficCounters::default());
        let text = s.to_string();
        assert!(text.contains("MACs"));
        assert!(text.contains("cycles"));
    }
}
