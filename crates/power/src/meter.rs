//! Live energy metering: converts the activity the system actually
//! executes into modeled joules, while it runs.
//!
//! The offline [`crate::energy`] module replays the paper's figures from
//! a static [`OpTrace`]; this module builds that trace *incrementally*
//! from the live decode/serve path. Instrumented code calls
//! [`record`] with per-[`OpClass`] activity (MACs, bytes moved at 8-bit,
//! element-wise ops); [`EnergyMeter::snapshot`] converts the accumulated
//! counts through the exact same [`EnergyModel`] machinery, so a live
//! ledger and an offline replay of the same activity agree to the bit.
//!
//! # Accounting contract
//!
//! * **Compute** — every MAC issued to the photonic tensor cores, billed
//!   at the driver's `energy_per_mac_j(bits)`. This is the only term the
//!   drive path (e-DAC / P-DAC / hybrid) changes.
//! * **Movement** — *per-step streamed* bytes only: activations, KV
//!   gathers, attention scores. Weight operands are backend-resident
//!   (converted once into the `WeightCache` at load), so their one-time
//!   streaming is a load cost outside the serving ledger. DESIGN.md §13
//!   documents this choice.
//! * **Element-wise** — softmax/LN/GELU/residual ops, driver-independent.
//!
//! The meter is a process-global ambient: [`install`] one (typically
//! keyed to the serving backend's [`DriverKind`]), and every
//! instrumented crate reports into it; when nothing is installed,
//! [`record`] is a single relaxed atomic load. A recording never touches
//! data values — the `pdac-verify` conformance matrix pins that decoded
//! bits are identical with the meter on and off.
//!
//! # Power budget
//!
//! [`EnergyMeter::with_budget_w`] arms a modeled-power budget:
//! every [`flush`](EnergyMeter::flush) compares the interval's average
//! modeled compute power against it, publishes
//! `power.budget.headroom_w`, bumps the `power.budget.exceeded` counter
//! on violation and latches [`over_budget`] — the load-shed hook the
//! serving admission loop polls.
//!
//! [`DriverKind`]: crate::model::DriverKind

use crate::energy::{EnergyBreakdown, EnergyModel, OpClass, OpTrace, TraceEntry};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// All operation classes, in meter slot order.
const CLASSES: [OpClass; 3] = [OpClass::Attention, OpClass::Ffn, OpClass::Other];

fn slot(class: OpClass) -> usize {
    match class {
        OpClass::Attention => 0,
        OpClass::Ffn => 1,
        OpClass::Other => 2,
    }
}

/// Per-class activity counters (relaxed atomics: the ledger needs sums,
/// not ordering).
#[derive(Debug, Default)]
struct ClassCounters {
    macs: AtomicU64,
    bytes_at_8bit: AtomicU64,
    elementwise_ops: AtomicU64,
}

/// A point-in-time view of the meter: the accumulated activity trace and
/// its energy under the meter's model.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergySnapshot {
    /// The accumulated per-class activity since install (or `reset`).
    pub trace: OpTrace,
    /// That activity converted to joules by the meter's [`EnergyModel`].
    pub breakdown: EnergyBreakdown,
}

impl EnergySnapshot {
    /// Total modeled joules.
    pub fn total_j(&self) -> f64 {
        self.breakdown.total_j()
    }

    /// Total joules attributed to one class (0 if absent).
    pub fn class_j(&self, class: OpClass) -> f64 {
        self.breakdown
            .class(class)
            .map_or(0.0, |c| c.compute_j + c.movement_j + c.elementwise_j)
    }
}

/// Pacing state for [`EnergyMeter::flush`]: when the last flush happened
/// and how many joules had accumulated by then.
#[derive(Debug)]
struct FlushState {
    at: Instant,
    total_j: f64,
}

/// A live activity-to-joules converter over one [`EnergyModel`].
///
/// # Examples
///
/// ```
/// use pdac_power::meter::EnergyMeter;
/// use pdac_power::model::{DriverKind, PowerModel};
/// use pdac_power::{ArchConfig, EnergyModel, OpClass, TechParams};
///
/// let pm = PowerModel::new(ArchConfig::lt_b(), TechParams::calibrated(), DriverKind::PhotonicDac);
/// let meter = EnergyMeter::new(EnergyModel::new(pm), 8);
/// meter.record(OpClass::Ffn, 1_000_000, 4_096, 256);
/// let snap = meter.snapshot();
/// assert!(snap.total_j() > 0.0);
/// assert_eq!(snap.trace.total_macs(), 1_000_000);
/// ```
#[derive(Debug)]
pub struct EnergyMeter {
    model: EnergyModel,
    bits: u8,
    budget_w: Option<f64>,
    classes: [ClassCounters; 3],
    flush_state: Mutex<FlushState>,
    over_budget: AtomicBool,
}

impl EnergyMeter {
    /// A meter converting activity through `model` at `bits` precision.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=16` (the converter range).
    pub fn new(model: EnergyModel, bits: u8) -> Self {
        assert!((2..=16).contains(&bits), "bits outside 2..=16");
        Self {
            model,
            bits,
            budget_w: None,
            classes: Default::default(),
            flush_state: Mutex::new(FlushState {
                at: Instant::now(),
                total_j: 0.0,
            }),
            over_budget: AtomicBool::new(false),
        }
    }

    /// Arms (or disarms, with `None`) a modeled-compute-power budget in
    /// watts; see the module docs for the flush semantics.
    ///
    /// # Panics
    ///
    /// Panics if the budget is not positive.
    pub fn with_budget_w(mut self, watts: Option<f64>) -> Self {
        if let Some(w) = watts {
            assert!(w > 0.0, "power budget must be positive");
        }
        self.budget_w = watts;
        self
    }

    /// The configured budget, if any.
    pub fn budget_w(&self) -> Option<f64> {
        self.budget_w
    }

    /// The meter's bit precision.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The energy model converting counts to joules.
    pub fn model(&self) -> &EnergyModel {
        &self.model
    }

    /// Adds activity to one class. Zero fields cost nothing extra; the
    /// whole call is three relaxed `fetch_add`s at most.
    pub fn record(&self, class: OpClass, macs: u64, bytes_at_8bit: u64, elementwise_ops: u64) {
        let c = &self.classes[slot(class)];
        if macs > 0 {
            c.macs.fetch_add(macs, Ordering::Relaxed);
        }
        if bytes_at_8bit > 0 {
            c.bytes_at_8bit.fetch_add(bytes_at_8bit, Ordering::Relaxed);
        }
        if elementwise_ops > 0 {
            c.elementwise_ops
                .fetch_add(elementwise_ops, Ordering::Relaxed);
        }
    }

    /// The accumulated activity as an [`OpTrace`] (classes in
    /// attention/FFN/other order, zero-activity classes included so the
    /// trace shape is stable).
    pub fn counts(&self) -> OpTrace {
        OpTrace {
            name: "live-meter".into(),
            entries: CLASSES
                .iter()
                .map(|&class| {
                    let c = &self.classes[slot(class)];
                    TraceEntry {
                        class,
                        macs: c.macs.load(Ordering::Relaxed),
                        bytes_at_8bit: c.bytes_at_8bit.load(Ordering::Relaxed),
                        elementwise_ops: c.elementwise_ops.load(Ordering::Relaxed),
                    }
                })
                .collect(),
        }
    }

    /// Converts the accumulated counts to joules through the meter's
    /// model — the live ledger and an offline
    /// [`EnergyModel::energy`] replay of the same trace agree exactly.
    pub fn snapshot(&self) -> EnergySnapshot {
        let trace = self.counts();
        let breakdown = self.model.energy(&trace, self.bits);
        EnergySnapshot { trace, breakdown }
    }

    /// Zeroes every counter and the budget latch (the flush epoch
    /// restarts now).
    pub fn reset(&self) {
        for c in &self.classes {
            c.macs.store(0, Ordering::Relaxed);
            c.bytes_at_8bit.store(0, Ordering::Relaxed);
            c.elementwise_ops.store(0, Ordering::Relaxed);
        }
        self.over_budget.store(false, Ordering::Relaxed);
        let mut fs = self.flush_state.lock().expect("meter flush lock");
        fs.at = Instant::now();
        fs.total_j = 0.0;
    }

    /// Whether the last flush found modeled power above the budget.
    /// Always `false` without a budget.
    pub fn over_budget(&self) -> bool {
        self.over_budget.load(Ordering::Relaxed)
    }

    /// Publishes the ledger into `pdac-telemetry` and evaluates the
    /// power budget over the wall-clock interval since the last flush.
    ///
    /// Gauges: `power.energy.{attention,ffn,other}_j` (cumulative per
    /// class), `power.energy.total_j`, `power.compute_w` (interval
    /// average of *total* modeled power — compute + movement +
    /// element-wise), and `power.budget.headroom_w` when a budget is
    /// armed; counter `power.budget.exceeded` on violation. Returns the
    /// snapshot it published.
    pub fn flush(&self) -> EnergySnapshot {
        let now = Instant::now();
        let snap = self.snapshot();
        let elapsed_s = {
            let fs = self.flush_state.lock().expect("meter flush lock");
            now.duration_since(fs.at).as_secs_f64()
        };
        self.flush_at(snap, now, elapsed_s)
    }

    /// [`Self::flush`] with an explicit interval, for deterministic
    /// tests of the budget arithmetic.
    fn flush_at(&self, snap: EnergySnapshot, now: Instant, elapsed_s: f64) -> EnergySnapshot {
        let total_j = snap.total_j();
        let interval_j = {
            let mut fs = self.flush_state.lock().expect("meter flush lock");
            let prev = fs.total_j;
            fs.at = now;
            fs.total_j = total_j;
            (total_j - prev).max(0.0)
        };
        pdac_telemetry::gauge_set("power.energy.attention_j", snap.class_j(OpClass::Attention));
        pdac_telemetry::gauge_set("power.energy.ffn_j", snap.class_j(OpClass::Ffn));
        pdac_telemetry::gauge_set("power.energy.other_j", snap.class_j(OpClass::Other));
        pdac_telemetry::gauge_set("power.energy.total_j", total_j);
        let watts = interval_j / elapsed_s.max(1e-12);
        pdac_telemetry::gauge_set("power.compute_w", watts);
        if let Some(budget) = self.budget_w {
            let headroom = budget - watts;
            pdac_telemetry::gauge_set("power.budget.headroom_w", headroom);
            let exceeded = headroom < 0.0;
            if exceeded {
                pdac_telemetry::counter_add("power.budget.exceeded", 1);
            }
            self.over_budget.store(exceeded, Ordering::Relaxed);
        }
        snap
    }
}

// ---------------------------------------------------------------------------
// The process-global ambient meter.
// ---------------------------------------------------------------------------

static ACTIVE: AtomicBool = AtomicBool::new(false);
static METER: RwLock<Option<Arc<EnergyMeter>>> = RwLock::new(None);

/// Installs `meter` as the process-global ambient meter (replacing any
/// previous one) and returns a handle to it.
pub fn install(meter: EnergyMeter) -> Arc<EnergyMeter> {
    install_shared(Arc::new(meter))
}

/// [`install`] for an already-shared meter — lets callers re-install a
/// previously [`installed`] handle without losing its counts.
pub fn install_shared(meter: Arc<EnergyMeter>) -> Arc<EnergyMeter> {
    *METER.write().expect("meter registry lock") = Some(Arc::clone(&meter));
    ACTIVE.store(true, Ordering::SeqCst);
    meter
}

/// Removes the global meter; [`record`] returns to one relaxed load.
pub fn uninstall() {
    ACTIVE.store(false, Ordering::SeqCst);
    *METER.write().expect("meter registry lock") = None;
}

/// Whether a global meter is installed.
#[inline]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// A handle to the installed meter, if any.
pub fn installed() -> Option<Arc<EnergyMeter>> {
    if !is_active() {
        return None;
    }
    METER.read().expect("meter registry lock").clone()
}

/// Reports activity to the global meter; a no-op (single relaxed atomic
/// load) when none is installed.
#[inline]
pub fn record(class: OpClass, macs: u64, bytes_at_8bit: u64, elementwise_ops: u64) {
    if !is_active() {
        return;
    }
    if let Some(m) = &*METER.read().expect("meter registry lock") {
        m.record(class, macs, bytes_at_8bit, elementwise_ops);
    }
}

/// Snapshot of the global meter (`None` when uninstalled).
pub fn snapshot() -> Option<EnergySnapshot> {
    installed().map(|m| m.snapshot())
}

/// Flushes the global meter's gauges/budget (see [`EnergyMeter::flush`]);
/// `None` when uninstalled.
pub fn flush() -> Option<EnergySnapshot> {
    installed().map(|m| m.flush())
}

/// The global meter's budget latch; `false` when uninstalled or no
/// budget armed — admission loops can poll this unconditionally.
#[inline]
pub fn over_budget() -> bool {
    is_active() && installed().is_some_and(|m| m.over_budget())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchConfig;
    use crate::model::{DriverKind, PowerModel};
    use crate::presets::TechParams;

    fn meter(driver: DriverKind) -> EnergyMeter {
        let pm = PowerModel::new(ArchConfig::lt_b(), TechParams::calibrated(), driver);
        EnergyMeter::new(EnergyModel::new(pm), 8)
    }

    #[test]
    fn snapshot_matches_offline_energy_model_exactly() {
        let m = meter(DriverKind::PhotonicDac);
        m.record(OpClass::Attention, 1_000_000, 50_000, 300);
        m.record(OpClass::Ffn, 2_000_000, 80_000, 0);
        m.record(OpClass::Other, 0, 0, 9_999);
        let snap = m.snapshot();
        // The live ledger is the same arithmetic as an offline replay.
        let offline = m.model().energy(&m.counts(), 8);
        assert_eq!(snap.breakdown, offline);
        assert!(snap.total_j() > 0.0);
    }

    #[test]
    fn records_accumulate_per_class() {
        let m = meter(DriverKind::ElectricalDac);
        m.record(OpClass::Ffn, 10, 20, 30);
        m.record(OpClass::Ffn, 1, 2, 3);
        m.record(OpClass::Attention, 5, 0, 0);
        let t = m.counts();
        let ffn = t.entry(OpClass::Ffn).unwrap();
        assert_eq!(
            (ffn.macs, ffn.bytes_at_8bit, ffn.elementwise_ops),
            (11, 22, 33)
        );
        assert_eq!(t.entry(OpClass::Attention).unwrap().macs, 5);
        assert_eq!(t.total_macs(), 16);
    }

    #[test]
    fn driver_changes_compute_but_not_movement() {
        let base = meter(DriverKind::ElectricalDac);
        let pdac = meter(DriverKind::PhotonicDac);
        for m in [&base, &pdac] {
            m.record(OpClass::Attention, 1_000_000, 50_000, 300);
        }
        let (sb, sp) = (base.snapshot(), pdac.snapshot());
        let cb = sb.breakdown.class(OpClass::Attention).unwrap();
        let cp = sp.breakdown.class(OpClass::Attention).unwrap();
        assert!(cp.compute_j < cb.compute_j);
        assert_eq!(cp.movement_j, cb.movement_j);
        assert_eq!(cp.elementwise_j, cb.elementwise_j);
    }

    #[test]
    fn reset_zeroes_the_ledger() {
        let m = meter(DriverKind::PhotonicDac);
        m.record(OpClass::Other, 1, 2, 3);
        m.reset();
        assert_eq!(m.counts().total_macs(), 0);
        assert_eq!(m.snapshot().total_j(), 0.0);
    }

    #[test]
    fn budget_latch_tracks_interval_power() {
        let m = meter(DriverKind::PhotonicDac).with_budget_w(Some(1e-3));
        // ~2.5 mJ of FFN compute in a 1-second interval: 2.5 mW ≫ 1 mW.
        m.record(OpClass::Ffn, 1_000_000_000, 0, 0);
        let now = Instant::now();
        let snap = m.snapshot();
        m.flush_at(snap, now, 1.0);
        assert!(m.over_budget());
        // A quiet 1-second interval drops back under budget.
        let snap = m.snapshot();
        m.flush_at(snap, now, 1.0);
        assert!(!m.over_budget());
    }

    #[test]
    fn no_budget_never_latches() {
        let m = meter(DriverKind::PhotonicDac);
        m.record(OpClass::Ffn, u32::MAX as u64, 0, 0);
        m.flush();
        assert!(!m.over_budget());
    }

    #[test]
    #[should_panic(expected = "power budget must be positive")]
    fn nonpositive_budget_rejected() {
        let _ = meter(DriverKind::PhotonicDac).with_budget_w(Some(0.0));
    }

    // Global-registry tests share one process-wide slot; keep them in a
    // single #[test] so they cannot interleave across test threads.
    #[test]
    fn global_install_record_uninstall_roundtrip() {
        assert!(!is_active());
        assert!(snapshot().is_none());
        record(OpClass::Ffn, 1, 1, 1); // no-op, nothing installed
        let handle = install(meter(DriverKind::PhotonicDac));
        assert!(is_active());
        record(OpClass::Ffn, 7, 8, 9);
        let snap = snapshot().expect("installed");
        assert_eq!(snap.trace.entry(OpClass::Ffn).unwrap().macs, 7);
        assert_eq!(
            handle.counts().entry(OpClass::Ffn).unwrap().bytes_at_8bit,
            8
        );
        assert!(!over_budget());
        uninstall();
        assert!(!is_active());
        assert!(snapshot().is_none());
        // The handle outlives uninstall; the ledger is still readable.
        assert_eq!(
            handle.counts().entry(OpClass::Ffn).unwrap().elementwise_ops,
            9
        );
    }
}
