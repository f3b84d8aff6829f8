//! Differential conformance and fault-injection harness for the P-DAC
//! stack.
//!
//! The workspace makes two kinds of promises:
//!
//! * **Exactness** — the tuned GEMM kernels, the [`ConverterLut`] fast
//!   path, and the weight-conversion caches all claim *bit identity*
//!   with their slow golden counterparts.
//! * **Bounded error** — the P-DAC's analog reconstruction claims the
//!   paper's ≈8.5% per-element budget (Eq. 18) and an end-to-end GEMM
//!   tolerance.
//!
//! This crate turns each promise into an executable check
//! ([`conformance`]), adds a deterministic fault-injection layer
//! ([`faults`]) that perturbs the photonic signal chain — TIA gain
//! drift, photodetector dark current, laser power droop, stuck/flipped
//! optical bit slots — and verifies *graceful degradation*: errors stay
//! finite, grow monotonically with fault magnitude, and land in the
//! `verify.fault.*` telemetry histograms. Results render as a terminal
//! table and as a JSONL conformance report ([`report`]).
//!
//! The same budgets also run *online*: the [`sentinel`] module
//! shadow-samples live analog GEMMs, scores each sample inside the call
//! that produced it against an exact replay, and raises drift alerts
//! into the global `pdac-telemetry` health ledger.
//!
//! Run the whole matrix with `cargo run --release -p pdac-verify`, or
//! programmatically:
//!
//! ```
//! use pdac_verify::conformance::{run_conformance, ConformanceConfig};
//!
//! let mut cfg = ConformanceConfig::default();
//! cfg.gemm_shapes.truncate(1); // keep the doctest quick
//! let report = run_conformance(&cfg);
//! assert!(report.passed(), "{}", report.render_table());
//! ```
//!
//! [`ConverterLut`]: pdac_core::lut::ConverterLut

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod conformance;
pub mod faults;
pub mod report;
pub mod sentinel;

pub use conformance::{
    run_conformance, run_fault_sweeps, run_full, ConformanceConfig, GEMM_BUDGET, PER_ELEMENT_BUDGET,
};
pub use faults::{AmplitudeFault, FaultSpec, FaultyPDac, SlotFault};
pub use report::{CheckKind, CheckResult, ConformanceReport};
pub use sentinel::{Sentinel, SentinelHandle, SentinelStats};
