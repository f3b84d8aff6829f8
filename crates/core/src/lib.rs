#![warn(missing_docs)]

//! The P-DAC: a photonic digital-to-analog converter for driving
//! Mach-Zehnder modulators without electrical DACs.
//!
//! This crate implements the paper's primary contribution (Sec. III):
//!
//! * [`approx`] — the `arccos` approximation pipeline: the first-order
//!   Taylor cut (Eq. 15), the two-expression positive-domain form
//!   (Eq. 16), the integrated-relative-error objective (Eq. 17), the
//!   optimal-breakpoint solver (`k ≈ 0.7236`), and the final three-segment
//!   function (Eq. 18) with worst-case reconstruction error ≈ 8.5%;
//! * [`tia_weights`] — synthesis of per-bit TIA weights and region-select
//!   thresholds that realize a piecewise-linear drive function in hardware
//!   (Fig. 7: "apply different weights to each bit through a TIA and
//!   superimpose the voltages");
//! * [`pdac`] — the end-to-end converter: digital code → optical digital
//!   word (EO interface) → per-bit photodetection and TIA weighting →
//!   superimposed MZM drive voltage → analog optical output;
//! * [`edac`] — the baseline electrical DAC path (controller computes
//!   `arccos(r)` exactly, a binary-weighted DAC reproduces it to LSB
//!   precision);
//! * [`adc`] — the output analog-to-digital converter model;
//! * [`converter`] — the [`converter::MzmDriver`] trait unifying both
//!   drive paths;
//! * [`lut`] — dense code → amplitude lookup tables ([`lut::ConverterLut`])
//!   that evaluate any driver once per code and make bulk conversion an
//!   O(1)-per-element array read (the analog GEMM's operand paths);
//! * [`error_analysis`] — code sweeps producing the error statistics the
//!   paper reports.
//!
//! # Examples
//!
//! ```
//! use pdac_core::pdac::PDac;
//! use pdac_core::converter::MzmDriver;
//!
//! let pdac = PDac::with_optimal_approx(8)?;
//! // The paper's running example: 0x40 ≈ 0.5 full-scale.
//! let out = pdac.convert(0x40);
//! let ideal = 64.0 / 127.0;
//! assert!(((out - ideal) / ideal).abs() < 0.085 + 1e-9);
//! # Ok::<(), pdac_core::pdac::PDacError>(())
//! ```

pub mod adc;
pub mod analytic;
pub mod approx;
pub mod converter;
pub mod edac;
pub mod error_analysis;
pub mod lut;
pub mod minimax;
pub mod multi_segment;
pub mod pdac;
pub mod spec;
pub mod tia_weights;
pub mod variation;

pub use adc::Adc;
pub use approx::ArccosApprox;
pub use converter::MzmDriver;
pub use edac::ElectricalDac;
pub use lut::ConverterLut;
pub use pdac::PDac;
pub use tia_weights::TiaWeightPlan;
