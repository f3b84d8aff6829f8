#![warn(missing_docs)]

//! **pdac** — a Rust reproduction of *"P-DAC: Power-Efficient Photonic
//! Accelerators for LLM Inference"* (Chang, Wu, Lo — DAC 2025).
//!
//! The P-DAC replaces the electrical controller + DAC that drives each
//! Mach-Zehnder modulator in an analog photonic accelerator with a purely
//! photonic path: optical digital words are photodetected bit-by-bit,
//! weighted by per-bit TIAs realizing a three-segment piecewise-linear
//! approximation of `arccos`, and summed directly into the MZM drive
//! voltage. The worst-case value error is 8.5%; the power saving on
//! Lightening-Transformer (LT-B) reaches 47.7% at 8-bit precision.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`math`] — numerics substrate (complex, matrices, quadrature,
//!   optimization, piecewise-linear functions, statistics, quantization);
//! * [`photonics`] — device physics (MZM, phase shifter, directional
//!   coupler, MRR, photodetector, TIA, laser, DDot, WDM, EO interface);
//! * [`core`] — the P-DAC converter, the electrical-DAC baseline, ADC
//!   models and error analysis;
//! * [`power`] — calibrated component power and workload energy models;
//! * [`nn`] — BERT/DeiT workload descriptions, op traces and a functional
//!   transformer with pluggable analog GEMM backends;
//! * [`accel`] — the Lightening-Transformer accelerator simulator;
//! * [`telemetry`] — zero-dependency counters, histograms, span timers
//!   and snapshots instrumenting all of the above (no-op until
//!   `telemetry::enable()`).
//!
//! # Quickstart
//!
//! ```
//! use pdac::core::pdac::PDac;
//! use pdac::core::MzmDriver;
//!
//! // An 8-bit P-DAC with the paper's optimal arccos approximation.
//! let converter = PDac::with_optimal_approx(8)?;
//! // Convert the paper's running example, digital 0x40 ≈ 0.5 full scale.
//! let analog = converter.convert(0x40);
//! assert!((analog - 64.0 / 127.0).abs() < 0.05);
//! # Ok::<(), pdac::core::pdac::PDacError>(())
//! ```

pub use pdac_accel as accel;
pub use pdac_core as core;
pub use pdac_math as math;
pub use pdac_nn as nn;
pub use pdac_photonics as photonics;
pub use pdac_power as power;
pub use pdac_telemetry as telemetry;
