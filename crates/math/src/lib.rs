#![warn(missing_docs)]

//! Numerics substrate for the P-DAC photonic accelerator reproduction.
//!
//! The offline build environment provides no numerical crates (no
//! `num-complex`, no `nalgebra`), so everything the photonic and power
//! models need is implemented here:
//!
//! * [`Complex64`] — complex arithmetic for optical field amplitudes,
//! * [`Mat`] — dense real/complex matrices (device transfer matrices,
//!   GEMM reference results),
//! * [`gemm`] — the tuned f64 GEMM engine behind [`Mat::matmul`]: packed
//!   B-transposed panels, 4×4 register tiling, row-panel threading
//!   (`PDAC_THREADS`), bit-identical to the reference loop,
//! * [`pool`] — the persistent worker-thread pool the GEMM engine
//!   dispatches onto (parked workers, no per-call spawn cost),
//! * [`integrate`] — adaptive Simpson quadrature (used to evaluate the
//!   paper's Eq. 17 error integral),
//! * [`optimize`] — golden-section search and grid refinement (used to find
//!   the optimal arccos breakpoint `k ≈ 0.7236`),
//! * [`piecewise`] — piecewise-linear function machinery (the P-DAC's
//!   approximation of `arccos` is a three-segment piecewise-linear map),
//! * [`series`] — Taylor/Maclaurin series for `arccos`,
//! * [`stats`] — RMSE, SQNR, cosine similarity and summary statistics,
//! * [`quant`] — symmetric fixed-point quantization helpers shared by the
//!   converter and NN crates.
//!
//! # Examples
//!
//! ```
//! use pdac_math::Complex64;
//!
//! let field = Complex64::from_polar(1.0, std::f64::consts::FRAC_PI_3);
//! assert!((field.norm() - 1.0).abs() < 1e-12);
//! ```

pub mod complex;
pub mod gemm;
pub mod integrate;
pub mod matrix;
pub mod optimize;
pub mod piecewise;
pub mod pool;
pub mod quant;
pub mod rng;
pub mod series;
pub mod stats;
pub mod svd;

pub use complex::Complex64;
pub use matrix::{CMat, Mat};
pub use piecewise::{PiecewiseLinear, Segment};
pub use quant::Quantizer;
pub use rng::SplitMix64;
