#![warn(missing_docs)]

//! Transformer workload substrate for the P-DAC evaluation.
//!
//! The paper evaluates on BERT-base (sequence length 128) and DeiT
//! (ImageNet1K 224×224, 197 tokens). This crate provides everything the
//! evaluation needs from the model side:
//!
//! * [`ops`] — softmax, layer norm, GELU and residual ops on
//!   [`pdac_math::Mat`] activations;
//! * [`quant`] — symmetric quantization of activations and weights onto
//!   the converter code grid, one scale per block of rows (per tensor,
//!   per row or per stacked operand);
//! * [`prepared`] — the [`prepared::WeightCache`] memo that lets a GEMM
//!   backend quantize+convert+pack a weight matrix once and reuse the
//!   packed panels across every decode step;
//! * [`gemm`] — pluggable GEMM backends: exact `f64`, and an analog
//!   backend that pushes every operand through an
//!   [`pdac_core::MzmDriver`] (P-DAC or electrical DAC) before the —
//!   physically exact — photonic dot product;
//! * [`config`] — model shape descriptions ([`config::TransformerConfig::bert_base`],
//!   [`config::TransformerConfig::deit_base`]);
//! * [`workload`] — op-trace generation: exact MAC counts, bytes moved
//!   and element-wise op counts per class, consumed by `pdac-power`'s
//!   energy model to regenerate Figs. 9/10;
//! * [`inference`] — a functional encoder forward pass with seeded random
//!   weights, used to validate the paper's claim that LLM inference
//!   tolerates the P-DAC's bounded analog error;
//! * [`batch`] — the batched decode engine:
//!   [`TransformerModel::decode_batch`] advances S sequences per step
//!   through one stacked activation matrix (weights stream through the
//!   converters once per step, attention stays per-sequence), row-for-row
//!   bit-identical to S independent `decode_step` calls over flat
//!   [`KvCache`]s — the solo reference;
//! * [`paged`] — the one batched KV layout: fixed-size token blocks
//!   behind refcounted per-slot page tables, hash-consed prefix sharing
//!   of published full blocks, and an LRU-evicting byte budget
//!   ([`PagedConfig::budget_bytes`]) — the [`PagedKvCache`] every batched
//!   decode reads and appends through.
//!
//! # Examples
//!
//! ```
//! use pdac_nn::config::TransformerConfig;
//!
//! let bert = TransformerConfig::bert_base();
//! let trace = pdac_nn::workload::op_trace(&bert);
//! assert!(trace.total_macs() > 10_000_000_000); // ~11.2 G MACs
//! ```

pub mod accuracy;
pub mod batch;
pub mod config;
pub mod gemm;
pub mod generative;
pub mod inference;
pub mod ops;
pub mod paged;
pub mod prepared;
pub mod quant;
pub mod tap;
pub mod workload;

pub use batch::{step_activity, DecodeScratch};
pub use config::TransformerConfig;
pub use gemm::{AnalogGemm, AsymmetricGemm, ExactGemm, GemmBackend};
pub use inference::{KvCache, TransformerModel};
pub use paged::{prefix_block_hashes, KvStats, PageAllocator, PageId, PagedConfig, PagedKvCache};
pub use prepared::WeightCache;
