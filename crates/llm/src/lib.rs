//! # realm-llm
//!
//! A from-scratch, INT8-quantized transformer inference engine with GEMM interception hooks.
//!
//! This crate is the substrate that the ReaLM paper's error-injection study and statistical
//! ABFT protection run on. It reproduces the two Transformer-block variants studied in the
//! paper (Fig. 2):
//!
//! * **OPT-style** blocks — LayerNorm, attention, ReLU MLP (`FC1`/`FC2`);
//! * **LLaMA-style** blocks — RMSNorm, attention, SiLU-gated MLP (`Gate`/`Up`/`Down`).
//!
//! Every linear-algebra component named in the paper (`Q`, `K`, `V`, `QKᵀ`, `SV`, `O`, `FC1`,
//! `FC2`, `Gate`, `Up`, `Down`) runs through the same quantized GEMM datapath: operands are
//! quantized to INT8, accumulated in INT32 and only then converted back — exactly the point
//! where the paper injects transient hardware errors and where ABFT checksums are verified.
//! The [`hooks::GemmHook`] trait exposes that point to downstream crates: the error injector
//! (`realm-inject`) and the ABFT protectors (`realm-abft`, via `realm-core`) are both just
//! hooks.
//!
//! There is **one forward path**. Every layer — [`quantized::QuantLinear`], the MLPs,
//! [`attention::MultiHeadAttention`], [`block::TransformerBlock`] — has a single
//! workspace-drawing `forward` taking the per-pass [`quantized::ForwardPass`] (stage, engine,
//! hook, workspace, GEMM counter); [`Model`]'s public `prefill*`/`decode_step*` entry points
//! each validate their window and call one private routine. There is **one KV cache**, the
//! [`BatchedKvCache`], and a solo sequence is slot 0 of a one-slot one, so solo versus
//! batched is not a second copy of anything: it is the row partition handed to that routine
//! with the cache. Every forward announces that partition to the hooks, tags its shared
//! GEMMs [`GemmOrigin::BatchedRows`] and each sequence's attention GEMMs
//! [`GemmOrigin::Sequence`], whatever the number of slots.
//!
//! Model weights are synthetic: there is no pretrained checkpoint, but the generator
//! reproduces the statistical structure — a near-zero bulk plus a few large outlier
//! channels — that the paper identifies as the root cause of the sensitivity of
//! post-normalization components. The layers are built from explicit f32 weights; the one
//! recipe that draws them lives in [`weights`], and its draw order is what every golden
//! pins. Each matrix is quantized as it is drawn, so construction holds one f32 matrix at
//! a time (serving model: about 9.1 MB VmHWM, 18.7 MB if every f32 weight were held).
//!
//! # Example
//!
//! ```
//! use realm_llm::{config::ModelConfig, model::Model, hooks::NoopHook};
//!
//! # fn main() -> Result<(), realm_llm::LlmError> {
//! let config = ModelConfig::tiny_opt();
//! let model = Model::new(&config, 42)?;
//! let prompt = vec![1, 5, 9, 3];
//! let mut hook = NoopHook;
//! let output = model.generate(&prompt, 4, &mut hook)?;
//! assert_eq!(output.tokens.len(), 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod activation;
pub mod attention;
pub mod batch;
pub mod block;
pub mod component;
pub mod config;
pub mod hooks;
pub mod kv_cache;
pub mod mlp;
pub mod model;
pub mod norm;
pub mod quantized;
pub mod weights;

mod error;

pub use batch::{BatchRequest, BatchedKvCache};
pub use component::{Component, Stage};
pub use config::{Architecture, ModelConfig};
pub use error::LlmError;
pub use hooks::{GemmContext, GemmHook, GemmOrigin, NoopHook};
pub use model::Model;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LlmError>;
