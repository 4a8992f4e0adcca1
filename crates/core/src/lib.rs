//! # realm-core
//!
//! The ReaLM algorithm/circuit co-design framework: this crate ties the substrates together
//! into the workflow the paper describes.
//!
//! 1. **Characterize** ([`characterize`]) — large-scale statistical error injection into a
//!    quantized LLM, answering the paper's research questions Q1.1–Q2.2 (layer-wise,
//!    bit-wise, component-wise, magnitude/frequency, prefill-vs-decode resilience).
//! 2. **Fit** ([`fit`]) — turn the magnitude/frequency characterization into per-component
//!    critical regions (`a`, `b`, `θ_freq`) under an acceptable-degradation budget.
//! 3. **Protect** ([`protection`]) — run inference with a protection scheme attached to every
//!    quantized GEMM: an error injector emulates the faulty low-voltage datapath, a detector
//!    (classical / Approx / statistical ABFT, DMR, Razor, ThunderVolt) inspects checksums and
//!    triggers recovery, and recovery statistics are accumulated.
//! 4. **Evaluate** ([`pipeline`], [`sweep`]) — measure task quality and total energy across
//!    operating voltages, find per-component sweet spots (Table II), and explore the
//!    performance/energy trade-off (Fig. 9, Fig. 10).
//!
//! # Example
//!
//! ```
//! use realm_core::pipeline::{PipelineConfig, ProtectedPipeline};
//! use realm_eval::wikitext::WikitextTask;
//! use realm_llm::{config::ModelConfig, model::Model};
//! use realm_systolic::ProtectionScheme;
//!
//! # fn main() -> Result<(), realm_core::CoreError> {
//! let model = Model::new(&ModelConfig::tiny_opt(), 1)?;
//! let task = WikitextTask::quick(model.language(), 1);
//! let pipeline = ProtectedPipeline::new(&model, PipelineConfig::default());
//! let outcome = pipeline.run(&task, ProtectionScheme::StatisticalAbft, 0.72, 7)?;
//! assert!(outcome.task_value.is_finite());
//! assert!(outcome.energy.total_j() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod characterize;
pub mod fit;
pub mod pipeline;
pub mod protection;
pub mod report;
pub mod sweep;

mod error;

pub use error::CoreError;
pub use pipeline::{BatchedGenerationOutcome, PipelineConfig, PipelineOutcome, ProtectedPipeline};
pub use protection::{ProtectionPolicy, SchemeProtector, SequenceAttribution};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
