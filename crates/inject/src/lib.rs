//! # realm-inject
//!
//! Statistical error-injection framework for quantized LLM inference (Sec. III of the paper).
//!
//! The paper models transient hardware faults (timing errors under voltage underscaling,
//! aging, variation) as **random bit flips in the INT32 accumulation results** of GEMMs. This
//! crate provides:
//!
//! * [`error_model`] — the fault abstractions: uniform/high-bit random bit flips controlled by
//!   a bit-error rate (BER), single-bit-position flips (used by the paper's Q1.1–Q1.3
//!   protocols which target the 30th bit), and the controlled magnitude/frequency model of
//!   Sec. III-B where `MSD = freq × mag`.
//! * [`targeting`] — filters selecting which GEMMs receive errors (network component, layer,
//!   inference stage), matching the paper's per-component / per-layer / per-stage studies.
//! * [`injector`] — a [`realm_llm::GemmHook`] that applies an error model to targeted GEMMs
//!   and whole-shard faults ([`ShardFault`]) to the column stripes of static-weight GEMMs,
//!   and records statistics about what was injected.
//! * [`voltage`] — the operating-voltage ↔ BER relationship (shape of Fig. 1(a)).
//! * [`campaign`] — embarrassingly parallel Monte-Carlo trial runner used by every
//!   characterization sweep.
//!
//! # Example
//!
//! ```
//! use realm_inject::{error_model::BitFlipModel, injector::ErrorInjector, targeting::Target};
//! use realm_llm::{config::ModelConfig, model::Model, Component};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = Model::new(&ModelConfig::tiny_opt(), 1)?;
//! // Flip bits at a BER of 1e-4, but only in the attention output projection of layer 0.
//! let target = Target::new().components([Component::O]).layers([0]);
//! let mut injector = ErrorInjector::new(BitFlipModel::high_bits(1e-4), target, 99);
//! let _ = model.prefill(&[1, 2, 3, 4], &mut injector)?;
//! println!("injected {} bit flips", injector.stats().errors_injected);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod error_model;
pub mod injector;
pub mod targeting;
pub mod voltage;

pub use error_model::{BitFlipModel, ErrorModel, FixedBitModel, MagFreqModel};
pub use injector::{BurstSchedule, ErrorInjector, InjectionStats, ShardFault, ShardFaultStats};
pub use targeting::Target;
pub use voltage::VoltageBerCurve;
