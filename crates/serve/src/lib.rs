//! # realm-serve
//!
//! A continuous-batching serving layer over the protected batch API: the path from "a
//! batched forward exists" to "a server keeps its batch full under sustained load".
//!
//! # What continuous batching buys
//!
//! Lockstep generation ([`realm_llm::Model::generate_batch`]) prefills a fixed batch and
//! decodes until *every* sequence reaches its budget: a slot whose sequence finished early
//! sits empty while the longest request drains. Under serving load that is exactly
//! backwards — short and long requests mix freely, so most of the batch is idle most of
//! the time. This crate's [`ServeEngine`] instead treats the batch as `slots` reusable
//! positions in one shared [`realm_llm::BatchedKvCache`]:
//!
//! 1. requests wait in a priority queue (aging prevents starvation — see
//!    [`ServeConfig::aging_steps`]);
//! 2. between decode steps, completed sequences release their KV rows
//!    ([`realm_llm::BatchedKvCache::release_slot`]) and queued requests are assigned the
//!    freed slots — assignment is bookkeeping only; the prompts prefill chunk by chunk,
//!    every advancing slot's chunk stacked into one batched forward
//!    ([`realm_llm::Model::prefill_chunks_batch_ws`], which projects one logits row per
//!    chunk; a prompt's final chunk commits its first token from it), under the per-step
//!    token budget ([`ServeConfig::step_token_budget`]), so a long prompt never stalls
//!    concurrent decode streams for more than one budget-bounded chunk;
//! 3. tokens stream back to each client over an [`std::sync::mpsc`] channel as
//!    [`TokenEvent`]s, ending with a [`RequestSummary`] that carries the ABFT
//!    detection/recovery attribution charged to that request.
//!
//! The batch therefore stays full as long as the queue is non-empty, and the fused-checksum
//! detection cost keeps amortising across a full batch instead of a draining one.
//!
//! # Reliability is per-request
//!
//! Every [`ServeRequest`] carries a [`ProtectionPolicy`]. Prefill chunks and decode steps
//! alike run under one shared protector that is refreshed with the slot → scheme map on
//! every admission and retirement
//! ([`realm_core::SchemeProtector::set_sequence_schemes`]), so per-sequence attention GEMMs
//! keep their request's scheme while batch-stacked GEMMs escalate to the strictest active
//! policy. Detections are traced back to the owning request by re-reducing the fused
//! checksums over its row group ([`realm_core::SchemeProtector::sequence_attribution`]) —
//! a chunk announces a row partition whose only non-empty group is its slot, so even a
//! fault striking a mid-prompt chunk is charged to the right request — and reported in the
//! request's [`RequestSummary`], giving operators per-request reliability telemetry at the
//! serving boundary.
//!
//! # Bit-exactness
//!
//! Serving never changes output: per-row quantization and visible-prefix attention make
//! the forward pass chunk-invariant, so a prompt prefilled in budgeted chunks into a
//! recycled slot produces exactly the tokens (and margin bits, and fused checksums) a solo
//! [`realm_llm::Model::generate`] call would — the contract `tests/serve_continuous.rs`
//! and `tests/chunked_parity.rs` enforce on every GEMM backend.
//!
//! # Example
//!
//! ```
//! use realm_llm::{config::ModelConfig, model::Model};
//! use realm_serve::{ServeConfig, ServeEngine, ServeRequest, TokenEvent};
//!
//! # fn main() -> Result<(), realm_serve::ServeError> {
//! let model = Model::new(&ModelConfig::tiny_opt(), 42).unwrap();
//! let mut engine = ServeEngine::new(&model, ServeConfig::with_slots(2));
//!
//! // Three requests compete for two slots; the third is admitted as soon as a slot frees.
//! let (_, rx_a) = engine.submit(ServeRequest::new(vec![1, 5, 9], 6))?;
//! let (_, rx_b) = engine.submit(ServeRequest::new(vec![2, 7], 2))?;
//! let (_, rx_c) = engine.submit(ServeRequest::new(vec![3], 4).with_priority(1))?;
//! engine.run_until_idle()?;
//!
//! for rx in [rx_a, rx_b, rx_c] {
//!     let events: Vec<TokenEvent> = rx.try_iter().collect();
//!     let Some(TokenEvent::Done(summary)) = events.last() else {
//!         panic!("every request completes");
//!     };
//!     assert_eq!(summary.tokens.len(), events.len() - 1);
//! }
//! let stats = engine.stats();
//! assert_eq!(stats.requests_completed, 3);
//! assert_eq!(stats.tokens_generated, 12);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adaptive;
pub mod engine;
mod queue;
pub mod request;

pub use adaptive::{AdaptiveConfig, AdaptiveController, ProtectionStage};
pub use engine::{EngineStats, ServeConfig, ServeEngine};
pub use realm_core::protection::ProtectionPolicy;
pub use request::{RequestId, RequestSummary, ServeError, ServeRequest, TokenEvent};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
