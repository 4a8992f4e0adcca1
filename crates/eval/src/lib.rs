//! # realm-eval
//!
//! Synthetic evaluation-task suite for fault-injection studies on the synthetic LLMs of
//! `realm-llm`.
//!
//! The paper evaluates error impact on LAMBADA (accuracy), WikiText-2 (perplexity), X-Sum
//! (ROUGE-1), GSM8K (accuracy) and HellaSwag (accuracy). Those datasets need pretrained
//! models to be meaningful; this reproduction instead defines one synthetic task per
//! protocol over the model's own [`realm_llm::weights::SyntheticLanguage`]. LAMBADA, GSM8K
//! and X-Sum share one: generate the successor chain that continues a prompt. So one type,
//! [`continuation::ContinuationTask`], serves all three, each with its own name, seed and
//! scoring:
//!
//! | Paper benchmark | Here | Metric |
//! |---|---|---|
//! | WikiText-2 language modelling | [`wikitext::WikitextTask`] — perplexity over corpora sampled from the synthetic language | perplexity (↓) |
//! | LAMBADA last-word prediction | [`continuation::LAMBADA`] — generate the one-token continuation, exact match | accuracy (↑) |
//! | GSM8K arithmetic reasoning | [`continuation::GSM8K`] — generate a multi-step chain, exact match (all steps must be right) | accuracy (↑) |
//! | X-Sum summarization | [`continuation::XSUM`] — generate a summary-length chain, scored with a ROUGE-1 analogue | ROUGE-1 (↑) |
//! | HellaSwag completion choice | [`hellaswag::HellaswagTask`] — pick the true continuation among distractors by likelihood | accuracy (↑) |
//!
//! Every task consumes the same interface the real benchmarks would (prefill logits,
//! autoregressive generation) and is evaluated through a [`realm_llm::GemmHook`], so the
//! identical task instance measures clean and fault-injected performance.
//!
//! # Example
//!
//! ```
//! use realm_eval::{task::Task, wikitext::WikitextTask};
//! use realm_llm::{config::ModelConfig, model::Model, NoopHook};
//!
//! # fn main() -> Result<(), realm_llm::LlmError> {
//! let model = Model::new(&ModelConfig::tiny_opt(), 7)?;
//! let task = WikitextTask::quick(model.language(), 7);
//! let clean_perplexity = task.evaluate(&model, &mut NoopHook)?;
//! assert!(clean_perplexity > 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod continuation;
pub mod corpus;
pub mod hellaswag;
pub mod metrics;
pub mod task;
pub mod wikitext;

pub use metrics::Metric;
pub use task::Task;
