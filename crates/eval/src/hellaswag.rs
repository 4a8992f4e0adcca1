//! Synthetic multiple-choice completion task (the HellaSwag analogue).
//!
//! Each example offers one true continuation (the successor chain of the prompt) and several
//! distractor continuations (random token chains). The model scores each candidate by its
//! total log-likelihood under the prompt, and the example counts as correct when the true
//! continuation receives the highest score — the standard likelihood-ranking protocol used
//! for HellaSwag.

use crate::continuation;
use crate::metrics::{self, Metric};
use crate::task::Task;
use rand::Rng;
use realm_llm::weights::SyntheticLanguage;
use realm_llm::{GemmHook, Model, Result};
use realm_tensor::rng;

/// One multiple-choice example.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Example {
    prompt: Vec<u32>,
    /// Candidate continuations; index 0 is always the true one (shuffling is unnecessary
    /// because scoring is order-independent).
    candidates: Vec<Vec<u32>>,
}

/// Likelihood-ranked multiple-choice completion.
#[derive(Debug, Clone)]
pub struct HellaswagTask {
    examples: Vec<Example>,
}

/// The task's name in reports.
pub const NAME: &str = "hellaswag-synthetic";

impl HellaswagTask {
    /// Builds `num_examples` examples with `num_choices` candidates of `continuation_len`
    /// tokens each. The prompt and the true continuation come from the continuation tasks'
    /// builder; the distractors are drawn after them from the same stream.
    ///
    /// # Panics
    ///
    /// Panics if `num_examples` is zero, `num_choices < 2` or a length is zero.
    pub fn new(
        language: &SyntheticLanguage,
        num_examples: usize,
        num_choices: usize,
        prompt_len: usize,
        continuation_len: usize,
        seed: u64,
    ) -> Self {
        assert!(num_examples > 0, "the task needs at least one example");
        assert!(
            num_choices >= 2,
            "multiple choice needs at least two candidates"
        );
        let mut rng_ = rng::seeded(rng::derive_seed(seed, 0x8E11A));
        let vocab = language.vocab_size() as u32;
        let examples = (0..num_examples)
            .map(|_| {
                let (prompt, truth) =
                    continuation::example(language, &mut rng_, prompt_len, continuation_len);
                let mut candidates = vec![truth];
                for _ in 1..num_choices {
                    candidates.push(
                        (0..continuation_len)
                            .map(|_| rng_.gen_range(0..vocab))
                            .collect(),
                    );
                }
                Example { prompt, candidates }
            })
            .collect();
        Self { examples }
    }

    /// A small instance for unit tests.
    pub fn quick(language: &SyntheticLanguage, seed: u64) -> Self {
        Self::new(language, 8, 4, 5, 4, seed)
    }

    fn candidate_log_likelihood(
        model: &Model,
        prompt: &[u32],
        candidate: &[u32],
        hook: &mut dyn GemmHook,
    ) -> Result<f64> {
        // Score the candidate by teacher forcing: prefill prompt + candidate and sum the
        // log-probabilities of the candidate tokens.
        let mut full = prompt.to_vec();
        full.extend_from_slice(candidate);
        let (logits, _) = model.prefill(&full, hook)?;
        let mut total = 0.0f64;
        for (i, &token) in candidate.iter().enumerate() {
            let position = prompt.len() + i - 1;
            total += metrics::log_prob(logits.row(position), token as usize);
        }
        Ok(total)
    }
}

impl Task for HellaswagTask {
    fn name(&self) -> &str {
        NAME
    }

    fn metric(&self) -> Metric {
        Metric::Accuracy
    }

    fn evaluate(&self, model: &Model, hook: &mut dyn GemmHook) -> Result<f64> {
        let mut correct = 0usize;
        for example in &self.examples {
            let mut best = (0usize, f64::NEG_INFINITY);
            for (idx, candidate) in example.candidates.iter().enumerate() {
                let score =
                    Self::candidate_log_likelihood(model, &example.prompt, candidate, hook)?;
                if score > best.1 {
                    best = (idx, score);
                }
            }
            if best.0 == 0 {
                correct += 1;
            }
        }
        Ok(metrics::accuracy_percent(correct, self.examples.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_inject::{error_model::FixedBitModel, injector::ErrorInjector, targeting::Target};
    use realm_llm::{config::ModelConfig, Component, NoopHook};

    #[test]
    fn clean_model_prefers_true_continuations() {
        let model = Model::new(&ModelConfig::tiny_opt(), 31).unwrap();
        let task = HellaswagTask::quick(model.language(), 31);
        let accuracy = task.evaluate(&model, &mut NoopHook).unwrap();
        // Chance level for 4 candidates is 25%.
        assert!(
            accuracy >= 62.5,
            "clean accuracy {accuracy} barely beats chance"
        );
        assert_eq!(task.examples.len(), 8);
    }

    #[test]
    fn faults_push_accuracy_toward_chance() {
        let model = Model::new(&ModelConfig::tiny_opt(), 31).unwrap();
        let task = HellaswagTask::quick(model.language(), 33);
        let clean = task.evaluate(&model, &mut NoopHook).unwrap();
        let mut injector = ErrorInjector::new(
            FixedBitModel::bit30(0.08),
            Target::new().components([Component::O, Component::Fc2]),
            3,
        );
        let faulty = task.evaluate(&model, &mut injector).unwrap();
        assert!(faulty <= clean + 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least two candidates")]
    fn single_choice_is_rejected() {
        let lang = SyntheticLanguage::new(32, 0);
        let _ = HellaswagTask::new(&lang, 2, 1, 4, 3, 0);
    }
}
