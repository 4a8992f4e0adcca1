//! Synthetic language-modelling perplexity task (the WikiText-2 analogue).

use crate::corpus::{Corpus, CorpusSpec};
use crate::metrics::{self, Metric};
use crate::task::Task;
use realm_llm::weights::SyntheticLanguage;
use realm_llm::{GemmHook, Model, Result};

/// Perplexity over corpora sampled from the model's synthetic language.
#[derive(Debug, Clone)]
pub struct WikitextTask {
    corpus: Corpus,
}

/// The task's name in reports.
pub const NAME: &str = "wikitext-synthetic";

impl WikitextTask {
    /// Builds the task from an explicit corpus specification.
    pub fn new(language: &SyntheticLanguage, spec: &CorpusSpec, seed: u64) -> Self {
        Self {
            corpus: Corpus::sample(language, spec, seed),
        }
    }

    /// A small instance for unit tests and doc examples.
    pub fn quick(language: &SyntheticLanguage, seed: u64) -> Self {
        Self::new(language, &CorpusSpec::quick(), seed)
    }

    /// A larger instance, the quickstart's.
    pub fn standard(language: &SyntheticLanguage, seed: u64) -> Self {
        Self::new(language, &CorpusSpec::standard(), seed)
    }
}

impl Task for WikitextTask {
    fn name(&self) -> &str {
        NAME
    }

    fn metric(&self) -> Metric {
        Metric::Perplexity
    }

    fn evaluate(&self, model: &Model, hook: &mut dyn GemmHook) -> Result<f64> {
        let mut total_nll = 0.0f64;
        let mut targets = 0usize;
        for seq in self.corpus.sequences() {
            let (logits, _) = model.prefill(seq, hook)?;
            for i in 0..seq.len() - 1 {
                let lp = metrics::log_prob(logits.row(i), seq[i + 1] as usize);
                total_nll -= lp;
                targets += 1;
            }
        }
        Ok(metrics::perplexity_from_nll(total_nll, targets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_inject::{error_model::FixedBitModel, injector::ErrorInjector, targeting::Target};
    use realm_llm::{config::ModelConfig, Component, NoopHook};

    #[test]
    fn clean_perplexity_is_far_below_uniform() {
        let config = ModelConfig::tiny_opt();
        let model = Model::new(&config, 3).unwrap();
        let task = WikitextTask::quick(model.language(), 3);
        let ppl = task.evaluate(&model, &mut NoopHook).unwrap();
        let uniform = config.vocab_size as f64;
        assert!(ppl > 1.0, "perplexity {ppl} must exceed 1");
        assert!(
            ppl < uniform * 0.6,
            "clean perplexity {ppl} should beat the uniform baseline {uniform}"
        );
    }

    #[test]
    fn perplexity_is_deterministic() {
        let model = Model::new(&ModelConfig::tiny_opt(), 3).unwrap();
        let task = WikitextTask::quick(model.language(), 9);
        let a = task.evaluate(&model, &mut NoopHook).unwrap();
        let b = task.evaluate(&model, &mut NoopHook).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn heavy_fault_injection_degrades_perplexity() {
        let model = Model::new(&ModelConfig::tiny_opt(), 3).unwrap();
        let task = WikitextTask::quick(model.language(), 5);
        let clean = task.evaluate(&model, &mut NoopHook).unwrap();
        // Hammer the sensitive output projection with guaranteed bit-30 flips.
        let mut injector = ErrorInjector::new(
            FixedBitModel::bit30(0.05),
            Target::new().component(Component::O),
            17,
        );
        let faulty = task.evaluate(&model, &mut injector).unwrap();
        assert!(
            faulty > clean * 1.5,
            "perplexity should degrade: clean {clean}, faulty {faulty}"
        );
    }
}
