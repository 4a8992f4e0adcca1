//! Synthetic continuation tasks: the LAMBADA, GSM8K and X-Sum analogues.
//!
//! The three benchmarks share one protocol. Each example is a prompt that follows the
//! language's successor map from a random start and the reference continuation that keeps
//! following it. The model generates as many tokens as the reference holds (prefill, then
//! greedy decode through the KV cache) and the benchmark scores what it generated:
//!
//! | [`Benchmark`] | Reference | Score per example |
//! |---|---|---|
//! | [`LAMBADA`] | the final word: one token, so only prefill runs | exact match, 100 or 0 |
//! | [`GSM8K`] | a multi-step chain: every step must be right | exact match, 100 or 0 |
//! | [`XSUM`] | a summary-length chain | ROUGE-1 F1 |
//!
//! The task's value is the mean over examples, so an exact-match benchmark reports accuracy
//! in percent. Exact match is far more brittle under faults than token overlap, and because
//! generation feeds its own outputs back, prefill-stage faults compound over the decode
//! steps — the property behind the paper's Q2.1 finding.

use crate::metrics::{self, Metric};
use crate::task::Task;
use rand::Rng;
use realm_llm::weights::SyntheticLanguage;
use realm_llm::{GemmHook, Model, Result};
use realm_tensor::rng::{self, SeededRng};

/// How a benchmark scores one generated continuation against its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scoring {
    /// 100 when every token matches the reference, 0 otherwise.
    ExactMatch,
    /// ROUGE-1 F1 against the reference.
    Rouge1,
}

/// One benchmark a [`ContinuationTask`] serves: its report name, the salt its examples'
/// seed is derived with, and how it scores a continuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Benchmark {
    name: &'static str,
    salt: u64,
    scoring: Scoring,
}

/// LAMBADA last-word prediction: a one-token reference scored by exact match.
pub const LAMBADA: Benchmark = Benchmark {
    name: "lambada-synthetic",
    salt: 0x1A3BADA,
    scoring: Scoring::ExactMatch,
};

/// GSM8K multi-step reasoning: the whole chain must match.
pub const GSM8K: Benchmark = Benchmark {
    name: "gsm8k-synthetic",
    salt: 0x65_3A8,
    scoring: Scoring::ExactMatch,
};

/// X-Sum summarization: the generated chain scored by unigram overlap.
pub const XSUM: Benchmark = Benchmark {
    name: "xsum-synthetic",
    salt: 0x5A11,
    scoring: Scoring::Rouge1,
};

/// Greedy generation of successor-chain continuations, scored as its [`Benchmark`] says.
#[derive(Debug, Clone)]
pub struct ContinuationTask {
    benchmark: Benchmark,
    /// `(prompt, reference continuation)` pairs.
    examples: Vec<(Vec<u32>, Vec<u32>)>,
}

impl ContinuationTask {
    /// Builds `num_examples` examples of `benchmark` with prompts of `prompt_len` tokens
    /// and references of `continuation_len` tokens, deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if any size parameter is zero.
    pub fn new(
        benchmark: Benchmark,
        language: &SyntheticLanguage,
        num_examples: usize,
        prompt_len: usize,
        continuation_len: usize,
        seed: u64,
    ) -> Self {
        assert!(num_examples > 0, "the task needs at least one example");
        let mut rng_ = rng::seeded(rng::derive_seed(seed, benchmark.salt));
        let examples = (0..num_examples)
            .map(|_| example(language, &mut rng_, prompt_len, continuation_len))
            .collect();
        Self {
            benchmark,
            examples,
        }
    }
}

/// Draws one `(prompt, continuation)` pair: a random start token, the prompt
/// `[start] + successor_chain(start, prompt_len − 1)` and the continuation
/// `successor_chain(last, continuation_len)` of its last token.
///
/// # Panics
///
/// Panics if either length is zero.
pub(crate) fn example(
    language: &SyntheticLanguage,
    rng_: &mut SeededRng,
    prompt_len: usize,
    continuation_len: usize,
) -> (Vec<u32>, Vec<u32>) {
    assert!(
        prompt_len > 0 && continuation_len > 0,
        "sizes must be non-zero"
    );
    let start = rng_.gen_range(0..language.vocab_size() as u32);
    let mut prompt = vec![start];
    prompt.extend(successor_chain(language, start, prompt_len - 1));
    let continuation = successor_chain(language, prompt[prompt_len - 1], continuation_len);
    (prompt, continuation)
}

/// The `len` tokens that follow `start` in the language's successor map.
fn successor_chain(language: &SyntheticLanguage, start: u32, len: usize) -> Vec<u32> {
    let mut chain = Vec::with_capacity(len);
    let mut current = start;
    for _ in 0..len {
        current = language.successor(current);
        chain.push(current);
    }
    chain
}

impl Task for ContinuationTask {
    fn name(&self) -> &str {
        self.benchmark.name
    }

    fn metric(&self) -> Metric {
        match self.benchmark.scoring {
            Scoring::ExactMatch => Metric::Accuracy,
            Scoring::Rouge1 => Metric::Rouge1,
        }
    }

    fn evaluate(&self, model: &Model, hook: &mut dyn GemmHook) -> Result<f64> {
        let mut total = 0.0f64;
        for (prompt, reference) in &self.examples {
            let generated = model.generate(prompt, reference.len(), hook)?.tokens;
            total += match self.benchmark.scoring {
                Scoring::ExactMatch if generated == *reference => 100.0,
                Scoring::ExactMatch => 0.0,
                Scoring::Rouge1 => metrics::rouge1_f1(&generated, reference),
            };
        }
        Ok(total / self.examples.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_inject::error_model::{BitFlipModel, FixedBitModel};
    use realm_inject::{injector::ErrorInjector, targeting::Target};
    use realm_llm::hooks::RecordingHook;
    use realm_llm::model::argmax_with_margin;
    use realm_llm::{config::ModelConfig, Component, NoopHook, Stage};

    /// The oracle of a one-token continuation, written as last-word prediction: prefill the
    /// prompt, then take the argmax of the last row's logits.
    fn prefill_argmax_accuracy(
        task: &ContinuationTask,
        model: &Model,
        hook: &mut dyn GemmHook,
    ) -> f64 {
        let mut correct = 0;
        for (prompt, reference) in &task.examples {
            let (logits, _) = model.prefill(prompt, hook).unwrap();
            let (prediction, _) = argmax_with_margin(logits.row(logits.rows() - 1));
            correct += usize::from([prediction] == reference[..]);
        }
        metrics::accuracy_percent(correct, task.examples.len())
    }

    fn clean_score(benchmark: Benchmark, model_seed: u64, sizes: [usize; 3], seed: u64) -> f64 {
        let model = Model::new(&ModelConfig::tiny_opt(), model_seed).unwrap();
        let [n, prompt_len, continuation_len] = sizes;
        let task = ContinuationTask::new(
            benchmark,
            model.language(),
            n,
            prompt_len,
            continuation_len,
            seed,
        );
        task.evaluate(&model, &mut NoopHook).unwrap()
    }

    #[test]
    fn successor_chain_follows_language_exactly() {
        let lang = SyntheticLanguage::new(64, 3);
        let chain = successor_chain(&lang, 7, 5);
        assert_eq!(chain.len(), 5);
        assert_eq!(chain[0], lang.successor(7));
        for pair in chain.windows(2) {
            assert_eq!(pair[1], lang.successor(pair[0]));
        }
    }

    #[test]
    fn clean_scores_clear_their_floors() {
        let lambada = clean_score(LAMBADA, 5, [12, 8, 1], 5);
        assert!(lambada >= 60.0, "clean accuracy {lambada} is too low");
        let gsm8k = clean_score(GSM8K, 20, [8, 5, 4], 20);
        assert!(
            gsm8k >= 50.0,
            "clean exact-match accuracy {gsm8k} should be substantial"
        );
        let xsum = clean_score(XSUM, 11, [6, 6, 6], 11);
        assert!(xsum > 40.0, "clean ROUGE-1 {xsum} is too low");
        assert!(xsum <= 100.0);
    }

    #[test]
    fn one_token_generation_scores_what_prefill_argmax_scored() {
        let model = Model::new(&ModelConfig::tiny_opt(), 5).unwrap();
        let task = ContinuationTask::new(LAMBADA, model.language(), 12, 8, 1, 7);
        let injector = || {
            let target = Target::new().stage(Stage::Prefill);
            ErrorInjector::new(FixedBitModel::bit30(0.02), target, 29)
        };
        let (mut generated, mut oracle) = (injector(), injector());
        let score = task.evaluate(&model, &mut generated).unwrap();
        assert_eq!(score, prefill_argmax_accuracy(&task, &model, &mut oracle));
        assert_eq!(generated.stats(), oracle.stats(), "the same faults landed");
        let clean = prefill_argmax_accuracy(&task, &model, &mut NoopHook);
        assert_eq!(task.evaluate(&model, &mut NoopHook).unwrap(), clean);
        assert!(
            score < clean,
            "the faults moved predictions ({score} vs {clean})"
        );
    }

    #[test]
    fn one_token_generation_runs_the_gemms_of_prefill() {
        let model = Model::new(&ModelConfig::tiny_llama(), 3).unwrap();
        let prompt = [3, 1, 4, 1, 5, 9, 2];
        let (mut generated, mut prefilled) = (RecordingHook::new(), RecordingHook::new());
        model.generate(&prompt, 1, &mut generated).unwrap();
        model.prefill(&prompt, &mut prefilled).unwrap();
        assert!(generated.count() > 0);
        assert_eq!(generated.calls, prefilled.calls);
        assert_eq!(generated.total_macs, prefilled.total_macs);
    }

    #[test]
    fn sensitive_component_faults_reduce_accuracy() {
        let model = Model::new(&ModelConfig::tiny_opt(), 5).unwrap();
        let task = ContinuationTask::new(LAMBADA, model.language(), 12, 8, 1, 7);
        let clean = task.evaluate(&model, &mut NoopHook).unwrap();
        let mut injector = ErrorInjector::new(
            FixedBitModel::bit30(0.08),
            Target::new().component(Component::O),
            23,
        );
        let faulty = task.evaluate(&model, &mut injector).unwrap();
        assert!(
            faulty <= clean,
            "accuracy must not improve under faults (clean {clean}, faulty {faulty})"
        );
        assert!(
            clean - faulty >= 10.0,
            "bit-30 flips in O should visibly reduce accuracy (clean {clean}, faulty {faulty})"
        );
    }

    #[test]
    fn exact_match_is_more_brittle_than_rouge() {
        let model = Model::new(&ModelConfig::tiny_opt(), 21).unwrap();
        let gsm = ContinuationTask::new(GSM8K, model.language(), 10, 6, 5, 3);
        let xsum = ContinuationTask::new(XSUM, model.language(), 10, 6, 5, 3);

        // Injection seed re-pinned when prefill moved to per-row activation quantization
        // (chunked prefill), which relocates where a given fault draw lands.
        let mut injector = ErrorInjector::everywhere(BitFlipModel::high_bits(2e-4), 54);
        let gsm_faulty = gsm.evaluate(&model, &mut injector).unwrap();
        let mut injector = ErrorInjector::everywhere(BitFlipModel::high_bits(2e-4), 54);
        let xsum_faulty = xsum.evaluate(&model, &mut injector).unwrap();

        let gsm_clean = gsm.evaluate(&model, &mut NoopHook).unwrap();
        let xsum_clean = xsum.evaluate(&model, &mut NoopHook).unwrap();

        let relative_drop = |clean: f64, faulty: f64| {
            if clean > 0.0 {
                (clean - faulty) / clean
            } else {
                0.0
            }
        };
        let gsm_rel_drop = relative_drop(gsm_clean, gsm_faulty);
        let xsum_rel_drop = relative_drop(xsum_clean, xsum_faulty);
        assert!(
            gsm_rel_drop + 1e-9 >= xsum_rel_drop,
            "exact match should degrade at least as fast as ROUGE \
             (gsm {gsm_rel_drop:.3} vs xsum {xsum_rel_drop:.3})"
        );
    }

    #[test]
    fn prefill_faults_hurt_more_than_decode_faults() {
        // Q2.1 in miniature: identical error models targeted at the prefill stage vs the
        // decode stage; the prefill-injected run should degrade at least as much because the
        // corrupted KV cache poisons every later step.
        let model = Model::new(&ModelConfig::tiny_opt(), 11).unwrap();
        let task = ContinuationTask::new(XSUM, model.language(), 10, 8, 8, 13);
        let clean = task.evaluate(&model, &mut NoopHook).unwrap();
        let score = |stage| {
            let target = Target::new().stage(stage);
            let mut injector = ErrorInjector::new(FixedBitModel::bit30(0.02), target, 41);
            task.evaluate(&model, &mut injector).unwrap()
        };
        let (prefill_score, decode_score) = (score(Stage::Prefill), score(Stage::Decode));

        assert!(prefill_score <= clean + 1e-9);
        assert!(decode_score <= clean + 1e-9);
        assert!(
            prefill_score <= decode_score + 15.0,
            "prefill faults should not be dramatically gentler than decode faults \
             (prefill {prefill_score}, decode {decode_score})"
        );
    }

    #[test]
    fn task_is_deterministic() {
        let model = Model::new(&ModelConfig::tiny_opt(), 21).unwrap();
        let task = ContinuationTask::new(GSM8K, model.language(), 8, 5, 4, 4);
        let a = task.evaluate(&model, &mut NoopHook).unwrap();
        let b = task.evaluate(&model, &mut NoopHook).unwrap();
        assert_eq!(a, b);
        assert_eq!(task.examples.len(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one example")]
    fn zero_examples_are_rejected() {
        let lang = SyntheticLanguage::new(32, 0);
        let _ = ContinuationTask::new(LAMBADA, &lang, 0, 8, 1, 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_continuation_length_is_rejected() {
        let lang = SyntheticLanguage::new(32, 0);
        let _ = ContinuationTask::new(XSUM, &lang, 2, 4, 0, 0);
    }
}
