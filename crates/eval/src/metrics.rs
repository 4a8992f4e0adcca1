//! Task metrics: perplexity, accuracy and a ROUGE-1 analogue.

/// The metric family a task reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Language-modelling perplexity — lower is better.
    Perplexity,
    /// Classification / exact-match accuracy in percent — higher is better.
    Accuracy,
    /// ROUGE-1 F1 score in percent — higher is better.
    Rouge1,
}

impl Metric {
    /// Whether larger values of the metric indicate better model quality.
    pub fn higher_is_better(self) -> bool {
        !matches!(self, Metric::Perplexity)
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Metric::Perplexity => f.write_str("perplexity"),
            Metric::Accuracy => f.write_str("accuracy"),
            Metric::Rouge1 => f.write_str("ROUGE-1"),
        }
    }
}

/// Numerically stable log-softmax probability of `target` under `logits`.
pub fn log_prob(logits: &[f32], target: usize) -> f64 {
    debug_assert!(target < logits.len(), "target index out of range");
    let max = logits.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b)) as f64;
    let log_sum: f64 = logits
        .iter()
        .map(|&v| ((v as f64) - max).exp())
        .sum::<f64>()
        .ln()
        + max;
    logits[target] as f64 - log_sum
}

/// Perplexity from a sum of negative log-likelihoods over `count` targets.
///
/// Returns infinity for zero targets so degenerate evaluations are visible rather than
/// silently reported as perfect.
pub fn perplexity_from_nll(total_nll: f64, count: usize) -> f64 {
    if count == 0 {
        return f64::INFINITY;
    }
    (total_nll / count as f64).exp()
}

/// Accuracy in percent from a correct/total count pair.
pub fn accuracy_percent(correct: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * correct as f64 / total as f64
    }
}

/// ROUGE-1 F1 (unigram overlap) between a candidate and a reference token sequence, in
/// percent.
///
/// This is the token-level analogue of the ROUGE-1 score the paper uses for X-Sum: unigram
/// precision/recall with clipped counts, combined into an F1 score.
pub fn rouge1_f1(candidate: &[u32], reference: &[u32]) -> f64 {
    if candidate.is_empty() || reference.is_empty() {
        return 0.0;
    }
    use std::collections::HashMap;
    let mut ref_counts: HashMap<u32, usize> = HashMap::new();
    for &t in reference {
        *ref_counts.entry(t).or_insert(0) += 1;
    }
    let mut cand_counts: HashMap<u32, usize> = HashMap::new();
    for &t in candidate {
        *cand_counts.entry(t).or_insert(0) += 1;
    }
    let overlap: usize = cand_counts
        .iter()
        .map(|(t, &c)| c.min(ref_counts.get(t).copied().unwrap_or(0)))
        .sum();
    if overlap == 0 {
        return 0.0;
    }
    let precision = overlap as f64 / candidate.len() as f64;
    let recall = overlap as f64 / reference.len() as f64;
    100.0 * 2.0 * precision * recall / (precision + recall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_direction() {
        assert!(!Metric::Perplexity.higher_is_better());
        assert!(Metric::Accuracy.higher_is_better());
        assert!(Metric::Rouge1.higher_is_better());
        assert_eq!(Metric::Perplexity.to_string(), "perplexity");
    }

    #[test]
    fn log_prob_of_uniform_logits_is_log_of_count() {
        let logits = vec![0.0f32; 8];
        let lp = log_prob(&logits, 3);
        assert!((lp - (-(8f64).ln())).abs() < 1e-9);
    }

    #[test]
    fn log_prob_prefers_largest_logit() {
        let logits = vec![0.0, 5.0, -2.0];
        assert!(log_prob(&logits, 1) > log_prob(&logits, 0));
        assert!(log_prob(&logits, 0) > log_prob(&logits, 2));
        assert!(log_prob(&logits, 1) < 0.0);
    }

    #[test]
    fn log_prob_is_stable_for_huge_logits() {
        let logits = vec![1e30f32, 0.0, -1e30];
        let lp = log_prob(&logits, 0);
        assert!(lp.is_finite() && lp <= 0.0);
    }

    #[test]
    fn perplexity_of_perfect_predictions_is_one() {
        assert_eq!(perplexity_from_nll(0.0, 10), 1.0);
        assert!(perplexity_from_nll(10.0, 10) > 1.0);
        assert!(perplexity_from_nll(1.0, 0).is_infinite());
    }

    #[test]
    fn accuracy_percent_handles_edge_cases() {
        assert_eq!(accuracy_percent(3, 4), 75.0);
        assert_eq!(accuracy_percent(0, 0), 0.0);
        assert_eq!(accuracy_percent(0, 5), 0.0);
    }

    #[test]
    fn rouge1_of_identical_sequences_is_100() {
        let s = vec![1, 2, 3, 4];
        assert!((rouge1_f1(&s, &s) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn rouge1_of_disjoint_sequences_is_0() {
        assert_eq!(rouge1_f1(&[1, 2, 3], &[4, 5, 6]), 0.0);
        assert_eq!(rouge1_f1(&[], &[1]), 0.0);
    }

    #[test]
    fn rouge1_partial_overlap_is_between() {
        let score = rouge1_f1(&[1, 2, 3, 4], &[3, 4, 5, 6]);
        assert!(score > 0.0 && score < 100.0);
        assert!((score - 50.0).abs() < 1e-9);
    }

    #[test]
    fn rouge1_clips_repeated_tokens() {
        // Candidate repeats a reference token more often than it appears: clipping keeps the
        // overlap at the reference count.
        let score = rouge1_f1(&[7, 7, 7, 7], &[7, 1, 2, 3]);
        assert!((score - 25.0).abs() < 1e-9);
    }
}
