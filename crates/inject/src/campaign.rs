//! Monte-Carlo campaign runner for error-injection experiments.
//!
//! The paper's characterization is *statistical*: every data point in Fig. 4 is the average
//! metric over many independent fault-injection trials. [`run_trials`] executes those trials
//! in parallel (they are completely independent) with deterministic per-trial seeds, and
//! [`TrialSummary`] aggregates them. [`realm_tensor::engine::par_map`] over one worker per
//! available core is the one parallel primitive underneath: every campaign and sweep in the
//! workspace fans its trials out through it, as the pooled GEMM does its row chunks.

use realm_tensor::engine::{available_cores, par_map};
use realm_tensor::rng;

/// Aggregate statistics over the metric values produced by a set of trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialSummary {
    /// Number of trials aggregated.
    pub trials: usize,
    /// Mean metric value.
    pub mean: f64,
    /// Sample standard deviation (0.0 for fewer than two trials).
    pub std: f64,
    /// Minimum metric value.
    pub min: f64,
    /// Maximum metric value.
    pub max: f64,
    /// Median metric value.
    pub median: f64,
}

impl TrialSummary {
    /// Summarises a slice of metric values.
    ///
    /// Returns a zeroed summary for an empty slice.
    pub fn from_values(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self {
                trials: 0,
                mean: 0.0,
                std: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
            };
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric values must not be NaN"));
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        };
        Self {
            trials: n,
            mean,
            std: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median,
        }
    }
}

/// Runs `trials` independent trials in parallel and returns each trial's result — a metric
/// value, or anything richer (e.g. a batched trial's per-sequence attribution).
///
/// Every trial receives a distinct, deterministic seed derived from `base_seed`, so the whole
/// campaign is reproducible regardless of thread scheduling, and two campaigns with the same
/// base seed observe the same fault streams whatever they report.
///
/// # Example
///
/// ```
/// use realm_inject::campaign::{run_trials, TrialSummary};
///
/// let values = run_trials(8, 42, |seed| (seed % 7) as f64);
/// assert_eq!(values.len(), 8);
/// let summary = TrialSummary::from_values(&values);
/// assert!(summary.mean >= 0.0);
/// ```
pub fn run_trials<T, F>(trials: usize, base_seed: u64, trial: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    par_map(available_cores(), trials, |i| {
        trial(rng::derive_seed(base_seed, i as u64))
    })
}

/// Runs trials and aggregates them in one call.
pub fn run_and_summarize<F>(trials: usize, base_seed: u64, trial: F) -> TrialSummary
where
    F: Fn(u64) -> f64 + Sync,
{
    TrialSummary::from_values(&run_trials(trials, base_seed, trial))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trials_receive_distinct_deterministic_seeds() {
        let a = run_trials(16, 7, |seed| seed as f64);
        let b = run_trials(16, 7, |seed| seed as f64);
        assert_eq!(a, b, "same base seed gives the same trial seeds");
        let mut unique = a.clone();
        unique.sort_by(|x, y| x.partial_cmp(y).unwrap());
        unique.dedup();
        assert_eq!(unique.len(), 16, "every trial sees a different seed");
        let c = run_trials(16, 8, |seed| seed as f64);
        assert_ne!(a, c);
    }

    #[test]
    fn summary_of_known_values() {
        let s = TrialSummary::from_values(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.trials, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.median, 2.5);
        assert!((s.std - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_of_single_and_empty_inputs() {
        let s = TrialSummary::from_values(&[7.0]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.median, 7.0);
        let e = TrialSummary::from_values(&[]);
        assert_eq!(e.trials, 0);
        assert_eq!((e.mean, e.std), (0.0, 0.0));
    }

    #[test]
    fn run_and_summarize_matches_manual_composition() {
        let summary = run_and_summarize(10, 3, |seed| (seed % 100) as f64);
        let manual = TrialSummary::from_values(&run_trials(10, 3, |seed| (seed % 100) as f64));
        assert_eq!(summary, manual);
    }
}
