//! Monte-Carlo campaign runner for error-injection experiments.
//!
//! The paper's characterization is *statistical*: every data point in Fig. 4 is the average
//! metric over many independent fault-injection trials. [`run_trials`] executes those trials
//! in parallel (they are completely independent) with deterministic per-trial seeds, and
//! [`TrialSummary`] aggregates them. [`par_map`] is the one parallel primitive underneath:
//! every campaign and sweep in the workspace fans its trials out through it.

use realm_tensor::{engine::available_cores, rng};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Maps `f` over the indices `0..n` on one scoped thread per available core and returns the
/// results in index order.
///
/// Workers claim the next index off a shared atomic counter, so a run of expensive trials
/// (recovery-heavy ones, say) is spread over every core instead of pinning whichever worker
/// a static split would have handed them to. A panic inside `f` is re-raised on the calling
/// thread once the other workers have drained the counter.
///
/// # Example
///
/// ```
/// let squares = realm_inject::campaign::par_map(5, |i| i * i);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = available_cores().min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (next, f) = (&next, &f);
    let mut claimed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out indices; results are
                        // published by the join.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    claimed.sort_unstable_by_key(|&(i, _)| i);
    claimed.into_iter().map(|(_, value)| value).collect()
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
    par_map(trials, |i| trial(rng::derive_seed(base_seed, i as u64)))
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
    fn par_map_visits_every_index_once_and_keeps_index_order() {
        let cores = available_cores();
        for n in [0, 1, 2, cores.saturating_sub(1), cores + 1, 257] {
            let visits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let out = par_map(n, |i| {
                visits[i].fetch_add(1, Ordering::Relaxed);
                3 * i
            });
            assert_eq!(out, (0..n).map(|i| 3 * i).collect::<Vec<_>>(), "n = {n}");
            assert!(
                visits.iter().all(|v| v.load(Ordering::Relaxed) == 1),
                "n = {n}: every index is claimed exactly once"
            );
        }
    }

    #[test]
    #[should_panic(expected = "trial 5 exploded")]
    fn a_panicking_trial_panics_the_caller() {
        let _ = par_map(64, |i| {
            assert_ne!(i, 5, "trial 5 exploded");
            i
        });
    }

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
