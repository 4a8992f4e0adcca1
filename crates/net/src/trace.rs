//! Deterministic load traces: seeded bounded-Pareto interarrival times and a mixed
//! prompt/budget/priority/policy workload.
//!
//! Everything is a pure function of [`TraceConfig`] — the same config (same seed)
//! reproduces the identical trace on every run and platform, which is what lets the repo
//! benchmark's open-loop workload and the loopback accounting test in
//! `tests/net_resilience.rs` replay the same requests on every commit.

use crate::wire::GenBody;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use realm_core::protection::ProtectionPolicy;

/// A bounded (truncated) Pareto distribution over `[scale, cap]`.
///
/// Heavy-tailed interarrival gaps are the standard model for open-loop LLM serving
/// traffic: most gaps are short (bursts), a few are long (lulls). The bound keeps a
/// single sample from stalling a finite benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct BoundedPareto {
    /// Minimum value (the Pareto scale `L`).
    pub scale: f64,
    /// Tail index `alpha` (smaller = heavier tail). Must not be 1.0 exactly.
    pub shape: f64,
    /// Maximum value (the truncation point `H`).
    pub cap: f64,
}

impl BoundedPareto {
    /// Draws one sample via the inverse CDF:
    /// `x = L * (1 - u*(1 - (L/H)^a))^(-1/a)` for uniform `u` in `[0, 1)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let (l, a, h) = (self.scale, self.shape, self.cap);
        let u: f64 = rng.gen();
        let ratio = (l / h).powf(a);
        l * (1.0 - u * (1.0 - ratio)).powf(-1.0 / a)
    }

    /// Analytic mean of the bounded distribution (used to rescale samples so a trace
    /// hits a requested mean interarrival gap exactly in expectation).
    pub fn mean(&self) -> f64 {
        let (l, a, h) = (self.scale, self.shape, self.cap);
        let la = l.powf(a);
        let denom = 1.0 - (l / h).powf(a);
        la / denom * (a / (a - 1.0)) * (l.powf(1.0 - a) - h.powf(1.0 - a))
    }
}

/// Configuration of one generated trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Seed for the ChaCha8 stream; the trace is a pure function of this config.
    pub seed: u64,
    /// Number of requests in the trace.
    pub requests: usize,
    /// Target mean interarrival gap in microseconds (samples are rescaled to hit this).
    pub mean_interarrival_us: f64,
    /// Pareto tail index for interarrival gaps (1.5 = markedly bursty).
    pub pareto_shape: f64,
    /// Truncation point as a multiple of the scale (caps the longest lull).
    pub pareto_cap_ratio: f64,
    /// Inclusive range of prompt lengths in tokens (the short mode of the mix).
    pub prompt_len: (usize, usize),
    /// Per-mille probability that a request draws its prompt length from
    /// [`long_prompt_len`](Self::long_prompt_len) instead of
    /// [`prompt_len`](Self::prompt_len). `0` (the default) keeps the mix unimodal —
    /// and, deliberately, byte-identical to traces generated before the bimodal mode
    /// existed: the long/short coin is only flipped when the weight is non-zero, so
    /// the RNG stream of legacy configs is untouched.
    pub long_prompt_permille: u32,
    /// Inclusive prompt-length range of the long mode. Long prompts are what make
    /// head-of-line blocking observable: without chunked prefill, one of these parks
    /// every concurrent decode stream for a full monolithic prefill.
    pub long_prompt_len: (usize, usize),
    /// Inclusive range of generation budgets in tokens.
    pub max_new_tokens: (usize, usize),
    /// Vocabulary size prompts are drawn from (tokens are `0..vocab`).
    pub vocab: u32,
    /// Weighted priority levels: `(priority, weight)`.
    pub priorities: Vec<(u8, u32)>,
    /// Weighted protection policies: `(policy, weight)`.
    pub policies: Vec<(ProtectionPolicy, u32)>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            seed: 2025,
            requests: 50,
            mean_interarrival_us: 2_000.0,
            pareto_shape: 1.5,
            pareto_cap_ratio: 50.0,
            prompt_len: (2, 8),
            long_prompt_permille: 0,
            long_prompt_len: (256, 512),
            max_new_tokens: (2, 8),
            vocab: 64,
            priorities: vec![(0, 6), (3, 3), (7, 1)],
            policies: vec![
                (ProtectionPolicy::statistical(), 6),
                (ProtectionPolicy::classical(), 2),
                (ProtectionPolicy::unprotected(), 2),
            ],
        }
    }
}

/// One scheduled request of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRequest {
    /// Arrival offset from trace start, in microseconds.
    pub arrival_us: u64,
    /// The request body to send.
    pub body: GenBody,
}

/// Generates the deterministic trace described by `config`.
///
/// # Panics
///
/// Panics when the config is degenerate (empty ranges, no weighted choices, a Pareto
/// shape of exactly 1.0) — trace configs are written by hand and should fail loudly.
pub fn generate_trace(config: &TraceConfig) -> Vec<TraceRequest> {
    assert!(config.prompt_len.0 >= 1 && config.prompt_len.0 <= config.prompt_len.1);
    assert!(config.long_prompt_permille <= 1000);
    if config.long_prompt_permille > 0 {
        assert!(
            config.long_prompt_len.0 >= 1 && config.long_prompt_len.0 <= config.long_prompt_len.1
        );
    }
    assert!(config.max_new_tokens.0 >= 1 && config.max_new_tokens.0 <= config.max_new_tokens.1);
    assert!(config.vocab >= 1);
    assert!(
        (config.pareto_shape - 1.0).abs() > 1e-9,
        "shape 1.0 has no closed-form mean"
    );
    assert!(config.pareto_cap_ratio > 1.0);
    assert!(!config.priorities.is_empty() && !config.policies.is_empty());

    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    // Scale the unit-scale Pareto so the analytic mean equals the requested gap.
    let gap = BoundedPareto {
        scale: 1.0,
        shape: config.pareto_shape,
        cap: config.pareto_cap_ratio,
    };
    let rescale = config.mean_interarrival_us / gap.mean();

    let mut arrival = 0.0f64;
    (0..config.requests)
        .map(|_| {
            arrival += gap.sample(&mut rng) * rescale;
            // The bimodal coin is only flipped when long prompts are enabled, so legacy
            // (unimodal) configs reproduce their historical RNG stream exactly.
            let (len_lo, len_hi) = if config.long_prompt_permille > 0
                && rng.gen_range(0..1000) < config.long_prompt_permille
            {
                config.long_prompt_len
            } else {
                config.prompt_len
            };
            let prompt_len = rng.gen_range(len_lo..=len_hi);
            let prompt = (0..prompt_len)
                .map(|_| rng.gen_range(0..config.vocab))
                .collect();
            let max_new_tokens = rng.gen_range(config.max_new_tokens.0..=config.max_new_tokens.1);
            let priority = weighted_pick(&mut rng, &config.priorities);
            let policy = weighted_pick(&mut rng, &config.policies);
            TraceRequest {
                arrival_us: arrival as u64,
                body: GenBody {
                    prompt,
                    max_new_tokens,
                    priority,
                    policy,
                },
            }
        })
        .collect()
}

/// Picks one value from a weighted list (weights need not be normalised).
fn weighted_pick<T: Copy, R: Rng + ?Sized>(rng: &mut R, choices: &[(T, u32)]) -> T {
    let total: u32 = choices.iter().map(|(_, w)| w).sum();
    assert!(total > 0, "weighted choice needs a positive total weight");
    let mut draw = rng.gen_range(0..total);
    for (value, weight) in choices {
        if draw < *weight {
            return *value;
        }
        draw -= weight;
    }
    choices[choices.len() - 1].0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_pareto_respects_bounds_and_mean() {
        let dist = BoundedPareto {
            scale: 1.0,
            shape: 1.5,
            cap: 50.0,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = dist.sample(&mut rng);
            assert!(
                (dist.scale..=dist.cap).contains(&x),
                "sample {x} out of bounds"
            );
            sum += x;
        }
        let empirical = sum / n as f64;
        let analytic = dist.mean();
        assert!(
            (empirical - analytic).abs() / analytic < 0.05,
            "empirical mean {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let config = TraceConfig::default();
        let a = generate_trace(&config);
        let b = generate_trace(&config);
        assert_eq!(a, b, "same seed must reproduce the identical trace");
        let different = generate_trace(&TraceConfig {
            seed: config.seed + 1,
            ..config.clone()
        });
        assert_ne!(a, different, "a different seed must change the trace");
    }

    #[test]
    fn traces_honour_ranges_and_mix() {
        let config = TraceConfig {
            requests: 200,
            ..TraceConfig::default()
        };
        let trace = generate_trace(&config);
        assert_eq!(trace.len(), 200);
        let mut last_arrival = 0;
        let mut saw_nonzero_priority = false;
        let mut saw_non_default_policy = false;
        for request in &trace {
            assert!(request.arrival_us >= last_arrival, "arrivals are monotone");
            last_arrival = request.arrival_us;
            let len = request.body.prompt.len();
            assert!((config.prompt_len.0..=config.prompt_len.1).contains(&len));
            assert!((config.max_new_tokens.0..=config.max_new_tokens.1)
                .contains(&request.body.max_new_tokens));
            assert!(request.body.prompt.iter().all(|&t| t < config.vocab));
            saw_nonzero_priority |= request.body.priority > 0;
            saw_non_default_policy |= request.body.policy != ProtectionPolicy::statistical();
        }
        assert!(
            saw_nonzero_priority,
            "the weighted mix produces elevated priorities"
        );
        assert!(
            saw_non_default_policy,
            "the weighted mix produces non-default policies"
        );
    }

    #[test]
    fn bimodal_mix_produces_both_modes_and_stays_deterministic() {
        let config = TraceConfig {
            requests: 400,
            long_prompt_permille: 200,
            long_prompt_len: (64, 96),
            ..TraceConfig::default()
        };
        let trace = generate_trace(&config);
        let long = trace
            .iter()
            .filter(|r| (64..=96).contains(&r.body.prompt.len()))
            .count();
        let short = trace
            .iter()
            .filter(|r| (2..=8).contains(&r.body.prompt.len()))
            .count();
        assert_eq!(long + short, 400, "every prompt falls in one of the modes");
        // 200 permille of 400 requests: expect ~80 long prompts; a wide tolerance keeps
        // the check seed-robust while still proving both modes are live.
        assert!(
            (40..=140).contains(&long),
            "long-prompt mode should claim roughly a fifth of the mix, got {long}"
        );
        assert_eq!(
            trace,
            generate_trace(&config),
            "the bimodal trace is still a pure function of its config"
        );
        // Enabling the mix must not perturb the legacy unimodal stream.
        let legacy = generate_trace(&TraceConfig::default());
        let legacy_again = generate_trace(&TraceConfig {
            long_prompt_len: (999, 1000), // ignored while permille is 0
            ..TraceConfig::default()
        });
        assert_eq!(legacy, legacy_again);
    }

    #[test]
    fn mean_interarrival_lands_near_target() {
        let config = TraceConfig {
            requests: 2_000,
            mean_interarrival_us: 500.0,
            ..TraceConfig::default()
        };
        let trace = generate_trace(&config);
        let total = trace.last().unwrap().arrival_us as f64;
        let mean = total / trace.len() as f64;
        assert!(
            (mean - 500.0).abs() / 500.0 < 0.15,
            "rescaled mean gap {mean} should sit near 500us"
        );
    }
}
