//! The five workloads: fixed conditions, frozen round sizes and seeded generators.
//!
//! Everything a later commit could be tempted to tune lives here as a constant, so the same
//! load is offered on every commit. Round sizes were calibrated once on the 2-core build
//! host so that one round takes 0.5–1.5 s.
//!
//! Generators are pure functions of the seed, and the seed decides the *content* of the
//! load — every token id — but not its *schedule*: prompt lengths, generation budgets,
//! their order, and the open loop's arrival gaps, priorities and policies are drawn once
//! from the frozen [`SCHEDULE_SEED`]. A round is 4–16 requests, and with so few the order
//! of the lengths alone moved `ttft_p50_ms` by 40% and `tpot_p50_ms` by 60% between seeds on
//! `prefill_burst`; the cost of a forward pass depends on lengths, not on token ids, so
//! with the schedule frozen two seeds offer the same work in the same order and their
//! timings can be compared.

use rand::Rng;
use realm::core::ProtectionPolicy;
use realm::eval::corpus::{Corpus, CorpusSpec};
use realm::llm::config::ModelConfig;
use realm::llm::weights::SyntheticLanguage;
use realm::net::trace::TraceConfig;
use realm::net::{generate_trace, GenBody};
use realm::serve::{ServeConfig, ServeRequest};
use realm::tensor::rng::{derive_seed, seeded, SeededRng};
use realm::tensor::EngineKind;

/// Seed of the synthetic model weights, the same on every commit.
pub const MODEL_SEED: u64 = 42;
/// Default workload seed.
pub const DEFAULT_SEED: u64 = 20250926;
/// Seed of every workload's schedule (see the module documentation).
pub const SCHEDULE_SEED: u64 = 0x5C4ED;
/// Batch slots of every serving engine.
pub const SLOTS: usize = 4;
/// Context window of the serving model: room for the 256-token prompts of `mixed_open`
/// and the 320-token prefix probe.
pub const MAX_SEQ_LEN: usize = 640;

/// The serving model: the LLaMA-3-8B proxy on the single-threaded SIMD microkernel
/// (`simd_parallel` would put worker threads on a 2-core host), unsharded.
pub fn serving_model_config() -> ModelConfig {
    ModelConfig {
        max_seq_len: MAX_SEQ_LEN,
        engine: EngineKind::Simd,
        tp_degree: 1,
        ..ModelConfig::llama_3_8b_proxy()
    }
}

/// The campaign model of `faulty_sweep`: the OPT-1.3B proxy on the same engine.
pub fn sweep_model_config() -> ModelConfig {
    ModelConfig {
        engine: EngineKind::Simd,
        tp_degree: 1,
        ..ModelConfig::opt_1_3b_proxy()
    }
}

/// How a serving workload offers its load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// `clients` virtual clients, each submitting its next request when its previous one
    /// completes, driven from one thread against an in-process engine.
    Closed { clients: usize },
    /// A fixed arrival schedule, `span_us` microseconds long, replayed on the busy-time
    /// clock against an in-process engine. The span is frozen so that the engine is busy
    /// for about 35% of it on the build host.
    Open { span_us: u64 },
    /// `clients` client threads, one connection each, against a loopback `NetServer`.
    Net { clients: usize },
}

/// Frozen shape of one serving workload's round.
#[derive(Debug, Clone, Copy)]
pub struct ServingSpec {
    pub name: &'static str,
    pub load: Loop,
    /// Requests per round.
    pub requests: usize,
    /// Inclusive prompt-length range of the (short) requests.
    pub prompt: (usize, usize),
    /// `(count, lo, hi)`: how many of the round's requests carry a long prompt instead.
    pub long_prompt: (usize, usize, usize),
    /// Inclusive generation-budget range.
    pub new_tokens: (usize, usize),
    /// `ServeConfig::step_token_budget`.
    pub step_budget: usize,
}

impl ServingSpec {
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig::with_slots(SLOTS).with_step_token_budget(self.step_budget)
    }
}

pub const DECODE_STREAM: ServingSpec = ServingSpec {
    name: "decode_stream",
    load: Loop::Closed { clients: 4 },
    requests: 8,
    prompt: (8, 16),
    long_prompt: (0, 0, 0),
    new_tokens: (48, 80),
    step_budget: 64,
};

pub const PREFILL_BURST: ServingSpec = ServingSpec {
    name: "prefill_burst",
    load: Loop::Closed { clients: 4 },
    requests: 4,
    prompt: (96, 224),
    long_prompt: (0, 0, 0),
    new_tokens: (2, 4),
    step_budget: 128,
};

pub const MIXED_OPEN: ServingSpec = ServingSpec {
    name: "mixed_open",
    load: Loop::Open { span_us: 4_300_000 },
    requests: 13,
    prompt: (8, 32),
    // 2 of 13: the 15% long-prompt share.
    long_prompt: (2, 128, 256),
    new_tokens: (16, 48),
    step_budget: 64,
};

pub const NET_LOOPBACK: ServingSpec = ServingSpec {
    name: "net_loopback",
    // min(nproc, 2) on the 2-core host; the leaf run clamps it to nproc.
    load: Loop::Net { clients: 2 },
    requests: 16,
    prompt: (8, 16),
    long_prompt: (0, 0, 0),
    new_tokens: (24, 40),
    step_budget: 64,
};

pub const SERVING: [ServingSpec; 4] = [DECODE_STREAM, PREFILL_BURST, MIXED_OPEN, NET_LOOPBACK];

/// Frozen shape of the `faulty_sweep` campaign.
pub mod sweep {
    use realm::systolic::ProtectionScheme;

    pub const NAME: &str = "faulty_sweep";
    pub const SCHEMES: [ProtectionScheme; 3] = [
        ProtectionScheme::None,
        ProtectionScheme::ClassicalAbft,
        ProtectionScheme::StatisticalAbft,
    ];
    /// Ascending, as `voltage_sweep` expects; the first is "the lowest voltage".
    pub const VOLTAGES: [f64; 3] = [0.66, 0.70, 0.74];
    /// Seed of the fault process: part of the fixed conditions, like the model seed.
    pub const FAULT_SEED: u64 = 7;
    /// Perplexity corpus: sequences × tokens.
    pub const SEQUENCES: usize = 3;
    pub const SEQ_LEN: usize = 16;
    /// Generation leg: the first `GEN_PROMPTS` sequences, cut to `GEN_PROMPT_LEN` tokens,
    /// each continued for `GEN_TOKENS` tokens.
    pub const GEN_PROMPTS: usize = 2;
    pub const GEN_PROMPT_LEN: usize = 8;
    pub const GEN_TOKENS: usize = 12;
}

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub prompt: Vec<u32>,
    pub max_new_tokens: usize,
    pub priority: u8,
    pub policy: ProtectionPolicy,
    /// Open loop: microseconds after round start at which the request is due.
    pub due_us: u64,
}

impl Request {
    pub fn to_serve(&self) -> ServeRequest {
        ServeRequest::new(self.prompt.clone(), self.max_new_tokens)
            .with_priority(self.priority)
            .with_policy(self.policy)
    }

    pub fn to_body(&self) -> GenBody {
        GenBody {
            prompt: self.prompt.clone(),
            max_new_tokens: self.max_new_tokens,
            priority: self.priority,
            policy: self.policy,
        }
    }

    /// Prompt plus generated tokens: the unit `tokens_per_s` counts.
    pub fn tokens(&self) -> u64 {
        (self.prompt.len() + self.max_new_tokens) as u64
    }
}

/// `n` values spread evenly over `lo..=hi`, in the order `rng` shuffles them into.
fn stratified(lo: usize, hi: usize, n: usize, rng: &mut SeededRng) -> Vec<usize> {
    let mut values: Vec<usize> = (0..n)
        .map(|i| {
            if n == 1 {
                (lo + hi) / 2
            } else {
                lo + (i * (hi - lo) + (n - 1) / 2) / (n - 1)
            }
        })
        .collect();
    shuffle(&mut values, rng);
    values
}

/// Fisher–Yates.
fn shuffle(values: &mut [usize], rng: &mut SeededRng) {
    for i in (1..values.len()).rev() {
        values.swap(i, rng.gen_range(0..=i));
    }
}

/// Generates one round's requests for a serving workload: the frozen schedule, with token
/// ids drawn from `seed`. `fraction` keeps only the first `requests / fraction` of them
/// (`--quick`).
pub fn serving_requests(
    spec: &ServingSpec,
    vocab: usize,
    seed: u64,
    fraction: usize,
) -> Vec<Request> {
    let n = spec.requests;
    // The schedule: shapes, their order, and for the open loop arrivals, priorities and
    // policies. Drawn from a frozen seed, so it is the same on every run.
    let mut schedule = seeded(SCHEDULE_SEED);
    let (long_n, long_lo, long_hi) = spec.long_prompt;
    let mut prompt_lens = stratified(spec.prompt.0, spec.prompt.1, n - long_n, &mut schedule);
    prompt_lens.extend(stratified(long_lo, long_hi, long_n, &mut schedule));
    // Long prompts land inside the schedule, not at its end.
    shuffle(&mut prompt_lens, &mut schedule);
    let budgets = stratified(spec.new_tokens.0, spec.new_tokens.1, n, &mut schedule);

    let mut tokens = seeded(derive_seed(seed, 0xBE7C));
    let mut requests: Vec<Request> = prompt_lens
        .into_iter()
        .zip(budgets)
        .map(|(len, max_new_tokens)| Request {
            prompt: (0..len)
                .map(|_| tokens.gen_range(0..vocab as u32))
                .collect(),
            max_new_tokens,
            priority: 0,
            policy: ProtectionPolicy::statistical(),
            due_us: 0,
        })
        .collect();

    if let Loop::Open { span_us } = spec.load {
        // Arrival gaps, priorities and policies come from the repo's own trace generator:
        // bounded-Pareto gaps, the default priority mix, policies 6:2:2. Its gaps are
        // rescaled so that the schedule spans exactly `span_us`.
        let trace = generate_trace(&TraceConfig {
            seed: SCHEDULE_SEED,
            requests: n,
            policies: vec![
                (ProtectionPolicy::statistical(), 6),
                (ProtectionPolicy::classical(), 2),
                (ProtectionPolicy::unprotected(), 2),
            ],
            ..TraceConfig::default()
        });
        let first = trace[0].arrival_us;
        let last = trace[n - 1].arrival_us.max(first + 1);
        for (request, scheduled) in requests.iter_mut().zip(&trace) {
            request.due_us = (scheduled.arrival_us - first) * span_us / (last - first);
            request.priority = scheduled.body.priority;
            request.policy = scheduled.body.policy;
        }
    }
    requests.truncate((n / fraction.max(1)).max(1));
    requests
}

/// The inputs of `faulty_sweep`: a perplexity corpus and the generation prompts cut from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepInputs {
    pub sequences: Vec<Vec<u32>>,
    pub gen_prompts: Vec<Vec<u32>>,
}

pub fn sweep_inputs(language: &SyntheticLanguage, seed: u64, fraction: usize) -> SweepInputs {
    let keep = |n: usize| (n / fraction.max(1)).max(1);
    let spec = CorpusSpec {
        num_sequences: keep(sweep::SEQUENCES),
        seq_len: sweep::SEQ_LEN,
        ..CorpusSpec::standard()
    };
    let sequences = Corpus::sample(language, &spec, seed).sequences().to_vec();
    let gen_prompts = sequences[..keep(sweep::GEN_PROMPTS)]
        .iter()
        .map(|s| s[..sweep::GEN_PROMPT_LEN].to_vec())
        .collect();
    SweepInputs {
        sequences,
        gen_prompts,
    }
}

/// FNV-1a over a stream of words: the digest two runs compare to prove they measured the
/// same load.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn digest_requests(requests: &[Request]) -> u64 {
    let mut fnv = Fnv::new();
    for r in requests {
        fnv.word(r.prompt.len() as u64);
        r.prompt.iter().for_each(|&t| fnv.word(t as u64));
        fnv.word(r.max_new_tokens as u64);
        fnv.word(r.priority as u64);
        fnv.word(r.policy.scheme.strictness() as u64);
        fnv.word(r.due_us);
    }
    fnv.finish()
}

pub fn digest_sweep(inputs: &SweepInputs) -> u64 {
    let mut fnv = Fnv::new();
    for s in inputs.sequences.iter().chain(&inputs.gen_prompts) {
        fnv.word(s.len() as u64);
        s.iter().for_each(|&t| fnv.word(t as u64));
    }
    fnv.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        for spec in &SERVING {
            let a = serving_requests(spec, 640, 11, 1);
            let b = serving_requests(spec, 640, 11, 1);
            let c = serving_requests(spec, 640, 12, 1);
            assert_eq!(a, b, "{}: same seed, same requests", spec.name);
            assert_eq!(digest_requests(&a), digest_requests(&b));
            assert_ne!(a, c, "{}: another seed, other requests", spec.name);
            assert_ne!(digest_requests(&a), digest_requests(&c));
            assert_eq!(a.len(), spec.requests);
        }
        let language = SyntheticLanguage::new(512, MODEL_SEED);
        let a = sweep_inputs(&language, 11, 1);
        assert_eq!(a, sweep_inputs(&language, 11, 1));
        assert_ne!(
            digest_sweep(&a),
            digest_sweep(&sweep_inputs(&language, 12, 1))
        );
        assert_eq!(a.sequences.len(), sweep::SEQUENCES);
        assert!(a
            .gen_prompts
            .iter()
            .all(|p| p.len() == sweep::GEN_PROMPT_LEN));
    }

    #[test]
    fn every_seed_offers_the_same_schedule_inside_the_stated_ranges() {
        for spec in &SERVING {
            let shape = |seed| -> Vec<(usize, usize, u8, u8, u64)> {
                serving_requests(spec, 640, seed, 1)
                    .iter()
                    .map(|r| {
                        let policy = r.policy.scheme.strictness();
                        (
                            r.prompt.len(),
                            r.max_new_tokens,
                            r.priority,
                            policy,
                            r.due_us,
                        )
                    })
                    .collect()
            };
            assert_eq!(
                shape(1),
                shape(2),
                "{}: only token ids follow the seed",
                spec.name
            );
            let mut prompts: Vec<usize> = shape(1).iter().map(|s| s.0).collect();
            let mut budgets: Vec<usize> = shape(1).iter().map(|s| s.1).collect();
            prompts.sort_unstable();
            budgets.sort_unstable();
            let (long_n, long_lo, long_hi) = spec.long_prompt;
            let (short, long) = prompts.split_at(prompts.len() - long_n);
            assert_eq!((short[0], *short.last().unwrap()), spec.prompt);
            assert!(long.iter().all(|l| (long_lo..=long_hi).contains(l)));
            assert_eq!((budgets[0], *budgets.last().unwrap()), spec.new_tokens);
            for r in serving_requests(spec, 640, 3, 1) {
                assert!(r.prompt.iter().all(|&t| t < 640));
                assert!(r.prompt.len() + r.max_new_tokens <= MAX_SEQ_LEN);
            }
        }
    }

    #[test]
    fn open_loop_schedule_is_monotone_and_spans_the_frozen_interval() {
        {
            let requests = serving_requests(&MIXED_OPEN, 640, 1, 1);
            assert!(requests.windows(2).all(|w| w[0].due_us <= w[1].due_us));
            assert_eq!(requests[0].due_us, 0);
            let Loop::Open { span_us } = MIXED_OPEN.load else {
                panic!("mixed_open is the open loop")
            };
            assert_eq!(requests.last().unwrap().due_us, span_us);
            let policies: std::collections::BTreeSet<u8> = requests
                .iter()
                .map(|r| r.policy.scheme.strictness())
                .collect();
            assert!(policies.len() > 1, "the policy mix is mixed");
        }
    }
}
