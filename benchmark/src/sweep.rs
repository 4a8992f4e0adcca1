//! The `faulty_sweep` driver: an offline fault campaign, not serving.
//!
//! One round is `scheme_comparison` over {None, ClassicalAbft, StatisticalAbft} × three
//! voltages through `ProtectedPipeline`: the same `realm-core` / `realm-abft` /
//! `realm-inject` layers the serving workloads run clean, here under real faults with
//! recoveries firing, through the solo `Model::prefill` / `decode_step` entry points the
//! serving engine never touches. The fault process is seeded, so every count repeats
//! exactly from round to round — which makes this workload the correctness canary for the
//! paper's numbers as well as a timing.

use crate::serving::Round;
use crate::stats::{quantile, sorted};
use crate::workloads::sweep::{FAULT_SEED, GEN_TOKENS, SCHEMES, VOLTAGES};
use crate::workloads::{Fnv, SweepInputs, MODEL_SEED};
use realm::core::pipeline::{PipelineConfig, PipelineOutcome, ProtectedPipeline};
use realm::core::sweep::scheme_comparison;
use realm::eval::metrics::{self, Metric};
use realm::eval::task::Task;
use realm::llm::model::argmax_with_margin;
use realm::llm::{GemmHook, Model, ModelConfig, NoopHook};
use realm::systolic::ProtectionScheme;
use realm::tensor::{EngineKind, Workspace};
use std::cell::RefCell;
use std::time::Instant;

pub fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        engine: EngineKind::Simd,
        ..PipelineConfig::default()
    }
}

#[derive(Default)]
struct TaskLog {
    prefill_ms: Vec<f64>,
    decode_ms: Vec<f64>,
    /// Seconds per `evaluate` call, in call order: one per (scheme, voltage) arm.
    arm_s: Vec<f64>,
    /// Digest of every token generated under faults, per arm.
    generated: Vec<u64>,
}

/// The campaign's task: WikiText-proxy perplexity over the corpus (a timed solo prefill
/// per sequence) followed by a short greedy generation per prompt. The generation leg is
/// `Model::generate`'s own loop — prefill, then `decode_step` per token — written out so
/// that each step can be timed from outside.
pub struct SweepTask<'a> {
    inputs: &'a SweepInputs,
    log: RefCell<TaskLog>,
}

impl<'a> SweepTask<'a> {
    pub fn new(inputs: &'a SweepInputs) -> Self {
        Self {
            inputs,
            log: RefCell::default(),
        }
    }

    /// Prompt plus generated tokens one `evaluate` call processes.
    pub fn tokens_per_arm(&self) -> u64 {
        let corpus: usize = self.inputs.sequences.iter().map(Vec::len).sum();
        let generation: usize = self
            .inputs
            .gen_prompts
            .iter()
            .map(|p| p.len() + GEN_TOKENS)
            .sum();
        (corpus + generation) as u64
    }
}

impl Task for SweepTask<'_> {
    fn name(&self) -> &str {
        "wikitext-synthetic+generation"
    }

    fn metric(&self) -> Metric {
        Metric::Perplexity
    }

    fn evaluate(&self, model: &Model, hook: &mut dyn GemmHook) -> realm::llm::Result<f64> {
        let arm_started = Instant::now();
        let mut log = self.log.borrow_mut();
        let mut total_nll = 0.0f64;
        let mut targets = 0usize;
        for seq in &self.inputs.sequences {
            let started = Instant::now();
            let (logits, _) = model.prefill(seq, hook)?;
            log.prefill_ms.push(started.elapsed().as_secs_f64() * 1e3);
            for i in 0..seq.len() - 1 {
                total_nll -= metrics::log_prob(logits.row(i), seq[i + 1] as usize);
                targets += 1;
            }
        }
        let mut generated = Fnv::new();
        let mut ws = Workspace::new();
        for prompt in &self.inputs.gen_prompts {
            let started = Instant::now();
            let (logits, mut cache) = model.prefill_ws(prompt, hook, &mut ws)?;
            let (mut next, _) = argmax_with_margin(logits.row(logits.rows() - 1));
            log.prefill_ms.push(started.elapsed().as_secs_f64() * 1e3);
            ws.recycle_mat_f32(logits);
            generated.word(next as u64);
            for _ in 1..GEN_TOKENS {
                let started = Instant::now();
                let step_logits = model.decode_step_ws(next, &mut cache, hook, &mut ws)?;
                next = argmax_with_margin(&step_logits).0;
                log.decode_ms.push(started.elapsed().as_secs_f64() * 1e3);
                ws.recycle_vec_f32(step_logits);
                ws.reset();
                generated.word(next as u64);
            }
        }
        log.generated.push(generated.finish());
        log.arm_s.push(arm_started.elapsed().as_secs_f64());
        Ok(metrics::perplexity_from_nll(total_nll, targets))
    }
}

/// Everything about one arm that must repeat exactly from round to round.
fn arm_signature(outcome: &PipelineOutcome, generated: u64) -> [u64; 7] {
    [
        outcome.task_value.to_bits(),
        outcome.gemms_inspected,
        outcome.recoveries,
        outcome.compute_macs,
        outcome.recovery_macs,
        outcome.recovery_cycles,
        generated,
    ]
}

/// The exact counts of a round, one entry per (scheme, voltage) arm in run order.
pub type Signature = Vec<[u64; 7]>;

/// Runs one round. `expected` is the first round's signature: an arm that differs from it
/// is a failed arm.
pub fn run_round(
    model: &Model,
    inputs: &SweepInputs,
    clean_ppl: f64,
    expected: Option<&Signature>,
) -> (Round, Signature) {
    let pipeline = ProtectedPipeline::new(model, pipeline_config());
    let task = SweepTask::new(inputs);
    let arms = SCHEMES.len() * VOLTAGES.len();
    let started = Instant::now();
    let sweeps = scheme_comparison(&pipeline, &task, &SCHEMES, &VOLTAGES, FAULT_SEED);
    let wall_s = started.elapsed().as_secs_f64();
    let log = task.log.take();
    let mut round = Round {
        wall_s,
        attempted: arms as u64,
        ttft_ms: log.prefill_ms,
        tpot_ms: log.decode_ms,
        ..Round::default()
    };
    let Ok(sweeps) = sweeps else {
        round.failed = arms as u64;
        return (round, Signature::new());
    };
    let outcomes: Vec<&PipelineOutcome> = sweeps.iter().flat_map(|s| &s.outcomes).collect();
    let signature: Signature = outcomes
        .iter()
        .zip(&log.generated)
        .map(|(outcome, &generated)| arm_signature(outcome, generated))
        .collect();
    let repeated = expected.map_or(arms, |expected| {
        signature
            .iter()
            .zip(expected)
            .filter(|(a, b)| a == b)
            .count()
    });
    round.generated = arms as u64;
    round.matched = repeated as u64;
    round.failed = (arms - repeated) as u64;
    round.tokens = repeated as u64 * task.tokens_per_arm();

    // Per-layer counts. `sweeps` is in SCHEMES order and each sweep in VOLTAGES order, so
    // the lowest voltage is every sweep's first outcome.
    let arm = |scheme: ProtectionScheme| {
        let at = SCHEMES
            .iter()
            .position(|&s| s == scheme)
            .expect("a swept scheme");
        &sweeps[at].outcomes
    };
    let lowest = |scheme| &arm(scheme)[0];
    let total = |scheme, field: fn(&PipelineOutcome) -> u64| -> f64 {
        arm(scheme).iter().map(|o| field(o) as f64).sum()
    };
    let (none, classical, statistical) = (
        ProtectionScheme::None,
        ProtectionScheme::ClassicalAbft,
        ProtectionScheme::StatisticalAbft,
    );
    for (label, scheme) in [
        ("none", none),
        ("classical", classical),
        ("statistical", statistical),
    ] {
        let at = SCHEMES
            .iter()
            .position(|&s| s == scheme)
            .expect("a swept scheme");
        let arm_s: f64 = log.arm_s[at * VOLTAGES.len()..(at + 1) * VOLTAGES.len()]
            .iter()
            .sum();
        round.extra(&format!("core.arm_s.{label}"), arm_s);
        round.extra(&format!("eval.ppl.{label}"), lowest(scheme).task_value);
        round.extra(
            &format!("systolic.energy_uj.{label}"),
            lowest(scheme).energy.total_j() * 1e6,
        );
    }
    round.extra(
        "core.gemms_inspected",
        outcomes.iter().map(|o| o.gemms_inspected as f64).sum(),
    );
    round.extra(
        "core.recoveries.statistical",
        total(statistical, |o| o.recoveries),
    );
    round.extra(
        "core.recoveries.classical",
        total(classical, |o| o.recoveries),
    );
    round.extra(
        "core.recovery_macs_share",
        total(statistical, |o| o.recovery_macs) / total(statistical, |o| o.compute_macs),
    );
    round.extra("eval.ppl_clean", clean_ppl);
    round.extra(
        "eval.ppl_degradation",
        lowest(statistical).task_value - clean_ppl,
    );
    round.extra(
        "eval.task_eval_us",
        quantile(&sorted(&log.arm_s), 0.5) * 1e6,
    );
    round.extra(
        "systolic.energy_saving_pct",
        100.0 * (1.0 - lowest(statistical).energy.total_j() / lowest(classical).energy.total_j()),
    );
    round.extra(
        "systolic.recovery_cycles.statistical",
        total(statistical, |o| o.recovery_cycles),
    );
    (round, signature)
}

/// Clean-reference perplexity of the campaign task, outside every timer.
pub fn clean_perplexity(model: &Model, inputs: &SweepInputs) -> f64 {
    SweepTask::new(inputs)
        .evaluate(model, &mut NoopHook)
        .expect("the clean task evaluates")
}

/// One timed cold start: model build, weight packing, pipeline construction and the first
/// sequence up to its first logits.
pub fn cold_start(config: &ModelConfig, inputs: &SweepInputs) -> f64 {
    let started = Instant::now();
    let model = Model::new(config, MODEL_SEED).expect("the fixed config is valid");
    let _pipeline = ProtectedPipeline::new(&model, pipeline_config());
    model
        .prefill(&inputs.sequences[0], &mut NoopHook)
        .expect("a corpus sequence prefills");
    started.elapsed().as_secs_f64()
}
