//! Continuous batching vs lockstep drain: serving throughput at queue depth 16.
//!
//! This is the perf contract of the serving tentpole. Sixteen requests with ragged
//! generation budgets are served through a 4-slot window two ways:
//!
//! * **lockstep drain** — four batches of four via `Model::generate_batch`; a slot whose
//!   sequence finished early sits empty until the whole chunk drains;
//! * **continuous** — the `ServeEngine` (queue, channels and all) releases a slot the
//!   moment its sequence completes and prefills the next request into it, so the number of
//!   lockstep decode forwards collapses.
//!
//! Both produce bit-identical tokens; only wall-clock changes. Both arms run the same
//! always-on statistical protector so the ratio isolates scheduling, not protection. The
//! measured tokens/s land in the criterion report and (via `report_serving_throughput`) in
//! the `serving_q16` rows of `BENCH_gemm.json`; the ≥1.07× speedup is asserted here so a
//! regression fails the build of this bench (measured 1.2–1.3× on the 2-core host; the
//! floor leaves room for its ±10% timing noise).

use criterion::{criterion_group, criterion_main, Criterion};
use realm_core::SchemeProtector;
use realm_inject::{error_model::MagFreqModel, injector::ErrorInjector, targeting::Target};
use realm_llm::batch::BatchRequest;
use realm_llm::{config::ModelConfig, model::Model, Component};
use realm_serve::{AdaptiveConfig, ProtectionPolicy, ServeConfig, ServeEngine, ServeRequest};
use realm_systolic::{Dataflow, ProtectionScheme, SystolicArray};
use realm_tensor::EngineKind;
use std::time::Instant;

const QUEUE_DEPTH: usize = 16;
const SLOTS: usize = 4;
/// Ragged budgets: each 4-chunk contains one long request that pins its lockstep batch.
const BUDGETS: [usize; 4] = [1, 1, 2, 24];

/// The serving benches measure the *scheduling* layer (slot reuse, admission, queueing),
/// so the model is pinned to the blocked-parallel kernel the 1.3x contract was calibrated
/// on: swapping in a faster GEMM kernel (e.g. the SIMD default) shrinks every arm's GEMM
/// time alike and turns these ratios into a measurement of scheduler overhead instead.
fn scheduling_config() -> ModelConfig {
    let mut config = ModelConfig::tiny_opt();
    config.engine = EngineKind::Parallel;
    config
}

fn requests() -> Vec<BatchRequest> {
    (0..QUEUE_DEPTH)
        .map(|i| {
            let prompt: Vec<u32> = (0..3 + i % 5)
                .map(|t| ((i * 7 + t * 3) % 60) as u32)
                .collect();
            BatchRequest::new(prompt, BUDGETS[i % BUDGETS.len()])
        })
        .collect()
}

fn total_tokens() -> usize {
    requests().iter().map(|r| r.max_new_tokens).sum()
}

/// The always-on statistical protector `ServeEngine` runs by default. The lockstep arm
/// runs the same one, so both arms pay identical per-GEMM detection cost and the measured
/// ratio isolates the *scheduling* machinery (slot reuse, queueing, streaming).
fn protector() -> SchemeProtector {
    SchemeProtector::with_default_regions(
        ProtectionScheme::StatisticalAbft,
        SystolicArray::small(Dataflow::WeightStationary),
    )
}

fn run_lockstep_drain(model: &Model, requests: &[BatchRequest]) -> usize {
    let mut hook = protector();
    let mut tokens = 0;
    for chunk in requests.chunks(SLOTS) {
        for output in model.generate_batch(chunk, &mut hook).unwrap() {
            tokens += output.tokens.len();
        }
    }
    tokens
}

fn run_serve_engine(model: &Model, requests: &[BatchRequest]) -> usize {
    let mut engine = ServeEngine::new(model, ServeConfig::with_slots(SLOTS));
    let receivers: Vec<_> = requests
        .iter()
        .map(|r| {
            engine
                .submit(ServeRequest::new(r.prompt.clone(), r.max_new_tokens))
                .unwrap()
                .1
        })
        .collect();
    engine.run_until_idle().unwrap();
    drop(receivers);
    engine.stats().tokens_generated as usize
}

fn bench_serving(c: &mut Criterion) {
    let model = Model::new(&scheduling_config(), 5).unwrap();
    let requests = requests();
    let expected = total_tokens();
    let mut group = c.benchmark_group("serving_q16");
    group.sample_size(15);
    group.bench_function("lockstep_drain", |b| {
        b.iter(|| {
            let tokens = run_lockstep_drain(&model, &requests);
            assert_eq!(tokens, expected);
            tokens
        });
    });
    group.bench_function("serve_engine", |b| {
        b.iter(|| {
            let tokens = run_serve_engine(&model, &requests);
            assert_eq!(tokens, expected);
            tokens
        });
    });
    group.finish();
}

fn report_serving_throughput(_c: &mut Criterion) {
    // Not a timing benchmark: measures tokens/s for the committed `serving_q16` rows of
    // BENCH_gemm.json and asserts the continuous-batching contract.
    let model = Model::new(&scheduling_config(), 5).unwrap();
    let requests = requests();
    let tokens = total_tokens() as f64;
    let reps = 7;

    let time = |f: &dyn Fn() -> usize| {
        // Warm up once, then take the best of `reps` to suppress scheduler noise.
        f();
        (0..reps)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let lockstep = time(&|| run_lockstep_drain(&model, &requests));
    let engine = time(&|| run_serve_engine(&model, &requests));

    let lockstep_tps = tokens / lockstep;
    let engine_tps = tokens / engine;
    println!(
        "serving throughput at queue depth {QUEUE_DEPTH} (slots {SLOTS}): \
         lockstep {lockstep_tps:.0} tok/s, serve engine {engine_tps:.0} tok/s ({:.2}x)",
        engine_tps / lockstep_tps
    );
    assert!(
        engine_tps / lockstep_tps >= 1.07,
        "continuous batching must deliver >=1.07x the lockstep-drain throughput \
         ({engine_tps:.0} vs {lockstep_tps:.0} tok/s)"
    );
}

/// Long prompts of the bimodal workload: big enough that a monolithic admission prefill
/// visibly parks every concurrent decode stream.
const LONG_PROMPT: usize = 512;
/// The chunked arm's per-step token budget (the contract's operating point).
const CHUNK_BUDGET: usize = 128;

fn bimodal_config() -> ModelConfig {
    let mut config = scheduling_config();
    config.max_seq_len = LONG_PROMPT + 64;
    config
}

/// One bimodal serving round: a short-prompt victim stream decodes on slot 0 while four
/// 512-token prompts arrive behind it, prefilled monolithically (`step_token_budget` 0)
/// or in budgeted chunks. Returns `(decode stall p99 in us, wall-clock seconds)` — the
/// stall p99 is the engine's own inter-commit gap percentile, i.e. the p99 TPOT any
/// in-flight stream observed.
fn run_bimodal(model: &Model, step_token_budget: usize) -> (f64, f64) {
    let mut engine = ServeEngine::new(
        model,
        ServeConfig {
            slots: 2,
            step_token_budget,
            ..ServeConfig::default()
        },
    );
    let victim = engine
        .submit(ServeRequest::new(vec![1, 2, 3, 4], 48))
        .unwrap()
        .1;
    let longs: Vec<_> = (0..4)
        .map(|i| {
            let prompt: Vec<u32> = (0..LONG_PROMPT)
                .map(|t| ((t * 11 + i * 17) % 60) as u32)
                .collect();
            engine.submit(ServeRequest::new(prompt, 4)).unwrap().1
        })
        .collect();
    let start = Instant::now();
    engine.run_until_idle().unwrap();
    let wall = start.elapsed().as_secs_f64();
    drop((victim, longs));
    (engine.stats().decode_stall_p99_us, wall)
}

fn bench_chunked_prefill(c: &mut Criterion) {
    let model = Model::new(&bimodal_config(), 5).unwrap();
    let mut group = c.benchmark_group("serving_chunked");
    group.sample_size(10);
    group.bench_function("monolithic_round", |b| b.iter(|| run_bimodal(&model, 0)));
    group.bench_function("chunked_round", |b| {
        b.iter(|| run_bimodal(&model, CHUNK_BUDGET))
    });
    group.finish();
}

fn report_chunked_prefill(_c: &mut Criterion) {
    // Not a timing benchmark: pins the head-of-line-blocking contract of the chunked
    // prefill tentpole. At budget 128 with 512-token prompts, the p99 inter-token stall
    // of in-flight decode streams must drop to <=0.6x the monolithic-admission stall
    // (in practice ~0.25x: a stalled step runs a ~128-row chunk instead of 512 rows).
    let model = Model::new(&bimodal_config(), 5).unwrap();
    let best = |budget: usize| {
        (0..3)
            .map(|_| run_bimodal(&model, budget))
            .fold((f64::INFINITY, f64::INFINITY), |a, b| {
                (a.0.min(b.0), a.1.min(b.1))
            })
    };
    let (mono_p99, mono_wall) = best(0);
    let (chunked_p99, chunked_wall) = best(CHUNK_BUDGET);
    println!(
        "bimodal serving ({LONG_PROMPT}-token prompts, budget {CHUNK_BUDGET}): \
         decode stall p99 monolithic {mono_p99:.0} us vs chunked {chunked_p99:.0} us \
         ({:.2}x), round wall {mono_wall:.3}s vs {chunked_wall:.3}s",
        chunked_p99 / mono_p99
    );
    assert!(
        chunked_p99 <= 0.6 * mono_p99,
        "chunked prefill must cut the p99 decode stall to <=0.6x monolithic \
         ({chunked_p99:.0} us vs {mono_p99:.0} us)"
    );
    println!("\nBENCH_gemm.json `serving_chunked` entries:");
    for (name, us) in [
        ("serving_chunked/stall_p99_monolithic", mono_p99),
        ("serving_chunked/stall_p99_chunked", chunked_p99),
    ] {
        let ns = (us * 1_000.0).round();
        println!(
            "    {{ \"name\": \"{name}\", \"best_ns\": {ns}, \"median_ns\": {ns}, \"iterations\": 3 }},"
        );
    }
}

/// Burst schedule of the adaptive-protection arms: 16 faulty steps, 16 clean steps.
/// The burst is long relative to the controller's two-step escalation latency (one
/// observe to elevate, one more to escalate), so nearly all of each burst runs under
/// escalated protection — the fraction lost to the ladder is what separates adaptive
/// recovery from classical's perfect rate.
const BURST_STEPS: u64 = 16;
const BURST_GAP: u64 = 16;

/// The burst-arm fault hook: one +2^30 error per targeted GEMM during each burst, on
/// one sensitive component (`O` — always repaired, fuels the detection window) and one
/// resilient component (`Fc1` — tolerated by statistical ABFT, repaired by classical).
/// The recovery-rate gap between the static arms is entirely the `Fc1` faults; the
/// adaptive arm closes it by escalating to classical while the burst is hot.
fn burst_injector() -> ErrorInjector<MagFreqModel> {
    ErrorInjector::new(
        MagFreqModel::new(1 << 30, 1),
        Target::new().components([Component::O, Component::Fc1]),
        11,
    )
    .with_burst(BURST_STEPS, BURST_GAP)
}

/// Fast-reacting controller for the burst workload: one attributed detection elevates,
/// two escalate, and a short clean window steps back down between bursts.
fn bench_adaptive_config() -> AdaptiveConfig {
    AdaptiveConfig {
        window_steps: 4,
        elevate_detections: 1,
        escalate_detections: 2,
        clean_window_steps: 4,
        hysteresis_steps: 1,
        ..AdaptiveConfig::enabled()
    }
}

struct ProtectedRound {
    tokens: usize,
    detections: u64,
    recoveries: u64,
    escalations: u64,
    wall: f64,
}

/// One full 16-request round through the engine under the burst injector, every request
/// pinned to `policy`, with the adaptive controller configured by `adaptive`.
fn run_protected_round(
    model: &Model,
    policy: ProtectionPolicy,
    adaptive: AdaptiveConfig,
) -> ProtectedRound {
    let mut engine = ServeEngine::new(
        model,
        ServeConfig::with_slots(SLOTS).with_adaptive(adaptive),
    )
    .with_fault_hook(Box::new(burst_injector()));
    let receivers: Vec<_> = requests()
        .iter()
        .map(|r| {
            engine
                .submit(ServeRequest::new(r.prompt.clone(), r.max_new_tokens).with_policy(policy))
                .unwrap()
                .1
        })
        .collect();
    let start = Instant::now();
    engine.run_until_idle().unwrap();
    let wall = start.elapsed().as_secs_f64();
    drop(receivers);
    let stats = engine.stats();
    ProtectedRound {
        tokens: stats.tokens_generated as usize,
        detections: stats.detections,
        recoveries: stats.recoveries,
        escalations: stats.policy_escalations,
        wall,
    }
}

fn bench_adaptive_protection(c: &mut Criterion) {
    let model = Model::new(&scheduling_config(), 5).unwrap();
    let expected = total_tokens();
    let mut group = c.benchmark_group("adaptive_protection");
    group.sample_size(10);
    group.bench_function("static_statistical", |b| {
        b.iter(|| {
            let round = run_protected_round(
                &model,
                ProtectionPolicy::statistical(),
                AdaptiveConfig::default(),
            );
            assert_eq!(round.tokens, expected);
            round.tokens
        });
    });
    group.bench_function("static_classical", |b| {
        b.iter(|| {
            let round = run_protected_round(
                &model,
                ProtectionPolicy::classical(),
                AdaptiveConfig::default(),
            );
            assert_eq!(round.tokens, expected);
            round.tokens
        });
    });
    group.bench_function("adaptive", |b| {
        b.iter(|| {
            let round = run_protected_round(
                &model,
                ProtectionPolicy::statistical(),
                bench_adaptive_config(),
            );
            assert_eq!(round.tokens, expected);
            round.tokens
        });
    });
    group.finish();
}

fn report_adaptive_protection(_c: &mut Criterion) {
    // Not a timing benchmark: pins the adaptive-protection contract under the burst
    // injector. Adaptive must deliver at least 0.95x the static-statistical tokens/s
    // (the protection it adds is paid only while bursts are hot) while recovering at
    // least 0.9x classical's recovery rate (statistical alone tolerates every resilient
    // Fc1 fault and lands strictly lower).
    let model = Model::new(&scheduling_config(), 5).unwrap();
    let tokens = total_tokens() as f64;
    // The arms are interleaved rep by rep (not measured back to back) so slow drift on
    // a shared box — a co-tenant burning CPU for half a second — taxes every arm alike
    // instead of one arm's whole measurement window; the asserted ratios are between
    // per-arm best-of floors, which interleaving makes directly comparable.
    let reps = 15;
    let arms = [
        (ProtectionPolicy::statistical(), AdaptiveConfig::default()),
        (ProtectionPolicy::classical(), AdaptiveConfig::default()),
        (ProtectionPolicy::statistical(), bench_adaptive_config()),
    ];
    let mut walls = [f64::INFINITY; 3];
    let mut rounds: Vec<ProtectedRound> = arms
        .iter()
        .map(|&(policy, adaptive)| run_protected_round(&model, policy, adaptive)) // warm-up
        .collect();
    for _ in 0..reps {
        for (i, &(policy, adaptive)) in arms.iter().enumerate() {
            let round = run_protected_round(&model, policy, adaptive);
            walls[i] = walls[i].min(round.wall);
            rounds[i] = round;
        }
    }
    let [statistical_tps, classical_tps, adaptive_tps] = walls.map(|w| tokens / w);
    let adaptive = rounds.pop().unwrap();
    let classical = rounds.pop().unwrap();
    let statistical = rounds.pop().unwrap();

    let rate = |r: &ProtectedRound| r.recoveries as f64 / r.detections.max(1) as f64;
    let (statistical_rate, classical_rate, adaptive_rate) =
        (rate(&statistical), rate(&classical), rate(&adaptive));
    println!(
        "adaptive protection under a {BURST_STEPS}/{BURST_GAP} burst injector: \
         statistical {statistical_tps:.0} tok/s (recovery {statistical_rate:.3}), \
         classical {classical_tps:.0} tok/s (recovery {classical_rate:.3}), \
         adaptive {adaptive_tps:.0} tok/s (recovery {adaptive_rate:.3}, \
         {} escalations)",
        adaptive.escalations
    );
    assert!(
        adaptive.escalations >= 2,
        "the burst workload must drive repeated escalations ({})",
        adaptive.escalations
    );
    assert!(
        adaptive_tps >= 0.95 * statistical_tps,
        "adaptive protection must stay within 5% of static statistical throughput \
         ({adaptive_tps:.0} vs {statistical_tps:.0} tok/s)"
    );
    assert!(
        adaptive_rate >= 0.9 * classical_rate,
        "adaptive protection must match classical's recovery rate within 10% \
         ({adaptive_rate:.3} vs {classical_rate:.3})"
    );
    assert!(
        statistical_rate < adaptive_rate,
        "static statistical must recover strictly less than adaptive \
         ({statistical_rate:.3} vs {adaptive_rate:.3})"
    );
    println!("\nBENCH_gemm.json `adaptive_protection` entries:");
    for (name, value) in [
        ("adaptive_protection/tps_statistical", statistical_tps),
        ("adaptive_protection/tps_classical", classical_tps),
        ("adaptive_protection/tps_adaptive", adaptive_tps),
        (
            "adaptive_protection/recovery_permille_statistical",
            statistical_rate * 1_000.0,
        ),
        (
            "adaptive_protection/recovery_permille_classical",
            classical_rate * 1_000.0,
        ),
        (
            "adaptive_protection/recovery_permille_adaptive",
            adaptive_rate * 1_000.0,
        ),
    ] {
        let value = value.round();
        println!(
            "    {{ \"name\": \"{name}\", \"best_ns\": {value}, \"median_ns\": {value}, \"iterations\": {reps} }},"
        );
    }
}

// The chunked report runs before the throughput report: the throughput ratios are the
// noisier contract (scheduler wall-clock on a shared box), and a flake there must not
// mask the chunked-prefill gate's output. The adaptive report sits between them for the
// same reason: its recovery-rate contract is deterministic, only its 5% throughput bound
// is wall-clock sensitive.
criterion_group!(
    benches,
    bench_serving,
    bench_chunked_prefill,
    report_chunked_prefill,
    bench_adaptive_protection,
    report_adaptive_protection,
    report_serving_throughput
);
criterion_main!(benches);
