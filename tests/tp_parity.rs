//! Shard faults: what a dead or corrupting shard does to generation, and who handles it.
//!
//! A shard is a column stripe of every static-weight GEMM (`partition::shard_cols` over the
//! model's `tp_degree`), the fault domain of FailSafe's failure model. The error injector
//! arms whole-shard faults on chosen stripes and applies them itself, ahead of its error
//! model; the existing detection path takes it from there:
//!
//! - a **kill** is fail-stop: the injector rebuilds the dead stripe from the hook's operands
//!   in the same call, so generation stays bit-exact on every engine and at every degree,
//!   ragged ones included, and the kills are charged to the dead shard;
//! - a shard fault hits static-weight GEMMs only — one prefill is exactly layers × 6 of them
//!   on OPT and layers × 7 on LLaMA; attention's `QKᵀ`/`SV` are never touched;
//! - a **garble** is silent: a classical protector's column checksums detect every one,
//!   attribute it to the garbled shard and recompute; the statistical protector detects
//!   every one too but recomputes only those its magnitude test flags; with no protection
//!   it persists.
//!
//! Run under `REALM_FORCE_SCALAR=1` the same assertions cover the portable fallback
//! kernels (the CI matrix exercises both legs).

use realm::core::SchemeProtector;
use realm::inject::{BitFlipModel, ErrorInjector, ShardFault, Target};
use realm::llm::{config::ModelConfig, model::Model, GemmHook, NoopHook};
use realm::systolic::{Dataflow, ProtectionScheme, SystolicArray};
use realm::tensor::EngineKind;

const PROMPT: [u32; 4] = [3, 11, 26, 7];
const BUDGET: usize = 8;

fn model_with(config: &ModelConfig, engine: EngineKind, tp_degree: usize) -> Model {
    let mut config = config.clone();
    config.engine = engine;
    config.tp_degree = tp_degree;
    Model::new(&config, 77).unwrap()
}

/// An injector whose error model is silent, with `fault` armed on `shard` of the model's
/// stripes for `steps` static-weight GEMMs.
fn armed(
    model: &Model,
    shard: usize,
    fault: ShardFault,
    steps: usize,
) -> ErrorInjector<BitFlipModel> {
    let mut injector =
        ErrorInjector::new(BitFlipModel::uniform(0.0), Target::new().shard(shard), 5);
    let degree = model.config().tp_degree;
    assert_eq!(injector.arm_shard_faults(degree, fault, steps), 1);
    injector
}

fn protector(scheme: ProtectionScheme, model: &Model) -> SchemeProtector {
    let array = SystolicArray::small(Dataflow::WeightStationary);
    let mut protector = SchemeProtector::with_default_regions(scheme, array);
    protector.set_shard_attribution(model.config().tp_degree);
    protector
}

/// The shards `protector` charged, as `(shard, detections, recoveries)`.
fn charged_shards(protector: &SchemeProtector) -> Vec<(usize, u64, u64)> {
    let ledger = protector.shard_attribution().iter().enumerate();
    ledger
        .filter(|(_, a)| a.detections > 0)
        .map(|(shard, a)| (shard, a.detections, a.recoveries))
        .collect()
}

/// Greedy generation under `hook`, returning (tokens, margins).
fn generate(model: &Model, hook: &mut dyn GemmHook) -> (Vec<u32>, Vec<f32>) {
    let out = model.generate(&PROMPT, BUDGET, hook).unwrap();
    (out.tokens, out.margins)
}

/// Kills shard 0 for 6 static-weight GEMMs (mid-prefill) and generates, unprotected and
/// then under a classical protector: both runs must match `expected`, and the kills must
/// be charged to shard 0 without the protector seeing a deviation.
fn assert_kill_is_survived(model: &Model, expected: &(Vec<u32>, Vec<f32>), label: &str) {
    let mut injector = armed(model, 0, ShardFault::Kill, 6);
    assert_eq!(
        generate(model, &mut injector),
        *expected,
        "{label}: unprotected"
    );
    let per_shard = &injector.stats().per_shard;
    assert_eq!(
        per_shard[0].kills, 6,
        "{label}: kills are charged to the dead shard"
    );
    assert!(per_shard[1..].iter().all(|s| s.kills == 0), "{label}");
    assert_eq!(
        generate(model, &mut injector),
        *expected,
        "{label}: fault window expired"
    );
    assert_eq!(
        injector.stats().per_shard[0].kills,
        6,
        "{label}: no further kills"
    );

    let mut injector = armed(model, 0, ShardFault::Kill, 6);
    let mut guard = protector(ProtectionScheme::ClassicalAbft, model);
    let mut hooks = (&mut injector, &mut guard);
    assert_eq!(generate(model, &mut hooks), *expected, "{label}: protected");
    assert_eq!(
        guard.stats().gemms_with_errors,
        0,
        "{label}: a rebuilt stripe is clean"
    );
}

#[test]
fn shard_killed_mid_generation_recovers_bit_exact() {
    for &engine in &EngineKind::ALL {
        let model = model_with(&ModelConfig::tiny_opt(), engine, 2);
        let expected = generate(&model, &mut NoopHook);
        assert_kill_is_survived(&model, &expected, &format!("{engine:?}"));
    }
}

#[test]
fn ragged_column_counts_stay_bit_exact() {
    // Degrees that do NOT divide the model's projection widths: leading stripes carry one
    // extra column, and the rebuild must cover exactly the dead one.
    for &engine in &EngineKind::ALL {
        for config in [ModelConfig::tiny_opt(), ModelConfig::tiny_llama()] {
            let expected = generate(&model_with(&config, engine, 1), &mut NoopHook);
            for degree in [3usize, 5, 7] {
                let model = model_with(&config, engine, degree);
                let label = format!("{} {engine:?} tp={degree}", config.name);
                assert_kill_is_survived(&model, &expected, &label);
            }
        }
    }
}

#[test]
fn only_static_weight_gemms_are_shard_dispatches() {
    // One prefill runs every layer's projections once: Q, K, V, O and the MLP's two
    // (OPT) or three (LLaMA) linears. Attention's QKᵀ and SV multiply two activations, so
    // a shard fault never touches them, however many heads there are.
    for (config, per_layer) in [(ModelConfig::tiny_opt(), 6), (ModelConfig::tiny_llama(), 7)] {
        let model = model_with(&config, EngineKind::Simd, 2);
        let mut injector = ErrorInjector::everywhere(BitFlipModel::uniform(0.0), 5);
        assert_eq!(
            injector.arm_shard_faults(2, ShardFault::Kill, usize::MAX),
            2
        );
        let mut ws = realm::tensor::Workspace::new();
        model.prefill_ws(&PROMPT, &mut injector, &mut ws).unwrap();
        let gemms = (config.num_layers * per_layer) as u64;
        for (shard, stats) in injector.stats().per_shard.iter().enumerate() {
            assert_eq!(stats.kills, gemms, "{} shard {shard}", config.name);
        }
    }
}

#[test]
fn garbled_shard_is_detected_and_repaired_by_a_classical_protector() {
    let model = model_with(&ModelConfig::tiny_opt(), EngineKind::Simd, 3);
    let expected = generate(&model, &mut NoopHook);
    let mut injector = armed(&model, 1, ShardFault::Garble { seed: 0xBEEF }, 4);
    let mut guard = protector(ProtectionScheme::ClassicalAbft, &model);
    let mut hooks = (&mut injector, &mut guard);
    assert_eq!(
        generate(&model, &mut hooks),
        expected,
        "every garble is recomputed"
    );
    assert_eq!(injector.stats().per_shard[1].corruptions, 4);
    assert_eq!(
        charged_shards(&guard),
        [(1, 4, 4)],
        "only shard 1 deviated, every garble recomputed"
    );
}

#[test]
fn garbled_shard_persists_without_protection() {
    // A garble is silent: nothing below the protector repairs it, so under the `None`
    // scheme it reaches the output.
    let model = model_with(&ModelConfig::tiny_opt(), EngineKind::Simd, 3);
    let expected = generate(&model, &mut NoopHook);
    let mut injector = armed(&model, 1, ShardFault::Garble { seed: 0xBEEF }, 4);
    let mut guard = protector(ProtectionScheme::None, &model);
    let mut hooks = (&mut injector, &mut guard);
    assert_ne!(generate(&model, &mut hooks), expected);
    assert_eq!(injector.stats().per_shard[1].corruptions, 4);
    assert_eq!(
        charged_shards(&guard),
        [],
        "nothing inspected, nothing charged"
    );
}

#[test]
fn garbled_shard_under_the_statistical_protector() {
    // What this run shows, pinned: the statistical detector sees all four garbles (each
    // deviates one column of shard 1) but recomputes only one; the three it tolerates
    // leave the greedy tokens as they were and move the logit margins.
    let model = model_with(&ModelConfig::tiny_opt(), EngineKind::Simd, 3);
    let expected = generate(&model, &mut NoopHook);
    let mut injector = armed(&model, 1, ShardFault::Garble { seed: 0xBEEF }, 4);
    let mut guard = protector(ProtectionScheme::StatisticalAbft, &model);
    let mut hooks = (&mut injector, &mut guard);
    let (tokens, margins) = generate(&model, &mut hooks);
    assert_eq!(tokens, expected.0);
    assert_ne!(margins, expected.1);
    assert_eq!(charged_shards(&guard), [(1, 4, 1)]);
}
