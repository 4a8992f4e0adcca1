//! Differential proof that tensor-parallel sharding never changes model output.
//!
//! Column-wise sharding is bit-exact *by construction*: every output column is a
//! full-depth dot product, and the per-shard checksum segments concatenate in column
//! order into exactly the vectors the unsharded fused kernel produces — so a sharded
//! model's engine (`TpGroup`) runs each static-weight GEMM once on the inner engine and
//! treats its column stripes as fault domains. These tests pin that construction against
//! drift, on every GEMM backend:
//!
//! - sharded generation (tokens **and** logit margins) equals unsharded generation for
//!   tp ∈ {1, 2, 4} on all of [`EngineKind::ALL`];
//! - ragged column counts (shards differing by one column) stay bit-exact and the shard
//!   ranges partition the columns exactly;
//! - prefill logits match element-for-element, not just post-argmax;
//! - a shard killed mid-generation is survived by failover recomputes with no output
//!   change, and the kills are charged to the dead shard;
//! - a dispatch is a static-weight GEMM: attention's activation GEMMs are never charged;
//! - a garbled shard output under a checksumming protector is caught by the *per-shard*
//!   checksum segments below the hook interface and repaired before the protector ever
//!   sees a deviation.
//!
//! Run under `REALM_FORCE_SCALAR=1` the same assertions cover the portable fallback
//! kernels (the CI matrix exercises both legs).

use realm::core::SchemeProtector;
use realm::llm::{config::ModelConfig, model::Model, GemmHook, NoopHook};
use realm::systolic::{Dataflow, ProtectionScheme, SystolicArray};
use realm::tensor::{tp::shard_cols, EngineKind, ShardFault};

const PROMPT: [u32; 4] = [3, 11, 26, 7];
const BUDGET: usize = 8;

fn model_with(config: &ModelConfig, engine: EngineKind, tp_degree: usize) -> Model {
    let mut config = config.clone();
    config.engine = engine;
    config.tp_degree = tp_degree;
    Model::new(&config, 77).unwrap()
}

fn protector() -> SchemeProtector {
    SchemeProtector::with_default_regions(
        ProtectionScheme::StatisticalAbft,
        SystolicArray::small(Dataflow::WeightStationary),
    )
}

/// Greedy generation under `hook`, returning (tokens, margins).
fn generate(model: &Model, hook: &mut dyn GemmHook) -> (Vec<u32>, Vec<f32>) {
    let out = model.generate(&PROMPT, BUDGET, hook).unwrap();
    (out.tokens, out.margins)
}

#[test]
fn sharded_generation_matches_unsharded_on_every_backend() {
    for &engine in &EngineKind::ALL {
        let baseline = model_with(&ModelConfig::tiny_opt(), engine, 1);
        let expected = generate(&baseline, &mut NoopHook);
        for degree in [1usize, 2, 4] {
            let sharded = model_with(&ModelConfig::tiny_opt(), engine, degree);
            assert_eq!(
                generate(&sharded, &mut NoopHook),
                expected,
                "tp={degree} on {engine:?} must be bit-exact with unsharded"
            );
        }
    }
}

#[test]
fn sharded_generation_matches_under_a_checksumming_protector() {
    // The fused-checksum path is the one the paper's detector actually runs on: the
    // sharded kernel must hand the protector the same merged accumulator AND the same
    // checksum vectors, so detection statistics cannot drift either.
    for &engine in &[EngineKind::Reference, EngineKind::Simd] {
        let baseline = model_with(&ModelConfig::tiny_llama(), engine, 1);
        let expected = generate(&baseline, &mut protector());
        for degree in [2usize, 4] {
            let sharded = model_with(&ModelConfig::tiny_llama(), engine, degree);
            let mut guard = protector();
            assert_eq!(
                generate(&sharded, &mut guard),
                expected,
                "protected tp={degree} on {engine:?} must be bit-exact"
            );
            let stats = guard.stats();
            assert_eq!(stats.gemms_with_errors, 0, "fault-free run detects nothing");
        }
    }
}

#[test]
fn ragged_column_counts_stay_bit_exact() {
    // Degrees that do NOT divide the model's projection widths: leading shards carry one
    // extra column, and the merge must reassemble the stripes without gaps or overlap.
    for degree in [3usize, 5, 7] {
        for config in [ModelConfig::tiny_opt(), ModelConfig::tiny_llama()] {
            let baseline = model_with(&config, EngineKind::Simd, 1);
            let sharded = model_with(&config, EngineKind::Simd, degree);
            assert_eq!(
                generate(&sharded, &mut NoopHook),
                generate(&baseline, &mut NoopHook),
                "ragged tp={degree} on {} must be bit-exact",
                config.name
            );
        }
    }
    // The partition itself: ranges tile [0, cols) in order, sizes differ by at most one.
    let ranges = shard_cols(10, 4);
    assert_eq!(ranges.len(), 4);
    assert_eq!(ranges[0], 0..3);
    assert_eq!(ranges[3], 8..10);
    let mut next = 0;
    let mut sizes = Vec::new();
    for r in &ranges {
        assert_eq!(r.start, next, "ranges tile the columns without gaps");
        next = r.end;
        sizes.push(r.len());
    }
    assert_eq!(next, 10);
    assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
}

#[test]
fn prefill_logits_match_element_for_element() {
    // Stronger than token parity: the full final-position logit rows are identical, so
    // sharding cannot have perturbed even sub-margin logit mass.
    let baseline = model_with(&ModelConfig::tiny_opt(), EngineKind::SimdParallel, 1);
    let sharded = model_with(&ModelConfig::tiny_opt(), EngineKind::SimdParallel, 3);
    let mut ws_a = realm::tensor::Workspace::new();
    let mut ws_b = realm::tensor::Workspace::new();
    let (logits_a, _cache_a) = baseline
        .prefill_ws(&PROMPT, &mut NoopHook, &mut ws_a)
        .unwrap();
    let (logits_b, _cache_b) = sharded
        .prefill_ws(&PROMPT, &mut NoopHook, &mut ws_b)
        .unwrap();
    assert_eq!(logits_a, logits_b, "prefill logits must be bit-identical");
}

#[test]
fn shard_killed_mid_generation_recovers_bit_exact() {
    for &engine in &EngineKind::ALL {
        let baseline = model_with(&ModelConfig::tiny_opt(), engine, 1);
        let expected = generate(&baseline, &mut NoopHook);

        let sharded = model_with(&ModelConfig::tiny_opt(), engine, 2);
        let group = sharded.tp_group().expect("model is sharded");
        // The rank dies for its next 6 dispatches — mid-prefill and into decode — and
        // every one of its output stripes is zeroed, then restored by failover.
        group.inject_shard_fault(0, ShardFault::Kill, 6);
        assert_eq!(
            generate(&sharded, &mut NoopHook),
            expected,
            "kill-then-recover on {engine:?} must preserve output"
        );
        let stats = sharded.shard_stats();
        assert_eq!(stats[0].kills, 6, "kills are charged to the dead shard");
        assert_eq!(stats[0].failovers, 6, "every kill was failed over");
        assert_eq!(stats[1].kills, 0);

        // The fault window expired: subsequent generations run clean and stay bit-exact.
        assert_eq!(generate(&sharded, &mut NoopHook), expected);
        assert_eq!(sharded.shard_stats()[0].kills, 6, "no further kills fired");
    }
}

#[test]
fn garbled_shard_is_repaired_below_the_protector() {
    let baseline = model_with(&ModelConfig::tiny_opt(), EngineKind::Simd, 1);
    let expected = generate(&baseline, &mut protector());

    let sharded = model_with(&ModelConfig::tiny_opt(), EngineKind::Simd, 3);
    let group = sharded.tp_group().expect("model is sharded");
    group.inject_shard_fault(1, ShardFault::Garble { seed: 0xBEEF }, 4);
    let mut guard = protector();
    assert_eq!(
        generate(&sharded, &mut guard),
        expected,
        "garble-then-recover must preserve output"
    );
    let stats = sharded.shard_stats();
    assert_eq!(
        stats[1].detections, 4,
        "the per-shard checksum segments caught every garble"
    );
    assert_eq!(
        stats[1].failovers, 4,
        "each detection triggered a recompute"
    );
    assert_eq!(stats[0].detections + stats[2].detections, 0);
    // Recovery happened below the hook interface: the protector saw clean checksums.
    assert_eq!(
        guard.stats().gemms_with_errors,
        0,
        "shard-level repair is invisible to the model-level detector"
    );
}

#[test]
fn only_static_weight_gemms_are_shard_dispatches() {
    // One prefill runs every layer's projections once: Q, K, V, O and the MLP's two
    // (OPT) or three (LLaMA) linears. Attention's QKᵀ and SV multiply two activations, so
    // they pass through the group uncharged, however many heads there are.
    for (config, per_layer) in [(ModelConfig::tiny_opt(), 6), (ModelConfig::tiny_llama(), 7)] {
        let sharded = model_with(&config, EngineKind::Simd, 2);
        let mut ws = realm::tensor::Workspace::new();
        sharded.prefill_ws(&PROMPT, &mut NoopHook, &mut ws).unwrap();
        let jobs = (config.num_layers * per_layer) as u64;
        for (shard, stats) in sharded.shard_stats().iter().enumerate() {
            assert_eq!(stats.jobs, jobs, "{} shard {shard}", config.name);
        }
    }
}
