//! Differential tests for the workspace-planned (`_into` / `_ws`) execution paths.
//!
//! Every forward draws its intermediates from a caller-provided `Workspace`. The
//! allocation-free decode loop is only admissible if a **persistent** workspace — warm
//! pools, buffers reused across calls of different shapes — is *bit-identical* to handing
//! each call a **fresh** one: on every backend, on ragged batches and on batch-of-1 (a
//! stale-scratch bug shows up exactly there, and the workspace's debug poisoning turns it
//! into loud garbage instead of a silent parity pass).

use rand::Rng;
use realm::llm::batch::BatchRequest;
use realm::llm::model::{argmax_with_margin, PrefillChunk};
use realm::llm::{config::ModelConfig, model::Model, NoopHook};
use realm::tensor::engine::{ChecksummedGemm, EngineKind};
use realm::tensor::{rng, MatI8, Workspace};

fn random_operands(seed: u64, m: usize, k: usize, n: usize) -> (MatI8, MatI8) {
    let mut r = rng::seeded(seed);
    let a = MatI8::from_fn(m, k, |_, _| r.gen_range(-128i16..=127) as i8);
    let b = MatI8::from_fn(k, n, |_, _| r.gen_range(-128i16..=127) as i8);
    (a, b)
}

/// `gemm_i8_into` and `gemm_i8_checksummed_into` reproduce the allocating paths bit for
/// bit on every selectable backend, with ONE destination reused across shrinking and
/// growing shapes — exactly the reuse pattern the workspace pools create.
#[test]
fn into_paths_match_allocating_paths_across_reused_destinations() {
    let shapes = [
        (7, 9, 11),
        (1, 300, 5), // decode-like GEMV row
        (33, 17, 3), // shrinks the reused buffers
        (16, 64, 32),
        (1, 1, 1),
        (70, 65, 130),
    ];
    for kind in EngineKind::ALL {
        let engine = kind.build();
        let mut out = realm::tensor::MatI32::zeros(0, 0);
        let mut dest = ChecksummedGemm::empty();
        let mut etw = Vec::new();
        for (i, &(m, k, n)) in shapes.iter().enumerate() {
            let (a, b) = random_operands(1000 + i as u64, m, k, n);
            let oracle = engine.gemm_i8(&a, &b).unwrap();
            engine.gemm_i8_into(&a, &b, &mut out).unwrap();
            assert_eq!(out, oracle, "{kind} gemm_i8_into diverged on {m}x{k}x{n}");

            let fused = engine.gemm_i8_checksummed(&a, &b).unwrap();
            engine
                .gemm_i8_checksummed_into(&a, &b, &mut dest, &mut etw)
                .unwrap();
            assert_eq!(dest.acc(), fused.acc(), "{kind} acc {m}x{k}x{n}");
            assert_eq!(
                dest.expected(),
                fused.expected(),
                "{kind} expected {m}x{k}x{n}"
            );
            assert_eq!(
                dest.observed(),
                fused.observed(),
                "{kind} observed {m}x{k}x{n}"
            );
            assert!(dest.column_deviations().iter().all(|&d| d == 0));
        }
    }
}

/// Shape errors leave the `_into` destinations usable (next valid call still matches).
#[test]
fn into_paths_reject_shape_mismatch_and_recover() {
    let engine = EngineKind::Reference.build();
    let mut out = realm::tensor::MatI32::zeros(0, 0);
    let mut dest = ChecksummedGemm::empty();
    let mut etw = Vec::new();
    let bad_a = MatI8::zeros(2, 3);
    let bad_b = MatI8::zeros(4, 2);
    assert!(engine.gemm_i8_into(&bad_a, &bad_b, &mut out).is_err());
    assert!(engine
        .gemm_i8_checksummed_into(&bad_a, &bad_b, &mut dest, &mut etw)
        .is_err());
    let (a, b) = random_operands(7, 4, 5, 6);
    engine.gemm_i8_into(&a, &b, &mut out).unwrap();
    assert_eq!(out, engine.gemm_i8(&a, &b).unwrap());
}

/// A persistent workspace across a whole generation produces bit-identical logits and tokens
/// to a fresh workspace per call (and to `Model::generate`), on every backend and both
/// architectures.
#[test]
fn persistent_workspace_generation_matches_allocating_path() {
    for config_fn in [ModelConfig::tiny_opt, ModelConfig::tiny_llama] {
        for kind in EngineKind::ALL {
            let mut config = config_fn();
            config.engine = kind;
            let model = Model::new(&config, 11).unwrap();
            let prompt = [1u32, 5, 9, 2];
            let label = format!("{} on {kind}", config.name);

            // Oracle: every forward on a workspace of its own.
            let (fresh_prefill, mut fresh_cache) = model.prefill(&prompt, &mut NoopHook).unwrap();
            // Hand-rolled generation with one long-lived workspace, recycling and resetting
            // per token like the serving engine does.
            let mut ws = Workspace::new();
            let (logits, mut cache) = model.prefill_ws(&prompt, &mut NoopHook, &mut ws).unwrap();
            assert_eq!(logits, fresh_prefill, "{label}: prefill");
            let (mut next, _) = argmax_with_margin(logits.row(logits.rows() - 1));
            ws.recycle_mat_f32(logits);
            let mut tokens = vec![next];
            for _ in 1..6 {
                let fresh = model
                    .decode_step_ws(next, &mut fresh_cache, &mut NoopHook, &mut Workspace::new())
                    .unwrap();
                let step = model
                    .decode_step_ws(next, &mut cache, &mut NoopHook, &mut ws)
                    .unwrap();
                assert_eq!(step, fresh, "{label}: decode step {}", tokens.len());
                next = argmax_with_margin(&step).0;
                ws.recycle_vec_f32(step);
                ws.reset();
                tokens.push(next);
            }
            assert_eq!(cache, fresh_cache, "{label}: cache contents");
            let generated = model.generate(&prompt, 6, &mut NoopHook).unwrap();
            assert_eq!(tokens, generated.tokens, "{label}: tokens");
            assert_eq!(ws.outstanding_buffers(), 0, "every checkout was recycled");
            assert!(ws.high_water_mark_bytes() > 0);
        }
    }
}

/// Ragged batches (including batch-of-1 and an early-completing sequence) on a persistent
/// workspace are bit-identical to the same batched forwards on fresh workspaces and to solo
/// runs.
#[test]
fn batched_workspace_paths_are_bit_identical_on_all_backends() {
    for kind in EngineKind::ALL {
        let mut config = ModelConfig::tiny_opt();
        config.engine = kind;
        let model = Model::new(&config, 23).unwrap();
        let ragged: Vec<Vec<u32>> = vec![vec![1, 2, 3, 4, 5], vec![7], vec![9, 10, 11]];
        let chunks: Vec<PrefillChunk<'_>> = ragged
            .iter()
            .enumerate()
            .map(|(slot, prompt)| PrefillChunk::whole(prompt, slot))
            .collect();

        // `prefill_batch` runs on a workspace of its own; the same chunk batch on one
        // reused workspace, twice over to exercise pool reuse across calls, matches it —
        // and so do two lockstep decode steps, the middle slot idle.
        let (oracle_logits, mut oracle_cache) =
            model.prefill_batch(&ragged, &mut NoopHook).unwrap();
        let mut ws = Workspace::new();
        let mut cache = model.new_batched_cache(ragged.len());
        for round in 0..2 {
            (0..ragged.len()).for_each(|slot| cache.release_slot(slot));
            let ws_logits = model
                .prefill_chunks_batch_ws(&chunks, &mut cache, &mut NoopHook, &mut ws)
                .unwrap();
            assert_eq!(ws_logits, oracle_logits, "{kind} round {round}");
            ws.reset();
        }
        for step in [[Some(3u32), None, Some(8)], [Some(1), None, Some(1)]] {
            let fresh = model
                .decode_step_batch_ws(
                    &step,
                    &mut oracle_cache,
                    &mut NoopHook,
                    &mut Workspace::new(),
                )
                .unwrap();
            let reused = model
                .decode_step_batch_ws(&step, &mut cache, &mut NoopHook, &mut ws)
                .unwrap();
            assert_eq!(reused, fresh, "{kind} decode {step:?}");
            reused
                .into_iter()
                .flatten()
                .for_each(|l| ws.recycle_vec_f32(l));
            ws.reset();
        }
        assert_eq!(cache, oracle_cache, "{kind} cache contents");

        // Batch-of-1 on the warm workspace equals the solo path.
        let solo_prompt = [3u32, 1, 4];
        let (solo_logits, _) = model.prefill(&solo_prompt, &mut NoopHook).unwrap();
        let batch1_logits = model
            .prefill_chunks_batch_ws(
                &[PrefillChunk::whole(&solo_prompt, 0)],
                &mut model.new_batched_cache(1),
                &mut NoopHook,
                &mut ws,
            )
            .unwrap();
        assert_eq!(batch1_logits, [solo_logits], "{kind} batch-of-1");

        // Full lockstep runs (which thread one workspace per run, with a sequence
        // completing mid-run) still match per-request solo generation.
        let requests = vec![
            BatchRequest::new(vec![1, 2, 3], 5),
            BatchRequest::new(vec![4, 5], 2),
            BatchRequest::new(vec![6], 4),
        ];
        let batched = model.generate_batch(&requests, &mut NoopHook).unwrap();
        for (request, output) in requests.iter().zip(&batched) {
            let solo = model
                .generate(&request.prompt, request.max_new_tokens, &mut NoopHook)
                .unwrap();
            assert_eq!(output, &solo, "{kind} lockstep run diverged from solo");
        }
    }
}

/// The workspace high-water mark stabilises under slot churn: after a first wave of
/// requests warms the pools, a second identical wave (100+ decode steps total, slots
/// released and re-admitted throughout) must not grow it — the no-leak property of the
/// steady-state serving loop.
#[test]
fn workspace_high_water_mark_stabilises_across_slot_churn() {
    use realm::serve::{ServeConfig, ServeEngine, ServeRequest};

    let mut config = ModelConfig::tiny_opt();
    config.engine = EngineKind::Reference;
    let model = Model::new(&config, 5).unwrap();
    let mut engine = ServeEngine::new(&model, ServeConfig::with_slots(2));

    let wave = |engine: &mut ServeEngine<'_>| {
        let receivers: Vec<_> = (0..16)
            .map(|i| {
                let prompt: Vec<u32> = (0..2 + i % 4).map(|t| ((i * 5 + t) % 60) as u32).collect();
                engine
                    .submit(ServeRequest::new(prompt, 5 + i % 6))
                    .unwrap()
                    .1
            })
            .collect();
        engine.run_until_idle().unwrap();
        receivers
    };

    // Warmup waves: the pools (and the best-fit buffer assignment) converge within a few
    // identical workloads. A real leak never converges and fails below.
    let mut receivers = Vec::new();
    let mut warmed = 0;
    for _ in 0..5 {
        receivers.push(wave(&mut engine));
        let mark = engine.stats().workspace_high_water_bytes;
        if mark == warmed {
            break;
        }
        warmed = mark;
    }
    assert!(warmed > 0);
    // Steady state: two more full waves of slot churn must not move the mark at all.
    receivers.push(wave(&mut engine));
    receivers.push(wave(&mut engine));
    let after = engine.stats();
    assert!(
        after.steps >= 100,
        "churn workload should cover 100+ decode steps, got {}",
        after.steps
    );
    assert_eq!(
        after.workspace_high_water_bytes, warmed,
        "steady-state slot churn must not grow the workspace (leak)"
    );
    assert!(after.decode_p50_us > 0.0);
    assert!(after.decode_p99_us >= after.decode_p50_us);
    drop(receivers);
}
