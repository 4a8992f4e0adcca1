//! Differential and scheduling tests for the continuous-batching serving layer.
//!
//! Two contracts are pinned down here:
//!
//! * **Slot-reuse parity** — a request admitted mid-flight into a recycled batch slot
//!   produces bit-identical tokens to a solo `Model::generate` run, on every `GemmEngine`
//!   backend, through the full `ServeEngine` queue → prefill → continuous-decode path.
//! * **No starvation** — under a saturating stream of high-priority arrivals, queue aging
//!   guarantees low-priority requests still complete within a bounded number of steps.

use realm::core::ProtectionPolicy;
use realm::inject::{error_model::FixedBitModel, injector::ErrorInjector};
use realm::llm::{config::ModelConfig, model::Model, NoopHook};
use realm::serve::{ServeConfig, ServeEngine, ServeRequest, TokenEvent};
use realm::tensor::EngineKind;

/// Ragged prompts and budgets that force multiple admission waves through a small window.
fn ragged_requests() -> Vec<(Vec<u32>, usize)> {
    vec![
        (vec![1, 2, 3, 4, 5], 7),
        (vec![9, 8], 1),
        (vec![3, 3, 3, 3], 4),
        (vec![0], 9),
        (vec![7, 11, 2, 5], 2),
        (vec![6, 1], 5),
        (vec![4], 3),
    ]
}

fn model_for(kind: EngineKind, mut config: ModelConfig) -> Model {
    config.engine = kind;
    Model::new(&config, 7).unwrap()
}

#[test]
fn mid_flight_admission_is_bit_identical_to_solo_runs_on_every_backend() {
    for kind in EngineKind::ALL {
        for config in [ModelConfig::tiny_opt(), ModelConfig::tiny_llama()] {
            let name = config.name.clone();
            let model = model_for(kind, config);
            let mut engine = ServeEngine::new(&model, ServeConfig::with_slots(2));
            let receivers: Vec<_> = ragged_requests()
                .into_iter()
                .map(|(prompt, budget)| engine.submit(ServeRequest::new(prompt, budget)).unwrap().1)
                .collect();
            engine.run_until_idle().unwrap();
            let stats = engine.stats();
            assert_eq!(stats.requests_completed as usize, receivers.len());
            assert!(
                stats.requests_admitted as usize > 2,
                "{name}/{kind}: slots must be recycled across admission waves"
            );

            for (i, ((prompt, budget), rx)) in
                ragged_requests().into_iter().zip(&receivers).enumerate()
            {
                let events: Vec<TokenEvent> = rx.try_iter().collect();
                let Some(TokenEvent::Done(summary)) = events.last() else {
                    panic!("{name}/{kind}: request {i} never completed");
                };
                let solo = model.generate(&prompt, budget, &mut NoopHook).unwrap();
                assert_eq!(
                    summary.tokens, solo.tokens,
                    "{name}/{kind}: request {i} tokens diverged from the solo run"
                );
                assert_eq!(
                    summary.margins, solo.margins,
                    "{name}/{kind}: request {i} margins diverged from the solo run"
                );
                // The streamed tokens are the summary, in order.
                let streamed: Vec<u32> = events
                    .iter()
                    .filter_map(|e| match e {
                        TokenEvent::Token { token, .. } => Some(*token),
                        TokenEvent::Done(_) => None,
                    })
                    .collect();
                assert_eq!(
                    streamed, summary.tokens,
                    "{name}/{kind}: stream {i} diverged"
                );
            }
        }
    }
}

#[test]
fn saturated_engine_does_not_starve_low_priority_requests() {
    let model = model_for(EngineKind::Parallel, ModelConfig::tiny_opt());
    let mut engine = ServeEngine::new(
        &model,
        ServeConfig {
            slots: 2,
            aging_steps: 4,
            ..ServeConfig::default()
        },
    );

    // Four low-priority requests arrive first ...
    let low: Vec<_> = (0..4)
        .map(|i| {
            engine
                .submit(ServeRequest::new(vec![1 + i, 2, 3], 3).with_priority(0))
                .unwrap()
                .1
        })
        .collect();
    // ... then a saturating stream of high-priority arrivals: two per engine step, faster
    // than two budget-2 slots can drain, so the queue genuinely backs up.
    let mut high = Vec::new();
    let mut steps = 0u64;
    while engine.has_work() || high.len() < 24 {
        for _ in 0..2 {
            if high.len() < 24 {
                high.push(
                    engine
                        .submit(ServeRequest::new(vec![5, 6], 2).with_priority(5))
                        .unwrap()
                        .1,
                );
            }
        }
        engine.step().unwrap();
        steps += 1;
        assert!(steps < 500, "engine failed to drain a bounded workload");
    }

    let stats = engine.stats();
    assert_eq!(stats.requests_completed, 4 + 24);
    assert_eq!(stats.queue_depth, 0);
    for (i, rx) in low.iter().enumerate() {
        let done = rx
            .try_iter()
            .find_map(|e| match e {
                TokenEvent::Done(summary) => Some(summary),
                TokenEvent::Token { .. } => None,
            })
            .unwrap_or_else(|| panic!("low-priority request {i} starved"));
        assert_eq!(done.tokens.len(), 3);
        // Aging must bound the wait: priority 0 vs a sustained priority-5 stream with
        // aging_steps = 4 means a queued request earns rank 5 after at most 20 steps, and
        // ties break FIFO in its favour.
        assert!(
            done.queued_steps <= 40,
            "low-priority request {i} waited {} steps",
            done.queued_steps
        );
    }
    for rx in &high {
        assert!(rx
            .try_iter()
            .any(|e| matches!(e, TokenEvent::Done(s) if s.tokens.len() == 2)));
    }
}

#[test]
fn protected_serving_repairs_faults_and_attributes_them_per_request() {
    let model = model_for(EngineKind::Parallel, ModelConfig::tiny_opt());
    let injector = ErrorInjector::everywhere(FixedBitModel::bit30(0.02), 41);
    let mut engine =
        ServeEngine::new(&model, ServeConfig::with_slots(2)).with_fault_hook(Box::new(injector));

    let requests: Vec<(Vec<u32>, usize)> =
        vec![(vec![1, 2, 3, 4], 5), (vec![9, 8, 7], 4), (vec![5, 5], 6)];
    let receivers: Vec<_> = requests
        .iter()
        .map(|(prompt, budget)| {
            engine
                .submit(
                    ServeRequest::new(prompt.clone(), *budget)
                        .with_policy(ProtectionPolicy::classical()),
                )
                .unwrap()
                .1
        })
        .collect();
    engine.run_until_idle().unwrap();

    let stats = engine.stats();
    assert!(
        stats.detections > 0,
        "injected faults must be detected: {stats:?}"
    );
    assert_eq!(stats.detections, stats.recoveries, "classical recovers all");
    let mut attributed = 0u64;
    for ((prompt, budget), rx) in requests.iter().zip(&receivers) {
        let done = rx
            .try_iter()
            .find_map(|e| match e {
                TokenEvent::Done(summary) => Some(summary),
                TokenEvent::Token { .. } => None,
            })
            .expect("request completes");
        attributed += done.attribution.detections;
        // Classical ABFT repairs every fault, so the served tokens are the clean ones.
        let clean = model.generate(prompt, *budget, &mut NoopHook).unwrap();
        assert_eq!(
            done.tokens, clean.tokens,
            "protected serving must deliver clean tokens"
        );
    }
    assert_eq!(
        attributed, stats.detections,
        "every detection is charged to exactly the requests whose rows deviated"
    );
}
