//! End-to-end contracts for the adaptive protection controller.
//!
//! Six behaviours are pinned down here, all deterministic (seeded injectors, fixed
//! schedules):
//!
//! * **Escalation repairs** — a detection burst escalates a slot from statistical to
//!   classical ABFT, after which faults on a *resilient* component (tolerated, and
//!   therefore corrupting, under statistical) are repaired bit-exactly; the same fault
//!   schedule with adaptation disabled corrupts the stream.
//! * **Recovery under recurring bursts** — across a many-request round, adaptive serving
//!   recovers nearly as often as static classical ABFT and strictly more often than static
//!   statistical ABFT.
//! * **De-escalation** — a clean window steps protection back down, one stage at a time.
//! * **Hysteresis** — an alternating fault pattern cannot make the policy flap: total
//!   transitions are bounded by one per hysteresis window.
//! * **Protection-first shedding** — queue pressure sheds resilient-component protection
//!   and restores it when the backlog clears, without ever changing clean output.
//! * **Clean-traffic parity** — on fault-free traffic the adaptive engine is
//!   bit-identical to the static one on every GEMM backend.

use realm::inject::{
    error_model::{FixedBitModel, MagFreqModel},
    injector::ErrorInjector,
    targeting::Target,
};
use realm::llm::hooks::GemmContext;
use realm::llm::{config::ModelConfig, model::Model, Component, GemmHook, NoopHook};
use realm::serve::{
    AdaptiveConfig, EngineStats, ProtectionPolicy, ProtectionStage, ServeConfig, ServeEngine,
    ServeRequest, TokenEvent,
};
use realm::tensor::{ChecksummedGemm, EngineKind, MatI32, MatI8, RowPartition};

/// A two-phase fault schedule: the *signal* injector runs until `damage_from` (exclusive),
/// the *damage* injector from then on. Used to first feed the controller a detection burst
/// on a sensitive component (recovered bit-exactly even under statistical ABFT) and only
/// then strike a resilient component — so whether the damage corrupts the stream depends
/// purely on whether the controller escalated in time. Each GEMM reaches only the current
/// phase's injector, so the other one draws nothing.
struct PhasedHook {
    signal: ErrorInjector<FixedBitModel>,
    damage: ErrorInjector<FixedBitModel>,
    damage_from: u64,
    step: u64,
}

impl PhasedHook {
    fn phase(&mut self) -> &mut ErrorInjector<FixedBitModel> {
        if self.step < self.damage_from {
            &mut self.signal
        } else {
            &mut self.damage
        }
    }
}

impl GemmHook for PhasedHook {
    fn on_gemm(&mut self, ctx: &GemmContext, w: &MatI8, x: &MatI8, acc: &mut MatI32) {
        self.phase().on_gemm(ctx, w, x, acc);
    }

    fn on_gemm_checksummed(
        &mut self,
        ctx: &GemmContext,
        w: &MatI8,
        x: &MatI8,
        result: &mut ChecksummedGemm,
    ) {
        self.phase().on_gemm_checksummed(ctx, w, x, result);
    }

    fn wants_checksums(&self) -> bool {
        false
    }

    fn on_batch_begin(&mut self, partition: &RowPartition) {
        self.signal.on_batch_begin(partition);
        self.damage.on_batch_begin(partition);
    }

    fn on_step_begin(&mut self, step: u64) {
        self.step = step;
        self.signal.on_step_begin(step);
        self.damage.on_step_begin(step);
    }
}

/// A burst on the attention output projection (sensitive: statistical ABFT recovers every
/// counted error bit-exactly) followed by sporadic faults on FC1 (resilient: statistical
/// ABFT counts but tolerates them, so they corrupt output unless protection escalated).
fn two_phase_hook(damage_from: u64) -> Box<PhasedHook> {
    Box::new(PhasedHook {
        signal: ErrorInjector::new(
            FixedBitModel::bit30(1.0),
            Target::new().components([Component::O]),
            5,
        ),
        damage: ErrorInjector::new(
            FixedBitModel::bit30(0.25),
            Target::new().components([Component::Fc1]),
            11,
        ),
        damage_from,
        step: 0,
    })
}

/// A fast-reacting controller: one detection elevates, two escalate, transitions gate
/// after a single step, and de-escalation is effectively disabled.
fn fast_escalation() -> AdaptiveConfig {
    AdaptiveConfig {
        window_steps: 8,
        elevate_detections: 1,
        escalate_detections: 2,
        clean_window_steps: 1_000,
        hysteresis_steps: 1,
        ..AdaptiveConfig::enabled()
    }
}

fn done_summary(rx: &std::sync::mpsc::Receiver<TokenEvent>) -> realm::serve::RequestSummary {
    let events: Vec<TokenEvent> = rx.try_iter().collect();
    let Some(TokenEvent::Done(summary)) = events.last() else {
        panic!("request completes");
    };
    summary.clone()
}

#[test]
fn detection_burst_escalates_and_recovers_bit_exact() {
    let model = Model::new(&ModelConfig::tiny_opt(), 7).unwrap();
    let prompt = vec![1u32, 5, 9];
    let budget = 24;
    let clean = model.generate(&prompt, budget, &mut NoopHook).unwrap();

    // Adaptive engine: the O-burst of steps 1–3 drives Calm → Elevated → Escalated, so by
    // the time the FC1 faults start (step 4) the slot's GEMMs run classical ABFT and every
    // deviation is repaired.
    let config = ServeConfig::with_slots(1).with_adaptive(fast_escalation());
    let mut engine = ServeEngine::new(&model, config).with_fault_hook(two_phase_hook(4));
    let (_, rx) = engine
        .submit(ServeRequest::new(prompt.clone(), budget))
        .unwrap();
    engine.run_until_idle().unwrap();
    let summary = done_summary(&rx);
    let stats = engine.stats();
    assert_eq!(
        summary.tokens, clean.tokens,
        "escalated classical ABFT repairs the resilient-component faults bit-exactly"
    );
    assert_eq!(summary.margins, clean.margins);
    assert!(
        stats.policy_escalations >= 2,
        "the burst climbed both stages (got {})",
        stats.policy_escalations
    );
    assert_eq!(
        summary.escalations, stats.policy_escalations,
        "the only request is charged every escalation"
    );
    assert!(
        summary.attribution.recoveries > 0,
        "detections triggered recoveries"
    );
    assert!(
        stats.steps_at_scheme
            [realm::systolic::ProtectionScheme::ClassicalAbft.strictness() as usize]
            > 0,
        "escalated steps ran under classical ABFT"
    );

    // Static contrast: the identical fault schedule with adaptation disabled. Statistical
    // ABFT counts the FC1 deviations but tolerates them — the stream corrupts.
    let mut static_engine =
        ServeEngine::new(&model, ServeConfig::with_slots(1)).with_fault_hook(two_phase_hook(4));
    let (_, rx) = static_engine
        .submit(ServeRequest::new(prompt, budget))
        .unwrap();
    static_engine.run_until_idle().unwrap();
    let static_summary = done_summary(&rx);
    assert_eq!(static_engine.stats().policy_escalations, 0);
    assert!(
        static_summary.attribution.detections > 0,
        "statistical ABFT saw the faults"
    );
    assert_ne!(
        static_summary.tokens, clean.tokens,
        "without escalation the tolerated resilient-component faults corrupt the stream"
    );
}

/// Sixteen requests with budgets cycling 1, 1, 2, 24: in every group of four, one long
/// request outlives its neighbours.
fn ragged_requests() -> Vec<ServeRequest> {
    (0..16)
        .map(|i| {
            let prompt = (0..3 + i % 5)
                .map(|t| ((i * 7 + t * 3) % 60) as u32)
                .collect();
            ServeRequest::new(prompt, [1, 1, 2, 24][i % 4])
        })
        .collect()
}

/// One round of [`ragged_requests`] through 4 slots, every request pinned to `policy`,
/// under bursts of 16 faulty steps then 16 clean ones. A burst step puts one `+2³⁰` error
/// into every GEMM of `O` (sensitive: repaired under every scheme, it fills the detection
/// window) and of `Fc1` (resilient: statistical ABFT tolerates it, classical repairs it).
fn burst_round(model: &Model, policy: ProtectionPolicy, adaptive: AdaptiveConfig) -> EngineStats {
    let injector = ErrorInjector::new(
        MagFreqModel::new(1 << 30, 1),
        Target::new().components([Component::O, Component::Fc1]),
        11,
    )
    .with_burst(16, 16);
    let config = ServeConfig::with_slots(4).with_adaptive(adaptive);
    let mut engine = ServeEngine::new(model, config).with_fault_hook(Box::new(injector));
    let receivers: Vec<_> = ragged_requests()
        .into_iter()
        .map(|r| engine.submit(r.with_policy(policy)).unwrap().1)
        .collect();
    engine.run_until_idle().unwrap();
    drop(receivers);
    engine.stats()
}

/// Static statistical, static classical and adaptive serving of the same round under the
/// same bursts. The static arms' recovery rates differ by the tolerated `Fc1` faults;
/// adaptive closes most of that gap by escalating to classical while a burst is hot (rates
/// 0.500 / 1.000 / 0.913 and 8 escalations when recorded). What adaptation costs in
/// throughput is deliberately not asserted: a wall-clock ratio between the arms is too
/// noisy on a shared host to gate on.
#[test]
fn adaptive_recovers_like_classical_under_recurring_bursts() {
    let model = Model::new(&ModelConfig::tiny_opt(), 5).unwrap();
    let budget: usize = ragged_requests().iter().map(|r| r.max_new_tokens).sum();
    let statistical = burst_round(
        &model,
        ProtectionPolicy::statistical(),
        AdaptiveConfig::default(),
    );
    let classical = burst_round(
        &model,
        ProtectionPolicy::classical(),
        AdaptiveConfig::default(),
    );
    let adaptive = burst_round(
        &model,
        ProtectionPolicy::statistical(),
        AdaptiveConfig {
            window_steps: 4,
            elevate_detections: 1,
            escalate_detections: 2,
            clean_window_steps: 4,
            hysteresis_steps: 1,
            ..AdaptiveConfig::enabled()
        },
    );
    for stats in [&statistical, &classical, &adaptive] {
        assert_eq!(
            stats.tokens_generated as usize, budget,
            "every arm generates its full budget"
        );
    }
    let rate = |s: &EngineStats| s.recoveries as f64 / s.detections.max(1) as f64;
    let (statistical_rate, classical_rate, adaptive_rate) =
        (rate(&statistical), rate(&classical), rate(&adaptive));
    assert!(
        adaptive.policy_escalations >= 2,
        "the bursts drive repeated escalations ({})",
        adaptive.policy_escalations
    );
    assert!(
        adaptive_rate >= 0.9 * classical_rate,
        "adaptive recovers within 10% of classical ({adaptive_rate:.3} vs {classical_rate:.3})"
    );
    assert!(
        statistical_rate < adaptive_rate,
        "static statistical recovers strictly less than adaptive \
         ({statistical_rate:.3} vs {adaptive_rate:.3})"
    );
}

#[test]
fn clean_window_deescalates_one_stage_at_a_time() {
    let model = Model::new(&ModelConfig::tiny_opt(), 7).unwrap();
    let prompt = vec![2u32, 4, 6];
    let budget = 20;
    let clean = model.generate(&prompt, budget, &mut NoopHook).unwrap();

    // The burst covers steps 1–2 only (burst length 3 of period 1000 on the 1-based step
    // clock); every later step is clean, so a 4-step clean window de-escalates.
    let injector = ErrorInjector::new(
        FixedBitModel::bit30(1.0),
        Target::new().components([Component::O]),
        3,
    )
    .with_burst(3, 997);
    let adaptive = AdaptiveConfig {
        window_steps: 4,
        elevate_detections: 1,
        escalate_detections: u64::MAX,
        clean_window_steps: 4,
        hysteresis_steps: 1,
        ..AdaptiveConfig::enabled()
    };
    let config = ServeConfig::with_slots(1).with_adaptive(adaptive);
    let mut engine = ServeEngine::new(&model, config).with_fault_hook(Box::new(injector));
    let (_, rx) = engine.submit(ServeRequest::new(prompt, budget)).unwrap();
    let mut stages = Vec::new();
    while engine.step().unwrap() {
        stages.push(engine.adaptive().stage(0));
    }
    let summary = done_summary(&rx);
    assert_eq!(
        summary.tokens, clean.tokens,
        "sensitive-component faults recover bit-exactly even before escalation"
    );
    assert!(
        stages.contains(&ProtectionStage::Elevated),
        "the burst elevated the slot"
    );
    let stats = engine.stats();
    assert_eq!(stats.policy_escalations, 1);
    assert_eq!(
        stats.policy_deescalations, 1,
        "the clean window stepped protection back down"
    );
    // After the de-escalation the slot decodes Calm again.
    assert_eq!(*stages.last().unwrap(), ProtectionStage::Calm);
}

#[test]
fn hysteresis_bounds_transitions_under_an_alternating_injector() {
    let model = Model::new(&ModelConfig::tiny_opt(), 7).unwrap();
    let prompt = vec![3u32, 1, 4, 1];
    let budget = 26;
    let clean = model.generate(&prompt, budget, &mut NoopHook).unwrap();

    // Fault on even steps, clean on odd steps: with window and clean-window of 1 this
    // pattern asks for a transition every single step. The hysteresis gate must bound it.
    let injector = ErrorInjector::new(
        FixedBitModel::bit30(1.0),
        Target::new().components([Component::O]),
        17,
    )
    .with_burst(1, 1);
    let hysteresis = 6;
    let adaptive = AdaptiveConfig {
        window_steps: 1,
        elevate_detections: 1,
        escalate_detections: u64::MAX,
        clean_window_steps: 1,
        hysteresis_steps: hysteresis,
        ..AdaptiveConfig::enabled()
    };
    let config = ServeConfig::with_slots(1).with_adaptive(adaptive);
    let mut engine = ServeEngine::new(&model, config).with_fault_hook(Box::new(injector));
    let (_, rx) = engine.submit(ServeRequest::new(prompt, budget)).unwrap();
    engine.run_until_idle().unwrap();
    let summary = done_summary(&rx);
    assert_eq!(summary.tokens, clean.tokens, "O faults always recover");
    let stats = engine.stats();
    let transitions = stats.policy_escalations + stats.policy_deescalations;
    assert!(
        transitions <= 1 + stats.steps / hysteresis,
        "at most one transition per hysteresis window ({} transitions in {} steps)",
        transitions,
        stats.steps
    );
    assert!(
        stats.policy_escalations >= 1 && stats.policy_deescalations >= 1,
        "the controller still adapts in both directions under the alternating pattern"
    );
}

#[test]
fn protection_sheds_under_queue_pressure_and_restores() {
    let model = Model::new(&ModelConfig::tiny_opt(), 7).unwrap();
    let requests: Vec<Vec<u32>> = vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8], vec![9, 10, 11, 12]];
    let budget = 6;
    let clean: Vec<Vec<u32>> = requests
        .iter()
        .map(|p| model.generate(p, budget, &mut NoopHook).unwrap().tokens)
        .collect();

    // One slot and a tight token budget: the queued requests' token-age crosses the shed
    // pressure threshold while they wait, and clears once the queue drains.
    let adaptive = AdaptiveConfig::enabled().with_shed(8);
    let config = ServeConfig::with_slots(1)
        .with_step_token_budget(4)
        .with_adaptive(adaptive);
    let mut engine = ServeEngine::new(&model, config);
    let receivers: Vec<_> = requests
        .iter()
        .map(|p| {
            engine
                .submit(ServeRequest::new(p.clone(), budget))
                .unwrap()
                .1
        })
        .collect();
    let mut shed_seen = false;
    while engine.step().unwrap() {
        if engine.adaptive().shed_active() {
            shed_seen = true;
            assert!(
                engine.adaptive().component_overlay().next().is_some(),
                "shedding installs the resilient-component overlay"
            );
            assert!(
                engine.stats().queue_depth > 0,
                "protection only sheds while a backlog exists"
            );
        }
    }
    assert!(shed_seen, "queue pressure armed the shed overlay");
    assert!(
        !engine.adaptive().shed_active(),
        "the overlay lifts once pressure clears"
    );
    assert!(engine.adaptive().component_overlay().next().is_none());
    let stats = engine.stats();
    assert!(stats.protection_shed_steps > 0);
    assert_eq!(
        stats.requests_shed, 0,
        "protection was shed instead of traffic: no request was refused"
    );
    for (rx, expected) in receivers.iter().zip(&clean) {
        assert_eq!(
            done_summary(rx).tokens,
            *expected,
            "shedding protection never changes fault-free output"
        );
    }
}

#[test]
fn adaptive_engine_matches_static_on_clean_traffic_on_every_backend() {
    let requests: Vec<(Vec<u32>, usize)> = vec![
        (vec![1, 2, 3, 4, 5], 7),
        (vec![9, 8], 1),
        (vec![3, 3, 3, 3], 4),
        (vec![7, 11, 2], 5),
        (vec![6, 1], 3),
    ];
    for kind in EngineKind::ALL {
        let mut model_config = ModelConfig::tiny_opt();
        model_config.engine = kind;
        let model = Model::new(&model_config, 7).unwrap();
        let serve = |adaptive: AdaptiveConfig| {
            let config = ServeConfig::with_slots(2)
                .with_step_token_budget(4)
                .with_adaptive(adaptive);
            let mut engine = ServeEngine::new(&model, config);
            let receivers: Vec<_> = requests
                .iter()
                .map(|(p, n)| engine.submit(ServeRequest::new(p.clone(), *n)).unwrap().1)
                .collect();
            engine.run_until_idle().unwrap();
            let stats = engine.stats();
            let outputs: Vec<(Vec<u32>, Vec<f32>)> = receivers
                .iter()
                .map(|rx| {
                    let s = done_summary(rx);
                    (s.tokens, s.margins)
                })
                .collect();
            (outputs, stats)
        };
        let (static_out, static_stats) = serve(AdaptiveConfig::default());
        let (adaptive_out, adaptive_stats) = serve(AdaptiveConfig::enabled());
        assert_eq!(
            adaptive_out, static_out,
            "{kind}: with no detections the controller never moves, so adaptive serving \
             is bit-identical to static"
        );
        assert_eq!(adaptive_stats.policy_escalations, 0);
        assert_eq!(adaptive_stats.policy_deescalations, 0);
        assert_eq!(adaptive_stats.protection_shed_steps, 0);
        for stats in [&static_stats, &adaptive_stats] {
            assert_eq!(
                stats.steps_at_scheme.iter().sum::<u64>(),
                stats.steps,
                "{kind}: every step is charged to exactly one scheme"
            );
        }
    }
}
