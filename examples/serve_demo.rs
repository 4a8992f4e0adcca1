//! Serving demo: continuous batching under staggered arrivals with per-request
//! reliability telemetry.
//!
//! A 4-slot [`ServeEngine`] serves a burst of requests that arrive over time (not all at
//! once), mixing priorities, generation budgets and protection policies, while a bit-flip
//! injector emulates a low-voltage datapath. The demo prints the engine's operator
//! snapshot ([`EngineStats`]) as the queue drains, then a per-request table: wait time,
//! service time, and the ABFT detections/recoveries attributed to each request.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```
//!
//! With `REALM_LISTEN=<addr>` the demo becomes a network server instead: the same
//! engine (same injector) serves `POST /generate` over HTTP/1.1 with chunked token
//! streaming until `POST /admin/drain` gracefully drains it:
//!
//! ```text
//! REALM_LISTEN=127.0.0.1:8080 cargo run --release --example serve_demo
//! curl -N -d 'prompt=1,5,9&max_new_tokens=8&policy=classical' http://127.0.0.1:8080/generate
//! curl http://127.0.0.1:8080/stats
//! curl -X POST http://127.0.0.1:8080/admin/drain
//! ```

use realm::core::ProtectionPolicy;
use realm::inject::{error_model::FixedBitModel, injector::ErrorInjector};
use realm::llm::{config::ModelConfig, model::Model};
use realm::net::{NetConfig, NetServer};
use realm::serve::{AdaptiveConfig, ServeConfig, ServeEngine, ServeRequest, TokenEvent};
use realm::systolic::ProtectionScheme;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = Model::new(&ModelConfig::tiny_opt(), 2025)?;
    let config = ServeConfig {
        slots: 4,
        aging_steps: 8,
        step_token_budget: 8,
        // Runtime policy selection: detection bursts escalate protection per slot,
        // clean windows step it back down (see `realm_serve::adaptive`).
        adaptive: AdaptiveConfig::enabled(),
        ..ServeConfig::default()
    };
    println!(
        "serving {} on {} slots (queue aging: 1 priority level per {} steps, \
         {}-token step budget, adaptive protection on)",
        model.config().name,
        config.slots,
        config.aging_steps,
        config.step_token_budget
    );
    // Name the GEMM backend the default dispatch picked: throughput numbers from this
    // demo are uninterpretable without knowing which kernel actually ran.
    println!(
        "gemm backend: {} (simd dispatch: {})\n",
        model.engine().name(),
        realm::tensor::simd::simd_dispatch_label()
    );

    // A faulty datapath: transient bit-30 flips on ~0.5% of GEMMs. Protected requests
    // detect and repair these; the unprotected request takes its chances.
    let mut injector = ErrorInjector::everywhere(FixedBitModel::bit30(0.005), 7);
    // Network mode: hand the same engine configuration to the HTTP front end and serve
    // until an operator drains it (`POST /admin/drain`).
    if let Ok(listen) = std::env::var("REALM_LISTEN") {
        let server = NetServer::bind(NetConfig {
            addr: listen,
            serve: config,
            ..NetConfig::default()
        })?;
        let addr = server.local_addr();
        println!("listening on http://{addr}  (faulty datapath armed: bit-30 flips)");
        println!(
            "  curl -N -d 'prompt=1,5,9&max_new_tokens=8&policy=classical' http://{addr}/generate"
        );
        println!("  curl http://{addr}/stats");
        println!("  curl -X POST http://{addr}/admin/drain   # graceful shutdown\n");
        let report = server.serve_with_hook(&model, Some(Box::new(injector)))?;
        let e = report.engine;
        println!(
            "drained: {} connections, {} requests completed, {} cancelled, {} shed, \
             {} detections, {} recoveries",
            report.connections,
            e.requests_completed,
            e.requests_cancelled,
            e.requests_shed,
            e.detections,
            e.recoveries
        );
        return Ok(());
    }

    let mut engine = ServeEngine::new(&model, config).with_fault_hook(Box::new(&mut injector));

    // The arrival schedule: (arrival step, priority, budget, policy). More requests than
    // slots, arriving in waves, so admissions happen mid-flight into recycled slots.
    let policies: [(&str, ProtectionPolicy); 3] = [
        ("statistical", ProtectionPolicy::statistical()),
        ("classical", ProtectionPolicy::classical()),
        ("unprotected", ProtectionPolicy::unprotected()),
    ];
    let schedule: Vec<(u64, u8, usize, usize)> = vec![
        // step, priority, budget, policy index
        (0, 0, 8, 0),
        (0, 0, 3, 1),
        (0, 0, 12, 0),
        (1, 2, 5, 1),
        (2, 0, 2, 2),
        (3, 5, 6, 0),
        (4, 0, 9, 1),
        (5, 1, 4, 0),
        (6, 0, 7, 2),
        (7, 3, 5, 0),
    ];

    let mut pending = schedule.into_iter().enumerate().collect::<Vec<_>>();
    let mut receivers = Vec::new();
    let mut step = 0u64;
    while engine.has_work() || !pending.is_empty() {
        // Submit everything scheduled to arrive at or before this step.
        pending.retain(|(i, (arrival, priority, budget, policy))| {
            if *arrival > step {
                return true;
            }
            let prompt: Vec<u32> = (0..3 + (*i as u32 % 4))
                .map(|t| (t * 5 + *i as u32) % 60)
                .collect();
            let request = ServeRequest::new(prompt, *budget)
                .with_priority(*priority)
                .with_policy(policies[*policy].1);
            let (id, rx) = engine.submit(request).expect("schedule is valid");
            receivers.push((id, *budget, policies[*policy].0, rx));
            false
        });
        engine.step()?;
        step += 1;
        if step.is_multiple_of(5) || !engine.has_work() {
            let s = engine.stats();
            println!(
                "step {:>3}: queue {:>2}  slots {}/{}  tokens {:>3}  completed {:>2}/{:<2}  \
                 detections {:>2}",
                s.steps,
                s.queue_depth,
                s.active_slots,
                s.total_slots,
                s.tokens_generated,
                s.requests_completed,
                s.requests_submitted,
                s.detections
            );
        }
    }

    let stats = engine.stats();
    println!(
        "\nfinal: {} tokens over {} lockstep steps ({:.0} tokens/s wall-clock), \
         {} admissions into {} slots",
        stats.tokens_generated,
        stats.steps,
        stats.tokens_per_second,
        stats.requests_admitted,
        stats.total_slots
    );
    println!(
        "reliability: {} detections, {} recoveries ({:.2} detections/request)",
        stats.detections,
        stats.recoveries,
        stats.detections_per_request()
    );
    let scheme_mix: Vec<String> = ProtectionScheme::ALL
        .iter()
        .map(|s| (s, stats.steps_at_scheme[s.strictness() as usize]))
        .filter(|&(_, steps)| steps > 0)
        .map(|(s, steps)| format!("{} x{steps}", s.label()))
        .collect();
    println!(
        "adaptive protection: {} escalations, {} de-escalations, {} protection-shed steps; \
         steps per batch scheme: {}",
        stats.policy_escalations,
        stats.policy_deescalations,
        stats.protection_shed_steps,
        scheme_mix.join(", ")
    );
    println!(
        "latency: decode p50 {:.0} us / p99 {:.0} us per lockstep step; \
         scratch workspace high-water {:.1} KiB (steady-state, allocation-free)",
        stats.decode_p50_us,
        stats.decode_p99_us,
        stats.workspace_high_water_bytes as f64 / 1024.0
    );
    println!(
        "chunked prefill: {} chunks under the {}-token step budget \
         (budget utilization {:.2}, decode stall p99 {:.0} us)",
        stats.prefill_chunks,
        config.step_token_budget,
        stats.step_budget_utilization,
        stats.decode_stall_p99_us
    );
    println!();

    println!(
        "{:<4} {:<13} {:>6} {:>8} {:>8} {:>11} {:>11} {:>11}",
        "id", "policy", "tokens", "queued", "service", "detections", "recoveries", "escalations"
    );
    for (id, budget, policy_name, rx) in &receivers {
        let events: Vec<TokenEvent> = rx.try_iter().collect();
        let Some(TokenEvent::Done(summary)) = events.last() else {
            panic!("request {id} did not complete");
        };
        assert_eq!(summary.tokens.len(), *budget, "budget honoured");
        println!(
            "{:<4} {:<13} {:>6} {:>8} {:>8} {:>11} {:>11} {:>11}",
            id,
            policy_name,
            summary.tokens.len(),
            summary.queued_steps,
            summary.service_steps,
            summary.attribution.detections,
            summary.attribution.recoveries,
            summary.escalations
        );
    }
    println!("\nall requests served; every budget met.");
    Ok(())
}
