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
//! Tensor parallelism is env-driven so CI can exercise the sharded datapath without a
//! separate binary: `REALM_TP_DEGREE=4` splits every weight GEMM into 4 column-stripe
//! fault domains, and `REALM_SHARD_KILL=<shard>[:<steps>]` arms a whole-shard kill
//! (default 16 dispatches) that the engine must survive bit-exactly mid-service:
//!
//! ```text
//! REALM_TP_DEGREE=4 REALM_SHARD_KILL=2:24 cargo run --release --example serve_demo
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
use realm::inject::{error_model::FixedBitModel, injector::ErrorInjector, targeting::Target};
use realm::llm::{config::ModelConfig, model::Model};
use realm::net::{NetConfig, NetServer};
use realm::serve::{AdaptiveConfig, ServeConfig, ServeEngine, ServeRequest, TokenEvent};
use realm::systolic::ProtectionScheme;
use realm::tensor::ShardFault;

/// Parses `REALM_SHARD_KILL=<shard>[:<steps>]` (steps defaults to 16 GEMM dispatches).
fn shard_kill_from_env() -> Option<(usize, usize)> {
    let spec = std::env::var("REALM_SHARD_KILL").ok()?;
    let (shard, steps) = match spec.split_once(':') {
        Some((shard, steps)) => (
            shard.parse().expect("REALM_SHARD_KILL shard index"),
            steps.parse().expect("REALM_SHARD_KILL step count"),
        ),
        None => (spec.parse().expect("REALM_SHARD_KILL shard index"), 16),
    };
    Some((shard, steps))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tp_degree: usize = std::env::var("REALM_TP_DEGREE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&d| d > 0)
        .unwrap_or(1);
    let mut model = Model::new(&ModelConfig::tiny_opt(), 2025)?;
    model.set_tensor_parallel(tp_degree);
    let model = model;
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
        "gemm backend: {} (simd dispatch: {})",
        model.engine().name(),
        realm::tensor::simd::simd_dispatch_label()
    );
    match model.tp_group() {
        Some(group) => println!("tensor parallel: degree {}\n", group.degree()),
        None => println!("tensor parallel: off\n"),
    }

    // A faulty datapath: transient bit-30 flips on ~0.5% of GEMMs. Protected requests
    // detect and repair these; the unprotected request takes its chances.
    let shard_kill = shard_kill_from_env();
    let target = match shard_kill {
        Some((shard, _)) => Target::new().shard(shard),
        None => Target::everything(),
    };
    let mut injector = ErrorInjector::new(FixedBitModel::bit30(0.005), target, 7);
    // Optionally kill a whole rank mid-service: its next `steps` sharded GEMM dispatches
    // deliver nothing, and each fails over by recomputing the layer's GEMM.
    if let Some((shard, steps)) = shard_kill {
        let group = model
            .tp_group()
            .expect("REALM_SHARD_KILL requires REALM_TP_DEGREE > 1");
        assert!(
            shard < group.degree(),
            "REALM_SHARD_KILL shard out of range"
        );
        let armed = injector.arm_shard_faults(group, ShardFault::Kill, steps);
        println!(
            "armed shard-kill: shard {shard} for {steps} dispatches ({armed} shard(s) armed)\n"
        );
    }
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

    let mut engine = ServeEngine::new(&model, config).with_fault_hook(Box::new(injector));

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
    if stats.is_sharded() {
        println!(
            "tensor parallel: {} shard kills survived, {} shard checksum detections, \
             {} stripe failovers",
            stats.shard_kills, stats.shard_detections, stats.shard_failovers
        );
        for (shard, s) in engine.shard_stats().iter().enumerate() {
            println!(
                "  shard {shard}: jobs {:>6}  kills {:>3}  detections {:>3}  failovers {:>3}",
                s.jobs, s.kills, s.detections, s.failovers
            );
        }
        if shard_kill.is_some() {
            assert!(stats.shard_kills > 0, "the armed shard kill fired");
            assert_eq!(
                stats.shard_failovers, stats.shard_kills,
                "every kill was survived by a failover recompute"
            );
        }
    }
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
