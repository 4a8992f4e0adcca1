//! Resilience suite for the network front end: disconnects, load shedding, drain.
//!
//! * **Cancel-on-disconnect** — a client hanging up mid-stream must cancel its request
//!   at the engine's next commit and free the slot, observable through `/stats`
//!   (`requests_cancelled`, `active_slots`) and the final [`realm::net::NetReport`].
//! * **Shed without starvation** — once the oldest queued request has been passed over
//!   for more budgeted tokens than the SLO allows, new submissions are refused with
//!   `429` + `Retry-After` *before* entering the queue, and the already-queued request
//!   still completes: shedding protects the backlog, it never replaces it. A step gate
//!   lets the engine decode only as the test grants steps, so the long request holding the
//!   slot outlives every observation whatever the host's load.
//! * **Graceful drain** — after `POST /admin/drain`, the in-flight stream runs to
//!   completion, new work is refused with `503`, and `serve` returns a consistent final
//!   report. The step gate parks the engine inside the stream's first decode step until the
//!   drain was acknowledged, so the drain lands mid-stream on every run.
//! * **Books balance under load** — a seeded trace sent all at once, with an armed
//!   injector, a long chunked prompt and one client hanging up, ends in a clean drain
//!   whose server, engine and client counts agree.
//!
//! Every server is drained by a [`common::DrainOnDrop`] guard, so a failing assertion
//! fails the test instead of hanging the suite.

use realm::core::ProtectionPolicy;
use realm::inject::{error_model::FixedBitModel, injector::ErrorInjector};
use realm::llm::{config::ModelConfig, model::Model, GemmContext, GemmHook, Stage};
use realm::net::client::stats_field;
use realm::net::trace::TraceConfig;
use realm::net::{
    generate_trace, http_request, stream_generate, GenBody, NetConfig, NetServer, WireEvent,
};
use realm::serve::ServeConfig;
use realm::tensor::{ChecksummedGemm, MatI32, MatI8};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

mod common;
use common::DrainOnDrop;

const TIMEOUT: Duration = Duration::from_secs(20);

/// How long [`Stepper::step_until`] waits for an answer before it grants the engine one
/// more decode step.
const PACE: Duration = Duration::from_millis(25);

/// `tiny_opt` with a context window large enough for deliberately long-running requests.
fn long_context_model() -> Model {
    let mut config = ModelConfig::tiny_opt();
    config.max_seq_len = 256;
    Model::new(&config, 2025).unwrap()
}

fn gen(prompt: Vec<u32>, budget: usize, priority: u8) -> GenBody {
    GenBody {
        prompt,
        max_new_tokens: budget,
        priority,
        policy: ProtectionPolicy::statistical(),
    }
}

/// One `GET /stats` JSON snapshot.
fn stats(addr: std::net::SocketAddr) -> String {
    let response = http_request(addr, "GET", "/stats", b"", TIMEOUT).unwrap();
    String::from_utf8(response.body).unwrap()
}

/// Polls `/stats` until `predicate` holds and returns that JSON.
///
/// # Panics
///
/// Panics with `expectation` and the last JSON once ten seconds pass without it holding.
fn poll_stats(
    addr: std::net::SocketAddr,
    expectation: &str,
    predicate: impl Fn(&str) -> bool,
) -> String {
    let start = Instant::now();
    loop {
        let json = stats(addr);
        if predicate(&json) {
            return json;
        }
        assert!(
            start.elapsed() <= Duration::from_secs(10),
            "{expectation}: {json}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A pass-through hook that parks the engine thread at the start of every decode step —
/// announced on `parked` — until the test grants the step on `permits`. Once the permit
/// sender is gone (the test opened the gate, or is unwinding) every step passes straight
/// through.
struct StepGate {
    parked: mpsc::Sender<()>,
    permits: mpsc::Receiver<()>,
    open: bool,
}

impl StepGate {
    fn pass(&mut self, ctx: &GemmContext) {
        // GEMM 0 of a decode-stage forward pass: the engine is starting a decode step.
        if self.open || ctx.stage != Stage::Decode || ctx.sequence != 0 {
            return;
        }
        let _ = self.parked.send(());
        self.open = self.permits.recv().is_err();
    }
}

impl GemmHook for StepGate {
    fn on_gemm(&mut self, ctx: &GemmContext, _: &MatI8, _: &MatI8, _: &mut MatI32) {
        self.pass(ctx);
    }

    fn on_gemm_checksummed(
        &mut self,
        ctx: &GemmContext,
        _: &MatI8,
        _: &MatI8,
        _: &mut ChecksummedGemm,
    ) {
        self.pass(ctx);
    }

    fn wants_checksums(&self) -> bool {
        false
    }
}

/// The test's end of a [`StepGate`]. Dropping it opens the gate for good.
struct Stepper {
    parked: mpsc::Receiver<()>,
    permits: mpsc::Sender<()>,
}

/// A closed step gate for `serve_with_hook` and the stepper that drives it.
fn step_gate() -> (Box<dyn GemmHook + Send>, Stepper) {
    let (parked_tx, parked) = mpsc::channel();
    let (permits, permits_rx) = mpsc::channel();
    let gate = StepGate {
        parked: parked_tx,
        permits: permits_rx,
        open: false,
    };
    (Box::new(gate), Stepper { parked, permits })
}

impl Stepper {
    /// Waits until the engine is parked at the start of a decode step.
    fn wait_parked(&self) {
        self.parked
            .recv_timeout(TIMEOUT)
            .expect("the engine must reach a decode step");
    }

    /// Runs `request` on a thread of its own and, while it waits for an answer, grants the
    /// engine one decode step per [`PACE`]. The engine reads commands (`/stats`,
    /// submissions) only between steps, so every answer costs at least one step — and a
    /// request on a decode-only engine advances it one token per grant, never per
    /// wall-clock tick.
    fn step_until<T: Send>(&self, request: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|s| {
            let (done, answer) = mpsc::channel();
            s.spawn(move || done.send(request()));
            loop {
                match answer.recv_timeout(PACE) {
                    Ok(value) => return value,
                    Err(RecvTimeoutError::Timeout) => {
                        self.permits.send(()).expect("the gate is live");
                        self.wait_parked();
                    }
                    Err(RecvTimeoutError::Disconnected) => panic!("the request panicked"),
                }
            }
        })
    }
}

#[test]
fn mid_stream_disconnect_cancels_the_request_and_frees_the_slot() {
    let model = long_context_model();
    let server = NetServer::bind(NetConfig {
        serve: ServeConfig::with_slots(2),
        ..NetConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let report = std::thread::scope(|s| {
        let serving = s.spawn(|| server.serve(&model).unwrap());
        let drain = DrainOnDrop::new(&server);

        // A request with a 200-token budget, abandoned after 2 events: the hang-up lands
        // far from completion, so only cancellation can explain the freed slot.
        let result = stream_generate(addr, &gen(vec![1, 2, 3], 200, 0), Some(2), TIMEOUT).unwrap();
        assert_eq!(result.status, 200);
        assert!(result.disconnected);
        assert!(
            result.done().is_none(),
            "the abandoned stream must not have completed"
        );

        // The engine notices at its next commit: cancelled counted, slot released.
        poll_stats(addr, "disconnect must surface as a cancellation", |j| {
            stats_field(j, "requests_cancelled") == Some(1)
        });
        let json = poll_stats(addr, "the cancelled request's slot must be freed", |j| {
            stats_field(j, "active_slots") == Some(0)
        });
        assert_eq!(stats_field(&json, "requests_completed"), Some(0));

        // The freed slot is immediately usable: a follow-up request completes.
        let follow_up = stream_generate(addr, &gen(vec![4, 5], 3, 0), None, TIMEOUT).unwrap();
        assert_eq!(follow_up.status, 200);
        assert_eq!(follow_up.tokens.len(), 3);

        drop(drain);
        serving.join().unwrap()
    });
    assert_eq!(report.engine.requests_cancelled, 1);
    assert_eq!(report.engine.requests_completed, 1);
    assert_eq!(report.disconnects, 1);
    assert_eq!(report.streams_completed, 1);
    assert_eq!(report.engine.active_slots, 0, "clean teardown");
}

#[test]
fn shed_returns_429_with_retry_after_and_never_starves_the_queue() {
    let model = long_context_model();
    // One slot and a tiny SLO: the first request occupies the engine, the second queues
    // and ages past the SLO, the third must be shed.
    let server = NetServer::bind(NetConfig {
        shed_queue_age_tokens: Some(4),
        retry_after_secs: 3,
        serve: ServeConfig::with_slots(1),
        ..NetConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let (gate, stepper) = step_gate();
    let report = std::thread::scope(|s| {
        let serving = s.spawn(|| server.serve_with_hook(&model, Some(gate)).unwrap());
        let drain = DrainOnDrop::new(&server);
        let stepper = stepper;

        // Occupy the only slot with a long-running request. The engine parks at its first
        // decode step, so it is admitted, and from here on it decodes one token per step the
        // test grants — far fewer than its 200 before the gate opens.
        let hog = s
            .spawn(move || stream_generate(addr, &gen(vec![1, 2], 200, 0), None, TIMEOUT).unwrap());
        stepper.wait_parked();

        // Queue a high-priority request behind it and step the engine until the request has
        // been passed over for the SLO's worth of tokens (the hog's one token per step
        // drives the token clock, and with it the queued request's token age).
        let queued = s.spawn(move || {
            stream_generate(addr, &gen(vec![7, 8, 9], 4, 7), None, TIMEOUT).unwrap()
        });
        let aged = (0..100).any(|_| {
            let json = stepper.step_until(|| stats(addr));
            stats_field(&json, "queue_oldest_age_tokens").unwrap_or(0) >= 4
        });
        assert!(
            aged,
            "the queued request must age past the SLO behind the hog"
        );

        // New work is now shed before it touches the queue: the hog still holds the slot,
        // so the queued request has only aged further.
        let shed = stepper
            .step_until(|| stream_generate(addr, &gen(vec![3], 2, 0), None, TIMEOUT).unwrap());
        assert_eq!(
            shed.status, 429,
            "aged queue must shed new work: {:?}",
            shed.error_body
        );
        assert_eq!(
            shed.retry_after_secs,
            Some(3),
            "the configured Retry-After must be advertised"
        );
        assert!(
            shed.error_body.contains("SLO"),
            "the refusal names the SLO: {:?}",
            shed.error_body
        );

        // Open the gate. Shedding refused the NEW request only: the queued one still
        // completes in full.
        drop(stepper);
        let queued_result = queued.join().unwrap();
        assert_eq!(queued_result.status, 200);
        assert_eq!(
            queued_result.tokens.len(),
            4,
            "the queued high-priority request is never starved by shedding"
        );
        let hog_result = hog.join().unwrap();
        assert_eq!(hog_result.status, 200);
        assert_eq!(hog_result.tokens.len(), 200);

        drop(drain);
        serving.join().unwrap()
    });
    assert_eq!(
        report.engine.requests_shed, 1,
        "exactly one request was shed"
    );
    assert_eq!(report.engine.requests_completed, 2);
    assert_eq!(
        report.engine.requests_submitted, 2,
        "the shed request never entered the queue"
    );
    assert_eq!(report.engine.queue_depth, 0);
}

#[test]
fn graceful_drain_finishes_in_flight_streams_and_refuses_new_work() {
    let model = long_context_model();
    let server = NetServer::bind(NetConfig {
        serve: ServeConfig::with_slots(2),
        ..NetConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let (gate, stepper) = step_gate();
    let report = std::thread::scope(|s| {
        let serving = s.spawn(|| server.serve_with_hook(&model, Some(gate)).unwrap());
        let _drain = DrainOnDrop::new(&server);
        let stepper = stepper;

        // Start a long stream and wait until the engine is parked inside its first decode
        // step (`/stats` cannot tell: a parked engine thread does not answer it). The drain
        // is posted and acknowledged while the stream provably has 99 tokens to go.
        let in_flight = s.spawn(move || {
            stream_generate(addr, &gen(vec![1, 2, 3], 100, 0), None, TIMEOUT).unwrap()
        });
        stepper.wait_parked();
        let drain = http_request(addr, "POST", "/admin/drain", b"", TIMEOUT).unwrap();
        assert_eq!(drain.status, 202);
        assert!(!in_flight.is_finished(), "the drain must land mid-stream");

        // While draining: health reports 503 and new generate requests are refused — or,
        // once the accept loop has already stopped, the connection is simply never
        // served (an Err on probe timeout, also a correct refusal). The probes use a
        // short timeout because an unserved backlog connection never answers.
        let probe = Duration::from_millis(800);
        if let Ok(health) = http_request(addr, "GET", "/healthz", b"", probe) {
            assert_eq!(health.status, 503, "draining health must be 503");
        }
        if let Ok(refused) = stream_generate(addr, &gen(vec![4], 2, 0), None, probe) {
            assert_eq!(refused.status, 503, "draining generate must be 503");
        }

        // Only now may the engine go on: the in-flight stream still runs to full completion.
        drop(stepper);
        let result = in_flight.join().unwrap();
        assert_eq!(result.status, 200);
        assert_eq!(
            result.tokens.len(),
            100,
            "drain must let the in-flight stream finish, not truncate it"
        );
        let Some(WireEvent::Done { tokens, .. }) = result.done() else {
            panic!("the in-flight stream must deliver its terminal summary");
        };
        assert_eq!(*tokens, 100);

        serving.join().unwrap()
    });
    assert_eq!(report.engine.requests_completed, 1);
    assert_eq!(report.engine.requests_cancelled, 0);
    assert_eq!(report.engine.active_slots, 0);
    assert_eq!(report.engine.queue_depth, 0);
    assert_eq!(report.streams_completed, 1);
}

#[test]
fn concurrent_trace_balances_the_books_through_disconnect_and_drain() {
    let model = long_context_model();
    // 30 mixed-policy requests, about 10% with a 64–96-token prompt. Request 1 carries a
    // 96-token prompt that the 32-token step budget must split into chunks; request 7
    // gets a budget long enough that its client's hang-up after 3 events lands
    // mid-generation, so only a cancellation can end it.
    let mut trace = generate_trace(&TraceConfig {
        seed: 2025,
        requests: 30,
        long_prompt_permille: 100,
        long_prompt_len: (64, 96),
        ..TraceConfig::default()
    });
    trace[1].body.prompt = (0..96).map(|t| t % 64).collect();
    let hangs_up = 7;
    trace[hangs_up].body.max_new_tokens = 150;
    let server = NetServer::bind(NetConfig {
        workers: trace.len(),
        shed_queue_age_tokens: Some(512),
        serve: ServeConfig::with_slots(2).with_step_token_budget(32),
        ..NetConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let injector: Box<dyn GemmHook + Send> =
        Box::new(ErrorInjector::everywhere(FixedBitModel::bit30(0.002), 2025));
    let (results, report) = std::thread::scope(|s| {
        let serving = s.spawn(|| server.serve_with_hook(&model, Some(injector)).unwrap());
        let drain = DrainOnDrop::new(&server);
        let clients: Vec<_> = trace
            .iter()
            .enumerate()
            .map(|(i, request)| {
                let disconnect_after = (i == hangs_up).then_some(3);
                s.spawn(move || {
                    stream_generate(addr, &request.body, disconnect_after, TIMEOUT).unwrap()
                })
            })
            .collect();
        let results: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        drop(drain);
        (results, serving.join().unwrap())
    });

    let shed = results.iter().filter(|r| r.status == 429).count();
    let disconnected = results.iter().filter(|r| r.disconnected).count();
    let completed = results
        .iter()
        .zip(&trace)
        .filter(|(r, request)| {
            r.status == 200
                && !r.disconnected
                && r.done().is_some()
                && r.tokens.len() == request.body.max_new_tokens
        })
        .count();
    assert_eq!(
        completed + shed + disconnected,
        trace.len(),
        "every request completed in full, was shed, or hung up: {:?}",
        results
            .iter()
            .map(|r| (r.status, r.tokens.len(), &r.error_body))
            .collect::<Vec<_>>()
    );
    assert!(results[hangs_up].disconnected, "the hang-up happened");
    let engine = &report.engine;
    assert_eq!(
        engine.requests_shed, shed as u64,
        "engine and clients agree on sheds"
    );
    assert!(
        engine.requests_cancelled >= 1,
        "the hang-up cancelled its request"
    );
    assert_eq!(report.disconnects, 1, "the server saw exactly one hang-up");
    assert_eq!(
        report.streams_completed, completed as u64,
        "every completed stream got its terminal chunk"
    );
    assert_eq!(engine.active_slots, 0, "clean drain: no active slot");
    assert_eq!(engine.queue_depth, 0, "clean drain: empty queue");
    assert!(
        engine.prefill_chunks >= (trace.len() - shed) as u64 + 2,
        "every admitted prompt ran at least one chunk, the 96-token one at least three ({})",
        engine.prefill_chunks
    );
    assert!(
        engine.step_budget_utilization > 0.0 && engine.step_budget_utilization <= 1.0,
        "the step budget was used and never overrun ({})",
        engine.step_budget_utilization
    );
}
