//! In-process load drivers: the closed loop and the open loop on a busy-time clock.
//!
//! Both drive a fresh `ServeEngine` from one thread — submit what is due, step, read the
//! token channels — and time every request from the benchmark's side. The clock they share
//! is *busy time*: real time while the engine has work, with idle gaps skipped instead of
//! slept through, so a latency is a sum of real step durations and no wall time is spent
//! waiting. A closed loop never idles, so for it busy time is simply real time.

use crate::stats::{quantile, sorted, tail_quantile};
use crate::trace::{Recorder, TimingHook};
use crate::workloads::{Loop, Request, ServingSpec, SLOTS};
use realm::llm::{Model, NoopHook};
use realm::serve::{EngineStats, ServeEngine, TokenEvent};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Instant;

/// The highest percentile `tpot_tail_ms` may be, however many gaps a round has.
pub const TAIL_CAP: f64 = 0.99;

/// A round's latency percentiles, and the quantile its tail could claim.
#[derive(Debug, Clone, Copy)]
pub struct Latencies {
    pub ttft_p50_ms: f64,
    pub tpot_p50_ms: f64,
    pub tpot_tail_ms: f64,
    pub tail_quantile: f64,
}

/// Everything one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Wall (busy) seconds the round's work took.
    pub wall_s: f64,
    /// Prompt plus generated tokens of the requests that completed.
    pub tokens: u64,
    pub ttft_ms: Vec<f64>,
    pub tpot_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Generated tokens delivered, and how many of them equal the reference.
    pub generated: u64,
    pub matched: u64,
    /// Per-layer observations made on the way: `(metric name, value)`.
    pub extras: Vec<(String, f64)>,
}

impl Round {
    pub fn tokens_per_s(&self) -> f64 {
        self.tokens as f64 / self.wall_s
    }

    /// The round's latency percentiles.
    pub fn latencies(&self) -> Latencies {
        let ttft = sorted(&self.ttft_ms);
        let tpot = sorted(&self.tpot_ms);
        let tail_quantile = tail_quantile(tpot.len(), TAIL_CAP);
        Latencies {
            ttft_p50_ms: quantile(&ttft, 0.5),
            tpot_p50_ms: quantile(&tpot, 0.5),
            tpot_tail_ms: quantile(&tpot, tail_quantile),
            tail_quantile,
        }
    }

    /// Books one delivered stream against its reference tokens.
    pub fn check_stream(&mut self, request: &Request, tokens: &[u32], reference: &[u32]) {
        let matched = tokens.iter().zip(reference).filter(|(a, b)| a == b).count();
        self.generated += tokens.len() as u64;
        self.matched += matched as u64;
        if tokens.len() == reference.len() && matched == tokens.len() {
            self.tokens += request.tokens();
        } else {
            self.failed += 1;
        }
    }

    pub fn extra(&mut self, name: &str, value: f64) {
        self.extras.push((name.to_string(), value));
    }
}

/// Reference outputs: a clean solo `Model::generate` per request, outside every timer.
pub fn reference_tokens(model: &Model, requests: &[Request]) -> Vec<Vec<u32>> {
    requests
        .iter()
        .map(|r| {
            model
                .generate(&r.prompt, r.max_new_tokens, &mut NoopHook)
                .expect("generated requests fit the context window")
                .tokens
        })
        .collect()
}

struct Flight {
    index: usize,
    rx: Receiver<TokenEvent>,
    /// When the request was due (open loop) or handed to `submit` (closed loop).
    start_ns: u64,
    submit_ns: (u64, u64),
    last_token_ns: Option<u64>,
}

/// One engine, its in-flight requests and the busy-time clock.
struct Driver<'a> {
    engine: ServeEngine<'a>,
    requests: &'a [Request],
    reference: &'a [Vec<u32>],
    tracer: Option<&'a Arc<Recorder>>,
    /// Time base shared with the recorder's spans, and where on it this round began.
    origin: Instant,
    started_ns: u64,
    skipped_ns: u64,
    flights: Vec<Flight>,
    round: Round,
    occupancy_sum: f64,
    queue_sum: f64,
    steps: u64,
    submit_us: Vec<f64>,
}

impl<'a> Driver<'a> {
    fn new(
        model: &'a Model,
        spec: &ServingSpec,
        requests: &'a [Request],
        reference: &'a [Vec<u32>],
        tracer: Option<&'a Arc<Recorder>>,
    ) -> Self {
        let mut engine = ServeEngine::new(model, spec.serve_config());
        if let Some(recorder) = tracer {
            engine = engine.with_fault_hook(Box::new(TimingHook::new(Arc::clone(recorder), false)));
        }
        let origin = tracer.map_or_else(Instant::now, |r| r.origin());
        Self {
            engine,
            requests,
            reference,
            tracer,
            origin,
            started_ns: origin.elapsed().as_nanos() as u64,
            skipped_ns: 0,
            flights: Vec::new(),
            round: Round::default(),
            occupancy_sum: 0.0,
            queue_sum: 0.0,
            steps: 0,
            submit_us: Vec::new(),
        }
    }

    fn real_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Busy time since the round began: real time plus the idle gaps skipped so far.
    fn now_ns(&self) -> u64 {
        self.real_ns() - self.started_ns + self.skipped_ns
    }

    fn submit(&mut self, index: usize, start_ns: u64) {
        self.round.attempted += 1;
        let before = self.real_ns();
        let submitted = self.engine.submit(self.requests[index].to_serve());
        let after = self.real_ns();
        self.submit_us.push((after - before) as f64 / 1e3);
        match submitted {
            Ok((_, rx)) => self.flights.push(Flight {
                index,
                rx,
                start_ns,
                submit_ns: (before, after),
                last_token_ns: None,
            }),
            // A refused request is a failed request.
            Err(_) => self.round.failed += 1,
        }
    }

    /// One engine step, then every token it committed is stamped with the busy time at
    /// which the step returned.
    fn step(&mut self) {
        let inflight = self.flights.len();
        self.occupancy_sum += inflight.min(SLOTS) as f64 / SLOTS as f64;
        self.queue_sum += inflight.saturating_sub(SLOTS) as f64;
        self.steps += 1;
        if let Some(recorder) = self.tracer {
            recorder.step_begin(self.real_ns());
        }
        let stepped = self.engine.step();
        if let Some(recorder) = self.tracer {
            recorder.step_end(self.real_ns());
        }
        if stepped.is_err() {
            // The engine is unusable: every stream still in flight is incomplete.
            self.round.failed += self.flights.len() as u64;
            self.flights.clear();
            return;
        }
        let now_ns = self.now_ns();
        let real_ns = self.real_ns();
        let mut i = 0;
        while i < self.flights.len() {
            let mut done = None;
            let flight = &mut self.flights[i];
            for event in flight.rx.try_iter() {
                match event {
                    TokenEvent::Token { .. } => match flight.last_token_ns.replace(now_ns) {
                        None => self
                            .round
                            .ttft_ms
                            .push((now_ns - flight.start_ns) as f64 / 1e6),
                        Some(prev) => self.round.tpot_ms.push((now_ns - prev) as f64 / 1e6),
                    },
                    TokenEvent::Done(summary) => done = Some(summary),
                }
            }
            let Some(summary) = done else {
                i += 1;
                continue;
            };
            let flight = self.flights.swap_remove(i);
            self.round.check_stream(
                &self.requests[flight.index],
                &summary.tokens,
                &self.reference[flight.index],
            );
            if let Some(recorder) = self.tracer {
                recorder.request(
                    flight.index as u64,
                    flight.submit_ns.0,
                    flight.submit_ns,
                    real_ns,
                );
            }
        }
    }

    fn finish(mut self) -> Round {
        self.round.wall_s = (self.real_ns() - self.started_ns) as f64 / 1e9;
        // Anything still in flight when the loop gave up never completed.
        self.round.failed += self.flights.len() as u64;
        let stats = self.engine.stats();
        let steps = self.steps.max(1) as f64;
        let prompt_tokens: usize = self.requests.iter().map(|r| r.prompt.len()).sum();
        let mut round = self.round;
        round.extra("serve.slot_occupancy", self.occupancy_sum / steps);
        round.extra("serve.queue_depth.mean", self.queue_sum / steps);
        round.extra("serve.submit_us", quantile(&sorted(&self.submit_us), 0.5));
        round.extra(
            "serve.decode_rows_per_step",
            stats.token_clock.saturating_sub(prompt_tokens as u64) as f64
                / stats.steps.max(1) as f64,
        );
        engine_extras(&mut round, &stats);
        round
    }
}

/// Per-layer counts an engine reports about itself at the end of a round.
pub fn engine_extras(round: &mut Round, stats: &EngineStats) {
    round.extra("serve.steps", stats.steps as f64);
    round.extra("serve.prefill_chunks", stats.prefill_chunks as f64);
    round.extra(
        "serve.step_budget_utilization",
        stats.step_budget_utilization,
    );
    round.extra("serve.decode_stall_p99_us", stats.decode_stall_p99_us);
    round.extra(
        "tensor.workspace_high_water_bytes",
        stats.workspace_high_water_bytes as f64,
    );
}

/// When each request of an open-loop round was due and when it was actually submitted, in
/// busy-time microseconds.
pub type SubmitLog = Vec<(u64, u64)>;

/// Runs one round of `requests` against a fresh engine.
pub fn run_round(
    model: &Model,
    spec: &ServingSpec,
    requests: &[Request],
    reference: &[Vec<u32>],
    tracer: Option<&Arc<Recorder>>,
) -> (Round, SubmitLog) {
    let mut driver = Driver::new(model, spec, requests, reference, tracer);
    let mut log = SubmitLog::new();
    match spec.load {
        Loop::Open { .. } => {
            let mut next = 0;
            loop {
                // Submit everything that has come due. A request is timed from its due
                // time, so the wait a long step imposed on it counts against it.
                while next < requests.len() && requests[next].due_us * 1000 <= driver.now_ns() {
                    let due_ns = requests[next].due_us * 1000;
                    log.push((requests[next].due_us, driver.now_ns() / 1000));
                    driver.submit(next, due_ns);
                    next += 1;
                }
                if driver.engine.has_work() {
                    driver.step();
                } else if next < requests.len() {
                    // Idle: jump the clock to the next arrival instead of sleeping.
                    let due_ns = requests[next].due_us * 1000;
                    driver.skipped_ns += due_ns.saturating_sub(driver.now_ns());
                } else {
                    break;
                }
            }
        }
        Loop::Closed { clients } | Loop::Net { clients } => {
            // Client `c` owns requests c, c + clients, ...; it submits the next one when
            // the previous one completed, so TTFT is service time, not queue wait.
            let mut next: Vec<usize> = (0..clients).collect();
            loop {
                for cursor in next.iter_mut() {
                    let busy = driver
                        .flights
                        .iter()
                        .any(|f| f.index % clients == *cursor % clients);
                    if !busy && *cursor < requests.len() {
                        let now_ns = driver.now_ns();
                        driver.submit(*cursor, now_ns);
                        *cursor += clients;
                    }
                }
                if !driver.engine.has_work() {
                    break;
                }
                driver.step();
            }
        }
    }
    let mut round = driver.finish();
    // How late the replayer ran: a round has too few arrivals for a percentile, so the worst.
    if let Some(lag_us) = log.iter().map(|&(due, submitted)| submitted - due).max() {
        round.extra("loadgen.lag_max_ms", lag_us as f64 / 1e3);
    }
    (round, log)
}

/// One timed cold start: model build, weight packing, engine construction and the first
/// request up to its first token.
pub fn cold_start(config: &realm::llm::ModelConfig, spec: &ServingSpec, first: &Request) -> f64 {
    let started = Instant::now();
    let model =
        Model::new(config, crate::workloads::MODEL_SEED).expect("the fixed config is valid");
    let mut engine = ServeEngine::new(&model, spec.serve_config());
    let (_, rx) = engine
        .submit(first.to_serve())
        .expect("generated requests are valid");
    while rx.try_recv().is_err() {
        engine.step().expect("a clean engine steps");
    }
    started.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{serving_requests, DECODE_STREAM, MIXED_OPEN, MODEL_SEED};
    use realm::llm::config::ModelConfig;

    fn tiny() -> Model {
        let config = ModelConfig {
            max_seq_len: 640,
            ..ModelConfig::tiny_llama()
        };
        Model::new(&config, MODEL_SEED).unwrap()
    }

    #[test]
    fn busy_clock_replay_submits_no_request_before_it_is_due() {
        let model = tiny();
        let requests = serving_requests(&MIXED_OPEN, 64, 5, 1);
        let reference = reference_tokens(&model, &requests);
        let (round, log) = run_round(&model, &MIXED_OPEN, &requests, &reference, None);
        assert_eq!(log.len(), requests.len(), "every request is submitted");
        for (request, &(due_us, submitted_us)) in requests.iter().zip(&log) {
            assert_eq!(due_us, request.due_us, "in schedule order");
            assert!(
                submitted_us >= due_us,
                "submitted {submitted_us} before due {due_us}"
            );
        }
        assert_eq!((round.attempted, round.failed), (requests.len() as u64, 0));
        assert_eq!(round.matched, round.generated);
        assert_eq!(round.ttft_ms.len(), requests.len());
        // The tiny model is busy for far less than the schedule's span: idle gaps were
        // skipped, not slept.
        let span_s = requests.last().unwrap().due_us as f64 / 1e6;
        assert!(round.wall_s < span_s);
    }

    #[test]
    fn closed_loop_completes_every_stream_bit_equal_to_solo_generation() {
        let model = tiny();
        let requests = serving_requests(&DECODE_STREAM, 64, 9, 1);
        let reference = reference_tokens(&model, &requests);
        let (round, log) = run_round(&model, &DECODE_STREAM, &requests, &reference, None);
        assert!(log.is_empty(), "a closed loop has no schedule");
        assert_eq!((round.attempted, round.failed), (requests.len() as u64, 0));
        assert_eq!(round.matched, round.generated);
        let generated: usize = requests.iter().map(|r| r.max_new_tokens).sum();
        assert_eq!(round.generated, generated as u64);
        assert_eq!(round.tpot_ms.len(), generated - requests.len());
        assert_eq!(
            round.tokens,
            requests.iter().map(Request::tokens).sum::<u64>()
        );
        // A wrong reference is caught, not averaged away.
        let mut wrong = reference.clone();
        wrong[0][0] ^= 1;
        let (round, _) = run_round(&model, &DECODE_STREAM, &requests, &wrong, None);
        assert_eq!(round.failed, 1);
        assert_eq!(round.matched + 1, round.generated);
    }
}
