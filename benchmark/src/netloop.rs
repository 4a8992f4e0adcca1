//! The `net_loopback` driver: client threads streaming over a loopback `NetServer`.
//!
//! The model work is that of `decode_stream` with two streams; what is added is the
//! request parser, the wire codec, the channel hop to the engine thread and one chunk
//! write per token. TTFT and TPOT are read at the client socket by the repo's own
//! `stream_generate`.

use crate::serving::Round;
use crate::trace::{Recorder, TimingHook};
use crate::workloads::{Request, ServingSpec, MODEL_SEED, SLOTS};
use realm::llm::{GemmHook, Model, ModelConfig};
use realm::net::{stream_generate, NetConfig, NetReport, NetServer};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

fn net_config(spec: &ServingSpec) -> NetConfig {
    NetConfig {
        workers: 2,
        // Shedding off: a refused request would be a failed one, and the closed loop
        // never builds a backlog to shed.
        shed_queue_age_tokens: None,
        serve: spec.serve_config(),
        ..NetConfig::default()
    }
}

/// A running server and what its clients have asked of it so far.
pub struct Server {
    pub addr: SocketAddr,
    /// Streams the clients saw complete, and requests they sent.
    pub completed: std::cell::Cell<u64>,
    pub sent: std::cell::Cell<u64>,
}

/// Serves `model` on loopback for the duration of `body` — one plain server and, when a
/// recorder is given, a second one with the timing hook installed — then drains both and
/// checks each server's own accounting against what its clients counted.
///
/// Returns `body`'s result, the plain server's report and whether every count agreed.
pub fn with_servers<R>(
    model: &Model,
    spec: &ServingSpec,
    recorder: Option<&Arc<Recorder>>,
    body: impl FnOnce(&Server, Option<&Server>) -> R,
) -> (R, NetReport, bool) {
    let bind = || NetServer::bind(net_config(spec)).expect("loopback port 0 binds");
    let plain = bind();
    let traced = recorder.map(|_| bind());
    let state = |server: &NetServer| Server {
        addr: server.local_addr(),
        completed: Default::default(),
        sent: Default::default(),
    };
    let plain_state = state(&plain);
    let traced_state = traced.as_ref().map(state);
    std::thread::scope(|s| {
        let plain_thread = s.spawn(|| plain.serve(model));
        let traced_thread = traced.as_ref().map(|server| {
            let hook: Box<dyn GemmHook + Send> = Box::new(TimingHook::new(
                Arc::clone(recorder.expect("a traced server has a recorder")),
                true,
            ));
            s.spawn(move || server.serve_with_hook(model, Some(hook)))
        });
        let result = body(&plain_state, traced_state.as_ref());
        plain.handle().drain();
        let plain_report = plain_thread
            .join()
            .expect("the serving thread does not panic")
            .expect("a clean engine serves without error");
        let mut agreed = accounting_agrees(&plain_report, &plain_state);
        if let (Some(server), Some(thread), Some(state)) = (&traced, traced_thread, &traced_state) {
            server.handle().drain();
            let report = thread
                .join()
                .expect("the serving thread does not panic")
                .expect("a clean engine serves without error");
            agreed &= accounting_agrees(&report, state);
        }
        (result, plain_report, agreed)
    })
}

/// After drain, the server's report must equal what its clients counted.
fn accounting_agrees(report: &NetReport, server: &Server) -> bool {
    let (completed, sent) = (server.completed.get(), server.sent.get());
    let agreed = report.streams_completed == completed
        && report.engine.requests_completed == completed
        && report.engine.requests_submitted == sent
        && report.http_requests == sent
        && report.connections == sent
        && report.disconnects == 0
        && report.engine.requests_cancelled == 0
        && report.engine.requests_shed == 0;
    if !agreed {
        eprintln!(
            "net_loopback: server accounting {report:?} disagrees with clients \
             (sent {sent}, completed {completed})"
        );
    }
    agreed
}

/// One round: each client thread streams its requests one after another.
pub fn run_round(
    server: &Server,
    clients: usize,
    requests: &[Request],
    reference: &[Vec<u32>],
    recorder: Option<&Arc<Recorder>>,
) -> Round {
    let origin = recorder.map_or_else(Instant::now, |r| r.origin());
    let started = origin.elapsed();
    let addr = server.addr;
    // Per client: what it measured and the seconds it spent with a stream open.
    let per_client: Vec<(Round, f64)> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..clients)
            .map(|client| {
                s.spawn(move || {
                    let mut round = Round::default();
                    let mut busy_s = 0.0;
                    for index in (client..requests.len()).step_by(clients) {
                        let request = &requests[index];
                        round.attempted += 1;
                        let sent_ns = origin.elapsed().as_nanos() as u64;
                        let streamed =
                            stream_generate(addr, &request.to_body(), None, CLIENT_TIMEOUT);
                        let done_ns = origin.elapsed().as_nanos() as u64;
                        busy_s += (done_ns - sent_ns) as f64 / 1e9;
                        match streamed {
                            Ok(result) if result.status == 200 && result.done().is_some() => {
                                round.check_stream(request, &result.tokens, &reference[index]);
                                round
                                    .ttft_ms
                                    .extend(result.ttft_ns.map(|ns| ns as f64 / 1e6));
                                round
                                    .tpot_ms
                                    .extend(result.tpot_ns.iter().map(|&ns| ns as f64 / 1e6));
                            }
                            // Refused, cut short or unparseable: a failed request.
                            _ => round.failed += 1,
                        }
                        if let Some(recorder) = recorder {
                            // The client cannot see `submit`: the whole exchange is the
                            // request span and its submit child is empty.
                            recorder.request(index as u64, sent_ns, (sent_ns, sent_ns), done_ns);
                        }
                    }
                    (round, busy_s)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client threads do not panic"))
            .collect()
    });
    let mut round = Round {
        wall_s: (origin.elapsed() - started).as_secs_f64(),
        ..Round::default()
    };
    let mut busy_s = 0.0;
    for (client, client_busy_s) in per_client {
        round.tokens += client.tokens;
        round.attempted += client.attempted;
        round.failed += client.failed;
        round.generated += client.generated;
        round.matched += client.matched;
        round.ttft_ms.extend(client.ttft_ms);
        round.tpot_ms.extend(client.tpot_ms);
        busy_s += client_busy_s;
    }
    server.sent.set(server.sent.get() + round.attempted);
    server
        .completed
        .set(server.completed.get() + round.attempted - round.failed);
    // Little's law from the client side: streams in flight, averaged over the round.
    round.extra(
        "serve.slot_occupancy",
        busy_s / (round.wall_s * SLOTS as f64),
    );
    round.extra("serve.queue_depth.mean", 0.0);
    round
}

/// One timed cold start: model build, bind, accept loop and engine thread up, and the
/// first request until its first token has crossed the socket.
pub fn cold_start(config: &ModelConfig, spec: &ServingSpec, first: &Request) -> f64 {
    let started = Instant::now();
    let model = Model::new(config, MODEL_SEED).expect("the fixed config is valid");
    let server = NetServer::bind(net_config(spec)).expect("loopback port 0 binds");
    let addr = server.local_addr();
    // A one-token budget ends the stream at the first token.
    let body = realm::net::GenBody {
        max_new_tokens: 1,
        ..first.to_body()
    };
    std::thread::scope(|s| {
        let serving = s.spawn(|| server.serve(&model));
        let streamed = stream_generate(addr, &body, None, CLIENT_TIMEOUT);
        let elapsed = started.elapsed().as_secs_f64();
        server.handle().drain();
        let _ = serving.join();
        assert!(
            streamed.is_ok_and(|r| r.tokens.len() == 1),
            "the cold-start request streams its first token"
        );
        elapsed
    })
}
