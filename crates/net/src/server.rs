//! The network front end: a thread-per-connection HTTP/1.1 server over [`ServeEngine`].
//!
//! # Architecture
//!
//! ```text
//!                bounded accept pool                      single engine thread
//!   clients ──▶ TcpListener ──▶ sync_channel(backlog) ──▶ worker 0..N ──┐
//!                  (accept loop)     ▲ blocks when full      │ EngineCmd │ mpsc
//!                                    │ = backpressure        ▼           ▼
//!                                              ServeEngine::submit / step loop
//!                                                 │ mpsc::Receiver<TokenEvent>
//!                                                 ▼
//!                               worker streams chunked token lines to the client
//! ```
//!
//! * **Backpressure** is structural: at most `workers` connections are served at once and
//!   at most `accept_backlog` accepted sockets wait in the hand-off channel; beyond that
//!   the accept loop blocks and further clients queue in the kernel listen backlog.
//! * **Load shedding** happens at admission, on the engine thread: when the oldest queued
//!   request's age in budgeted tokens ([`ServeEngine::oldest_token_age`]) meets the
//!   configured SLO, new requests are refused with `429` + `Retry-After` *before* they
//!   enter the queue — already-queued requests are never dropped, so shedding cannot
//!   starve them. Token age (work the engine did while the request waited) rather than
//!   step age keeps the SLO meaningful under chunked prefill, where a step's cost varies
//!   with [`realm_serve::ServeConfig::step_token_budget`].
//! * **Cancel-on-disconnect** rides the existing channel teardown: a failed chunk write
//!   makes the worker drop its [`TokenEvent`] receiver, the engine's next send fails, and
//!   the slot is released and counted in [`EngineStats::requests_cancelled`].
//! * **Graceful drain** ([`ServerHandle::drain`] or `POST /admin/drain`): the accept loop
//!   stops, new requests get `503`, in-flight streams run to completion, and
//!   [`NetServer::serve`] returns the final [`NetReport`].
//!
//! # Endpoints
//!
//! | Route | Effect |
//! |---|---|
//! | `POST /generate` | stream tokens (chunked); `429` under shed, `503` while draining |
//! | `GET /stats` | JSON snapshot of [`EngineStats`] + server counters |
//! | `GET /healthz` | `200 ok` — `503 draining` once drain began |
//! | `POST /admin/drain` | `202`, triggers graceful drain |

use crate::http::{
    write_chunk, write_final_chunk, write_response, write_stream_head, HttpRequest, RequestParser,
};
use crate::wire::{format_event, parse_gen_body};
use realm_llm::{GemmHook, Model};
use realm_serve::{EngineStats, ServeConfig, ServeEngine, ServeError, TokenEvent};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Configuration of the network front end.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address; use port 0 to let the OS pick (read it back via
    /// [`NetServer::local_addr`]).
    pub addr: String,
    /// Size of the bounded accept pool: connections served concurrently.
    pub workers: usize,
    /// Accepted sockets that may wait for a free worker before the accept loop blocks.
    pub accept_backlog: usize,
    /// Load-shedding SLO: refuse new requests with `429` once the engine has processed
    /// this many budgeted tokens (decode rows plus prefill-chunk rows) while the oldest
    /// queued request waited. `None` disables shedding.
    pub shed_queue_age_tokens: Option<u64>,
    /// Value of the `Retry-After` header on shed responses, in seconds.
    pub retry_after_secs: u64,
    /// Per-connection socket read timeout (an idle or stalled client frees its worker
    /// after this long).
    pub read_timeout: Duration,
    /// Configuration of the wrapped serving engine.
    pub serve: ServeConfig,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 8,
            accept_backlog: 16,
            shed_queue_age_tokens: Some(1024),
            retry_after_secs: 1,
            read_timeout: Duration::from_secs(10),
            serve: ServeConfig::default(),
        }
    }
}

/// Final accounting returned by [`NetServer::serve`] after a graceful drain.
#[derive(Debug, Clone, Copy)]
pub struct NetReport {
    /// The engine's final stats snapshot (includes `requests_shed` and cancellations).
    pub engine: EngineStats,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// HTTP requests parsed (across all routes).
    pub http_requests: u64,
    /// Token streams that ran to completion (terminal chunk delivered).
    pub streams_completed: u64,
    /// Token streams aborted because the client disconnected mid-stream.
    pub disconnects: u64,
}

#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    http_requests: AtomicU64,
    streams_completed: AtomicU64,
    disconnects: AtomicU64,
}

/// Cloneable controller for a bound server: address introspection and drain triggering.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    draining: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Begins a graceful drain: stop accepting connections, refuse new requests with
    /// `503`, finish in-flight streams, then return from [`NetServer::serve`].
    ///
    /// Idempotent; safe to call from any thread (including a connection handler).
    pub fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        // Wake the accept loop if it is blocked in accept(2): a throwaway connection to
        // ourselves makes it observe the flag. Errors are irrelevant (the listener may
        // already be gone).
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
    }
}

/// Commands the connection workers send to the engine thread.
enum EngineCmd {
    Submit {
        body: crate::wire::GenBody,
        reply: SyncSender<SubmitReply>,
    },
    Stats {
        reply: SyncSender<EngineStats>,
    },
}

/// The engine thread's answer to a submission attempt.
enum SubmitReply {
    Accepted {
        rx: Receiver<TokenEvent>,
    },
    Shed {
        retry_after_secs: u64,
        oldest_age_tokens: u64,
        slo_tokens: u64,
    },
    Rejected {
        detail: String,
    },
    Draining,
}

/// A bound, not-yet-serving network front end.
///
/// [`NetServer::bind`] reserves the socket (so the address is known and a
/// [`ServerHandle`] can be shared before serving begins); [`NetServer::serve`] then runs
/// the accept loop on the calling thread until a drain completes. Scoped threads make the
/// usual pattern ergonomic:
///
/// ```text
/// std::thread::scope(|s| {
///     s.spawn(|| server.serve(&model));
///     // ... drive clients against server.local_addr() ...
///     server.handle().drain();
/// });
/// ```
#[derive(Debug)]
pub struct NetServer {
    listener: TcpListener,
    config: NetConfig,
    draining: Arc<AtomicBool>,
    counters: Arc<Counters>,
}

impl NetServer {
    /// Binds the configured address without serving yet.
    ///
    /// # Errors
    ///
    /// Propagates the socket bind error.
    pub fn bind(config: NetConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Self {
            listener,
            config,
            draining: Arc::new(AtomicBool::new(false)),
            counters: Arc::new(Counters::default()),
        })
    }

    /// The bound socket address (resolves port 0 to the OS-assigned port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// A cloneable handle for drain control, usable from any thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.local_addr(),
            draining: Arc::clone(&self.draining),
        }
    }

    /// Serves `model` until a graceful drain completes; equivalent to
    /// [`NetServer::serve_with_hook`] without a fault hook.
    ///
    /// # Errors
    ///
    /// Propagates engine inference errors (unreachable for validated requests).
    pub fn serve(&self, model: &Model) -> Result<NetReport, ServeError> {
        self.serve_with_hook(model, None)
    }

    /// Serves `model`, optionally installing `hook` (typically a `realm-inject`
    /// `ErrorInjector`) ahead of the engine's protector, until a graceful drain
    /// completes. Blocks the calling thread for the server's whole lifetime.
    ///
    /// # Errors
    ///
    /// Propagates engine inference errors (unreachable for validated requests).
    pub fn serve_with_hook(
        &self,
        model: &Model,
        hook: Option<Box<dyn GemmHook + Send>>,
    ) -> Result<NetReport, ServeError> {
        let (cmd_tx, cmd_rx) = mpsc::channel::<EngineCmd>();
        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(self.config.accept_backlog.max(1));
        let conn_rx = Mutex::new(conn_rx);
        let engine_stats = std::thread::scope(|s| {
            let engine_thread =
                s.spawn(|| engine_loop(model, &self.config, hook, cmd_rx, &self.draining));
            let workers: Vec<_> = (0..self.config.workers.max(1))
                .map(|_| {
                    let cmd_tx = cmd_tx.clone();
                    let conn_rx = &conn_rx;
                    s.spawn(move || {
                        loop {
                            let next = conn_rx.lock().expect("connection queue lock").recv();
                            match next {
                                Ok(stream) => self.handle_connection(stream, &cmd_tx),
                                Err(_) => break, // accept loop ended and queue drained
                            }
                        }
                    })
                })
                .collect();
            // The workers hold the only remaining command senders: once the accept loop
            // ends and they finish their connections, the engine sees the channel close
            // and exits after its last in-flight request completes.
            drop(cmd_tx);

            for stream in self.listener.incoming() {
                if self.draining.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                self.counters.connections.fetch_add(1, Ordering::Relaxed);
                if conn_tx.send(stream).is_err() {
                    break;
                }
            }
            drop(conn_tx);
            for worker in workers {
                worker.join().expect("connection worker never panics");
            }
            engine_thread.join().expect("engine thread never panics")
        })?;
        Ok(NetReport {
            engine: engine_stats,
            connections: self.counters.connections.load(Ordering::Relaxed),
            http_requests: self.counters.http_requests.load(Ordering::Relaxed),
            streams_completed: self.counters.streams_completed.load(Ordering::Relaxed),
            disconnects: self.counters.disconnects.load(Ordering::Relaxed),
        })
    }

    /// Serves one connection: keep-alive request loop, routing, streaming.
    fn handle_connection(&self, mut stream: TcpStream, cmd_tx: &Sender<EngineCmd>) {
        let _ = stream.set_read_timeout(Some(self.config.read_timeout));
        let _ = stream.set_nodelay(true);
        let mut parser = RequestParser::new();
        let mut read_buf = [0u8; 4096];
        loop {
            // Pull the next complete request; pipelined requests already buffered are
            // served without touching the socket again.
            let request = loop {
                match parser.take_request() {
                    Ok(Some(request)) => break request,
                    Ok(None) => match stream.read(&mut read_buf) {
                        Ok(0) => return, // clean EOF between requests
                        Ok(n) => parser.feed(&read_buf[..n]),
                        Err(_) => return, // timeout or reset: free the worker
                    },
                    Err(e) => {
                        let (status, reason) = e.status();
                        let _ = write_response(
                            &mut stream,
                            status,
                            reason,
                            &[("Connection", "close".into())],
                            format!("{e}\n").as_bytes(),
                        );
                        return;
                    }
                }
            };
            self.counters.http_requests.fetch_add(1, Ordering::Relaxed);
            let close = request.wants_close() || self.draining.load(Ordering::SeqCst);
            if self.route(&mut stream, &request, cmd_tx).is_err() {
                return; // socket died mid-response
            }
            if close {
                return;
            }
        }
    }

    /// Dispatches one parsed request to its route handler.
    fn route(
        &self,
        stream: &mut TcpStream,
        request: &HttpRequest,
        cmd_tx: &Sender<EngineCmd>,
    ) -> std::io::Result<()> {
        let path = request.target.split('?').next().unwrap_or("");
        match (request.method.as_str(), path) {
            ("POST", "/generate") => self.route_generate(stream, request, cmd_tx),
            ("GET", "/stats") => self.route_stats(stream, cmd_tx),
            ("GET", "/healthz") => {
                if self.draining.load(Ordering::SeqCst) {
                    write_response(stream, 503, "Service Unavailable", &[], b"draining\n")
                } else {
                    write_response(stream, 200, "OK", &[], b"ok\n")
                }
            }
            ("POST", "/admin/drain") => {
                self.handle().drain();
                write_response(stream, 202, "Accepted", &[], b"draining\n")
            }
            ("POST" | "GET", _) => write_response(
                stream,
                404,
                "Not Found",
                &[],
                b"unknown route (try POST /generate, GET /stats, GET /healthz)\n",
            ),
            _ => write_response(
                stream,
                405,
                "Method Not Allowed",
                &[("Allow", "GET, POST".into())],
                b"method not allowed\n",
            ),
        }
    }

    /// `POST /generate`: submit through the engine thread, then stream the token events
    /// back as chunked lines.
    fn route_generate(
        &self,
        stream: &mut TcpStream,
        request: &HttpRequest,
        cmd_tx: &Sender<EngineCmd>,
    ) -> std::io::Result<()> {
        let Ok(body_str) = std::str::from_utf8(&request.body) else {
            return write_response(stream, 400, "Bad Request", &[], b"body is not UTF-8\n");
        };
        let body = match parse_gen_body(body_str) {
            Ok(body) => body,
            Err(detail) => {
                return write_response(
                    stream,
                    400,
                    "Bad Request",
                    &[],
                    format!("invalid generate body: {detail}\n").as_bytes(),
                )
            }
        };
        if self.draining.load(Ordering::SeqCst) {
            return write_response(stream, 503, "Service Unavailable", &[], b"draining\n");
        }
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        if cmd_tx
            .send(EngineCmd::Submit {
                body,
                reply: reply_tx,
            })
            .is_err()
        {
            return write_response(stream, 503, "Service Unavailable", &[], b"engine stopped\n");
        }
        match reply_rx.recv() {
            Ok(SubmitReply::Accepted { rx }) => self.stream_tokens(stream, rx),
            Ok(SubmitReply::Shed {
                retry_after_secs,
                oldest_age_tokens,
                slo_tokens,
            }) => write_response(
                stream,
                429,
                "Too Many Requests",
                &[("Retry-After", retry_after_secs.to_string())],
                format!(
                    "shed: oldest queued request was passed over for {oldest_age_tokens} \
                     budgeted tokens (SLO {slo_tokens}); retry after {retry_after_secs}s\n"
                )
                .as_bytes(),
            ),
            Ok(SubmitReply::Rejected { detail }) => write_response(
                stream,
                400,
                "Bad Request",
                &[],
                format!("{detail}\n").as_bytes(),
            ),
            Ok(SubmitReply::Draining) | Err(_) => {
                write_response(stream, 503, "Service Unavailable", &[], b"draining\n")
            }
        }
    }

    /// Streams a request's token events as one chunk per wire line. A failed write means
    /// the client disconnected: dropping `rx` is the cancellation signal the engine
    /// observes at its next commit.
    fn stream_tokens(
        &self,
        stream: &mut TcpStream,
        rx: Receiver<TokenEvent>,
    ) -> std::io::Result<()> {
        write_stream_head(stream)?;
        for event in rx.iter() {
            let done = matches!(event, TokenEvent::Done(_));
            if let Err(e) = write_chunk(stream, format_event(&event).as_bytes()) {
                // Client went away mid-stream: drop the receiver (cancelling the request
                // at the engine's next commit) and surface the abort in the counters.
                self.counters.disconnects.fetch_add(1, Ordering::Relaxed);
                drop(rx);
                return Err(e);
            }
            if done {
                write_final_chunk(stream)?;
                self.counters
                    .streams_completed
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
        }
        // The engine dropped the sender without a summary (it is shutting down after an
        // inference error). End the stream cleanly; the client sees a short body.
        write_final_chunk(stream)
    }

    /// `GET /stats`: JSON snapshot of engine stats + server counters.
    fn route_stats(
        &self,
        stream: &mut TcpStream,
        cmd_tx: &Sender<EngineCmd>,
    ) -> std::io::Result<()> {
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let stats = cmd_tx
            .send(EngineCmd::Stats { reply: reply_tx })
            .ok()
            .and_then(|()| reply_rx.recv().ok());
        match stats {
            Some(stats) => {
                let json = stats_json(&stats, &self.counters, self.draining.load(Ordering::SeqCst));
                let mut head = format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                    json.len()
                );
                head.push_str(&json);
                use std::io::Write;
                stream.write_all(head.as_bytes())?;
                stream.flush()
            }
            None => write_response(stream, 503, "Service Unavailable", &[], b"engine stopped\n"),
        }
    }
}

/// The engine thread: interleaves command handling (submit/stats) with decode steps.
/// Exits once every command sender is gone and no work remains — which is exactly the
/// graceful-drain condition (accept loop stopped, workers finished, streams delivered).
fn engine_loop(
    model: &Model,
    config: &NetConfig,
    hook: Option<Box<dyn GemmHook + Send>>,
    cmd_rx: Receiver<EngineCmd>,
    draining: &AtomicBool,
) -> Result<EngineStats, ServeError> {
    let mut serve = config.serve;
    // Shed protection before traffic: when the adaptive controller is on but no shed
    // pressure was configured, arm it at 3/4 of the front end's 429 SLO, so resilient
    // protection steps down while requests are still being accepted.
    if serve.adaptive.enabled && serve.adaptive.shed_pressure_tokens == 0 {
        if let Some(slo) = config.shed_queue_age_tokens {
            serve.adaptive.shed_pressure_tokens = (slo.saturating_mul(3) / 4).max(1);
        }
    }
    let mut engine = ServeEngine::new(model, serve);
    if let Some(hook) = hook {
        engine = engine.with_fault_hook(hook);
    }
    let mut senders_live = true;
    loop {
        // Drain all pending commands so a burst of submissions lands in the same
        // admission round.
        while senders_live {
            match cmd_rx.try_recv() {
                Ok(cmd) => handle_cmd(&mut engine, config, draining, cmd),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => senders_live = false,
            }
        }
        if engine.has_work() {
            engine.step()?;
            continue;
        }
        if !senders_live {
            break;
        }
        // Idle: block briefly for the next command instead of spinning.
        match cmd_rx.recv_timeout(Duration::from_millis(2)) {
            Ok(cmd) => handle_cmd(&mut engine, config, draining, cmd),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => senders_live = false,
        }
    }
    Ok(engine.stats())
}

/// Handles one command on the engine thread (the only thread that touches the engine).
fn handle_cmd(
    engine: &mut ServeEngine<'_>,
    config: &NetConfig,
    draining: &AtomicBool,
    cmd: EngineCmd,
) {
    match cmd {
        EngineCmd::Submit { body, reply } => {
            let outcome = if draining.load(Ordering::SeqCst) {
                SubmitReply::Draining
            } else if let (Some(slo), Some(age)) =
                (config.shed_queue_age_tokens, engine.oldest_token_age())
            {
                if age >= slo {
                    engine.note_shed();
                    SubmitReply::Shed {
                        retry_after_secs: config.retry_after_secs,
                        oldest_age_tokens: age,
                        slo_tokens: slo,
                    }
                } else {
                    submit(engine, &body)
                }
            } else {
                submit(engine, &body)
            };
            let _ = reply.send(outcome); // worker may have died with its socket
        }
        EngineCmd::Stats { reply } => {
            let _ = reply.send(engine.stats());
        }
    }
}

fn submit(engine: &mut ServeEngine<'_>, body: &crate::wire::GenBody) -> SubmitReply {
    match engine.submit(body.to_request()) {
        Ok((_, rx)) => SubmitReply::Accepted { rx },
        Err(e) => SubmitReply::Rejected {
            detail: e.to_string(),
        },
    }
}

/// Hand-formatted JSON for `GET /stats` (no serialization dependency on the wire path).
fn stats_json(s: &EngineStats, c: &Counters, draining: bool) -> String {
    format!(
        concat!(
            "{{\"queue_depth\":{},\"active_slots\":{},\"total_slots\":{},\"steps\":{},",
            "\"token_clock\":{},\"prefill_chunks\":{},",
            "\"tokens_generated\":{},\"requests_submitted\":{},\"requests_admitted\":{},",
            "\"requests_completed\":{},\"requests_cancelled\":{},\"requests_shed\":{},",
            "\"queue_oldest_age_steps\":{},\"queue_oldest_age_tokens\":{},",
            "\"detections\":{},\"recoveries\":{},",
            "\"policy_escalations\":{},\"policy_deescalations\":{},",
            "\"protection_shed_steps\":{},",
            "\"steps_at_scheme\":[{},{},{},{},{},{},{}],",
            "\"tokens_per_second\":{:.1},\"decode_p50_us\":{:.1},\"decode_p99_us\":{:.1},",
            "\"decode_stall_p99_us\":{:.1},\"step_budget_utilization\":{:.3},",
            "\"server\":{{\"connections\":{},\"http_requests\":{},",
            "\"streams_completed\":{},\"disconnects\":{},\"draining\":{}}}}}\n"
        ),
        s.queue_depth,
        s.active_slots,
        s.total_slots,
        s.steps,
        s.token_clock,
        s.prefill_chunks,
        s.tokens_generated,
        s.requests_submitted,
        s.requests_admitted,
        s.requests_completed,
        s.requests_cancelled,
        s.requests_shed,
        s.queue_oldest_age_steps,
        s.queue_oldest_age_tokens,
        s.detections,
        s.recoveries,
        s.policy_escalations,
        s.policy_deescalations,
        s.protection_shed_steps,
        s.steps_at_scheme[0],
        s.steps_at_scheme[1],
        s.steps_at_scheme[2],
        s.steps_at_scheme[3],
        s.steps_at_scheme[4],
        s.steps_at_scheme[5],
        s.steps_at_scheme[6],
        s.tokens_per_second,
        s.decode_p50_us,
        s.decode_p99_us,
        s.decode_stall_p99_us,
        s.step_budget_utilization,
        c.connections.load(Ordering::Relaxed),
        c.http_requests.load(Ordering::Relaxed),
        c.streams_completed.load(Ordering::Relaxed),
        c.disconnects.load(Ordering::Relaxed),
        draining
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let config = NetConfig::default();
        assert!(config.workers >= 1);
        assert!(config.accept_backlog >= 1);
        assert!(config.shed_queue_age_tokens.unwrap() > 0);
        assert_eq!(config.addr, "127.0.0.1:0");
    }

    #[test]
    fn bind_resolves_port_zero_and_handles_share_the_flag() {
        let server = NetServer::bind(NetConfig::default()).unwrap();
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0);
        let handle = server.handle();
        assert_eq!(handle.addr, addr);
        let draining = |h: &ServerHandle| h.draining.load(Ordering::SeqCst);
        assert!(!draining(&handle));
        handle.drain();
        assert!(draining(&handle), "drain is visible through every handle");
        assert!(draining(&server.handle()));
    }

    #[test]
    fn stats_json_is_parseable_shape() {
        let server = NetServer::bind(NetConfig::default()).unwrap();
        let model = realm_llm::Model::new(&realm_llm::config::ModelConfig::tiny_opt(), 1).unwrap();
        let engine = ServeEngine::new(&model, ServeConfig::with_slots(1));
        let json = stats_json(&engine.stats(), &server.counters, false);
        assert!(json.contains("\"queue_depth\":0"));
        assert!(json.contains("\"requests_shed\":0"));
        assert!(json.contains("\"queue_oldest_age_tokens\":0"));
        assert!(json.contains("\"token_clock\":0"));
        assert!(json.contains("\"prefill_chunks\":0"));
        assert!(json.contains("\"decode_stall_p99_us\":0.0"));
        assert!(json.contains("\"step_budget_utilization\":0.000"));
        assert!(json.contains("\"policy_escalations\":0"));
        assert!(json.contains("\"policy_deescalations\":0"));
        assert!(json.contains("\"protection_shed_steps\":0"));
        assert!(json.contains("\"steps_at_scheme\":[0,0,0,0,0,0,0]"));
        assert!(json.contains("\"draining\":false"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
