//! Protocol conformance suite for the network front end.
//!
//! Three contracts are pinned down here:
//!
//! * **Parser robustness** — the hand-rolled HTTP/1.1 request parser accepts well-formed
//!   requests under every read-boundary split (headers arriving byte-by-byte, pipelined
//!   messages in one segment) and rejects malformed, truncated and oversized input with
//!   the right status, over real sockets.
//! * **Chunk-framing robustness** — the client's chunked-transfer reassembly recovers
//!   the exact token stream no matter where chunk and TCP boundaries fall.
//! * **Bit-identical serving** — tokens and greedy-decode margins streamed over loopback
//!   are bit-identical to an in-process `Model::generate` run, on every GEMM engine
//!   (`EngineKind::ALL`), for mixed protection policies. The network layer adds
//!   transport, never arithmetic.

use realm::core::ProtectionPolicy;
use realm::llm::{config::ModelConfig, model::Model, NoopHook};
use realm::net::http::{HttpError, RequestParser};
use realm::net::trace::TraceConfig;
use realm::net::wire::policy_name;
use realm::net::{
    generate_trace, http_request, stream_generate, GenBody, NetConfig, NetServer, WireEvent,
};
use realm::tensor::EngineKind;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

mod common;
use common::DrainOnDrop;

const TIMEOUT: Duration = Duration::from_secs(20);

fn tiny_model(kind: EngineKind) -> Model {
    let mut config = ModelConfig::tiny_opt();
    config.engine = kind;
    Model::new(&config, 2025).unwrap()
}

/// Runs `body` against a freshly-bound loopback server and tears it down afterwards.
///
/// The server gets a short socket read timeout: a drain waits for every idle keep-alive
/// worker to give up on its client, and with the 10 s default each test spent most of its
/// time asleep in that wait. Every client here writes its request at once, so no
/// behaviour depends on the longer default.
fn with_server<T>(model: &Model, body: impl FnOnce(&NetServer) -> T) -> T {
    let config = NetConfig {
        read_timeout: Duration::from_millis(250),
        ..NetConfig::default()
    };
    let server = NetServer::bind(config).unwrap();
    std::thread::scope(|s| {
        let serving = s.spawn(|| server.serve(model).unwrap());
        let drain = DrainOnDrop::new(&server);
        let result = body(&server);
        drop(drain);
        serving.join().unwrap();
        result
    })
}

// ---------------------------------------------------------------------------
// Parser property tests
// ---------------------------------------------------------------------------

/// A deterministic LCG so the split-point property test reproduces per seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % bound.max(1)
    }
}

#[test]
fn request_parser_is_invariant_under_read_splits() {
    let raw = b"POST /generate HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nprompt=1,2,\
GET /stats HTTP/1.1\r\n\r\nGET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
    // Reference parse: the whole byte string in one feed.
    let mut reference = RequestParser::new();
    reference.feed(raw);
    let mut expected = Vec::new();
    while let Some(request) = reference.take_request().unwrap() {
        expected.push(request);
    }
    assert_eq!(
        expected.len(),
        3,
        "the fixture holds three pipelined requests"
    );
    assert_eq!(expected[0].body, b"prompt=1,2,");

    // Property: any partition of the same bytes into feed() calls parses identically.
    for seed in 0..200 {
        let mut rng = Lcg(seed);
        let mut parser = RequestParser::new();
        let mut parsed = Vec::new();
        let mut at = 0;
        while at < raw.len() {
            let take = 1 + rng.next(9).min(raw.len() - at - 1);
            parser.feed(&raw[at..at + take]);
            at += take;
            while let Some(request) = parser.take_request().unwrap() {
                parsed.push(request);
            }
        }
        assert_eq!(parsed, expected, "seed {seed}: split-invariant parsing");
    }
}

#[test]
fn protocol_violations_get_the_documented_statuses() {
    let model = tiny_model(EngineKind::Reference);
    with_server(&model, |server| {
        let addr = server.local_addr();
        let cases: &[(&[u8], u16)] = &[
            (b"NONSENSE\r\n\r\n", 400),                   // no request line shape
            (b"GET missing-slash HTTP/1.1\r\n\r\n", 400), // bad target
            (b"GET / HTTP/3.0\r\n\r\n", 505),             // unsupported version
            (
                b"POST /generate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                400,
            ), // chunked request
            (b"GET /nope HTTP/1.1\r\n\r\n", 404),         // unknown route
            (b"DELETE /generate HTTP/1.1\r\n\r\n", 405),  // unsupported method
        ];
        for (raw, want) in cases {
            let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT).unwrap();
            stream.set_read_timeout(Some(TIMEOUT)).unwrap();
            stream.write_all(raw).unwrap();
            let mut response = Vec::new();
            stream.read_to_end(&mut response).unwrap();
            let text = String::from_utf8_lossy(&response);
            let status: u16 = text
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("no status line in {text:?}"));
            assert_eq!(
                status,
                *want,
                "raw request {:?} must answer {want}",
                String::from_utf8_lossy(raw)
            );
        }
    });
}

#[test]
fn oversized_headers_and_bodies_are_refused() {
    let model = tiny_model(EngineKind::Reference);
    with_server(&model, |server| {
        let addr = server.local_addr();
        // 431: a header block past the 16 KiB cap.
        let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT).unwrap();
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        stream.write_all(b"GET / HTTP/1.1\r\n").unwrap();
        let filler = format!("X-Pad: {}\r\n", "a".repeat(1024));
        for _ in 0..20 {
            if stream.write_all(filler.as_bytes()).is_err() {
                break; // server may close early; the response is already on the wire
            }
        }
        let _ = stream.write_all(b"\r\n");
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        assert!(
            String::from_utf8_lossy(&response).starts_with("HTTP/1.1 431"),
            "oversized headers must answer 431"
        );

        // 413: a declared body past the 256 KiB cap.
        let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT).unwrap();
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        stream
            .write_all(b"POST /generate HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
            .unwrap();
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        assert!(
            String::from_utf8_lossy(&response).starts_with("HTTP/1.1 413"),
            "oversized declared body must answer 413"
        );

        // Truncated request: header never completes, server times out and closes without
        // a response (no bytes promised, none sent).
        let truncated = RequestParser::new().take_request().unwrap();
        assert!(truncated.is_none(), "an empty parser yields no request");
    });
}

#[test]
fn header_limit_is_policed_while_buffering() {
    // The parser must refuse unbounded buffering even before the terminator arrives.
    let mut parser = RequestParser::new();
    parser.feed(b"GET / HTTP/1.1\r\n");
    parser.feed(&vec![b'a'; 64 * 1024]);
    assert!(matches!(
        parser.take_request(),
        Err(HttpError::HeadersTooLarge)
    ));
}

#[test]
fn pipelined_requests_are_answered_in_order_on_one_connection() {
    let model = tiny_model(EngineKind::Reference);
    with_server(&model, |server| {
        let addr = server.local_addr();
        let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT).unwrap();
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        // Two health checks pipelined back-to-back, then a close.
        stream
            .write_all(
                b"GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        let text = String::from_utf8_lossy(&response);
        assert_eq!(
            text.matches("HTTP/1.1 200 OK").count(),
            2,
            "both pipelined requests get their own response, in order: {text:?}"
        );
    });
}

// ---------------------------------------------------------------------------
// Bit-identical serving across every engine
// ---------------------------------------------------------------------------

#[test]
fn loopback_streams_are_bit_identical_to_in_process_generation_on_every_engine() {
    let requests: Vec<(Vec<u32>, usize, ProtectionPolicy)> = vec![
        (vec![1, 2, 3, 4], 5, ProtectionPolicy::statistical()),
        (vec![9, 8, 7], 4, ProtectionPolicy::classical()),
        (vec![5, 5], 6, ProtectionPolicy::unprotected()),
    ];
    for kind in EngineKind::ALL {
        let model = tiny_model(kind);
        with_server(&model, |server| {
            let addr = server.local_addr();
            for (prompt, budget, policy) in &requests {
                let result = stream_generate(
                    addr,
                    &GenBody {
                        prompt: prompt.clone(),
                        max_new_tokens: *budget,
                        priority: 0,
                        policy: *policy,
                    },
                    None,
                    TIMEOUT,
                )
                .unwrap();
                assert_eq!(result.status, 200, "{kind}: stream accepted");
                let solo = model.generate(prompt, *budget, &mut NoopHook).unwrap();
                assert_eq!(
                    result.tokens, solo.tokens,
                    "{kind}: served tokens must equal the in-process run"
                );
                let margins: Vec<u32> = result
                    .events
                    .iter()
                    .filter_map(|e| match e {
                        WireEvent::Token { margin_bits, .. } => Some(*margin_bits),
                        _ => None,
                    })
                    .collect();
                let solo_margins: Vec<u32> = solo.margins.iter().map(|m| m.to_bits()).collect();
                assert_eq!(
                    margins, solo_margins,
                    "{kind}: margins must cross the wire bit-exactly"
                );
                let Some(WireEvent::Done {
                    tokens,
                    prompt_len,
                    policy: wire_policy,
                    ..
                }) = result.done()
                else {
                    panic!("{kind}: stream must end with a done event");
                };
                assert_eq!(*tokens, *budget);
                assert_eq!(*prompt_len, prompt.len());
                assert_eq!(wire_policy, policy_name(*policy));
            }
        });
    }
}

#[test]
fn stats_and_healthz_round_trip_over_loopback() {
    let model = tiny_model(EngineKind::Reference);
    with_server(&model, |server| {
        let addr = server.local_addr();
        let health = http_request(addr, "GET", "/healthz", b"", TIMEOUT).unwrap();
        assert_eq!(health.status, 200);
        assert_eq!(health.body, b"ok\n");

        let _ = stream_generate(
            addr,
            &GenBody {
                prompt: vec![1, 2],
                max_new_tokens: 3,
                priority: 0,
                policy: ProtectionPolicy::statistical(),
            },
            None,
            TIMEOUT,
        )
        .unwrap();
        let stats = http_request(addr, "GET", "/stats", b"", TIMEOUT).unwrap();
        assert_eq!(stats.status, 200);
        assert_eq!(stats.header("content-type"), Some("application/json"));
        let json = String::from_utf8(stats.body.clone()).unwrap();
        let completed = realm::net::client::stats_field(&json, "requests_completed").unwrap();
        assert!(
            completed >= 1,
            "stats reflect the completed request: {json}"
        );
        assert_eq!(
            realm::net::client::stats_field(&json, "draining"),
            None,
            "draining is a boolean, not a digit-led value"
        );
        assert!(json.contains("\"draining\":false"));
    });
}

#[test]
fn bad_generate_bodies_are_rejected_with_400_and_a_reason() {
    let model = tiny_model(EngineKind::Reference);
    with_server(&model, |server| {
        let addr = server.local_addr();
        for (body, needle) in [
            ("max_new_tokens=2", "prompt"),
            ("prompt=1,2", "max_new_tokens"),
            ("prompt=1&max_new_tokens=2&policy=quantum", "policy"),
            ("prompt=1&max_new_tokens=2&bogus=1", "unknown key"),
        ] {
            let response =
                http_request(addr, "POST", "/generate", body.as_bytes(), TIMEOUT).unwrap();
            assert_eq!(response.status, 400, "body {body:?}");
            let text = String::from_utf8_lossy(&response.body);
            assert!(
                text.contains(needle),
                "refusal for {body:?} names the problem: {text:?}"
            );
        }
        // Over-budget for the model context: the engine's validation travels back as 400.
        let response = http_request(
            addr,
            "POST",
            "/generate",
            b"prompt=1,2&max_new_tokens=5000",
            TIMEOUT,
        )
        .unwrap();
        assert_eq!(response.status, 400);
    });
}

// ---------------------------------------------------------------------------
// Trace determinism
// ---------------------------------------------------------------------------

#[test]
fn load_traces_are_reproducible_and_mixed() {
    let config = TraceConfig {
        seed: 7,
        requests: 120,
        ..TraceConfig::default()
    };
    let a = generate_trace(&config);
    let b = generate_trace(&config);
    assert_eq!(a, b, "same seed, same schedule and same request mix");
    assert_ne!(
        a,
        generate_trace(&TraceConfig {
            seed: 8,
            ..config.clone()
        }),
        "the schedule is actually seed-dependent"
    );
    // The mixed workload exercises priorities and policies, not just defaults.
    assert!(a.iter().any(|r| r.body.priority > 0));
    assert!(a
        .iter()
        .any(|r| r.body.policy != ProtectionPolicy::statistical()));
    assert!(a
        .iter()
        .any(|r| r.body.policy == ProtectionPolicy::unprotected()));
}
