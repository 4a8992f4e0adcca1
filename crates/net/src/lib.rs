//! `realm-net`: a dependency-free network front end for the ReaLM serving engine, plus
//! the seeded load traces that drive it.
//!
//! Everything is built on `std::net` — no async runtime, no HTTP library:
//!
//! * [`http`] — incremental HTTP/1.1 request/response parsing, chunked
//!   transfer-encoding, and the response writers the server streams tokens through.
//! * [`wire`] — the application protocol: the `/generate` form body and the
//!   newline-framed token stream (margins as raw `f32` bits, so conformance tests can
//!   assert bit-identity with in-process generation).
//! * [`server`] — [`NetServer`]: thread-per-connection serving with a bounded accept
//!   pool, load shedding against a queue-age SLO (`429` + `Retry-After`),
//!   cancel-on-disconnect via [`realm_serve::TokenEvent`] channel teardown, and graceful
//!   drain.
//! * [`client`] — a blocking client ([`stream_generate`], [`http_request`]) used by the
//!   tests and the repo benchmark.
//! * [`trace`] — seeded bounded-Pareto arrival schedules over mixed
//!   prompt/budget/priority/policy workloads ([`generate_trace`]).
//!
//! # Example
//!
//! Serve a model over loopback, stream one request, then drain:
//!
//! ```
//! use realm_llm::{config::ModelConfig, Model};
//! use realm_net::{stream_generate, GenBody, NetConfig, NetServer};
//! use std::time::Duration;
//!
//! let model = Model::new(&ModelConfig::tiny_opt(), 1).unwrap();
//! let server = NetServer::bind(NetConfig::default()).unwrap();
//! let addr = server.local_addr();
//! let handle = server.handle();
//! std::thread::scope(|s| {
//!     let serving = s.spawn(|| server.serve(&model).unwrap());
//!     let body = GenBody {
//!         prompt: vec![1, 5, 9],
//!         max_new_tokens: 4,
//!         priority: 0,
//!         policy: Default::default(),
//!     };
//!     let result = stream_generate(addr, &body, None, Duration::from_secs(10)).unwrap();
//!     assert_eq!(result.status, 200);
//!     assert_eq!(result.tokens.len(), 4);
//!     handle.drain();
//!     let report = serving.join().unwrap();
//!     assert_eq!(report.engine.requests_completed, 1);
//! });
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod server;
pub mod trace;
pub mod wire;

pub use client::{http_request, stream_generate, ClientError, StreamResult};
pub use server::{NetConfig, NetReport, NetServer, ServerHandle};
pub use trace::{generate_trace, BoundedPareto, TraceConfig, TraceRequest};
pub use wire::{encode_gen_body, parse_event, parse_gen_body, GenBody, WireEvent};
