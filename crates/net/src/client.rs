//! A minimal blocking HTTP client for the front end — used by the conformance and
//! resilience tests and by the repo benchmark's loopback workload.
//!
//! Two entry points:
//!
//! * [`http_request`] — one non-streaming request/response round trip (`/stats`,
//!   `/healthz`, `/admin/drain`, error paths of `/generate`).
//! * [`stream_generate`] — `POST /generate` consuming the chunked token stream
//!   incrementally, timestamping every event for TTFT/TPOT measurement, optionally
//!   disconnecting mid-stream to exercise cancel-on-disconnect.

use crate::http::{parse_response_head, ChunkDecoder, HttpResponse, ResponseParser};
use crate::wire::{encode_gen_body, parse_event, GenBody, WireEvent};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Outcome of one streamed `/generate` call.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// HTTP status line code (`200` for an accepted stream, `429` when shed, ...).
    pub status: u16,
    /// Value of the `Retry-After` header, when present (shed responses carry one).
    pub retry_after_secs: Option<u64>,
    /// Every parsed stream event, in arrival order (empty on non-`200` responses).
    pub events: Vec<WireEvent>,
    /// Nanoseconds from request write to the first token event (time-to-first-token);
    /// `None` when no token arrived.
    pub ttft_ns: Option<u64>,
    /// Nanoseconds between consecutive token events (time-per-output-token samples).
    pub tpot_ns: Vec<u64>,
    /// The generated tokens, in order.
    pub tokens: Vec<u32>,
    /// `true` when the client hung up early (`disconnect_after` triggered) — the stream
    /// is then intentionally incomplete and carries no terminal `done` event.
    pub disconnected: bool,
    /// Body of a non-`200` response (the server's human-readable refusal).
    pub error_body: String,
}

impl StreamResult {
    /// The terminal summary event, when the stream completed.
    pub fn done(&self) -> Option<&WireEvent> {
        self.events
            .iter()
            .find(|e| matches!(e, WireEvent::Done { .. }))
    }
}

/// Errors surfaced by the client helpers.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read or write).
    Io(std::io::Error),
    /// The server's bytes violated HTTP or the wire protocol.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client i/o error: {e}"),
            ClientError::Protocol(detail) => write!(f, "protocol error: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Performs one non-streaming HTTP round trip and returns the parsed response.
///
/// # Errors
///
/// [`ClientError::Io`] on socket failures; [`ClientError::Protocol`] when the server's
/// reply is not a complete HTTP response.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> Result<HttpResponse, ClientError> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: realm\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()?;
    let mut parser = ResponseParser::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(response) = parser
            .take_response()
            .map_err(|e| ClientError::Protocol(e.to_string()))?
        {
            return Ok(response);
        }
        match stream.read(&mut buf)? {
            0 => {
                return Err(ClientError::Protocol(
                    "connection closed mid-response".into(),
                ))
            }
            n => parser.feed(&buf[..n]),
        }
    }
}

/// Streams one `/generate` request, parsing token events as chunks arrive.
///
/// When `disconnect_after` is `Some(n)`, the socket is dropped as soon as the `n`-th
/// token event has been parsed — from the server's perspective an abrupt client
/// disconnect mid-stream, which must cancel the request and free its slot.
///
/// # Errors
///
/// [`ClientError::Io`] on socket failures; [`ClientError::Protocol`] on malformed HTTP
/// framing or unparseable stream lines.
pub fn stream_generate(
    addr: SocketAddr,
    body: &GenBody,
    disconnect_after: Option<usize>,
    timeout: Duration,
) -> Result<StreamResult, ClientError> {
    let payload = encode_gen_body(body);
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    write!(
        stream,
        "POST /generate HTTP/1.1\r\nHost: realm\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        payload.len()
    )?;
    stream.write_all(payload.as_bytes())?;
    stream.flush()?;
    let sent_at = Instant::now();

    // Read just past the response head, then hand the remainder to the chunk decoder.
    let mut head = Vec::new();
    let mut buf = [0u8; 4096];
    let (response, body_start) = loop {
        match stream.read(&mut buf)? {
            0 => {
                return Err(ClientError::Protocol(
                    "connection closed before head".into(),
                ))
            }
            n => head.extend_from_slice(&buf[..n]),
        }
        if let Some(parsed) =
            parse_response_head(&head).map_err(|e| ClientError::Protocol(e.to_string()))?
        {
            break parsed;
        }
        if head.len() > 64 * 1024 {
            return Err(ClientError::Protocol(
                "response head never terminated".into(),
            ));
        }
    };
    let status = response.status;

    let mut result = StreamResult {
        status,
        retry_after_secs: response.header("retry-after").and_then(|v| v.parse().ok()),
        events: Vec::new(),
        ttft_ns: None,
        tpot_ns: Vec::new(),
        tokens: Vec::new(),
        disconnected: false,
        error_body: String::new(),
    };

    if status != 200 {
        // Refusals close the connection; slurp whatever body follows for diagnostics.
        let mut rest = head[body_start..].to_vec();
        let mut tail = Vec::new();
        let _ = stream.read_to_end(&mut tail);
        rest.extend_from_slice(&tail);
        result.error_body = String::from_utf8_lossy(&rest).into_owned();
        return Ok(result);
    }

    // 200: the body is a chunked stream of newline-terminated wire events.
    let mut decoder = ChunkDecoder::new();
    decoder.feed(&head[body_start..]);
    let mut line_buf = Vec::new();
    let mut last_token_at: Option<Instant> = None;
    'outer: loop {
        while let Some(chunk) = decoder
            .next_chunk()
            .map_err(|e| ClientError::Protocol(e.to_string()))?
        {
            line_buf.extend_from_slice(&chunk);
            // A chunk boundary need not be a line boundary: split on '\n' ourselves.
            while let Some(nl) = line_buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = line_buf.drain(..=nl).collect();
                let line = std::str::from_utf8(&line)
                    .map_err(|_| ClientError::Protocol("stream line is not UTF-8".into()))?;
                let event = parse_event(line).map_err(ClientError::Protocol)?;
                let now = Instant::now();
                if let WireEvent::Token { token, .. } = &event {
                    match last_token_at {
                        None => result.ttft_ns = Some(nanos_since(sent_at, now)),
                        Some(prev) => result.tpot_ns.push(nanos_since(prev, now)),
                    }
                    last_token_at = Some(now);
                    result.tokens.push(*token);
                }
                result.events.push(event);
                if let Some(limit) = disconnect_after {
                    if result.events.len() >= limit {
                        result.disconnected = true;
                        drop(stream); // abrupt hang-up: the server must cancel
                        break 'outer;
                    }
                }
            }
        }
        if decoder.is_done() {
            break;
        }
        match stream.read(&mut buf)? {
            0 => {
                // Server ended the stream without a terminal chunk (engine shutdown).
                break;
            }
            n => decoder.feed(&buf[..n]),
        }
    }
    Ok(result)
}

/// Extracts one `"key":value` integer from the flat `/stats` JSON.
///
/// The stats document is the hand-formatted JSON from the server's
/// `GET /stats` route; this helper spares the tests a JSON parser for what is a flat
/// known-shape object.
pub fn stats_field(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn nanos_since(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_field_extracts_flat_integers() {
        let json = "{\"queue_depth\":3,\"requests_shed\":12,\"server\":{\"disconnects\":1}}";
        assert_eq!(stats_field(json, "queue_depth"), Some(3));
        assert_eq!(stats_field(json, "requests_shed"), Some(12));
        assert_eq!(stats_field(json, "disconnects"), Some(1));
        assert_eq!(stats_field(json, "absent"), None);
    }
}
