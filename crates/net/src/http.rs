//! Hand-rolled HTTP/1.1 framing: incremental request/response parsers and chunked
//! transfer encoding, on nothing but `std`.
//!
//! Both parsers are *incremental*: bytes arrive via [`RequestParser::feed`] /
//! [`ResponseParser::feed`] in whatever fragments the socket produced — a header split
//! across two `read()`s, three pipelined requests in one segment — and `take_*` yields a
//! message only once it is complete, leaving any following bytes buffered for the next
//! call. That property (parse output independent of read segmentation) is what the
//! property tests in `tests/net_protocol.rs` pin down.
//!
//! Limits are enforced while buffering, not after: a client cannot make the server buffer
//! more than [`MAX_HEADER_BYTES`] of headers or announce more than [`MAX_BODY_BYTES`] of
//! body. Violations surface as typed [`HttpError`]s that map onto response status codes.

use std::io::{self, Write};

/// Maximum bytes of request line + headers the server will buffer before answering 431.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Maximum request body size the server will accept before answering 413.
pub const MAX_BODY_BYTES: usize = 256 * 1024;

/// Protocol violations detected while parsing, each mapping to one response status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The bytes are not a well-formed HTTP/1.x message (400).
    Malformed(String),
    /// The request line + headers exceed [`MAX_HEADER_BYTES`] (431).
    HeadersTooLarge,
    /// The announced body exceeds [`MAX_BODY_BYTES`] (413).
    BodyTooLarge,
    /// The message names an HTTP version other than 1.0/1.1 (505).
    UnsupportedVersion(String),
}

impl HttpError {
    /// The response status code and reason phrase this error maps to.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::Malformed(_) => (400, "Bad Request"),
            HttpError::HeadersTooLarge => (431, "Request Header Fields Too Large"),
            HttpError::BodyTooLarge => (413, "Content Too Large"),
            HttpError::UnsupportedVersion(_) => (505, "HTTP Version Not Supported"),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(detail) => write!(f, "malformed HTTP message: {detail}"),
            HttpError::HeadersTooLarge => {
                write!(f, "request headers exceed {MAX_HEADER_BYTES} bytes")
            }
            HttpError::BodyTooLarge => write!(f, "request body exceeds {MAX_BODY_BYTES} bytes"),
            HttpError::UnsupportedVersion(v) => write!(f, "unsupported HTTP version '{v}'"),
        }
    }
}

impl std::error::Error for HttpError {}

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Request target (`/generate`, `/stats?x=1`, ...).
    pub target: String,
    /// Protocol version (`HTTP/1.1` or `HTTP/1.0`).
    pub version: String,
    /// Header name/value pairs in arrival order (names as sent; lookup is case-insensitive).
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Case-insensitive header lookup returning the first matching value.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// `true` when the client asked to close the connection after this exchange
    /// (`Connection: close`, or HTTP/1.0 without `Connection: keep-alive`).
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => true,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
            _ => self.version == "HTTP/1.0",
        }
    }
}

/// Incremental request parser for one connection.
///
/// Feed whatever the socket yielded, then call [`RequestParser::take_request`] until it
/// returns `Ok(None)` (needs more bytes). Pipelined requests are handled naturally: each
/// `take_request` consumes exactly one message and leaves the rest buffered.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
}

impl RequestParser {
    /// An empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `bytes` to the internal buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts one complete request from the front of the buffer.
    ///
    /// Returns `Ok(None)` when the buffered bytes are a valid *prefix* of a request
    /// (truncated header or body) — feed more and retry.
    ///
    /// # Errors
    ///
    /// Returns an [`HttpError`] as soon as the buffered prefix cannot be a valid request;
    /// the connection should answer with [`HttpError::status`] and close.
    pub fn take_request(&mut self) -> Result<Option<HttpRequest>, HttpError> {
        let Some(header_end) = find_double_crlf(&self.buf) else {
            if self.buf.len() > MAX_HEADER_BYTES {
                return Err(HttpError::HeadersTooLarge);
            }
            return Ok(None);
        };
        if header_end > MAX_HEADER_BYTES {
            return Err(HttpError::HeadersTooLarge);
        }
        let head = std::str::from_utf8(&self.buf[..header_end])
            .map_err(|_| HttpError::Malformed("header bytes are not UTF-8".into()))?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let (method, target, version) = parse_request_line(request_line)?;
        let headers = parse_header_lines(lines)?;
        let header_view = |name: &str| {
            headers
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.as_str())
        };
        if header_view("transfer-encoding").is_some() {
            // The server streams chunked *responses* but deliberately refuses chunked
            // request bodies: every client in this workspace sends Content-Length, and
            // rejecting the unused path keeps the request parser small enough to test
            // exhaustively.
            return Err(HttpError::Malformed(
                "chunked request bodies are not supported; send Content-Length".into(),
            ));
        }
        let body_len = match header_view("content-length") {
            None => 0,
            Some(v) => v
                .trim()
                .parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("invalid Content-Length '{v}'")))?,
        };
        if body_len > MAX_BODY_BYTES {
            return Err(HttpError::BodyTooLarge);
        }
        let total = header_end + 4 + body_len;
        if self.buf.len() < total {
            return Ok(None); // body still in flight
        }
        let body = self.buf[header_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(HttpRequest {
            method,
            target,
            version,
            headers,
            body,
        }))
    }
}

/// One parsed HTTP response (body fully reassembled, chunked or not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Reason phrase as sent.
    pub reason: String,
    /// Header name/value pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The reassembled body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// Case-insensitive header lookup returning the first matching value.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Incremental response parser (client side), reassembling chunked bodies.
#[derive(Debug, Default)]
pub struct ResponseParser {
    buf: Vec<u8>,
}

impl ResponseParser {
    /// An empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `bytes` to the internal buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts one complete response from the front of the buffer, reassembling a
    /// chunked body into contiguous bytes. Returns `Ok(None)` while incomplete.
    ///
    /// # Errors
    ///
    /// Returns an [`HttpError`] when the buffered prefix cannot be a valid response.
    pub fn take_response(&mut self) -> Result<Option<HttpResponse>, HttpError> {
        let Some((mut response, body_start)) = parse_response_head(&self.buf)? else {
            return Ok(None);
        };
        let chunked = response
            .header("transfer-encoding")
            .is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
        if chunked {
            let mut decoder = ChunkDecoder::new();
            decoder.feed(&self.buf[body_start..]);
            let mut body = Vec::new();
            while let Some(chunk) = decoder.next_chunk()? {
                body.extend_from_slice(&chunk);
            }
            if !decoder.is_done() {
                return Ok(None); // terminal chunk still in flight
            }
            let consumed = body_start + decoder.consumed();
            self.buf.drain(..consumed);
            response.body = body;
            return Ok(Some(response));
        }
        let body_len = match response.header("content-length") {
            None => 0,
            Some(v) => v
                .trim()
                .parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("invalid Content-Length '{v}'")))?,
        };
        let total = body_start + body_len;
        if self.buf.len() < total {
            return Ok(None);
        }
        response.body = self.buf[body_start..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(response))
    }
}

/// Parses the response head (status line and headers) at the front of `buf`: the response
/// with an empty body, and the offset at which the body starts. Returns `Ok(None)` until
/// the blank line that ends the header block has arrived. This is the one response-head
/// parser: [`ResponseParser::take_response`] fills in the body behind it, the streaming
/// client hands the bytes behind it to a [`ChunkDecoder`].
///
/// # Errors
///
/// Returns an [`HttpError`] when the header block cannot be a valid response head.
pub(crate) fn parse_response_head(buf: &[u8]) -> Result<Option<(HttpResponse, usize)>, HttpError> {
    let Some(header_end) = find_double_crlf(buf) else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| HttpError::Malformed("header bytes are not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let (status, reason) = parse_status_line(lines.next().unwrap_or(""))?;
    let response = HttpResponse {
        status,
        reason,
        headers: parse_header_lines(lines)?,
        body: Vec::new(),
    };
    Ok(Some((response, header_end + 4)))
}

/// Incremental decoder for a `Transfer-Encoding: chunked` stream.
///
/// Unlike [`ResponseParser::take_response`] (which waits for the whole body), this yields
/// each chunk as soon as its framing is complete — the primitive the streaming client uses
/// to timestamp tokens as they arrive.
#[derive(Debug, Default)]
pub struct ChunkDecoder {
    buf: Vec<u8>,
    pos: usize,
    done: bool,
}

impl ChunkDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw stream bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// `true` once the terminal (size-0) chunk has been consumed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Total stream bytes consumed so far (framing included) — lets a caller that fed
    /// more than one message know where this chunked body ended.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    /// Yields the next complete chunk payload, `Ok(None)` when more bytes are needed or
    /// the stream already ended ([`ChunkDecoder::is_done`] disambiguates).
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::Malformed`] on invalid chunk framing.
    pub fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, HttpError> {
        loop {
            if self.done {
                return Ok(None);
            }
            let rest = &self.buf[self.pos..];
            let Some(line_end) = find_crlf(rest) else {
                return Ok(None);
            };
            let size_line = std::str::from_utf8(&rest[..line_end])
                .map_err(|_| HttpError::Malformed("chunk size line is not UTF-8".into()))?;
            // Ignore chunk extensions (";..." after the size).
            let size_str = size_line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_str, 16)
                .map_err(|_| HttpError::Malformed(format!("invalid chunk size '{size_str}'")))?;
            let chunk_start = line_end + 2;
            let chunk_total = chunk_start + size + 2; // payload + trailing CRLF
            if rest.len() < chunk_total {
                return Ok(None);
            }
            if &rest[chunk_start + size..chunk_total] != b"\r\n" {
                return Err(HttpError::Malformed(
                    "chunk payload is not followed by CRLF".into(),
                ));
            }
            let payload = rest[chunk_start..chunk_start + size].to_vec();
            self.pos += chunk_total;
            if size == 0 {
                self.done = true;
                return Ok(None);
            }
            if payload.is_empty() {
                continue; // unreachable (size==0 handled), defensive
            }
            return Ok(Some(payload));
        }
    }
}

/// Writes a complete non-streaming response with `Content-Length` framing.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Writes the status line + headers opening a chunked streaming response.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn write_stream_head(w: &mut impl Write) -> io::Result<()> {
    w.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
          Transfer-Encoding: chunked\r\n\r\n",
    )?;
    w.flush()
}

/// Writes one chunk of a chunked response and flushes so the client sees it immediately.
///
/// # Errors
///
/// Propagates socket write errors (a failure here is how client disconnects are noticed).
pub fn write_chunk(w: &mut impl Write, data: &[u8]) -> io::Result<()> {
    write!(w, "{:x}\r\n", data.len())?;
    w.write_all(data)?;
    w.write_all(b"\r\n")?;
    w.flush()
}

/// Writes the terminal size-0 chunk that ends a chunked response.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn write_final_chunk(w: &mut impl Write) -> io::Result<()> {
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

/// Byte offset of the first `\r\n\r\n`, i.e. the end of the header block (exclusive).
fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Byte offset of the first `\r\n`.
fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

fn parse_request_line(line: &str) -> Result<(String, String, String), HttpError> {
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed(format!(
            "request line '{line}' is not 'METHOD TARGET VERSION'"
        )));
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed(format!(
            "invalid method '{method}' in request line"
        )));
    }
    if !(target.starts_with('/') || target == "*") {
        return Err(HttpError::Malformed(format!(
            "invalid request target '{target}'"
        )));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::UnsupportedVersion(version.into()));
    }
    Ok((method.into(), target.into(), version.into()))
}

fn parse_status_line(line: &str) -> Result<(u16, String), HttpError> {
    let mut parts = line.splitn(3, ' ');
    let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
        return Err(HttpError::Malformed(format!(
            "status line '{line}' is not 'VERSION CODE REASON'"
        )));
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::UnsupportedVersion(version.into()));
    }
    let status = code
        .parse::<u16>()
        .map_err(|_| HttpError::Malformed(format!("invalid status code '{code}'")))?;
    Ok((status, parts.next().unwrap_or("").to_string()))
}

fn parse_header_lines<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!(
                "header line '{line}' has no ':'"
            )));
        };
        let name = name.trim();
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed(format!(
                "invalid header name in '{line}'"
            )));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }
    Ok(headers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_request() -> Vec<u8> {
        b"POST /generate HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello".to_vec()
    }

    #[test]
    fn parses_a_complete_request() {
        let mut p = RequestParser::new();
        p.feed(&simple_request());
        let r = p.take_request().unwrap().expect("complete");
        assert_eq!(r.method, "POST");
        assert_eq!(r.target, "/generate");
        assert_eq!(r.version, "HTTP/1.1");
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.header("HOST"), Some("x"), "lookup is case-insensitive");
        assert_eq!(r.body, b"hello");
        assert!(p.buf.is_empty());
        assert!(p.take_request().unwrap().is_none());
    }

    #[test]
    fn byte_at_a_time_feeding_parses_identically() {
        let bytes = simple_request();
        let mut p = RequestParser::new();
        let mut got = None;
        for &b in &bytes {
            p.feed(&[b]);
            if let Some(r) = p.take_request().unwrap() {
                got = Some(r);
            }
        }
        let r = got.expect("parsed at the final byte");
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn connection_semantics() {
        let mut p = RequestParser::new();
        p.feed(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(p.take_request().unwrap().unwrap().wants_close());
        p.feed(b"GET / HTTP/1.1\r\n\r\n");
        assert!(!p.take_request().unwrap().unwrap().wants_close());
        p.feed(b"GET / HTTP/1.0\r\n\r\n");
        assert!(p.take_request().unwrap().unwrap().wants_close());
        p.feed(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(!p.take_request().unwrap().unwrap().wants_close());
    }

    #[test]
    fn rejects_protocol_violations() {
        for (bytes, want_status) in [
            (&b"BAD\r\n\r\n"[..], 400),
            (&b"GET /\r\n\r\n"[..], 400),
            (&b"get / HTTP/1.1\r\n\r\n"[..], 400),
            (&b"GET nope HTTP/1.1\r\n\r\n"[..], 400),
            (&b"GET / HTTP/2.0\r\n\r\n"[..], 505),
            (&b"GET / HTTP/1.1\r\nBroken header\r\n\r\n"[..], 400),
            (&b"GET / HTTP/1.1\r\nContent-Length: two\r\n\r\n"[..], 400),
            (
                &b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
                400,
            ),
        ] {
            let mut p = RequestParser::new();
            p.feed(bytes);
            let err = p.take_request().expect_err("must reject");
            assert_eq!(
                err.status().0,
                want_status,
                "wrong status for {:?}: {err}",
                String::from_utf8_lossy(bytes)
            );
        }
    }

    #[test]
    fn enforces_header_and_body_limits() {
        let mut p = RequestParser::new();
        p.feed(&vec![b'a'; MAX_HEADER_BYTES + 1]);
        assert_eq!(p.take_request().unwrap_err(), HttpError::HeadersTooLarge);

        let mut p = RequestParser::new();
        p.feed(
            format!(
                "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .as_bytes(),
        );
        assert_eq!(p.take_request().unwrap_err(), HttpError::BodyTooLarge);
    }

    #[test]
    fn chunk_decoder_reassembles_and_terminates() {
        let mut d = ChunkDecoder::new();
        d.feed(b"5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n");
        assert_eq!(d.next_chunk().unwrap().unwrap(), b"hello");
        assert!(!d.is_done());
        assert_eq!(d.next_chunk().unwrap().unwrap(), b" world");
        assert!(d.next_chunk().unwrap().is_none());
        assert!(d.is_done());
        assert_eq!(
            d.consumed(),
            b"5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n".len()
        );
    }

    #[test]
    fn response_parser_handles_chunked_and_content_length() {
        let mut p = ResponseParser::new();
        p.feed(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n");
        let r = p.take_response().unwrap().unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"abc");
        p.feed(
            b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\nContent-Length: 4\r\n\r\nshed",
        );
        let r = p.take_response().unwrap().unwrap();
        assert_eq!(r.status, 429);
        assert_eq!(r.header("retry-after"), Some("1"));
        assert_eq!(r.body, b"shed");
    }

    #[test]
    fn response_head_reads_status_and_retry_after() {
        let (head, body_start) =
            parse_response_head(b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 7\r\n\r\nshed")
                .unwrap()
                .expect("complete head");
        assert_eq!(head.status, 429);
        assert_eq!(head.header("Retry-After"), Some("7"));
        assert_eq!(body_start, 50);
        let (head, _) =
            parse_response_head(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n")
                .unwrap()
                .expect("complete head");
        assert_eq!(head.status, 200);
        assert_eq!(head.header("retry-after"), None);
        assert!(parse_response_head(b"HTTP/1.1 200 OK\r\nRetry-")
            .unwrap()
            .is_none());
        assert!(parse_response_head(b"garbage\r\n\r\n").is_err());
    }

    #[test]
    fn writers_produce_parseable_output() {
        let mut out = Vec::new();
        write_stream_head(&mut out).unwrap();
        write_chunk(&mut out, b"t 0 5 3f800000\n").unwrap();
        write_final_chunk(&mut out).unwrap();
        let mut p = ResponseParser::new();
        p.feed(&out);
        let r = p.take_response().unwrap().unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"t 0 5 3f800000\n");

        let mut out = Vec::new();
        write_response(&mut out, 404, "Not Found", &[], b"nope\n").unwrap();
        let mut p = ResponseParser::new();
        p.feed(&out);
        let r = p.take_response().unwrap().unwrap();
        assert_eq!((r.status, r.body.as_slice()), (404, &b"nope\n"[..]));
    }
}
