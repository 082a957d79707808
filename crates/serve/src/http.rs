//! Hand-rolled HTTP/1.1 request parsing and response writing.
//!
//! The workspace vendors no HTTP stack, and the daemon needs only a small,
//! strictly bounded subset: one request per connection, flat-JSON bodies,
//! `Connection: close` responses. Every limit is explicit so a client can
//! never make the server allocate unboundedly, and every malformed input
//! maps to a 4xx/5xx [`HttpError`] — parsing never panics.
//!
//! [`roundtrip`] is the matching client side, shared by the
//! `experiments client` CLI and `hbm-serve-bench`.

use std::io::{BufRead, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Longest accepted request line, bytes (method + target + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Longest accepted header block, bytes (sum over all header lines).
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Largest accepted request body, bytes.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// A request-parsing failure, carrying the HTTP status to answer with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// Response status code (4xx/5xx).
    pub status: u16,
    /// Human-readable description, returned in the JSON error body.
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

/// One parsed HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Request target (`/v1/simulate`).
    pub target: String,
    /// Header `(name, value)` pairs in arrival order, names as sent.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header value with the given case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one `\n`-terminated line, at most `cap` bytes of it, stripping
/// the trailing `\r\n`/`\n`. `Ok(None)` means clean EOF before any byte.
fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    cap: usize,
    what: &str,
    too_long_status: u16,
) -> Result<Option<String>, HttpError> {
    let mut buf = Vec::new();
    let read = reader
        .by_ref()
        .take(cap as u64 + 1)
        .read_until(b'\n', &mut buf)
        .map_err(|e| HttpError::new(400, format!("reading {what}: {e}")))?;
    if read == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        if buf.len() > cap {
            return Err(HttpError::new(too_long_status, format!("{what} too long")));
        }
        return Err(HttpError::new(400, format!("truncated {what}")));
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| HttpError::new(400, format!("{what} is not valid UTF-8")))
}

/// Reads and parses one request from `reader`.
///
/// `Ok(None)` means the client closed the connection without sending
/// anything (not an error).
///
/// # Errors
///
/// * 400 — malformed request line, truncated headers or body, bad
///   `Content-Length`;
/// * 413 — body larger than [`MAX_BODY_BYTES`];
/// * 414 — request line longer than [`MAX_REQUEST_LINE`];
/// * 431 — header block larger than [`MAX_HEADER_BYTES`];
/// * 501 — `Transfer-Encoding` (unsupported);
/// * 505 — not HTTP/1.x.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, HttpError> {
    let Some(line) = read_line_bounded(reader, MAX_REQUEST_LINE, "request line", 414)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m.to_string(), t.to_string(), v),
        _ => {
            return Err(HttpError::new(
                400,
                format!("malformed request line {line:?}"),
            ))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(
            505,
            format!("unsupported protocol version {version:?}"),
        ));
    }

    let mut headers = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let remaining = MAX_HEADER_BYTES.saturating_sub(header_bytes);
        let Some(line) = read_line_bounded(reader, remaining, "header block", 431)? else {
            return Err(HttpError::new(400, "truncated headers (connection closed)"));
        };
        header_bytes += line.len() + 2;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(400, format!("malformed header {line:?}")));
        };
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }

    let request = Request {
        method,
        target,
        headers,
        body: Vec::new(),
    };
    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::new(501, "transfer-encoding is not supported"));
    }
    let body_len = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::new(400, format!("bad content-length {v:?}")))?,
    };
    if body_len > MAX_BODY_BYTES {
        return Err(HttpError::new(
            413,
            format!("body of {body_len} bytes exceeds the {MAX_BODY_BYTES}-byte limit"),
        ));
    }
    let mut body = vec![0u8; body_len];
    reader
        .read_exact(&mut body)
        .map_err(|e| HttpError::new(400, format!("truncated body: {e}")))?;
    Ok(Some(Request { body, ..request }))
}

/// The standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Writes one complete `Connection: close` response: status line, the
/// standard headers, any `extra` headers, and the body.
///
/// # Errors
///
/// Returns the underlying I/O error (typically: the client went away).
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    extra: &[(&str, String)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!("HTTP/1.1 {status} {}\r\n", reason(status));
    head.push_str("Content-Type: application/json\r\n");
    head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    head.push_str("Connection: close\r\n");
    for (name, value) in extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    writer.write_all(head.as_bytes())?;
    writer.write_all(body)?;
    writer.flush()
}

/// A JSON error body (`{"error": …}`) for an error response.
pub fn error_body(message: &str) -> Vec<u8> {
    let mut o = hbm_telemetry::json::JsonObject::new();
    o.str("error", message);
    let mut body = o.finish().into_bytes();
    body.push(b'\n');
    body
}

/// How long [`roundtrip`] waits for a response: longer than a cold
/// year-long simulate takes.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// One request's bytes; a `body` comes with its `Content-Length`.
pub fn request_bytes(method: &str, path: &str, body: Option<&str>) -> Vec<u8> {
    match body {
        Some(body) => format!(
            "{method} {path} HTTP/1.1\r\nHost: hbm-serve\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
        None => format!("{method} {path} HTTP/1.1\r\nHost: hbm-serve\r\n\r\n"),
    }
    .into_bytes()
}

/// Sends one request to `addr` and returns `(status, body)`, reading to
/// EOF (the server always answers `Connection: close`).
///
/// # Errors
///
/// A message naming the failed connect, send or receive, or a response
/// without a status line.
pub fn roundtrip(addr: &str, request: &[u8]) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(request)
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("recv: {e}"))?;
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response {response:?}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn well_formed_post_round_trips() {
        let raw = b"POST /v1/simulate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let req = parse(raw).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/simulate");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        let req = parse(b"GET /v1/health HTTP/1.1\nHost: x\n\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.target, "/v1/health");
    }

    #[test]
    fn empty_stream_is_none_not_an_error() {
        assert_eq!(parse(b"").unwrap(), None);
    }

    #[test]
    fn malformed_request_line_is_400() {
        assert_eq!(parse(b"GARBAGE\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse(b"GET /\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(
            parse(b"GET / HTTP/1.1 extra\r\n\r\n").unwrap_err().status,
            400
        );
    }

    #[test]
    fn wrong_protocol_version_is_505() {
        assert_eq!(parse(b"GET / HTTP/2\r\n\r\n").unwrap_err().status, 505);
        assert_eq!(parse(b"GET / SPDY/3\r\n\r\n").unwrap_err().status, 505);
    }

    #[test]
    fn truncated_headers_are_400() {
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nHost: x\r\n").unwrap_err().status,
            400
        );
        assert_eq!(parse(b"GET / HTTP/1.1\r\nHost").unwrap_err().status, 400);
    }

    #[test]
    fn header_without_colon_is_400() {
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nnocolonhere\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
    }

    #[test]
    fn oversized_request_line_is_414() {
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_REQUEST_LINE + 10));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert_eq!(parse(&raw).unwrap_err().status, 414);
    }

    #[test]
    fn oversized_header_block_is_431() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..3000 {
            raw.extend_from_slice(format!("X-Pad-{i}: aaaaaaaaaa\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        assert_eq!(parse(&raw).unwrap_err().status, 431);
    }

    #[test]
    fn oversized_body_is_413() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse(raw.as_bytes()).unwrap_err().status, 413);
    }

    #[test]
    fn bad_and_truncated_content_length_are_400() {
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        // Body shorter than promised.
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
                .unwrap_err()
                .status,
            400
        );
    }

    #[test]
    fn transfer_encoding_is_501() {
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                .unwrap_err()
                .status,
            501
        );
    }

    #[test]
    fn non_utf8_bytes_are_400_not_a_panic() {
        assert_eq!(
            parse(b"GET /\xff\xfe HTTP/1.1\r\n\r\n").unwrap_err().status,
            400
        );
    }

    #[test]
    fn response_writer_emits_complete_message() {
        let mut out = Vec::new();
        write_response(&mut out, 503, &[("Retry-After", "1".into())], b"{}\n").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}\n"));
    }

    #[test]
    fn error_body_is_flat_json() {
        let body = error_body("boom \"quoted\"");
        let line = std::str::from_utf8(&body).unwrap();
        let fields = hbm_telemetry::json::parse_flat_object(line.trim()).unwrap();
        assert_eq!(fields[0].1.as_str().unwrap(), "boom \"quoted\"");
    }
}
