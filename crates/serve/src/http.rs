//! A hand-rolled, deliberately minimal HTTP/1.1 layer.
//!
//! `xp serve` needs exactly four verbs of HTTP: read one request
//! (line + headers + `Content-Length` body), write one response, close
//! the connection. No keep-alive, no chunked encoding, no TLS — every
//! connection is one request/response exchange with hard size limits,
//! which keeps the parser small enough to audit and leaves nothing for
//! a malformed peer to wedge.

use std::io::{self, BufRead as _, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Hard cap on one request (line + headers + body).
pub const MAX_REQUEST_BYTES: u64 = 8 * 1024 * 1024;
/// Hard cap on header count (defense against header floods).
const MAX_HEADERS: usize = 100;
/// Per-connection socket timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed request: method, target path, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The origin-form target (`/status/abc123…`), query string and
    /// all — the service routes on the raw path.
    pub target: String,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

/// Reads one request from the stream, enforcing the size caps and the
/// per-connection timeout.
///
/// # Errors
///
/// Returns a human-readable message for malformed request lines,
/// missing/oversized bodies, or socket failures; the caller answers
/// with `400` and closes.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| format!("set_write_timeout: {e}"))?;
    let mut reader = BufReader::new(Read::take(&mut *stream, MAX_REQUEST_BYTES));

    let mut request_line = String::new();
    reader
        .read_line(&mut request_line)
        .map_err(|e| format!("reading request line: {e}"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| "empty request line".to_string())?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| "request line has no target".to_string())?
        .to_string();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err("not an HTTP/1.x request".to_string()),
    }

    let mut content_length: usize = 0;
    for _ in 0..MAX_HEADERS {
        let mut line = String::new();
        let read = reader
            .read_line(&mut line)
            .map_err(|e| format!("reading header: {e}"))?;
        if read == 0 {
            return Err("request ends before the blank line that closes its headers".to_string());
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            let mut body = vec![0u8; content_length];
            reader
                .read_exact(&mut body)
                .map_err(|e| format!("reading {content_length}-byte body: {e}"))?;
            return Ok(Request {
                method,
                target,
                body,
            });
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n as u64 <= MAX_REQUEST_BYTES)
                    .ok_or_else(|| format!("bad content-length {:?}", value.trim()))?;
            }
        } else {
            return Err(format!("malformed header line {line:?}"));
        }
    }
    Err(format!("more than {MAX_HEADERS} headers"))
}

/// Writes one complete response and flushes. `Connection: close` is
/// always set — the protocol here is strictly one exchange per
/// connection.
///
/// # Errors
///
/// Propagates socket write failures (the caller just drops the
/// connection).
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Escapes a string for embedding inside a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Round-trips one raw request through a real socket pair.
    fn parse_raw(raw: &[u8]) -> Result<Request, String> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_vec();
        #[allow(
            clippy::disallowed_methods,
            reason = "test client thread on the other end of a real socket"
        )]
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut client = TcpStream::connect(addr).expect("connect");
                client.write_all(&raw).expect("send");
                client.flush().expect("flush");
                // Half-close so a parser waiting on more body bytes
                // sees EOF instead of a timeout, then drain the reply.
                let _ = client.shutdown(std::net::Shutdown::Write);
                let mut sink = Vec::new();
                let _ = client.read_to_end(&mut sink);
            });
            let (mut conn, _) = listener.accept().expect("accept");
            let parsed = read_request(&mut conn);
            let _ = respond(&mut conn, 200, "OK", "text/plain", b"done");
            parsed
        })
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse_raw(b"POST /submit HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\nname demo")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/submit");
        assert_eq!(req.body, b"name demo");
    }

    #[test]
    fn parses_bodyless_get() {
        let req = parse_raw(b"GET /stats HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/stats");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage_and_bad_lengths() {
        assert!(parse_raw(b"nonsense\r\n\r\n").is_err());
        assert!(parse_raw(b"GET / HTTP/1.1\r\nContent-Length: zap\r\n\r\n").is_err());
        assert!(parse_raw(b"GET / HTTP/1.1\r\nContent-Length: 99999999999999\r\n\r\n").is_err());
        assert!(parse_raw(b"GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab").is_err());
        // Cut off before the blank line: after the request line, mid-header.
        assert!(parse_raw(b"GET /stats HTTP/1.1\r\n").is_err());
        assert!(parse_raw(b"GET /stats HTTP/1.1\r\nHost: x").is_err());
    }

    #[test]
    fn json_escape_covers_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
