//! A deliberately minimal HTTP/1.1 layer over `std::net` — just
//! enough for the sweepd API (tiny JSON bodies, `Connection: close`
//! on every exchange), hand-rolled because the cargo registry is
//! unreachable in-container and the service must build with the
//! standard library alone.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Requests larger than this are rejected outright — the server
/// answers `413 Payload Too Large` without reading the body. The
/// biggest legitimate payload is a sweep spec, which is a few KiB.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// A parsed HTTP request: method, path, and (possibly empty) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method (`GET`, `POST`, …), uppercase as sent.
    pub method: String,
    /// The request path, e.g. `/cell/fnv1a64:0123456789abcdef`.
    pub path: String,
    /// The request body, `Content-Length` bytes decoded as UTF-8
    /// (lossily — the API only carries JSON, which is UTF-8 anyway).
    pub body: String,
}

/// Byte offset of the `\r\n\r\n` head/body separator, if present.
fn header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reads and parses one HTTP request from `stream`.
///
/// Generic over `Read` so the parser is unit-testable on byte slices;
/// the caller is responsible for socket read timeouts.
///
/// # Errors
///
/// Returns an [`io::Error`] for a closed connection, an oversized
/// request, a malformed request line, or a socket failure.
pub fn read_request(stream: &mut impl Read) -> io::Result<Request> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    // Bytes already searched for the separator, less the 3 a separator
    // split across two reads can start in: each read is scanned once.
    let mut scanned = 0;
    let head_len = loop {
        if let Some(pos) = header_end(&buf[scanned..]) {
            break scanned + pos;
        }
        scanned = buf.len().saturating_sub(3);
        if buf.len() > MAX_REQUEST_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-request",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_len]).into_owned();
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed request line {request_line:?}"),
        ));
    };
    let method = method.to_string();
    let path = path.to_string();
    let mut content_length = 0usize;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                })?;
            }
        }
    }
    if content_length > MAX_REQUEST_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request body too large",
        ));
    }
    let mut body = buf[head_len + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Request {
        method,
        path,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

/// Writes one `Connection: close` JSON response.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(stream: &mut impl Write, status: u16, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// The client side: performs one request against a sweepd service and
/// returns `(status, body)`. Used by `mobic-cli sweep --server` and
/// the test suite.
///
/// # Errors
///
/// Returns an [`io::Error`] for connection failures, timeouts, or a
/// malformed response.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let head_len = header_end(&response).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "response without header terminator",
        )
    })?;
    let head = String::from_utf8_lossy(&response[..head_len]).into_owned();
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let body = String::from_utf8_lossy(&response[head_len + 4..]).into_owned();
    Ok((status, body))
}

/// Escapes a string for embedding in a hand-rolled JSON document
/// (the status endpoint and error bodies are assembled with
/// `format!`, not a serializer — sweepd has no serde).
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

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sweep");
        assert_eq!(req.body, "hello world");
    }

    #[test]
    fn parses_a_get_without_body() {
        let raw = b"GET /status HTTP/1.1\r\n\r\n";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/status");
        assert_eq!(req.body, "");

        // A head longer than one 4096-byte read, its separator split
        // across the two reads at each of the three offsets.
        let prefix = "GET /status HTTP/1.1\r\nX-Pad: ";
        for split in 1..=3 {
            let pad = "a".repeat(4096 - split - prefix.len());
            let raw = format!("{prefix}{pad}\r\n\r\n");
            let req = read_request(&mut raw.as_bytes()).unwrap();
            assert_eq!(req.path, "/status", "split {split}");
        }
    }

    #[test]
    fn truncated_requests_error_instead_of_hanging_state() {
        assert!(read_request(&mut &b"GET /status HT"[..]).is_err());
        let short_body = b"POST /sweep HTTP/1.1\r\nContent-Length: 99\r\n\r\nabc";
        assert!(read_request(&mut &short_body[..]).is_err());
        assert!(read_request(&mut &b"\r\n\r\n"[..]).is_err());
    }

    #[test]
    fn responses_carry_status_and_exact_length() {
        let mut out = Vec::new();
        write_response(&mut out, 404, "{\"error\":\"nope\"}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"), "{text}");
        assert!(text.contains("Content-Length: 16\r\n"), "{text}");
        assert!(text.ends_with("{\"error\":\"nope\"}"), "{text}");

        let mut out = Vec::new();
        write_response(&mut out, 413, "{}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 413 Payload Too Large\r\n"),
            "{text}"
        );
    }

    #[test]
    fn oversized_requests_error_without_reading_the_body() {
        // The declared body is over the cap: the parser must reject it
        // from the header alone (the body bytes are never consumed),
        // with a message the server maps to 413.
        let declared = MAX_REQUEST_BYTES + 1;
        let raw = format!("POST /sweep HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n");
        let err = read_request(&mut raw.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("too large"), "{err}");

        // An unterminated head that keeps growing is cut off at the
        // same cap instead of buffering without bound.
        let endless = vec![b'A'; MAX_REQUEST_BYTES + 4096];
        let err = read_request(&mut &endless[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("too large"), "{err}");
    }

    /// SplitMix64: a seeded generator small enough to inline, so the
    /// fuzz cases below replay exactly and the crate stays
    /// dependency-free.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Random and byte-mutated requests (case `k` draws from seed
    /// `k`): the parser returns a request or an `io::Error` and never
    /// panics, an accepted body stays under the cap, and a declared
    /// body over the cap is always `InvalidData`.
    #[test]
    fn random_and_mutated_requests_parse_or_error() {
        const VALID: [&[u8]; 3] = [
            b"POST /sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world",
            b"GET /status HTTP/1.1\r\n\r\n",
            b"GET /cell/fnv1a64:0123456789abcdef HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        ];
        // The protocol's own bytes, so random heads and lengths occur.
        const ALPHABET: &[u8] = b"GET POST/: \r\n0123456789Content-Length\xff\x00";
        for case in 0..4000u64 {
            let mut rng = SplitMix(case);
            let raw: Vec<u8> = if case % 2 == 0 {
                (0..rng.below(256))
                    .map(|_| ALPHABET[rng.below(ALPHABET.len())])
                    .collect()
            } else {
                let mut raw = VALID[rng.below(VALID.len())].to_vec();
                for _ in 0..=rng.below(4) {
                    let at = rng.below(raw.len() + 1);
                    match rng.below(3) {
                        0 if at < raw.len() => {
                            raw.remove(at);
                        }
                        1 if at < raw.len() => raw[at] = rng.next().to_le_bytes()[0],
                        _ => raw.insert(at, ALPHABET[rng.below(ALPHABET.len())]),
                    }
                }
                raw
            };
            if let Ok(request) = read_request(&mut &raw[..]) {
                assert!(request.body.len() <= MAX_REQUEST_BYTES, "case {case}");
            }
        }
        for case in 0..200u64 {
            let mut rng = SplitMix(case);
            let declared = MAX_REQUEST_BYTES + 1 + rng.below(1 << 40);
            let pad = "a".repeat(rng.below(64));
            let raw = format!(
                "POST /{case} HTTP/1.1\r\nX-Pad: {pad}\r\nContent-Length: {declared}\r\n\r\n"
            );
            let err = read_request(&mut raw.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "case {case}");
        }
    }

    #[test]
    fn json_escape_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
