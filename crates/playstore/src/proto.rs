//! Wire protocol between the store server and the crawler.
//!
//! An HTTP/1.0-flavoured framing, built by hand (per the session's
//! networking idioms): request line + headers + blank line, response with a
//! status line and `Content-Length`-framed body. The crawler sets the
//! `User-Agent`, `X-Locale` and `X-Device-Profile` headers — "both the
//! user-agent and locale headers are defined, which determine the variant
//! of the store and apps retrieved" (§3.1).

use crate::{Result, StoreError};
use std::io::{BufRead, BufReader, Read, Write};

/// Protocol identifier on the wire.
pub const PROTO: &str = "GAUGE/1.0";
/// Hard cap on declared body sizes (matches the APK limit with headroom).
pub const MAX_BODY: usize = 256 * 1024 * 1024;
/// Body-integrity header: lower-case hex CRC32 of the body bytes. The
/// server sets it on every response; the crawler verifies it when present
/// so corrupted payloads surface as retriable errors, not wrong answers.
pub const CRC_HEADER: &str = "x-body-crc32";
/// Range-resume request header: byte offset the client already holds.
/// The server serves the body suffix from that offset and echoes the
/// header back so the client knows the range was honoured.
pub const RANGE_START_HEADER: &str = "x-range-start";
/// On a ranged response, the CRC32 of the *full* body (the served slice
/// is covered by [`CRC_HEADER`] as usual) — what the client validates the
/// stitched prefix + suffix against.
pub const FULL_CRC_HEADER: &str = "x-full-crc32";
/// Crawler-assigned connection id, sent on every request. The chaos
/// [`crate::chaos::FaultPlan`] keys its per-connection fault schedules on
/// it; ids are client-assigned because server accept order is not
/// deterministic.
pub const CONNECTION_ID_HEADER: &str = "x-connection-id";
/// Cap on the request head (request line + headers + blank line). The
/// event-driven server buffers the head incrementally; a client that
/// streams junk without ever sending the blank line would otherwise grow
/// the buffer without bound.
pub const MAX_REQUEST_HEAD: usize = 16 * 1024;

/// Percent-encode a path component (spaces, `&`, `?`, `%`, `/` and
/// non-ASCII become `%XX`); category names like `"health & fitness"` would
/// otherwise break the request line.
pub fn encode_component(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Decode a percent-encoded component. Invalid escapes pass through.
pub fn decode_component(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    // Byte-level hex parsing: slicing the &str could land mid-way through
    // a multi-byte character on hostile input and panic.
    let hex = |b: u8| -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            b'A'..=b'F' => Some(b - b'A' + 10),
            _ => None,
        }
    };
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            if let (Some(hi), Some(lo)) = (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                out.push(hi * 16 + lo);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Path, e.g. `/category/finance?start=0&count=100`.
    pub path: String,
    /// Headers as `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// Header lookup (case-insensitive name).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Path without the query string.
    pub fn path_only(&self) -> &str {
        self.path.split('?').next().unwrap_or(&self.path)
    }

    /// Query parameter lookup.
    pub fn query(&self, key: &str) -> Option<&str> {
        let q = self.path.split_once('?')?.1;
        q.split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// A response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (200, 400, 404, …).
    pub status: u16,
    /// Extra headers.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A 200 response with a body.
    pub fn ok(body: Vec<u8>) -> Self {
        Response {
            status: 200,
            headers: vec![],
            body,
        }
    }

    /// A 404 with a reason body.
    pub fn not_found(what: &str) -> Self {
        Response {
            status: 404,
            headers: vec![],
            body: format!("not found: {what}").into_bytes(),
        }
    }

    /// A 400 with a reason body.
    pub fn bad_request(why: &str) -> Self {
        Response {
            status: 400,
            headers: vec![],
            body: format!("bad request: {why}").into_bytes(),
        }
    }

    /// Body as UTF-8 text.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Write a request.
pub fn write_request(
    w: &mut impl Write,
    path: &str,
    headers: &[(&str, &str)],
) -> Result<()> {
    write!(w, "GET {path} {PROTO}\r\n")?;
    for (k, v) in headers {
        write!(w, "{k}: {v}\r\n")?;
    }
    write!(w, "\r\n")?;
    w.flush()?;
    Ok(())
}

/// Read a request. Returns `None` on clean EOF (client closed keep-alive).
pub fn read_request(r: &mut BufReader<impl Read>) -> Result<Option<Request>> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let line = line.trim_end();
    let mut parts = line.split(' ');
    let (method, path, proto) = (parts.next(), parts.next(), parts.next());
    if method != Some("GET") || proto != Some(PROTO) {
        return Err(StoreError::Protocol(format!("bad request line: {line}")));
    }
    let path = path
        .ok_or_else(|| StoreError::Protocol("missing path".into()))?
        .to_string();
    let headers = read_headers(r)?;
    Ok(Some(Request { path, headers }))
}

/// Incremental request parse over a byte buffer, for non-blocking
/// connection state machines that accumulate reads as they arrive.
///
/// Returns `Ok(None)` while the head (terminated by `\r\n\r\n`) is still
/// incomplete, `Ok(Some((request, consumed)))` once a full frame is
/// buffered — `consumed` is the byte count the caller must drain before
/// the next parse — and `Err` on a malformed head. Because requests carry
/// no body, `consumed` is exactly the head length. The parse is
/// insensitive to how the bytes were split across reads: any prefix short
/// of the terminator yields `None`, and the final result depends only on
/// the concatenated stream (the torn-write property the reactor tests
/// pin).
pub fn parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>> {
    let head_end = match buf.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(pos) => pos,
        None => {
            if buf.len() > MAX_REQUEST_HEAD {
                return Err(StoreError::Protocol(format!(
                    "request head exceeds {MAX_REQUEST_HEAD} bytes"
                )));
            }
            return Ok(None);
        }
    };
    let consumed = head_end + 4;
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| StoreError::Protocol("non-UTF-8 request head".into()))?;
    let mut lines = head.split("\r\n");
    let line = lines
        .next()
        .ok_or_else(|| StoreError::Protocol("empty request head".into()))?;
    let mut parts = line.split(' ');
    let (method, path, proto) = (parts.next(), parts.next(), parts.next());
    if method != Some("GET") || proto != Some(PROTO) {
        return Err(StoreError::Protocol(format!("bad request line: {line}")));
    }
    let path = path
        .ok_or_else(|| StoreError::Protocol("missing path".into()))?
        .to_string();
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| StoreError::Protocol(format!("bad header: {line}")))?;
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }
    Ok(Some((Request { path, headers }, consumed)))
}

/// Write a response.
pub fn write_response(w: &mut impl Write, resp: &Response) -> Result<()> {
    let reason = match resp.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Error",
    };
    write!(w, "{PROTO} {} {reason}\r\n", resp.status)?;
    write!(w, "Content-Length: {}\r\n", resp.body.len())?;
    for (k, v) in &resp.headers {
        write!(w, "{k}: {v}\r\n")?;
    }
    write!(w, "\r\n")?;
    w.write_all(&resp.body)?;
    w.flush()?;
    Ok(())
}

/// Outcome of reading a response on a path where partial bodies are
/// recoverable (range-request resume).
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete, well-formed response.
    Complete(Response),
    /// The status line and headers arrived intact but the connection
    /// died mid-body: the received prefix is preserved so the caller can
    /// resume from `received.len()` with a [`RANGE_START_HEADER`] retry.
    Truncated {
        /// Status of the interrupted response.
        status: u16,
        /// Headers of the interrupted response.
        headers: Vec<(String, String)>,
        /// The body bytes that made it before the cut.
        received: Vec<u8>,
        /// The declared `Content-Length`.
        expected_len: usize,
    },
}

/// Read a response, failing on any truncation.
pub fn read_response(r: &mut BufReader<impl Read>) -> Result<Response> {
    match read_response_resumable(r)? {
        ReadOutcome::Complete(resp) => Ok(resp),
        ReadOutcome::Truncated {
            received,
            expected_len,
            ..
        } => Err(StoreError::Protocol(format!(
            "response truncated mid-body: {}/{} bytes",
            received.len(),
            expected_len
        ))),
    }
}

/// Read a response, preserving a truncated body prefix instead of
/// discarding it — the raw material for range-request resume.
///
/// The body's first reservation is at most 1 MiB. After that it grows
/// geometrically, but never past the declared `Content-Length`: a
/// complete body's `capacity()` equals its `len()`, and a truncated
/// prefix holds no more than the declared length. A hostile declared
/// length therefore costs allocation in proportion to the bytes that
/// actually arrive, and a downloaded container carries no slack for as
/// long as the crawl holds it.
pub fn read_response_resumable(r: &mut BufReader<impl Read>) -> Result<ReadOutcome> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(StoreError::Protocol("connection closed mid-response".into()));
    }
    let line_t = line.trim_end();
    let mut parts = line_t.split(' ');
    if parts.next() != Some(PROTO) {
        return Err(StoreError::Protocol(format!("bad status line: {line_t}")));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| StoreError::Protocol("missing status code".into()))?;
    let headers = read_headers(r)?;
    let len: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .ok_or_else(|| StoreError::Protocol("missing content-length".into()))?;
    if len > MAX_BODY {
        return Err(StoreError::Protocol(format!("body too large: {len}")));
    }
    let mut body = Vec::with_capacity(len.min(1 << 20));
    let mut chunk = [0u8; 8192];
    while body.len() < len {
        let want = (len - body.len()).min(chunk.len());
        match r.read(&mut chunk[..want]) {
            Ok(0) => {
                return Ok(ReadOutcome::Truncated {
                    status,
                    headers,
                    received: body,
                    expected_len: len,
                })
            }
            Ok(n) => {
                if body.capacity() - body.len() < n {
                    // `want` caps `n`, so `body.len() + n <= len`.
                    let target = (body.capacity() * 2).max(body.len() + n).min(len);
                    body.reserve_exact(target - body.len());
                }
                body.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                // A timeout/reset mid-body: whatever arrived is still a
                // valid prefix worth resuming from.
                if body.is_empty() {
                    return Err(e.into());
                }
                return Ok(ReadOutcome::Truncated {
                    status,
                    headers,
                    received: body,
                    expected_len: len,
                });
            }
        }
    }
    Ok(ReadOutcome::Complete(Response {
        status,
        headers,
        body,
    }))
}

/// Incremental completeness probe for a client-side response buffer, the
/// response-direction counterpart of [`parse_request`] for non-blocking
/// connection state machines that accumulate reads as they arrive.
///
/// Returns `true` once the buffered bytes are *decidable*: either a full
/// `Content-Length`-framed response is present, or the head is malformed
/// in a way no further bytes can repair (bad status line, missing or
/// unparseable `Content-Length`, a declared body over [`MAX_BODY`]).
/// Returns `false` while more bytes could still change the answer. The
/// probe never parses authoritatively — when it says `true` (or the
/// stream ends), [`finish_response_frame`] replays the buffer through
/// [`read_response_resumable`] so outcomes and error strings are
/// byte-identical to the blocking path.
pub fn response_frame_complete(buf: &[u8]) -> bool {
    let head_end = match buf.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(pos) => pos,
        None => return false,
    };
    // The head is fully buffered and every line terminated; any
    // malformation found now is final (the replay in finish surfaces the
    // exact blocking-path error), so report decidable immediately rather
    // than waiting for body bytes that may never come.
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(h) => h,
        Err(_) => return true,
    };
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.split(' ');
    if parts.next() != Some(PROTO) {
        return true;
    }
    if parts.next().and_then(|s| s.parse::<u16>().ok()).is_none() {
        return true;
    }
    for line in lines {
        let Some((k, v)) = line.split_once(':') else {
            return true;
        };
        if k.trim().eq_ignore_ascii_case("content-length") {
            return match v.trim().parse::<usize>() {
                Ok(len) if len <= MAX_BODY => buf.len() >= head_end + 4 + len,
                _ => true,
            };
        }
    }
    // Complete head without a content-length: the replay errors now.
    true
}

/// Resolve an accumulated response buffer to the outcome the blocking
/// reader would have produced on the same byte/error history.
///
/// Call when [`response_frame_complete`] returns `true`, or when the
/// stream ended (EOF or a read error) with the frame still incomplete.
/// `io_err` is the read error that ended the stream, if any (`None` for
/// clean EOF). The buffer is replayed through [`read_response_resumable`]
/// over a cursor — cursor EOF lands exactly where the socket would have
/// blocked, so truncation outcomes and every error string match the
/// blocking path byte-for-byte. A stored read error overrides replay
/// results the blocking reader could never have reached: an unterminated
/// head (the error hit `read_line` mid-accumulation) and an empty body
/// prefix (the blocking body loop propagates the error rather than
/// preserving zero bytes).
pub fn finish_response_frame(
    buf: &[u8],
    io_err: Option<std::io::Error>,
) -> Result<ReadOutcome> {
    match io_err {
        None => read_response_resumable(&mut BufReader::new(std::io::Cursor::new(buf))),
        Some(e) => {
            if !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                return Err(e.into());
            }
            match read_response_resumable(&mut BufReader::new(std::io::Cursor::new(buf)))? {
                ReadOutcome::Truncated { received, .. } if received.is_empty() => Err(e.into()),
                out => Ok(out),
            }
        }
    }
}

fn read_headers(r: &mut BufReader<impl Read>) -> Result<Vec<(String, String)>> {
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if r.read_line(&mut line)? == 0 {
            return Err(StoreError::Protocol("eof in headers".into()));
        }
        let line = line.trim_end();
        if line.is_empty() {
            return Ok(headers);
        }
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| StoreError::Protocol(format!("bad header: {line}")))?;
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn request_roundtrip() {
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            "/category/finance?start=0&count=100",
            &[("User-Agent", "gaugeNN/1.0"), ("X-Locale", "en_GB")],
        )
        .unwrap();
        let mut r = BufReader::new(Cursor::new(buf));
        let req = read_request(&mut r).unwrap().unwrap();
        assert_eq!(req.path_only(), "/category/finance");
        assert_eq!(req.query("start"), Some("0"));
        assert_eq!(req.query("count"), Some("100"));
        assert_eq!(req.header("user-agent"), Some("gaugeNN/1.0"));
        assert_eq!(req.header("X-LOCALE"), Some("en_GB"));
        assert_eq!(req.header("missing"), None);
    }

    #[test]
    fn response_roundtrip_binary_body() {
        let body: Vec<u8> = (0..=255u8).collect();
        let mut buf = Vec::new();
        let mut resp = Response::ok(body.clone());
        resp.headers.push(("x-obb-name".into(), "main.1.com.a.obb".into()));
        write_response(&mut buf, &resp).unwrap();
        let got = read_response(&mut BufReader::new(Cursor::new(buf))).unwrap();
        assert_eq!(got.status, 200);
        assert_eq!(got.body, body);
        assert!(got
            .headers
            .iter()
            .any(|(k, v)| k == "x-obb-name" && v == "main.1.com.a.obb"));
    }

    #[test]
    fn eof_is_clean_end_of_keepalive() {
        let mut r = BufReader::new(Cursor::new(Vec::<u8>::new()));
        assert!(read_request(&mut r).unwrap().is_none());
    }

    #[test]
    fn bad_frames_rejected() {
        let mut r = BufReader::new(Cursor::new(b"POST / GAUGE/1.0\r\n\r\n".to_vec()));
        assert!(read_request(&mut r).is_err());
        let mut r2 = BufReader::new(Cursor::new(b"HTTP/1.1 200 OK\r\n\r\n".to_vec()));
        assert!(read_response(&mut r2).is_err());
        let mut r3 = BufReader::new(Cursor::new(b"GAUGE/1.0 200 OK\r\nno-length: 1\r\n\r\n".to_vec()));
        assert!(read_response(&mut r3).is_err());
    }

    #[test]
    fn component_encoding_roundtrips_category_names() {
        for name in ["health & fitness", "video players", "maps & navigation", "plain"] {
            let enc = encode_component(name);
            assert!(!enc.contains(' ') && !enc.contains('&'), "{enc}");
            assert_eq!(decode_component(&enc), name);
        }
        // Invalid escapes pass through untouched.
        assert_eq!(decode_component("50%_off"), "50%_off");
        assert_eq!(decode_component("%"), "%");
        assert_eq!(decode_component("%2"), "%2");
    }

    #[test]
    fn truncated_body_preserves_the_prefix() {
        let body: Vec<u8> = (0..100u8).collect();
        let mut buf = Vec::new();
        write_response(&mut buf, &Response::ok(body.clone())).unwrap();
        // Cut 30 bytes into the body.
        let header_end = buf.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        buf.truncate(header_end + 30);
        let outcome =
            read_response_resumable(&mut BufReader::new(Cursor::new(buf.clone()))).unwrap();
        match outcome {
            ReadOutcome::Truncated {
                status,
                received,
                expected_len,
                ..
            } => {
                assert_eq!(status, 200);
                assert_eq!(expected_len, 100);
                assert_eq!(received, body[..30].to_vec());
            }
            other => panic!("expected truncation, got {other:?}"),
        }
        // The strict reader refuses the same bytes with a typed error.
        let err = read_response(&mut BufReader::new(Cursor::new(buf))).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn complete_bodies_read_identically_on_both_paths() {
        let body: Vec<u8> = (0..=255u8).collect();
        let mut buf = Vec::new();
        write_response(&mut buf, &Response::ok(body.clone())).unwrap();
        match read_response_resumable(&mut BufReader::new(Cursor::new(buf))).unwrap() {
            ReadOutcome::Complete(resp) => assert_eq!(resp.body, body),
            other => panic!("expected complete, got {other:?}"),
        }
    }

    /// A 1.5 MiB response frame: past the 1 MiB first reservation and
    /// short of its doubling.
    fn large_frame() -> (Vec<u8>, Vec<u8>, usize) {
        let body: Vec<u8> = (0..3u32 << 19).map(|i| (i % 251) as u8).collect();
        let mut buf = Vec::new();
        write_response(&mut buf, &Response::ok(body.clone())).unwrap();
        let header_end = buf.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        (body, buf, header_end)
    }

    #[test]
    fn complete_body_capacity_is_its_length() {
        let (body, buf, _) = large_frame();
        match read_response_resumable(&mut BufReader::new(Cursor::new(buf))).unwrap() {
            ReadOutcome::Complete(resp) => {
                assert_eq!(resp.body, body);
                assert_eq!(resp.body.capacity(), resp.body.len());
            }
            other => panic!("expected complete, got {other:?}"),
        }
    }

    #[test]
    fn truncated_prefix_capacity_stays_within_the_declared_length() {
        let (body, mut buf, header_end) = large_frame();
        let cut = 5 << 18; // 1.25 MiB: the body has grown once
        buf.truncate(header_end + cut);
        match read_response_resumable(&mut BufReader::new(Cursor::new(buf))).unwrap() {
            ReadOutcome::Truncated {
                received,
                expected_len,
                ..
            } => {
                assert_eq!(expected_len, body.len());
                assert_eq!(received, body[..cut]);
                assert!(
                    received.capacity() <= expected_len,
                    "capacity {} over declared {expected_len}",
                    received.capacity()
                );
            }
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn incremental_parse_matches_blocking_reader() {
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            "/category/health%20%26%20fitness?start=0&count=100",
            &[("User-Agent", "gaugeNN/1.0"), ("X-Connection-Id", "7")],
        )
        .unwrap();
        let blocking = read_request(&mut BufReader::new(Cursor::new(buf.clone())))
            .unwrap()
            .unwrap();
        let (incremental, consumed) = parse_request(&buf).unwrap().unwrap();
        assert_eq!(incremental, blocking);
        assert_eq!(consumed, buf.len());
    }

    #[test]
    fn incremental_parse_is_split_invariant() {
        // The torn-write property: a head delivered in two reads split at
        // ANY byte boundary parses to `None` on the prefix and to the
        // identical request once the suffix lands.
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            "/apk/com.example.app",
            &[("User-Agent", "ua"), ("X-Range-Start", "1024")],
        )
        .unwrap();
        let (whole, consumed) = parse_request(&buf).unwrap().unwrap();
        assert_eq!(consumed, buf.len());
        for cut in 0..buf.len() {
            assert!(
                parse_request(&buf[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes must be incomplete"
            );
            let mut acc = buf[..cut].to_vec();
            acc.extend_from_slice(&buf[cut..]);
            let (req, n) = parse_request(&acc).unwrap().unwrap();
            assert_eq!(req, whole, "split at byte {cut} changed the parse");
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn incremental_parse_leaves_pipelined_tail() {
        let mut buf = Vec::new();
        write_request(&mut buf, "/categories", &[("User-Agent", "ua")]).unwrap();
        let first_len = buf.len();
        write_request(&mut buf, "/app/com.x", &[("User-Agent", "ua")]).unwrap();
        let (first, n) = parse_request(&buf).unwrap().unwrap();
        assert_eq!(first.path, "/categories");
        assert_eq!(n, first_len);
        let (second, m) = parse_request(&buf[n..]).unwrap().unwrap();
        assert_eq!(second.path, "/app/com.x");
        assert_eq!(n + m, buf.len());
    }

    #[test]
    fn incremental_parse_rejects_bad_heads_and_floods() {
        assert!(parse_request(b"POST / GAUGE/1.0\r\n\r\n").is_err());
        assert!(parse_request(b"GET / HTTP/1.1\r\n\r\n").is_err());
        assert!(parse_request(b"GET / GAUGE/1.0\r\nnocolon\r\n\r\n").is_err());
        // An unbounded junk stream with no terminator must error rather
        // than buffer forever.
        let flood = vec![b'a'; MAX_REQUEST_HEAD + 1];
        assert!(parse_request(&flood).is_err());
        // ...but a buffer still under the cap simply waits for more.
        assert!(parse_request(b"GET /ca").unwrap().is_none());
    }

    #[test]
    fn response_completeness_probe_is_split_invariant() {
        let body: Vec<u8> = (0..=255u8).collect();
        let mut buf = Vec::new();
        let mut resp = Response::ok(body.clone());
        resp.headers.push(("x-body-crc32".into(), "00000000".into()));
        write_response(&mut buf, &resp).unwrap();
        assert!(response_frame_complete(&buf));
        for cut in 0..buf.len() {
            assert!(
                !response_frame_complete(&buf[..cut]),
                "prefix of {cut} bytes must be undecidable"
            );
        }
        // The resolved frame matches the blocking reader byte-for-byte.
        match finish_response_frame(&buf, None).unwrap() {
            ReadOutcome::Complete(got) => {
                let want = read_response(&mut BufReader::new(Cursor::new(buf))).unwrap();
                assert_eq!(got, want);
            }
            other => panic!("expected complete, got {other:?}"),
        }
    }

    #[test]
    fn malformed_heads_are_decidable_without_body_bytes() {
        assert!(response_frame_complete(b"HTTP/1.1 200 OK\r\n\r\n"));
        assert!(response_frame_complete(b"GAUGE/1.0 abc OK\r\n\r\n"));
        assert!(response_frame_complete(b"GAUGE/1.0 200 OK\r\nno-length: 1\r\n\r\n"));
        assert!(response_frame_complete(b"GAUGE/1.0 200 OK\r\nnocolon\r\n\r\n"));
        assert!(response_frame_complete(
            b"GAUGE/1.0 200 OK\r\nContent-Length: 999999999999\r\n\r\n"
        ));
        // ...and the resolved errors match the blocking reader's strings.
        let err = finish_response_frame(b"HTTP/1.1 200 OK\r\n\r\n", None).unwrap_err();
        assert!(err.to_string().contains("bad status line"), "{err}");
        let err =
            finish_response_frame(b"GAUGE/1.0 200 OK\r\nno-length: 1\r\n\r\n", None).unwrap_err();
        assert!(err.to_string().contains("missing content-length"), "{err}");
    }

    #[test]
    fn finish_resolves_truncation_like_the_blocking_reader() {
        let body: Vec<u8> = (0..100u8).collect();
        let mut buf = Vec::new();
        write_response(&mut buf, &Response::ok(body.clone())).unwrap();
        let header_end = buf.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        buf.truncate(header_end + 30);
        // Clean EOF mid-body: preserved prefix, exactly as blocking.
        match finish_response_frame(&buf, None).unwrap() {
            ReadOutcome::Truncated {
                status,
                received,
                expected_len,
                ..
            } => {
                assert_eq!((status, expected_len), (200, 100));
                assert_eq!(received, body[..30].to_vec());
            }
            other => panic!("expected truncation, got {other:?}"),
        }
        // A reset mid-body with a non-empty prefix: still Truncated (the
        // blocking body loop keeps what arrived).
        let reset = || std::io::Error::new(std::io::ErrorKind::ConnectionReset, "reset");
        match finish_response_frame(&buf, Some(reset())).unwrap() {
            ReadOutcome::Truncated { received, .. } => assert_eq!(received.len(), 30),
            other => panic!("expected truncation, got {other:?}"),
        }
        // A reset before any body byte: the blocking loop propagates the
        // io error instead of holding a zero-byte prefix.
        let head_only = buf[..header_end].to_vec();
        let err = finish_response_frame(&head_only, Some(reset())).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
        // A reset mid-head: blocking `read_line` would have surfaced it.
        let err = finish_response_frame(b"GAUGE/1.0 2", Some(reset())).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
        // Clean EOF at byte 0 keeps the blocking path's protocol error.
        let err = finish_response_frame(b"", None).unwrap_err();
        assert!(err.to_string().contains("connection closed mid-response"), "{err}");
    }

    #[test]
    fn status_helpers() {
        assert_eq!(Response::not_found("x").status, 404);
        assert_eq!(Response::bad_request("y").status, 400);
        assert!(Response::not_found("pkg").text().contains("pkg"));
    }
}
