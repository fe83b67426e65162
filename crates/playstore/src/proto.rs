//! Wire protocol between the store server and the crawler.
//!
//! An HTTP/1.0-flavoured framing, built by hand (per the session's
//! networking idioms): request line + headers + blank line, response with a
//! status line and `Content-Length`-framed body. The crawler sets the
//! `User-Agent`, `X-Locale` and `X-Device-Profile` headers — "both the
//! user-agent and locale headers are defined, which determine the variant
//! of the store and apps retrieved" (§3.1).
//!
//! Both store clients read responses through one head parser. The
//! blocking crawler feeds it lines from a `BufRead`
//! ([`read_response_resumable`]); the non-blocking lanes run it over
//! their read buffer ([`response_frame_complete`], then
//! [`finish_response_frame`]). The same bytes, ending the same way,
//! therefore give both clients the same outcome and the same error.

use crate::{Result, StoreError};
use std::io::{self, BufRead, Read, Write};

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
/// Cap on the response head, the counterpart of [`MAX_REQUEST_HEAD`]: a
/// head not finished within it is a protocol error, so a store that keeps
/// sending header bytes cannot grow a client's read buffer without bound.
pub const MAX_RESPONSE_HEAD: usize = 16 * 1024;

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
pub fn read_response(r: &mut impl BufRead) -> Result<Response> {
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
/// The reader is left at the end of the frame, so pipelined responses
/// read back one after another. A read error before the first body byte
/// is returned as the error; after it, the prefix is kept. On a blocking
/// socket a read timeout is such an error (`WouldBlock`).
///
/// The body's first reservation is at most 1 MiB. After that it grows
/// geometrically, but never past the declared `Content-Length`: a
/// complete body's `capacity()` equals its `len()`, and a truncated
/// prefix holds no more than the declared length. A hostile declared
/// length therefore costs allocation in proportion to the bytes that
/// actually arrive, and a downloaded container carries no slack for as
/// long as the crawl holds it.
pub fn read_response_resumable(r: &mut impl BufRead) -> Result<ReadOutcome> {
    let mut head_bytes = Vec::new();
    let head = loop {
        // One byte past the cap is enough to reject a head that overruns it.
        let limit = (MAX_RESPONSE_HEAD + 1 - head_bytes.len()) as u64;
        let ended = r.by_ref().take(limit).read_until(b'\n', &mut head_bytes)? == 0;
        if let Some(head) = parse_head(&head_bytes, ended, |_, _| {})? {
            break head;
        }
    };
    // The loop only asked whether the head was whole; now keep its headers.
    let mut headers = Vec::new();
    parse_head(&head_bytes, true, |name, value| headers.push(owned(name, value)))?;
    let mut body = Vec::with_capacity(head.len.min(1 << 20));
    while body.len() < head.len {
        let chunk = match r.fill_buf() {
            Ok([]) => break,
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if body.is_empty() => return Err(e.into()),
            // A timeout/reset mid-body: whatever arrived is still a
            // valid prefix worth resuming from.
            Err(_) => break,
        };
        let n = chunk.len().min(head.len - body.len());
        if body.capacity() - body.len() < n {
            let target = (body.capacity() * 2).max(body.len() + n).min(head.len);
            body.reserve_exact(target - body.len());
        }
        body.extend_from_slice(&chunk[..n]);
        r.consume(n);
    }
    Ok(outcome(head, headers, body))
}

/// Incremental completeness probe for a client-side response buffer, the
/// response-direction counterpart of [`parse_request`] for non-blocking
/// connection state machines that accumulate reads as they arrive.
///
/// Returns `true` once the buffered bytes are *decidable*: either a full
/// `Content-Length`-framed response is present, or the head is malformed
/// in a way no further bytes can repair (bad status line, bad header,
/// missing or unparseable `Content-Length`, a declared body over
/// [`MAX_BODY`], a head past [`MAX_RESPONSE_HEAD`]). Returns `false`
/// while more bytes could still change the answer. It runs the head
/// parser over the buffer and compares lengths; it allocates nothing and
/// copies no body, since a lane calls it after every read.
pub fn response_frame_complete(buf: &[u8]) -> bool {
    match parse_head(buf, false, |_, _| {}) {
        Ok(Some(head)) => buf.len() - head.end >= head.len,
        Ok(None) => false,
        Err(_) => true,
    }
}

/// Resolve an accumulated response buffer to the outcome the blocking
/// reader gives for the same bytes ending the same way.
///
/// Call when [`response_frame_complete`] returns `true`, or when the
/// stream ended (EOF or a read error) with the frame still incomplete.
/// `io_err` is the read error that ended the stream, if any (`None` for
/// clean EOF). Bytes past the frame are ignored. As in
/// [`read_response_resumable`], the read error is the outcome when it
/// cut the head or came before the first body byte; otherwise the body
/// prefix is kept.
pub fn finish_response_frame(buf: &[u8], io_err: Option<io::Error>) -> Result<ReadOutcome> {
    let mut headers = Vec::new();
    let parsed = parse_head(buf, io_err.is_none(), |name, value| {
        headers.push(owned(name, value))
    });
    let Some(head) = parsed? else {
        // Only a read error leaves a head cut; a clean EOF decides every head.
        return Err(io_err.map_or_else(|| BadHead::EofInHeaders.into(), Into::into));
    };
    let body = &buf[head.end..];
    let body = &body[..body.len().min(head.len)];
    match io_err {
        Some(e) if body.is_empty() && head.len > 0 => Err(e.into()),
        _ => Ok(outcome(head, headers, body.to_vec())),
    }
}

/// A response head: status, declared body length, and the head's own
/// length in bytes (status line through blank line).
struct Head {
    status: u16,
    len: usize,
    end: usize,
}

/// Why a response head can never parse. It borrows the offending line,
/// so [`response_frame_complete`] decides a malformed head without
/// allocating; `?` turns it into the error both readers return.
enum BadHead<'a> {
    Closed,
    EofInHeaders,
    NotUtf8,
    StatusLine(&'a str),
    StatusCode,
    Header(&'a str),
    NoLength,
    BodyTooLarge(usize),
    HeadTooLong,
}

impl From<BadHead<'_>> for StoreError {
    fn from(bad: BadHead<'_>) -> StoreError {
        StoreError::Protocol(match bad {
            // The error `read_line` gives for a line that is not UTF-8.
            BadHead::NotUtf8 => {
                return io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                )
                .into()
            }
            BadHead::Closed => "connection closed mid-response".into(),
            BadHead::EofInHeaders => "eof in headers".into(),
            BadHead::StatusLine(line) => format!("bad status line: {line}"),
            BadHead::StatusCode => "missing status code".into(),
            BadHead::Header(line) => format!("bad header: {line}"),
            BadHead::NoLength => "missing content-length".into(),
            BadHead::BodyTooLarge(len) => format!("body too large: {len}"),
            BadHead::HeadTooLong => format!("response head exceeds {MAX_RESPONSE_HEAD} bytes"),
        })
    }
}

/// The one response-head parser, run by both clients over the head bytes
/// they hold. It reads them as a `read_line` loop would: each line is
/// UTF-8-checked and `trim_end`ed; the first must be `GAUGE/1.0 <code> …`;
/// `name: value` headers follow up to the first blank line, each handed to
/// `header` trimmed, and the first `Content-Length` among them frames the
/// body.
///
/// `Ok(None)` while a line is cut and more bytes may come; with `ended` (a
/// clean EOF follows `buf`), a cut last line counts as the last line. A
/// head that runs past [`MAX_RESPONSE_HEAD`] is an error, so no more than
/// one byte past the cap is looked at.
fn parse_head(
    buf: &[u8],
    ended: bool,
    mut header: impl FnMut(&str, &str),
) -> std::result::Result<Option<Head>, BadHead<'_>> {
    let buf = &buf[..buf.len().min(MAX_RESPONSE_HEAD + 1)];
    let (mut end, mut status, mut content_length) = (0, None, None);
    loop {
        let rest = &buf[end..];
        let n = match rest.iter().position(|&b| b == b'\n') {
            Some(i) => i + 1,
            None if ended && rest.is_empty() => {
                return Err(match status {
                    None => BadHead::Closed,
                    Some(_) => BadHead::EofInHeaders,
                })
            }
            None if ended || buf.len() > MAX_RESPONSE_HEAD => rest.len(),
            None => return Ok(None),
        };
        end += n;
        if end > MAX_RESPONSE_HEAD {
            return Err(BadHead::HeadTooLong);
        }
        let line = std::str::from_utf8(&rest[..n])
            .map_err(|_| BadHead::NotUtf8)?
            .trim_end();
        let Some(status) = status else {
            let mut parts = line.split(' ');
            if parts.next() != Some(PROTO) {
                return Err(BadHead::StatusLine(line));
            }
            let code = parts.next().and_then(|s| s.parse::<u16>().ok());
            status = Some(code.ok_or(BadHead::StatusCode)?);
            continue;
        };
        if line.is_empty() {
            let len = content_length.flatten().ok_or(BadHead::NoLength)?;
            if len > MAX_BODY {
                return Err(BadHead::BodyTooLarge(len));
            }
            return Ok(Some(Head { status, len, end }));
        }
        let (name, value) = line.split_once(':').ok_or(BadHead::Header(line))?;
        let (name, value) = (name.trim(), value.trim());
        if content_length.is_none() && name.eq_ignore_ascii_case("content-length") {
            content_length = Some(value.parse::<usize>().ok());
        }
        header(name, value);
    }
}

/// A header as [`Response::headers`] stores it: name lower-cased.
fn owned(name: &str, value: &str) -> (String, String) {
    (name.to_ascii_lowercase(), value.to_string())
}

/// A complete response once the body reached its declared length,
/// otherwise the truncated prefix.
fn outcome(head: Head, headers: Vec<(String, String)>, body: Vec<u8>) -> ReadOutcome {
    if body.len() == head.len {
        ReadOutcome::Complete(Response {
            status: head.status,
            headers,
            body,
        })
    } else {
        ReadOutcome::Truncated {
            status: head.status,
            headers,
            received: body,
            expected_len: head.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor};

    #[test]
    fn request_roundtrip() {
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            "/category/finance?start=0&count=100",
            &[("User-Agent", "gaugeNN/1.0"), ("X-Locale", "en_GB")],
        )
        .unwrap();
        let (req, consumed) = parse_request(&buf).unwrap().unwrap();
        assert_eq!(consumed, buf.len());
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
    fn bad_frames_rejected() {
        assert!(parse_request(b"POST / GAUGE/1.0\r\n\r\n").is_err());
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

    /// The line reader the crawler used before both clients shared one
    /// head parser, kept verbatim: the readers are held to its outcomes
    /// and error strings.
    mod reference {
        use crate::proto::{ReadOutcome, Response, MAX_BODY, PROTO};
        use crate::{Result, StoreError};
        use std::io::{BufRead, BufReader, Read};

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
    }

    /// Hands out `bytes` at most `chunk` at a time, then ends in a clean
    /// EOF or, with `reset`, a connection reset.
    struct Chunked<'a> {
        bytes: &'a [u8],
        chunk: usize,
        reset: bool,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.bytes.is_empty() {
                return if self.reset { Err(reset()) } else { Ok(0) };
            }
            let n = buf.len().min(self.chunk).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    fn reset() -> io::Error {
        io::Error::new(io::ErrorKind::ConnectionReset, "reset")
    }

    /// What the comparison sees of a read: `Debug` of the outcome,
    /// `Display` of the error.
    fn shown(read: Result<ReadOutcome>) -> String {
        match read {
            Ok(outcome) => format!("{outcome:?}"),
            Err(e) => format!("error: {e}"),
        }
    }

    /// Well-formed frames, one with a pipelined tail, and malformed or
    /// ambiguous heads.
    fn reference_frames() -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        for len in [0u8, 1, 100] {
            let mut resp = Response::ok((0..len).collect());
            resp.headers.push((CRC_HEADER.into(), "0badc0de".into()));
            let mut frame = Vec::new();
            write_response(&mut frame, &resp).unwrap();
            frames.push(frame);
        }
        let mut not_found = Vec::new();
        write_response(&mut not_found, &Response::not_found("com.x")).unwrap();
        frames.push(not_found.clone());
        not_found.extend_from_slice(b"GAUGE/1.0 200 OK\r\n");
        frames.push(not_found);
        let malformed: [&[u8]; 11] = [
            b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
            b" GAUGE/1.0 200 OK\r\nContent-Length: 0\r\n\r\n",
            b"GAUGE/1.0 abc OK\r\nContent-Length: 0\r\n\r\n",
            b"GAUGE/1.0 200 OK\r\nnocolon\r\nContent-Length: 1\r\n\r\nx",
            b"GAUGE/1.0 200 OK\r\nContent-Length: 1\r\nnocolon\r\n\r\nx",
            b"GAUGE/1.0 200 OK\r\nx-a: b\r\n\r\n",
            b"GAUGE/1.0 200 OK\r\nContent-Length: ten\r\n\r\n",
            b"GAUGE/1.0 200 OK\r\nContent-Length: 999999999999\r\n\r\n",
            b"GAUGE/1.0 200 OK\r\nContent-Length: 1\r\ncontent-length: 2\r\n\r\nxy",
            b"GAUGE/1.0 200 OK\r\nx-a: \xff\r\nContent-Length: 0\r\n\r\n",
            b"GAUGE/1.0 200 OK  \r\nContent-Length: 3  \r\n  \r\nabc",
        ];
        frames.extend(malformed.iter().map(|head| head.to_vec()));
        frames
    }

    #[test]
    fn both_readers_match_the_reference_at_every_cut() {
        for frame in reference_frames() {
            for cut in 0..=frame.len() {
                let bytes = &frame[..cut];
                for reset_ends in [false, true] {
                    let source = |capacity, chunk| {
                        let reset = reset_ends;
                        BufReader::with_capacity(capacity, Chunked { bytes, chunk, reset })
                    };
                    let want = shown(reference::read_response_resumable(&mut source(8192, 8192)));
                    for capacity in [1, 3, 7, 8192] {
                        for chunk in [1, 5, 8192] {
                            let got = shown(read_response_resumable(&mut source(capacity, chunk)));
                            assert_eq!(
                                got, want,
                                "{bytes:?} reset={reset_ends} capacity={capacity} chunk={chunk}"
                            );
                        }
                    }
                    let got = shown(finish_response_frame(bytes, reset_ends.then(reset)));
                    assert_eq!(got, want, "lane: {bytes:?} reset={reset_ends}");
                }
            }
        }
        // A status line cut by a reset: the line reader rejects it before
        // it reads on, so a lane does too.
        let err = finish_response_frame(b"HTTP/1.1 200 OK\r\n", Some(reset())).unwrap_err();
        assert!(err.to_string().contains("bad status line"), "{err}");
    }

    #[test]
    fn pipelined_frames_read_back_exactly_at_every_capacity() {
        let sent: Vec<Response> = [&b""[..], b"x", &[7u8; 10_000], b"tail"]
            .into_iter()
            .map(|body| Response::ok(body.to_vec()))
            .collect();
        let mut wire = Vec::new();
        for resp in &sent {
            write_response(&mut wire, resp).unwrap();
        }
        for capacity in 1..=8192 {
            let mut r = BufReader::with_capacity(capacity, &wire[..]);
            for want in &sent {
                let got = read_response(&mut r).unwrap();
                assert_eq!(got.body, want.body, "capacity {capacity}");
            }
            assert!(r.fill_buf().unwrap().is_empty(), "capacity {capacity}");
        }
    }

    #[test]
    fn a_head_past_the_cap_is_decided_by_every_reader() {
        let status = b"GAUGE/1.0 200 OK\r\n";
        let unended_headers: Vec<u8> = status
            .iter()
            .chain(b"x-pad: 1\r\n".iter().cycle())
            .take(MAX_RESPONSE_HEAD + 1)
            .copied()
            .collect();
        let unended_line = vec![b'a'; MAX_RESPONSE_HEAD + 1];
        for head in [unended_headers, unended_line] {
            assert!(!response_frame_complete(&head[..MAX_RESPONSE_HEAD]));
            assert!(response_frame_complete(&head));
            for io_err in [None, Some(reset())] {
                let err = finish_response_frame(&head, io_err).unwrap_err();
                assert!(err.to_string().contains("response head exceeds"), "{err}");
            }
            let err = read_response_resumable(&mut &head[..]).unwrap_err();
            assert!(err.to_string().contains("response head exceeds"), "{err}");
        }
        // A head of exactly the cap still parses.
        let tail = b"Content-Length: 0\r\n\r\n";
        let mut full = status.to_vec();
        full.extend(b"x-pad: ");
        full.resize(MAX_RESPONSE_HEAD - tail.len() - 2, b'p');
        full.extend(b"\r\n");
        full.extend(tail);
        assert_eq!(full.len(), MAX_RESPONSE_HEAD);
        assert!(response_frame_complete(&full));
        let want = shown(read_response_resumable(&mut &full[..]));
        assert!(want.starts_with("Complete"), "{want}");
        assert_eq!(shown(finish_response_frame(&full, None)), want);

        /// A peer that sends `a` forever and counts what it hands out.
        struct NoNewline(usize);
        impl Read for NoNewline {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                buf.fill(b'a');
                self.0 += buf.len();
                Ok(buf.len())
            }
        }
        impl BufRead for NoNewline {
            fn fill_buf(&mut self) -> io::Result<&[u8]> {
                Ok(&[b'a'; 64])
            }
            fn consume(&mut self, n: usize) {
                self.0 += n;
            }
        }
        let mut peer = NoNewline(0);
        let err = read_response_resumable(&mut peer).unwrap_err();
        assert!(err.to_string().contains("response head exceeds"), "{err}");
        assert!(peer.0 <= MAX_RESPONSE_HEAD + 1, "took {} bytes", peer.0);
    }

    #[test]
    fn status_helpers() {
        assert_eq!(Response::not_found("x").status, 404);
        assert_eq!(Response::bad_request("y").status, 400);
        assert!(Response::not_found("pkg").text().contains("pkg"));
    }
}
