//! A deliberately small HTTP/1.1 layer over `std::io`: request parsing with
//! hard limits (line length, header count, body size) and response writing.
//!
//! The build image has no tokio/hyper, so this implements exactly the subset
//! `cc-serve` needs — `GET`/`POST`, query strings, `Content-Length` bodies,
//! keep-alive — with every limit enforced *before* the bytes are buffered,
//! so hostile input costs bounded memory.

use std::io::{self, BufRead, Write};

/// Longest accepted request/header line (bytes, excluding CRLF).
pub const MAX_LINE_BYTES: usize = 8 * 1024;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the target, without the query string.
    pub path: String,
    /// Raw `key=value` pairs from the query string, in order. No
    /// percent-decoding is applied: node ids are plain decimal, so an
    /// encoded id (`u=%30`) is rejected as malformed rather than decoded.
    pub query: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
    /// The `Content-Type` header value verbatim, if one was sent. Handlers
    /// use it to negotiate body encodings (e.g. the binary batch frame).
    pub content_type: Option<String>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// The first value of query parameter `name`, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection cleanly before a request line; the
    /// keep-alive loop should just end.
    Closed,
    /// The bytes were not a well-formed request (maps to 400).
    BadRequest(String),
    /// `Content-Length` exceeded the configured limit (maps to 413).
    PayloadTooLarge {
        /// The configured body limit that was exceeded.
        limit: usize,
    },
    /// The transport failed (including read timeouts).
    Io(io::Error),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one `\n`-terminated line (CR stripped) without ever buffering more
/// than `limit` bytes. `Ok(None)` is a clean EOF before any byte.
fn read_line(r: &mut impl BufRead, limit: usize) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::BadRequest("connection closed mid-line".into()));
        }
        let (chunk, found) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i, true),
            None => (buf.len(), false),
        };
        if line.len() + chunk > limit {
            return Err(HttpError::BadRequest(format!("line exceeds {limit} bytes")));
        }
        line.extend_from_slice(&buf[..chunk]);
        r.consume(chunk + usize::from(found));
        if found {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            let s = String::from_utf8(line)
                .map_err(|_| HttpError::BadRequest("non-UTF-8 request line or header".into()))?;
            return Ok(Some(s));
        }
    }
}

/// Splits a request target into path and parsed query pairs.
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_owned(), Vec::new()),
        Some((path, qs)) => {
            let query = qs
                .split('&')
                .filter(|part| !part.is_empty())
                .map(|part| match part.split_once('=') {
                    Some((k, v)) => (k.to_owned(), v.to_owned()),
                    None => (part.to_owned(), String::new()),
                })
                .collect();
            (path.to_owned(), query)
        }
    }
}

/// Reads and parses one request, enforcing all limits.
///
/// # Errors
///
/// See [`HttpError`]; notably [`HttpError::Closed`] on clean EOF and
/// [`HttpError::PayloadTooLarge`] when `Content-Length > max_body`.
pub fn read_request(r: &mut impl BufRead, max_body: usize) -> Result<Request, HttpError> {
    let Some(request_line) = read_line(r, MAX_LINE_BYTES)? else {
        return Err(HttpError::Closed);
    };
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(HttpError::BadRequest(format!("malformed request line '{request_line}'"))),
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return Err(HttpError::BadRequest(format!("unsupported version '{other}'"))),
    };

    let mut content_length: Option<usize> = None;
    let mut content_type: Option<String> = None;
    let mut keep_alive = http11; // HTTP/1.1 defaults to persistent.
    for count in 0.. {
        if count >= MAX_HEADERS {
            return Err(HttpError::BadRequest(format!("more than {MAX_HEADERS} headers")));
        }
        let line = read_line(r, MAX_LINE_BYTES)?
            .ok_or_else(|| HttpError::BadRequest("connection closed inside headers".into()))?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header '{line}'")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                // A repeated Content-Length is the classic request-smuggling
                // / framing-desync vector (RFC 7230 §3.3.3): reject rather
                // than silently letting the last value win.
                if content_length.is_some() {
                    return Err(HttpError::BadRequest("duplicate content-length header".into()));
                }
                content_length =
                    Some(value.parse().map_err(|_| {
                        HttpError::BadRequest(format!("bad content-length '{value}'"))
                    })?);
            }
            "connection" => {
                // The header is a comma-separated token list (RFC 9110
                // §7.6.1). Match whole tokens, not substrings: a value like
                // `keep-alive-extension` names an extension, not the
                // `keep-alive` option, and must not flip the default.
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        keep_alive = false;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        keep_alive = true;
                    }
                }
            }
            "content-type" => content_type = Some(value.to_owned()),
            // Only Content-Length framing is implemented; silently treating
            // a chunked body as empty would produce a *wrong 200* and
            // desync the connection, so reject it up front.
            "transfer-encoding" => {
                return Err(HttpError::BadRequest(
                    "transfer-encoding is not supported; send a Content-Length body".into(),
                ));
            }
            _ => {}
        }
    }

    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::PayloadTooLarge { limit: max_body });
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;

    let (path, query) = parse_target(target);
    Ok(Request { method: method.to_owned(), path, query, body, content_type, keep_alive })
}

/// One response to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Value of the `Content-Type` header.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given pre-rendered body.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response { status, content_type: "application/json", body: body.into() }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: &str) -> Response {
        Response { status, content_type: "text/plain; charset=utf-8", body: body.into() }
    }

    /// A JSON error body `{"error": "..."}` with proper string escaping.
    pub fn error_json(status: u16, message: impl AsRef<str>) -> Response {
        let message = cc_telemetry::json::escape(message.as_ref());
        Response::json(status, format!("{{\"error\":\"{message}\"}}"))
    }
}

/// The reason phrase for the status codes `cc-serve` emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes `resp`; `keep_alive` picks the `Connection` header.
///
/// When `head_only` is set (the request was `HEAD`), the status line and
/// headers — including the `Content-Length` the matching `GET` would carry,
/// per RFC 9110 §9.3.2 — are written but the body is omitted.
///
/// # Errors
///
/// Propagates transport write errors.
pub fn write_response(
    w: &mut impl Write,
    resp: &Response,
    keep_alive: bool,
    head_only: bool,
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    if head_only {
        return Ok(());
    }
    w.write_all(&resp.body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8], max_body: usize) -> Result<Request, HttpError> {
        read_request(&mut Cursor::new(bytes), max_body)
    }

    #[test]
    fn parses_get_with_query_string() {
        let req = parse(b"GET /distance?u=3&v=17 HTTP/1.1\r\nHost: x\r\n\r\n", 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/distance");
        assert_eq!(req.param("u"), Some("3"));
        assert_eq!(req.param("v"), Some("17"));
        assert_eq!(req.param("w"), None);
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let req =
            parse(b"POST /batch HTTP/1.1\r\nContent-Length: 7\r\n\r\n0 1\n2 3", 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"0 1\n2 3");
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", 1024).unwrap();
        assert!(!req.keep_alive);
        let req = parse(b"GET / HTTP/1.0\r\n\r\n", 1024).unwrap();
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn connection_header_matches_whole_tokens_not_substrings() {
        // `keep-alive-extension` is some extension token, NOT the
        // `keep-alive` option: it must not resurrect an HTTP/1.0 connection.
        let req =
            parse(b"GET / HTTP/1.0\r\nConnection: keep-alive-extension\r\n\r\n", 1024).unwrap();
        assert!(!req.keep_alive, "substring match misread an extension token");
        // ... and `x-close-notify` contains `close` but is not `close`.
        let req = parse(b"GET / HTTP/1.1\r\nConnection: x-close-notify\r\n\r\n", 1024).unwrap();
        assert!(req.keep_alive, "substring match misread an unrelated token");
    }

    #[test]
    fn connection_header_token_list_is_trimmed_and_case_insensitive() {
        let req =
            parse(b"GET / HTTP/1.0\r\nConnection: X-Trace , Keep-Alive\r\n\r\n", 1024).unwrap();
        assert!(req.keep_alive, "second token should enable keep-alive on 1.0");
        let req = parse(b"GET / HTTP/1.1\r\nConnection: keep-alive, CLOSE\r\n\r\n", 1024).unwrap();
        assert!(!req.keep_alive, "explicit close wins regardless of case");
    }

    #[test]
    fn content_type_header_is_captured_verbatim() {
        let req = parse(
            b"POST /batch HTTP/1.1\r\nContent-Type: application/x-cc-batch\r\nContent-Length: 0\r\n\r\n",
            1024,
        )
        .unwrap();
        assert_eq!(req.content_type.as_deref(), Some("application/x-cc-batch"));
        let req = parse(b"GET / HTTP/1.1\r\n\r\n", 1024).unwrap();
        assert_eq!(req.content_type, None);
    }

    #[test]
    fn oversized_body_is_payload_too_large_not_a_read() {
        let err = parse(b"POST /batch HTTP/1.1\r\nContent-Length: 999999\r\n\r\n", 64).unwrap_err();
        assert!(matches!(err, HttpError::PayloadTooLarge { limit: 64 }));
    }

    #[test]
    fn garbage_is_bad_request_and_eof_is_closed() {
        assert!(matches!(parse(b"NOT HTTP AT ALL\r\n\r\n", 64), Err(HttpError::BadRequest(_))));
        assert!(matches!(parse(b"GET /x SPDY/9\r\n\r\n", 64), Err(HttpError::BadRequest(_))));
        assert!(matches!(parse(b"", 64), Err(HttpError::Closed)));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 64),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn duplicate_content_length_is_rejected_not_last_one_wins() {
        // Last-one-wins would answer the wrong request and desync framing
        // (request smuggling through a disagreeing front proxy).
        let raw = b"POST /batch HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 0\r\n\r\nAAAAA";
        assert!(matches!(parse(raw, 1024), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn chunked_bodies_are_rejected_not_misread_as_empty() {
        // Treating a chunked body as empty would answer a wrong 200 and
        // then parse the chunk framing as the next request.
        let raw =
            b"POST /batch HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\n0 1\n\r\n0\r\n\r\n";
        assert!(matches!(parse(raw, 1024), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn over_long_lines_are_rejected_with_bounded_memory() {
        let mut raw = Vec::from(&b"GET /"[..]);
        raw.extend(std::iter::repeat_n(b'a', MAX_LINE_BYTES + 10));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert!(matches!(parse(&raw, 64), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn too_many_headers_are_rejected() {
        let mut raw = Vec::from(&b"GET / HTTP/1.1\r\n"[..]);
        for i in 0..(MAX_HEADERS + 1) {
            raw.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        assert!(matches!(parse(&raw, 64), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn response_serialization_is_well_formed() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::error_json(400, "a \"quoted\" id"), false, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 400 Bad Request\r\n"));
        assert!(text.contains("Connection: close"));
        assert!(text.ends_with("{\"error\":\"a \\\"quoted\\\" id\"}"));
    }

    #[test]
    fn error_json_escapes_quotes_backslashes_and_control_characters() {
        let resp = Response::error_json(400, "bad \"id\" C:\\x\u{1}\n");
        assert_eq!(resp.body, br#"{"error":"bad \"id\" C:\\x\u0001\n"}"#);
    }

    #[test]
    fn head_responses_keep_framing_headers_but_omit_the_body() {
        let resp = Response::text(200, "ok\n");
        let mut get_bytes = Vec::new();
        write_response(&mut get_bytes, &resp, true, false).unwrap();
        let mut head_bytes = Vec::new();
        write_response(&mut head_bytes, &resp, true, true).unwrap();

        let head_text = String::from_utf8(head_bytes).unwrap();
        // Identical headers — including the Content-Length the GET body
        // would have — then nothing after the blank line.
        assert!(head_text.contains("Content-Length: 3\r\n"));
        assert!(head_text.ends_with("\r\n\r\n"));
        let get_text = String::from_utf8(get_bytes).unwrap();
        assert_eq!(get_text.strip_suffix("ok\n"), Some(head_text.as_str()));
    }
}
