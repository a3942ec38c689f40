//! The HTTP/1.1 request parser under hostile bytes.
//!
//! Arbitrary bytes, fragment soups, truncations and single-byte mutations
//! of valid requests never panic `http::read_request`, and it never reads a
//! body past `max_body`: past the first empty line it consumes at most
//! `max_body` bytes. A generated valid request parses back to its method,
//! path, parameters and body, consuming exactly its own bytes, so the next
//! pipelined request starts where it stops.

use std::io::Cursor;
use std::ops::Range;

use congested_clique::serve::http::{read_request, HttpError, Request};
use proptest::prelude::*;

const MAX_BODY: usize = 64;

/// Parses `bytes` with the `MAX_BODY` limit and checks what every outcome
/// must respect. Returns the result and the number of bytes consumed.
fn parse_checked(bytes: &[u8]) -> (Result<Request, HttpError>, usize) {
    let mut cursor = Cursor::new(bytes);
    let result = read_request(&mut cursor, MAX_BODY);
    let consumed = usize::try_from(cursor.position()).expect("in-memory offset");
    assert!(
        consumed <= header_end(bytes) + MAX_BODY,
        "read {consumed} bytes, past the headers ({}) plus max_body",
        header_end(bytes)
    );
    if let Ok(req) = &result {
        assert!(req.body.len() <= MAX_BODY, "buffered a {}-byte body", req.body.len());
    }
    (result, consumed)
}

/// The offset just past the first empty line (`\n\n` or `\n\r\n`): where
/// the headers end if the request parses that far. The input's length if
/// there is none.
fn header_end(bytes: &[u8]) -> usize {
    (1..bytes.len())
        .find_map(|i| match (bytes[i - 1], bytes[i], bytes.get(i + 1)) {
            (b'\n', b'\n', _) => Some(i + 1),
            (b'\n', b'\r', Some(b'\n')) => Some(i + 2),
            _ => None,
        })
        .unwrap_or(bytes.len())
}

fn arb_byte() -> impl Strategy<Value = u8> {
    (0u16..256).prop_map(|b| b as u8)
}

/// A string of `len` characters drawn from `alphabet`.
fn arb_token(alphabet: &'static [u8], len: Range<usize>) -> impl Strategy<Value = String> {
    prop::collection::vec(0..alphabet.len(), len)
        .prop_map(move |ix| ix.into_iter().map(|i| char::from(alphabet[i])).collect())
}

/// Characters a path segment or a query key or value may hold: none of
/// `/ ? & =`, no whitespace.
const TOKEN: &[u8] = b"abcxyzAZ0189-_.~%";
const METHODS: [&str; 4] = ["GET", "POST", "HEAD", "DELETE"];

/// One well-formed request and what it must parse back to.
#[derive(Debug, Clone)]
struct Valid {
    method: &'static str,
    path: String,
    query: Vec<(String, String)>,
    body: Vec<u8>,
    content_type: Option<String>,
    http11: bool,
    close: bool,
}

impl Valid {
    fn bytes(&self) -> Vec<u8> {
        let mut target = self.path.clone();
        for (i, (k, v)) in self.query.iter().enumerate() {
            target.push(if i == 0 { '?' } else { '&' });
            target.push_str(&format!("{k}={v}"));
        }
        let version = if self.http11 { "HTTP/1.1" } else { "HTTP/1.0" };
        let mut head = format!("{} {target} {version}\r\nHost: x\r\n", self.method);
        if let Some(ct) = &self.content_type {
            head.push_str(&format!("Content-Type: {ct}\r\n"));
        }
        if self.close {
            head.push_str("Connection: close\r\n");
        }
        if !self.body.is_empty() {
            head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        }
        head.push_str("\r\n");
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(&self.body);
        bytes
    }
}

/// Valid requests; some bodies exceed `MAX_BODY`.
fn arb_valid() -> impl Strategy<Value = Valid> {
    let path = prop::collection::vec(arb_token(TOKEN, 1..6), 0..4)
        .prop_map(|segments| format!("/{}", segments.join("/")));
    let query = prop::collection::vec((arb_token(TOKEN, 1..6), arb_token(TOKEN, 0..6)), 0..4);
    let content_type =
        (0usize..2).prop_map(|i| (i == 1).then(|| "application/x-cc-batch".to_owned()));
    let flags = (0usize..4).prop_map(|b| (b & 1 == 1, b & 2 == 2));
    (
        0..METHODS.len(),
        (path, query),
        prop::collection::vec(arb_byte(), 0..2 * MAX_BODY),
        content_type,
        flags,
    )
        .prop_map(|(m, (path, query), body, content_type, (http11, close))| Valid {
            method: METHODS[m],
            path,
            query,
            body,
            content_type,
            http11,
            close,
        })
}

/// Pieces of requests, glued in any order: most soups fail somewhere
/// inside the grammar rather than at the first byte.
const FRAGMENTS: [&[u8]; 18] = [
    b"GET",
    b"POST",
    b" ",
    b"/distance",
    b"?u=1&v=2",
    b" HTTP/1.1",
    b" HTTP/1.0",
    b"\r\n",
    b"\n",
    b"\r",
    b":",
    b"Content-Length: ",
    b"Transfer-Encoding: chunked",
    b"Connection: close",
    b"0",
    b"64",
    b"65",
    b"18446744073709551616",
];

fn arb_soup() -> impl Strategy<Value = Vec<u8>> {
    let piece = prop_oneof![
        4 => (0..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i].to_vec()),
        1 => prop::collection::vec(arb_byte(), 1..4),
    ];
    prop::collection::vec(piece, 0..40).prop_map(|pieces| pieces.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_or_overread(bytes in prop::collection::vec(arb_byte(), 0..300)) {
        let _ = parse_checked(&bytes);
    }

    #[test]
    fn fragment_soups_never_panic_or_overread(bytes in arb_soup()) {
        let _ = parse_checked(&bytes);
    }

    #[test]
    fn valid_requests_parse_back_and_consume_exactly_themselves(req in arb_valid()) {
        let mut bytes = req.bytes();
        let len = bytes.len();
        // A second request behind it must stay unread.
        bytes.extend_from_slice(b"GET /next HTTP/1.1\r\n\r\n");
        match parse_checked(&bytes) {
            (Err(HttpError::PayloadTooLarge { limit }), _) => {
                prop_assert!(req.body.len() > MAX_BODY);
                prop_assert_eq!(limit, MAX_BODY);
            }
            (Ok(got), consumed) => {
                prop_assert!(req.body.len() <= MAX_BODY);
                prop_assert_eq!(consumed, len);
                prop_assert_eq!(got.method.as_str(), req.method);
                prop_assert_eq!(&got.path, &req.path);
                prop_assert_eq!(&got.query, &req.query);
                prop_assert_eq!(&got.body, &req.body);
                prop_assert_eq!(&got.content_type, &req.content_type);
                prop_assert_eq!(got.keep_alive, req.http11 && !req.close);
            }
            (Err(e), _) => panic!("valid request refused: {e:?}\n{req:?}"),
        }
    }

    #[test]
    fn truncated_valid_requests_never_parse(req in arb_valid(), cut in 0usize..1024) {
        let bytes = req.bytes();
        let cut = cut % bytes.len();
        let (result, _) = parse_checked(&bytes[..cut]);
        prop_assert!(result.is_err(), "a {cut}-byte prefix of {} parsed", bytes.len());
    }

    #[test]
    fn mutated_valid_requests_never_panic_or_overread(
        req in arb_valid(),
        at in 0usize..1024,
        byte in arb_byte(),
    ) {
        let mut bytes = req.bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        let _ = parse_checked(&bytes);
    }
}
