//! A minimal blocking HTTP/1.1 client over `std::net`, for the e2e tests,
//! the benchmark ledger and the examples in this workspace.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::server::IO_BUF;

/// A minimal blocking HTTP/1.1 client for the e2e tests, benches and
/// examples in this workspace (keep-alive, `Content-Length` framing only).
pub struct BlockingClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The request being sent, head and body, reused across requests: a
    /// `TCP_NODELAY` socket puts every `write` on the wire as its own
    /// segment, so each request goes out in one.
    request: Vec<u8>,
    /// The response line [`BlockingClient::read_head`] is reading, reused
    /// across lines and responses.
    line: String,
}

impl BlockingClient {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: SocketAddr) -> io::Result<BlockingClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let reader = BufReader::with_capacity(IO_BUF, stream.try_clone()?);
        Ok(BlockingClient { reader, writer: stream, request: Vec::new(), line: String::new() })
    }

    /// Issues `GET target`, returning `(status, body)`.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or malformed responses.
    pub fn get(&mut self, target: &str) -> io::Result<(u16, Vec<u8>)> {
        self.request("GET", target, None, &[])
    }

    /// Issues `HEAD target`, returning `(status, declared_content_length)`.
    /// Per RFC 9110 §9.3.2 the response carries no body even though it
    /// declares `Content-Length`.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or malformed responses.
    pub fn head(&mut self, target: &str) -> io::Result<(u16, usize)> {
        self.send_request("HEAD", target, None, &[])?;
        self.read_head()
    }

    /// Issues `POST target` with `body`, returning `(status, body)`.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or malformed responses.
    pub fn post(&mut self, target: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.request("POST", target, None, body)
    }

    /// [`BlockingClient::post`] with an explicit `Content-Type` — e.g.
    /// [`cc_reactor::frame::CONTENT_TYPE`] for binary `/batch` frames.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or malformed responses.
    pub fn post_with_content_type(
        &mut self,
        target: &str,
        content_type: &str,
        body: &[u8],
    ) -> io::Result<(u16, Vec<u8>)> {
        self.request("POST", target, Some(content_type), body)
    }

    fn request(
        &mut self,
        method: &str,
        target: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> io::Result<(u16, Vec<u8>)> {
        self.send_request(method, target, content_type, body)?;
        let (status, content_length) = self.read_head()?;
        let mut body = vec![0u8; content_length];
        std::io::Read::read_exact(&mut self.reader, &mut body)?;
        Ok((status, body))
    }

    fn send_request(
        &mut self,
        method: &str,
        target: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> io::Result<()> {
        write_request(&mut self.writer, &mut self.request, method, target, content_type, body)
    }

    /// Reads the status line and headers; returns `(status, content_length)`
    /// with the body left unread on the wire.
    fn read_head(&mut self) -> io::Result<(u16, usize)> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        let line = &mut self.line;
        line.clear();
        if self.reader.read_line(line)? == 0 {
            return Err(bad("server closed the connection"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(line)? == 0 {
                return Err(bad("connection closed inside headers"));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        Ok((status, content_length))
    }
}

/// Puts one request on `out` in one `write_all`: the request line, the
/// headers and the body are laid out in `buf` first. `buf` grows to
/// exactly the request's size, so it never holds more than the largest
/// request sent.
fn write_request(
    out: &mut impl Write,
    buf: &mut Vec<u8>,
    method: &str,
    target: &str,
    content_type: Option<&str>,
    body: &[u8],
) -> io::Result<()> {
    let [typed, ct, ct_end] = content_type.map_or([""; 3], |ct| ["Content-Type: ", ct, "\r\n"]);
    let head = [
        method,
        " ",
        target,
        " HTTP/1.1\r\nHost: cc-serve\r\n",
        typed,
        ct,
        ct_end,
        "Content-Length: ",
    ];
    let digits = body.len().checked_ilog10().map_or(1, |d| d as usize + 1);
    let size: usize = head.iter().map(|piece| piece.len()).sum();
    buf.clear();
    buf.reserve_exact(size + digits + "\r\n\r\n".len() + body.len());
    for piece in head {
        buf.extend_from_slice(piece.as_bytes());
    }
    // Writing to a `Vec` cannot fail.
    let _ = write!(buf, "{}\r\n\r\n", body.len());
    buf.extend_from_slice(body);
    out.write_all(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` that records every `write` call it receives.
    #[derive(Default)]
    struct Counting {
        writes: Vec<Vec<u8>>,
    }

    impl Write for Counting {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.writes.push(bytes.to_vec());
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_request_is_one_write_of_the_same_wire_bytes() {
        // One buffer across all three requests, as a client reuses it.
        let mut buf = Vec::new();
        let mut send = |method, target, content_type, body: &[u8]| {
            let mut out = Counting::default();
            write_request(&mut out, &mut buf, method, target, content_type, body).unwrap();
            assert_eq!(out.writes.len(), 1, "{method} {target} took {} writes", out.writes.len());
            out.writes.remove(0)
        };
        assert_eq!(
            send("GET", "/distance?u=0&v=1", None, b""),
            b"GET /distance?u=0&v=1 HTTP/1.1\r\nHost: cc-serve\r\nContent-Length: 0\r\n\r\n"
        );
        assert_eq!(
            send("POST", "/batch", None, b"0 1\n2,3\n"),
            b"POST /batch HTTP/1.1\r\nHost: cc-serve\r\nContent-Length: 8\r\n\r\n0 1\n2,3\n"
        );
        let frame = cc_reactor::frame::encode_request(&[(0, 1), (2, 3)]);
        let mut binary_wire = b"POST /batch HTTP/1.1\r\nHost: cc-serve\r\n\
            Content-Type: application/x-cc-batch\r\nContent-Length: 24\r\n\r\n"
            .to_vec();
        binary_wire.extend_from_slice(&frame);
        assert_eq!(
            send("POST", "/batch", Some(cc_reactor::frame::CONTENT_TYPE), &frame),
            binary_wire
        );
        assert_eq!(buf.capacity(), binary_wire.len(), "the buffer outgrew the largest request");
    }
}
