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
        Ok(BlockingClient { reader, writer: stream })
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
        write!(self.writer, "{method} {target} HTTP/1.1\r\nHost: cc-serve\r\n")?;
        if let Some(ct) = content_type {
            write!(self.writer, "Content-Type: {ct}\r\n")?;
        }
        write!(self.writer, "Content-Length: {}\r\n\r\n", body.len())?;
        self.writer.write_all(body)?;
        self.writer.flush()
    }

    /// Reads the status line and headers; returns `(status, content_length)`
    /// with the body left unread on the wire.
    fn read_head(&mut self) -> io::Result<(u16, usize)> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(bad("server closed the connection"));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
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
