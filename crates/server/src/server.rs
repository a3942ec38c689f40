//! The listener front-end: transport selection (epoll reactor or portable
//! poll loop), keep-alive connection handling, accept-error triage, and
//! graceful shutdown, all feeding one bounded worker pool.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cc_oracle::DistanceOracle;
use cc_reactor::{Poller, Waker};

use crate::config::Transport;
use crate::handlers::AppState;
use crate::http::{read_request, write_response, HttpError, Response};
use crate::pool::{SubmitError, WorkerPool};
use crate::reload::SnapshotInfo;
use crate::ServerConfig;

/// How long the poll-loop acceptor sleeps when there is nothing to accept.
/// The epoll reactor has no such floor: accepts are event-driven.
const ACCEPT_IDLE: Duration = Duration::from_micros(500);

/// The `cc-serve` front-end: binds, spawns the acceptor and worker pool,
/// and serves a [`DistanceOracle`] until [`ServerHandle::shutdown`].
pub struct Server;

impl Server {
    /// Binds `config.addr` and starts serving `oracle` in the background.
    ///
    /// The artifact is reported as an in-process build; a server fronting
    /// a loaded snapshot should use [`Server::start_with_info`] so
    /// `/stats` and `/artifact` carry the snapshot's real identity.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors — including `Unsupported`
    /// when [`Transport::Epoll`] is requested on a platform without epoll.
    /// Everything after a successful return is handled per-connection.
    pub fn start(config: &ServerConfig, oracle: DistanceOracle) -> io::Result<ServerHandle> {
        let info =
            SnapshotInfo::in_process(cc_oracle::serde::payload_checksum(&oracle), "in-process");
        Server::start_with_info(config, oracle, info)
    }

    /// [`Server::start`] with an explicit identity for the initial
    /// artifact (version, build id, source path).
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn start_with_info(
        config: &ServerConfig,
        oracle: DistanceOracle,
        info: SnapshotInfo,
    ) -> io::Result<ServerHandle> {
        let state =
            AppState::with_info(oracle, info, config.cache_capacity, config.reload_path.clone());
        Server::start_with_state(config, state)
    }

    /// Starts a **router-tier** server over a loaded, validated shard set:
    /// `/distance` and `/batch` are answered by combining the two owning
    /// shards' half-results behind a router-level result cache,
    /// `/reload?shard=i` hot-swaps one slice at a time, and `/stats` /
    /// `/artifact` report per-shard build ids.
    ///
    /// # Errors
    ///
    /// Set-validation errors (mapped to `InvalidInput`) and bind I/O
    /// errors. A missing or corrupt shard snapshot fails **here**, before
    /// the socket ever accepts — the startup gate the router e2e suite
    /// pins down.
    pub fn start_sharded(
        config: &ServerConfig,
        shards: Vec<crate::source::LoadedSlice<cc_oracle::OracleShard>>,
    ) -> io::Result<ServerHandle> {
        let state = AppState::with_shards(shards, config.cache_capacity)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        Server::start_with_state(config, state)
    }

    /// Starts a server from a [`crate::source::BackendSpec`] — the
    /// manifest-driven path (`cc-serve --manifest`). The spec decides the
    /// tier; endpoints, reloads, and stats are identical either way.
    ///
    /// # Errors
    ///
    /// Everything [`crate::source::BackendSpec::load`] rejects (mapped to
    /// `InvalidInput`, naming the offending file — including an
    /// `expected_set_id` mismatch) and bind I/O errors.
    pub fn start_from_spec(
        config: &ServerConfig,
        spec: crate::source::BackendSpec,
    ) -> io::Result<ServerHandle> {
        let state = AppState::from_spec(spec, config.cache_capacity)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        Server::start_with_state(config, state)
    }

    fn start_with_state(config: &ServerConfig, mut state: AppState) -> io::Result<ServerHandle> {
        if !config.telemetry_enabled {
            state.disable_telemetry();
        }
        if let Some(log) = &config.access_log {
            state.set_access_log(Arc::clone(log));
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        // Resolve the transport before sharing the state so `/stats` can
        // report the choice actually running, not the one requested.
        let poller = resolve_poller(config.transport, &listener)?;
        state.set_transport_label(if poller.is_some() { "epoll" } else { "poll" });
        let waker = poller.as_ref().map(Poller::waker);

        let state = Arc::new(state);
        let shutdown = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let state = Arc::clone(&state);
            let shutdown = Arc::clone(&shutdown);
            let config = config.clone();
            match poller {
                Some(poller) => std::thread::Builder::new()
                    .name("cc-serve-reactor".to_owned())
                    .spawn(move || {
                        crate::reactor::reactor_loop(
                            &listener, &config, &state, &shutdown, &poller,
                        );
                    })?,
                None => std::thread::Builder::new()
                    .name("cc-serve-accept".to_owned())
                    .spawn(move || accept_loop(&listener, &config, &state, &shutdown))?,
            }
        };

        Ok(ServerHandle { addr, shutdown, acceptor: Some(acceptor), waker, state })
    }
}

/// Resolves the configured [`Transport`] to `Some(poller)` (epoll reactor,
/// listener already registered) or `None` (portable poll loop).
fn resolve_poller(transport: Transport, listener: &TcpListener) -> io::Result<Option<Poller>> {
    let poller = match transport {
        Transport::Poll => return Ok(None),
        // Explicit epoll: surface the failure instead of silently degrading.
        Transport::Epoll => Poller::new()?,
        Transport::Auto => match Poller::new() {
            Ok(p) => p,
            Err(_) => return Ok(None),
        },
    };
    match register_listener(&poller, listener) {
        Ok(()) => Ok(Some(poller)),
        Err(e) if transport == Transport::Epoll => Err(e),
        Err(_) => Ok(None),
    }
}

#[cfg(unix)]
fn register_listener(poller: &Poller, listener: &TcpListener) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    poller.add(listener.as_raw_fd(), crate::reactor::LISTENER_TOKEN)
}

#[cfg(not(unix))]
fn register_listener(_poller: &Poller, _listener: &TcpListener) -> io::Result<()> {
    Err(io::ErrorKind::Unsupported.into())
}

/// Handle to a running server: address, state, and shutdown control.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    waker: Option<Waker>,
    state: Arc<AppState>,
}

impl ServerHandle {
    /// The bound address (resolves port `0` to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared serving state (counters, artifact), e.g. for tests.
    pub fn state(&self) -> &AppState {
        &self.state
    }

    /// An owned handle to the shared serving state, for threads that
    /// outlive borrows of this handle — e.g. the `cc-serve` binary's
    /// SIGHUP watcher calling [`AppState::reload_default`].
    pub fn shared_state(&self) -> Arc<AppState> {
        Arc::clone(&self.state)
    }

    /// Stops accepting, drains in-flight work, and joins every thread.
    ///
    /// Workers finish the connection they are on; a keep-alive peer that
    /// stays silent is cut loose by the configured read timeout, so
    /// shutdown takes at most roughly that long.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks the calling thread until the server stops (e.g. the process
    /// is signalled); used by the `cc-serve` binary.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // The reactor may be parked in `epoll_wait`; the poll loop notices
        // the flag on its own within ACCEPT_IDLE.
        if let Some(waker) = &self.waker {
            waker.wake();
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What `accept(2)` failures mean for the acceptor's control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AcceptErrorClass {
    /// Per-connection failure (peer aborted mid-handshake, signal): count
    /// it and keep accepting at full speed.
    Transient,
    /// Resource exhaustion (fd limits, memory, socket buffers) or anything
    /// unrecognized: count it and back off exponentially — retrying in a
    /// tight loop would spin the CPU while the kernel keeps failing.
    Overload,
    /// The listener itself is broken (bad/stale descriptor): accepting can
    /// never succeed again, stop instead of spinning forever.
    Fatal,
}

pub(crate) fn classify_accept_error(e: &io::Error) -> AcceptErrorClass {
    match e.kind() {
        io::ErrorKind::ConnectionAborted
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::Interrupted => return AcceptErrorClass::Transient,
        _ => {}
    }
    match e.raw_os_error() {
        // EMFILE, ENFILE, ENOMEM, ENOBUFS: the kernel is out of resources;
        // pressure can only drain if we stop hammering accept().
        Some(24 | 23 | 12 | 105) => AcceptErrorClass::Overload,
        // EBADF, EINVAL, ENOTSOCK, EOPNOTSUPP: the descriptor is not a
        // listening socket (anymore) — unrecoverable.
        Some(9 | 22 | 88 | 95) => AcceptErrorClass::Fatal,
        // Unknown errors get the cautious treatment: retry, but slowly.
        _ => AcceptErrorClass::Overload,
    }
}

/// Exponential accept backoff: 1 ms doubling to a 1 s cap, reset by any
/// successful accept.
pub(crate) struct AcceptBackoff {
    delay: Duration,
}

impl AcceptBackoff {
    const INITIAL: Duration = Duration::from_millis(1);
    const CAP: Duration = Duration::from_secs(1);

    pub(crate) fn new() -> AcceptBackoff {
        AcceptBackoff { delay: AcceptBackoff::INITIAL }
    }

    pub(crate) fn reset(&mut self) {
        self.delay = AcceptBackoff::INITIAL;
    }

    /// The delay to sleep now; doubles the next one up to the cap.
    pub(crate) fn next(&mut self) -> Duration {
        let d = self.delay;
        self.delay = (self.delay * 2).min(AcceptBackoff::CAP);
        d
    }
}

/// The portable fallback transport: non-blocking accept polled every
/// [`ACCEPT_IDLE`], each connection owned by one worker until it closes.
pub(crate) fn accept_loop(
    listener: &TcpListener,
    config: &ServerConfig,
    state: &Arc<AppState>,
    shutdown: &Arc<AtomicBool>,
) {
    // The pool owns the connection handlers; dropping it at the end of this
    // function drains the queue and joins the workers.
    let pool: WorkerPool<TcpStream> = {
        let state = Arc::clone(state);
        let shutdown = Arc::clone(shutdown);
        let max_body = config.max_body_bytes;
        let read_timeout = config.read_timeout;
        let depth = state.registry().gauge("cc_pool_queue_depth", &[]);
        WorkerPool::with_queue_gauge(
            "cc-serve-worker",
            config.workers,
            config.backlog,
            depth,
            move |stream| {
                serve_connection(&state, stream, max_body, read_timeout, &shutdown);
            },
        )
    };
    let mut backoff = AcceptBackoff::new();
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                backoff.reset();
                // The listener is non-blocking for the shutdown poll; the
                // accepted connection itself is served blocking.
                let _ = stream.set_nonblocking(false);
                match pool.try_submit(stream) {
                    Ok(()) => {}
                    Err(SubmitError::Full(stream) | SubmitError::Closed(stream)) => {
                        shed_stream(state, stream);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_IDLE),
            Err(e) => {
                state.count_accept_error();
                match classify_accept_error(&e) {
                    AcceptErrorClass::Transient => {}
                    AcceptErrorClass::Overload => std::thread::sleep(backoff.next()),
                    AcceptErrorClass::Fatal => {
                        eprintln!("cc-serve: fatal accept error, no longer accepting: {e}");
                        return;
                    }
                }
            }
        }
    }
}

/// Load-shedding at the edge: answer `503` inline on the acceptor thread
/// (cheap, bounded write) rather than queueing unbounded work. Counted in
/// `/stats` so shedding is visible exactly when monitoring needs it.
fn shed_stream(state: &AppState, stream: TcpStream) {
    // Never let a non-reading peer block the acceptor thread.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut w = BufWriter::new(stream);
    shed(state, &mut w);
}

/// The transport-independent half of load shedding: count and answer 503.
pub(crate) fn shed(state: &AppState, w: &mut impl Write) {
    state.count_load_shed();
    let resp = Response::error_json(503, "server is at capacity, retry later");
    let _ = write_response(w, &resp, false, false).and_then(|()| w.flush());
}

/// Buffer capacity for connection reader/writer halves. Sized so a whole
/// binary batch frame (4096 pairs ≈ 32 KiB) moves in one read and one
/// write syscall instead of four of each through the 8 KiB default — on
/// loopback that also halves the scheduler ping-pong between the client
/// and the serving worker.
const IO_BUF: usize = 32 * 1024;

/// One accepted connection: buffered halves of the same socket, with read
/// and write timeouts already armed. Both transports serve through this.
pub(crate) struct Conn {
    pub(crate) reader: BufReader<TcpStream>,
    pub(crate) writer: BufWriter<TcpStream>,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, timeout: Duration) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        // A write timeout too: a client that sends requests but never reads
        // the responses would otherwise fill the kernel send buffer and
        // block a worker forever (slow-reader DoS against the bounded pool).
        stream.set_write_timeout(Some(timeout))?;
        let read_half = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::with_capacity(IO_BUF, read_half),
            writer: BufWriter::with_capacity(IO_BUF, stream),
        })
    }

    /// The descriptor the reactor registers for read readiness. The two
    /// buffered halves are dup'd descriptors of one socket; readiness is
    /// tracked on the read half.
    #[cfg(unix)]
    pub(crate) fn fd(&self) -> i32 {
        use std::os::fd::AsRawFd;
        self.reader.get_ref().as_raw_fd()
    }
}

/// Outcome of serving one request on a connection.
pub(crate) enum Served {
    /// The response was sent and the connection can carry more requests.
    KeepAlive,
    /// The connection is done (client close, protocol error, I/O failure,
    /// or shutdown); the caller drops it.
    Close,
}

/// Reads, handles, and answers exactly one request. The caller has already
/// confirmed buffered input, so request-duration histograms never charge
/// keep-alive idle time.
pub(crate) fn serve_one(
    state: &AppState,
    conn: &mut Conn,
    max_body: usize,
    shutdown: &AtomicBool,
) -> Served {
    let started = std::time::Instant::now();
    match read_request(&mut conn.reader, max_body) {
        Ok(req) => {
            let id = state.access_log().map(|log| log.begin());
            let resp = state.handle(&req);
            let keep_alive = req.keep_alive && !shutdown.load(Ordering::Acquire);
            // HEAD answers carry GET's status and headers, never a body.
            let head = req.method == "HEAD";
            let sent = respond(&mut conn.writer, &resp, keep_alive, head);
            let duration_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let endpoint = crate::handlers::endpoint_of(&req.path);
            state.record_request(endpoint, duration_ns);
            if let (Some(log), Some(id)) = (state.access_log(), id) {
                log.record(&cc_telemetry::AccessRecord {
                    id,
                    method: &req.method,
                    path: &req.path,
                    status: resp.status,
                    endpoint,
                    duration_ns,
                });
            }
            if sent.is_err() || !keep_alive {
                Served::Close
            } else {
                Served::KeepAlive
            }
        }
        Err(HttpError::Closed) => Served::Close,
        Err(HttpError::PayloadTooLarge { limit }) => {
            // The unread body bytes make the stream unframed: answer and
            // close instead of trying to resynchronize.
            state.count_protocol_error();
            let resp = Response::error_json(413, format!("request body exceeds {limit} bytes"));
            let _ = respond(&mut conn.writer, &resp, false, false);
            Served::Close
        }
        Err(HttpError::BadRequest(what)) => {
            state.count_protocol_error();
            let _ = respond(&mut conn.writer, &Response::error_json(400, what), false, false);
            Served::Close
        }
        Err(HttpError::Io(_)) => Served::Close, // timeout or reset: just close
    }
}

/// Serves one (possibly keep-alive) connection until close/timeout/error —
/// the poll transport's worker body, one worker pinned per connection.
fn serve_connection(
    state: &AppState,
    stream: TcpStream,
    max_body: usize,
    read_timeout: Duration,
    shutdown: &AtomicBool,
) {
    let Ok(mut conn) = Conn::new(stream, read_timeout) else { return };
    loop {
        // Block until the first byte of the next request is buffered, and
        // only then start the clock (see `serve_one`).
        match conn.reader.fill_buf() {
            Ok([]) => return, // clean EOF between requests
            Ok(_) => {}
            Err(_) => return, // timeout or reset while idle
        }
        if matches!(serve_one(state, &mut conn, max_body, shutdown), Served::Close) {
            return;
        }
    }
}

/// How long a reactor worker lingers on a just-served connection before
/// handing it back for parking. A client in a request/response loop sends
/// its next request within microseconds; catching it here keeps the
/// exchange worker-local instead of paying a full park → epoll → dispatch
/// round-trip per request. Only connections idle past this grace window
/// cost a reactor cycle — and only those stop occupying a worker.
const REPARK_GRACE: Duration = Duration::from_millis(5);

/// The reactor transport's worker body: serve every request already
/// pipelined on the wire plus any that arrives within [`REPARK_GRACE`],
/// then hand the idle connection back for parking (`Some`) instead of
/// pinning a worker on it. `None` means closed.
pub(crate) fn serve_ready(
    state: &AppState,
    mut conn: Conn,
    max_body: usize,
    read_timeout: Duration,
    shutdown: &AtomicBool,
) -> Option<Conn> {
    loop {
        match conn.reader.fill_buf() {
            Ok([]) => return None,
            Ok(_) => {}
            Err(_) => return None,
        }
        match serve_one(state, &mut conn, max_body, shutdown) {
            Served::Close => return None,
            Served::KeepAlive => {
                if !conn.reader.buffer().is_empty() {
                    // More pipelined bytes are already buffered: parking
                    // now would stall them (epoll only sees the kernel
                    // queue). Serve them before anything else.
                    continue;
                }
                // Grace read: wait briefly for a follow-up request. The
                // timeout swap must round-trip — a connection with an
                // unknown read timeout cannot be parked.
                if conn.reader.get_ref().set_read_timeout(Some(REPARK_GRACE)).is_err() {
                    return None;
                }
                let outcome = conn.reader.fill_buf().map(|buf| buf.is_empty());
                if conn.reader.get_ref().set_read_timeout(Some(read_timeout)).is_err() {
                    return None;
                }
                match outcome {
                    Ok(true) => return None, // clean EOF in the grace window
                    Ok(false) => {}          // next request is here: serve it
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        return Some(conn); // genuinely idle: park it
                    }
                    Err(_) => return None,
                }
            }
        }
    }
}

fn respond(
    w: &mut BufWriter<TcpStream>,
    resp: &Response,
    keep_alive: bool,
    head: bool,
) -> io::Result<()> {
    write_response(w, resp, keep_alive, head)?;
    w.flush()
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_errors_classify_by_recoverability() {
        // Kind-level transients: the peer gave up, not us.
        for kind in [
            io::ErrorKind::ConnectionAborted,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::Interrupted,
        ] {
            let e = io::Error::from(kind);
            assert_eq!(classify_accept_error(&e), AcceptErrorClass::Transient, "{kind:?}");
        }
        // Resource exhaustion backs off: EMFILE, ENFILE, ENOMEM, ENOBUFS.
        for errno in [24, 23, 12, 105] {
            let e = io::Error::from_raw_os_error(errno);
            assert_eq!(classify_accept_error(&e), AcceptErrorClass::Overload, "errno {errno}");
        }
        // Broken listener is fatal: EBADF, EINVAL, ENOTSOCK, EOPNOTSUPP.
        for errno in [9, 22, 88, 95] {
            let e = io::Error::from_raw_os_error(errno);
            assert_eq!(classify_accept_error(&e), AcceptErrorClass::Fatal, "errno {errno}");
        }
        // Anything unrecognized is treated as overload, never fatal.
        let unknown = io::Error::other("mystery");
        assert_eq!(classify_accept_error(&unknown), AcceptErrorClass::Overload);
    }

    #[test]
    fn accept_backoff_doubles_caps_and_resets() {
        let mut b = AcceptBackoff::new();
        assert_eq!(b.next(), Duration::from_millis(1));
        assert_eq!(b.next(), Duration::from_millis(2));
        assert_eq!(b.next(), Duration::from_millis(4));
        for _ in 0..20 {
            b.next();
        }
        assert_eq!(b.next(), Duration::from_secs(1), "backoff must cap at 1s");
        b.reset();
        assert_eq!(b.next(), Duration::from_millis(1), "success resets the backoff");
    }
}
