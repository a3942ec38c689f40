//! The listener front-end: transport selection (epoll reactor or portable
//! poll loop), keep-alive connection handling, accept-error triage, and
//! graceful shutdown, all feeding one bounded worker pool.

use std::io::{self, BufRead, BufReader, IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use cc_reactor::{Poller, Waker};

use crate::config::Transport;
use crate::http::{read_request, write_response, HttpError, Response};
use crate::pool::{SubmitError, WorkerPool};
use crate::reactor::REPARK_GRACE;
use crate::source::LoadedBackend;
use crate::state::AppState;
use crate::ServerConfig;

/// How long the poll-loop acceptor sleeps when there is nothing to accept.
/// The epoll reactor has no such floor: accepts are event-driven.
const ACCEPT_IDLE: Duration = Duration::from_micros(500);

/// Accepted connections that may wait for a worker before the acceptor
/// starts shedding load with `503`.
const BACKLOG: usize = 128;

/// The `cc-serve` front-end: binds, spawns the acceptor and worker pool,
/// and serves a distance oracle until [`ServerHandle::shutdown`].
pub struct Server;

impl Server {
    /// Binds `config.addr` and starts serving an artifact already in
    /// memory in the background, with no default reload source. A bare
    /// [`cc_oracle::DistanceOracle`] is reported as an in-process build;
    /// pass [`LoadedBackend::mono`] so `/stats` and `/artifact` carry
    /// another identity.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors and a failure to spawn the
    /// worker or acceptor threads. Everything after a successful return is
    /// handled per-connection.
    pub fn start(
        config: &ServerConfig,
        backend: impl Into<LoadedBackend>,
    ) -> io::Result<ServerHandle> {
        Server::start_with_state(config, AppState::new(backend, config.cache_capacity))
    }

    /// Starts a server from a [`crate::source::BackendSpec`] — files that
    /// can be re-read, named directly or by a manifest (`cc-serve
    /// --manifest`) — which also becomes the reload source. The spec
    /// decides the tier; endpoints, reloads, and stats are identical
    /// either way.
    ///
    /// # Errors
    ///
    /// Everything [`crate::source::BackendSpec::load`] rejects (mapped to
    /// `InvalidInput`, naming the offending file — including an
    /// `expected_set_id` mismatch), bind I/O errors and thread spawn
    /// failures. A missing, corrupt
    /// or inconsistent artifact fails **here**, before the socket ever
    /// accepts — the startup gate the router e2e suite pins down.
    pub fn start_from_spec(
        config: &ServerConfig,
        spec: crate::source::BackendSpec,
    ) -> io::Result<ServerHandle> {
        let state = AppState::from_spec(spec, config.cache_capacity)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        Server::start_with_state(config, state)
    }

    fn start_with_state(config: &ServerConfig, mut state: AppState) -> io::Result<ServerHandle> {
        if let Some(log) = &config.access_log {
            state.set_access_log(Arc::clone(log));
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        // Resolve the transport before sharing the state so `/stats` can
        // report the choice actually running, not the one requested.
        let poller = resolve_poller(config.transport, &listener);
        state.set_transport_label(if poller.is_some() { "epoll" } else { "poll" });
        let waker = poller.as_ref().map(Poller::waker);

        let state = Arc::new(state);
        let shutdown = Arc::new(AtomicBool::new(false));
        // The pool exists before the acceptor does, so a failed spawn is this
        // call's error rather than an acceptor that dies after `Ok`.
        let acceptor = {
            let (state, shutdown, config) =
                (Arc::clone(&state), Arc::clone(&shutdown), config.clone());
            match poller {
                Some(poller) => {
                    // Workers send still-open connections back and wake the
                    // reactor to re-park them; during shutdown they close them.
                    let (reparked_tx, reparked) = mpsc::channel::<Conn>();
                    let (stopping, waker) = (Arc::clone(&shutdown), poller.waker());
                    let repark = move |conn| {
                        if !stopping.load(Ordering::Acquire) && reparked_tx.send(conn).is_ok() {
                            waker.wake();
                        }
                    };
                    let pool = worker_pool(&config, &state, &shutdown, REPARK_GRACE, repark)?;
                    std::thread::Builder::new().name("cc-serve-reactor".to_owned()).spawn(
                        move || {
                            crate::reactor::reactor_loop(
                                &listener, &config, &state, &shutdown, &poller, pool, &reparked,
                            );
                        },
                    )?
                }
                None => {
                    // Lingering for the whole read timeout pins a worker on
                    // each connection for its life; one that comes back idle
                    // has timed out, and dropping it closes it.
                    let pool = worker_pool(&config, &state, &shutdown, config.read_timeout, drop)?;
                    std::thread::Builder::new()
                        .name("cc-serve-accept".to_owned())
                        .spawn(move || accept_loop(&listener, &config, &state, &shutdown, &pool))?
                }
            }
        };

        Ok(ServerHandle { addr, shutdown, acceptor: Some(acceptor), waker, state })
    }
}

/// Resolves the configured [`Transport`] to `Some(poller)` (epoll reactor,
/// listener already registered) or `None` (the portable poll loop: forced,
/// or where epoll is unavailable).
fn resolve_poller(transport: Transport, listener: &TcpListener) -> Option<Poller> {
    if transport == Transport::Poll {
        return None;
    }
    let poller = Poller::new().ok()?;
    register_listener(&poller, listener).ok().map(|()| poller)
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
    /// SIGHUP watcher calling [`AppState::reload`].
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
    state: &AppState,
    shutdown: &AtomicBool,
    pool: &WorkerPool<Conn>,
) {
    let mut backoff = AcceptBackoff::new();
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                backoff.reset();
                let Ok(conn) = Conn::new(stream, config.read_timeout) else { continue };
                match pool.try_submit(conn) {
                    Ok(()) => {}
                    Err(SubmitError::Full(mut conn) | SubmitError::Closed(mut conn)) => {
                        shed(state, &mut conn.writer);
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

/// The worker pool both transports feed: every worker runs [`serve_ready`]
/// with the transport's `linger` and passes a connection that came back
/// idle to `idle`. The pool owns the connection handlers; dropping it
/// drains the queue and joins the workers.
fn worker_pool(
    config: &ServerConfig,
    state: &Arc<AppState>,
    shutdown: &Arc<AtomicBool>,
    linger: Duration,
    idle: impl Fn(Conn) + Send + Sync + 'static,
) -> io::Result<WorkerPool<Conn>> {
    let (state, shutdown) = (Arc::clone(state), Arc::clone(shutdown));
    let (max_body, read_timeout) = (config.max_body_bytes, config.read_timeout);
    let depth = state.registry().gauge("cc_pool_queue_depth", &[]);
    let work = move |conn| {
        if let Some(conn) = serve_ready(&state, conn, max_body, read_timeout, linger, &shutdown) {
            idle(conn);
        }
    };
    WorkerPool::with_queue_gauge("cc-serve-worker", config.workers, BACKLOG, depth, work)
}

/// Load-shedding at the edge, shared by both transports: answer `503`
/// inline on the acceptor thread (cheap, and bounded by the connection's
/// write timeout, so a non-reading peer cannot block it for long) rather
/// than queueing unbounded work. Counted in `/stats` so shedding is visible
/// exactly when monitoring needs it.
pub(crate) fn shed(state: &AppState, w: &mut ResponseWriter) {
    state.count_load_shed();
    let resp = Response::error_json(503, "server is at capacity, retry later");
    let _ = w.send(&resp, false, false);
}

/// Buffer capacity for both halves of a connection; the client reads
/// through the same size. Sized so a whole binary batch frame (4096 pairs ≈
/// 32 KiB) moves in one read syscall instead of four through the 8 KiB
/// default. A response that fits is sent from one buffer in one write; a
/// larger one (a 4096-pair answer frame is 32 776 bytes) leaves in one
/// vectored write of its head and its body.
pub(crate) const IO_BUF: usize = 32 * 1024;

/// The write half of a connection: every response goes to the socket in
/// one `write(2)` or `writev(2)`, which repeats only for what the socket
/// did not take.
pub(crate) struct ResponseWriter<W = TcpStream> {
    out: W,
    /// The response being sent: its head, and its body too if both fit.
    buf: Vec<u8>,
}

impl<W: Write> ResponseWriter<W> {
    pub(crate) fn new(out: W) -> Self {
        ResponseWriter { out, buf: Vec::with_capacity(IO_BUF) }
    }

    /// Sends `resp`, without its body if `head_only`, in the bytes
    /// [`write_response`] writes. A head and body that fit [`IO_BUF`] are
    /// copied together and written at once, as one `write(2)` is cheaper
    /// than a `writev(2)` of two slices for a small response; a larger body
    /// is not copied.
    pub(crate) fn send(
        &mut self,
        resp: &Response,
        keep_alive: bool,
        head_only: bool,
    ) -> io::Result<()> {
        self.buf.clear();
        write_response(&mut self.buf, resp, keep_alive, true)?;
        let body: &[u8] = if head_only { &[] } else { &resp.body };
        if body.len() <= IO_BUF.saturating_sub(self.buf.len()) {
            self.buf.extend_from_slice(body);
            return self.out.write_all(&self.buf);
        }
        let mut slices = [IoSlice::new(&self.buf), IoSlice::new(body)];
        let mut pending = &mut slices[..];
        while !pending.is_empty() {
            match self.out.write_vectored(pending) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(sent) => IoSlice::advance_slices(&mut pending, sent),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// One accepted connection: a buffered read half and a response writer on
/// the same socket, with read and write timeouts already armed. Both
/// transports serve through this.
pub(crate) struct Conn {
    pub(crate) reader: BufReader<TcpStream>,
    pub(crate) writer: ResponseWriter,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, timeout: Duration) -> io::Result<Conn> {
        // The listener is non-blocking; the accepted connection is served
        // blocking by whichever worker gets it.
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        // A write timeout too: a client that sends requests but never reads
        // the responses would otherwise fill the kernel send buffer and
        // block a worker forever (slow-reader DoS against the bounded pool).
        stream.set_write_timeout(Some(timeout))?;
        let read_half = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::with_capacity(IO_BUF, read_half),
            writer: ResponseWriter::new(stream),
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
fn serve_one(state: &AppState, conn: &mut Conn, max_body: usize, shutdown: &AtomicBool) -> Served {
    let started = std::time::Instant::now();
    match read_request(&mut conn.reader, max_body) {
        Ok(req) => {
            let id = state.access_log().map(|log| log.begin());
            let resp = state.handle(&req);
            let keep_alive = req.keep_alive && !shutdown.load(Ordering::Acquire);
            // HEAD answers carry GET's status and headers, never a body.
            let head = req.method == "HEAD";
            let sent = conn.writer.send(&resp, keep_alive, head);
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
            let _ = conn.writer.send(&resp, false, false);
            Served::Close
        }
        Err(HttpError::BadRequest(what)) => {
            state.count_protocol_error();
            let _ = conn.writer.send(&Response::error_json(400, what), false, false);
            Served::Close
        }
        Err(HttpError::Io(_)) => Served::Close, // timeout or reset: just close
    }
}

/// The worker body of both transports: serve every request already
/// pipelined on the wire plus any that arrives within `linger` of the
/// previous response, then hand the idle connection back (`Some`). `None`
/// means closed.
///
/// The epoll reactor lingers for a few milliseconds and re-parks what
/// comes back instead of pinning a worker on it; the poll transport lingers
/// for the whole `read_timeout`, so what comes back has idled out.
fn serve_ready(
    state: &AppState,
    mut conn: Conn,
    max_body: usize,
    read_timeout: Duration,
    linger: Duration,
    shutdown: &AtomicBool,
) -> Option<Conn> {
    loop {
        // Block until the first byte of the next request is buffered, and
        // only then start the clock (see `serve_one`).
        match conn.reader.fill_buf() {
            Ok([]) => return None, // clean EOF between requests
            Ok(_) => {}
            Err(_) => return None, // timeout or reset while idle
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
                // Linger read: wait for a follow-up request. The timeout
                // swap must round-trip — a connection with an unknown read
                // timeout cannot be parked.
                if conn.reader.get_ref().set_read_timeout(Some(linger)).is_err() {
                    return None;
                }
                let outcome = conn.reader.fill_buf().map(|buf| buf.is_empty());
                if conn.reader.get_ref().set_read_timeout(Some(read_timeout)).is_err() {
                    return None;
                }
                match outcome {
                    Ok(true) => return None, // clean EOF in the linger window
                    Ok(false) => {}          // next request is here: serve it
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        return Some(conn); // genuinely idle: hand it back
                    }
                    Err(_) => return None,
                }
            }
        }
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

    /// A `Write` that records every call it receives. A vectored call takes
    /// every slice, as a socket with room does, unless `limit` caps the
    /// bytes one call may take.
    #[derive(Default)]
    struct Counting {
        writes: Vec<Vec<u8>>,
        limit: Option<usize>,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut taken: Vec<u8> = bufs.iter().flat_map(|b| b.iter().copied()).collect();
            taken.truncate(self.limit.unwrap_or(usize::MAX));
            self.writes.push(taken);
            Ok(self.writes.last().map_or(0, Vec::len))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_response_is_one_write_of_the_same_wire_bytes() {
        let pairs: Vec<u64> = (0..4096).collect();
        let responses = [
            Response::json(200, r#"{"u":0,"v":1,"distance":7}"#),
            // 8 + 4096·8 = 32 776 bytes: past IO_BUF, so head and body
            // leave from two slices.
            Response {
                status: 200,
                content_type: cc_reactor::frame::CONTENT_TYPE,
                body: cc_reactor::frame::encode_response(&pairs),
            },
            Response::text(200, &"7\n".repeat(4096)),
        ];
        assert_eq!(responses[1].body.len(), 32_776);
        // One writer across all of them, as a keep-alive connection reuses it.
        let mut w = ResponseWriter::new(Counting::default());
        for (resp, head_only) in responses.iter().flat_map(|r| [(r, false), (r, true)]) {
            let mut wire = Vec::new();
            write_response(&mut wire, resp, true, head_only).unwrap();
            w.send(resp, true, head_only).unwrap();
            let writes = std::mem::take(&mut w.out.writes);
            assert_eq!(writes, [wire], "{} bytes, head only: {head_only}", resp.body.len());
        }
        assert_eq!(w.buf.capacity(), IO_BUF, "the buffer outgrew IO_BUF");
    }

    #[test]
    fn a_response_the_socket_takes_in_parts_is_sent_whole() {
        // One copied into the buffer, and one past it, written from two
        // slices; the socket takes 5 000 bytes a call.
        for len in [500, 40_000] {
            let resp = Response::text(200, &"0123456789".repeat(len / 10));
            let mut wire = Vec::new();
            write_response(&mut wire, &resp, false, false).unwrap();
            let mut w = ResponseWriter::new(Counting { writes: Vec::new(), limit: Some(5_000) });
            w.send(&resp, false, false).unwrap();
            assert_eq!(w.out.writes.len(), wire.len().div_ceil(5_000), "{len}-byte body");
            assert_eq!(w.out.writes.concat(), wire, "{len}-byte body");
        }
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
