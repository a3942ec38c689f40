//! The epoll transport: one reactor thread owns the listener and every
//! idle keep-alive connection, and only *ready* sockets are handed to the
//! worker pool.
//!
//! This inverts the poll transport's cost model. There, a worker is pinned
//! to a connection for its whole life, so idle keep-alive peers occupy the
//! bounded pool and new accepts wait on a 500 µs sleep-poll. Here the
//! kernel tells us which sockets have bytes: accepts happen the moment a
//! SYN lands, idle connections cost one parked map entry, and the pool's
//! workers only ever run with a request already buffered. The handler,
//! HTTP, and pool layers are untouched — the reactor is purely a smarter
//! front end on the same [`WorkerPool`] seam.
//!
//! Flow: `epoll_wait` → ready listener? accept a burst, park each new
//! connection → ready connection? unregister it and submit to the pool →
//! worker serves every pipelined request (`crate::server`'s `serve_ready`,
//! the one connection loop both transports run) and sends the still-open
//! connection back over a channel, waking the reactor to re-park it.
//! Connections idle past the read timeout are swept. Shutdown
//! ([`crate::ServerHandle::shutdown`]) wakes the reactor via its
//! [`cc_reactor::Waker`]; it drops parked connections and joins the pool.

use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::Receiver;
use std::time::Duration;

use cc_reactor::Poller;

use crate::pool::WorkerPool;
use crate::server::Conn;
use crate::state::AppState;
use crate::ServerConfig;

/// Token under which the listening socket is registered; connection tokens
/// start above it and are never reused for the listener.
pub(crate) const LISTENER_TOKEN: u64 = 0;

/// How long a worker lingers on a just-served connection before handing it
/// back for parking. A client in a request/response loop sends its next
/// request within microseconds; catching it on the worker keeps the exchange
/// worker-local instead of paying a full park → epoll → dispatch round-trip
/// per request. Only connections idle past this grace window cost a reactor
/// cycle — and only those stop occupying a worker.
pub(crate) const REPARK_GRACE: Duration = Duration::from_millis(5);

#[cfg(unix)]
mod imp {
    use super::{
        AppState, Conn, Poller, Receiver, ServerConfig, TcpListener, WorkerPool, LISTENER_TOKEN,
    };
    use std::collections::HashMap;
    use std::io;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    use crate::pool::SubmitError;
    use crate::server::{classify_accept_error, shed, AcceptBackoff, AcceptErrorClass};
    use cc_reactor::Event;

    /// Upper bound on one `epoll_wait`, so the shutdown flag and the idle
    /// sweep are checked regularly even on a silent server.
    const MAX_WAIT: Duration = Duration::from_millis(500);

    struct Parked {
        conn: Conn,
        deadline: Instant,
    }

    /// What `accept_burst` left the listener in.
    enum AcceptOutcome {
        /// Drained to `WouldBlock`; the listener stays registered.
        Drained,
        /// Kernel out of resources (EMFILE & co): the listener was
        /// deregistered so level-triggered epoll stops re-firing it; the
        /// reactor re-registers it once the deadline passes. The reactor
        /// thread itself never sleeps — parked connections keep serving
        /// while accepts are deferred.
        Deferred(Instant),
        /// Fatal accept error: the listener is retired for good (parked
        /// connections still serve).
        Retired,
    }

    pub(super) fn reactor_loop(
        listener: &TcpListener,
        config: &ServerConfig,
        state: &AppState,
        shutdown: &AtomicBool,
        poller: &Poller,
        pool: WorkerPool<Conn>,
        reparked: &Receiver<Conn>,
    ) {
        let idle = config.read_timeout;
        let mut parked: HashMap<u64, Parked> = HashMap::new();
        let mut next_token: u64 = LISTENER_TOKEN + 1;
        let mut events: Vec<Event> = Vec::new();
        let mut backoff = AcceptBackoff::new();
        let mut accepting = true;
        // While `Some`, the listener is deregistered (overload backoff);
        // the deadline is folded into the wait timeout below so deferral
        // never blocks the reactor thread itself.
        let mut resume_accept_at: Option<Instant> = None;

        while !shutdown.load(Ordering::Acquire) {
            if let Some(at) = resume_accept_at {
                if Instant::now() >= at {
                    resume_accept_at = None;
                    use std::os::fd::AsRawFd;
                    if poller.add(listener.as_raw_fd(), LISTENER_TOKEN).is_err() {
                        eprintln!("cc-serve: could not re-register listener, no longer accepting");
                        accepting = false;
                    }
                }
            }
            let next_deadline = parked.values().map(|p| p.deadline).chain(resume_accept_at).min();
            let timeout = next_deadline
                .map_or(MAX_WAIT, |d| d.saturating_duration_since(Instant::now()).min(MAX_WAIT));
            events.clear();
            if poller.wait(&mut events, Some(timeout)).is_err() {
                // epoll itself failed; nothing event-driven can continue.
                eprintln!("cc-serve: reactor wait failed, stopping transport");
                break;
            }
            for ev in &events {
                if ev.token == LISTENER_TOKEN {
                    if accepting {
                        match accept_burst(
                            listener,
                            config,
                            state,
                            poller,
                            &mut parked,
                            &mut next_token,
                            &mut backoff,
                        ) {
                            AcceptOutcome::Drained => {}
                            AcceptOutcome::Deferred(at) => resume_accept_at = Some(at),
                            AcceptOutcome::Retired => accepting = false,
                        }
                    }
                } else if let Some(p) = parked.remove(&ev.token) {
                    let _ = poller.delete(p.conn.fd());
                    // Dispatch even when `closed` was flagged: RDHUP can
                    // arrive together with the final request bytes
                    // (half-close); the worker sees EOF after serving them.
                    match pool.try_submit(p.conn) {
                        Ok(()) => {}
                        Err(SubmitError::Full(mut conn) | SubmitError::Closed(mut conn)) => {
                            shed(state, &mut conn.writer);
                        }
                    }
                }
            }
            // Re-park connections the workers finished with. Tokens are
            // per-parking, not per-connection: a fresh one each time keeps
            // stale events (already-removed tokens) harmless.
            while let Ok(conn) = reparked.try_recv() {
                let token = next_token;
                next_token += 1;
                park(poller, &mut parked, conn, token, Instant::now() + idle);
            }
            // Idle sweep: cut loose keep-alive peers past the read timeout,
            // exactly like the poll transport's per-socket read timeout.
            let now = Instant::now();
            let expired: Vec<u64> =
                parked.iter().filter(|(_, p)| p.deadline <= now).map(|(token, _)| *token).collect();
            for token in expired {
                if let Some(p) = parked.remove(&token) {
                    let _ = poller.delete(p.conn.fd());
                }
            }
        }

        // Shutdown: parked peers are dropped (idle by definition), the pool
        // drains and joins, then anything workers returned meanwhile drops.
        for (_, p) in parked.drain() {
            let _ = poller.delete(p.conn.fd());
        }
        drop(pool);
        while reparked.try_recv().is_ok() {}
    }

    /// Registers a connection for readiness and remembers its deadline; a
    /// registration failure just closes the connection.
    fn park(
        poller: &Poller,
        parked: &mut HashMap<u64, Parked>,
        conn: Conn,
        token: u64,
        deadline: Instant,
    ) {
        if poller.add(conn.fd(), token).is_ok() {
            parked.insert(token, Parked { conn, deadline });
        }
    }

    /// Accepts until the listener would block. See [`AcceptOutcome`] for
    /// the three ways out; on overload and on fatal errors the listener is
    /// deregistered here, never slept on.
    fn accept_burst(
        listener: &TcpListener,
        config: &ServerConfig,
        state: &AppState,
        poller: &Poller,
        parked: &mut HashMap<u64, Parked>,
        next_token: &mut u64,
        backoff: &mut AcceptBackoff,
    ) -> AcceptOutcome {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    backoff.reset();
                    if let Ok(conn) = Conn::new(stream, config.read_timeout) {
                        let token = *next_token;
                        *next_token += 1;
                        // Fresh connections are parked, not dispatched: the
                        // first bytes are typically an RTT away, and level-
                        // triggered epoll fires immediately if they beat us.
                        park(poller, parked, conn, token, Instant::now() + config.read_timeout);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return AcceptOutcome::Drained,
                Err(e) => {
                    state.count_accept_error();
                    match classify_accept_error(&e) {
                        AcceptErrorClass::Transient => {}
                        AcceptErrorClass::Overload => {
                            // Accepting is pointless while the kernel is out
                            // of resources, but sleeping here would stall
                            // every parked connection. Deregister the
                            // listener (level-triggered epoll would re-fire
                            // it instantly otherwise) and let the reactor
                            // re-register it after the backoff deadline.
                            use std::os::fd::AsRawFd;
                            let _ = poller.delete(listener.as_raw_fd());
                            return AcceptOutcome::Deferred(Instant::now() + backoff.next());
                        }
                        AcceptErrorClass::Fatal => {
                            eprintln!("cc-serve: fatal accept error, no longer accepting: {e}");
                            use std::os::fd::AsRawFd;
                            let _ = poller.delete(listener.as_raw_fd());
                            return AcceptOutcome::Retired;
                        }
                    }
                }
            }
        }
    }
}

/// Runs the epoll transport until shutdown, dispatching ready connections
/// to `pool` and re-parking those its workers send back on `reparked`. See
/// the module docs for the event flow; the portable poll loop is
/// `crate::server`'s `accept_loop`.
#[cfg(unix)]
pub(crate) fn reactor_loop(
    listener: &TcpListener,
    config: &ServerConfig,
    state: &AppState,
    shutdown: &AtomicBool,
    poller: &Poller,
    pool: WorkerPool<Conn>,
    reparked: &Receiver<Conn>,
) {
    imp::reactor_loop(listener, config, state, shutdown, poller, pool, reparked);
}

/// Off-unix stand-in. Unreachable in practice — transport resolution never
/// yields a poller here — but if it somehow runs, serve via the poll loop
/// rather than going dark.
#[cfg(not(unix))]
pub(crate) fn reactor_loop(
    listener: &TcpListener,
    config: &ServerConfig,
    state: &AppState,
    shutdown: &AtomicBool,
    _poller: &Poller,
    pool: WorkerPool<Conn>,
    _reparked: &Receiver<Conn>,
) {
    crate::server::accept_loop(listener, config, state, shutdown, &pool);
}
