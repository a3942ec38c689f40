//! Server tuning knobs.

use std::sync::Arc;
use std::time::Duration;

use cc_telemetry::AccessLog;

/// Which accept/connection transport the server runs.
///
/// The epoll reactor owns the listener plus all idle keep-alive
/// connections and hands *ready* sockets to the worker pool, so accept
/// latency is event-driven (no 500 µs sleep-poll granularity) and an idle
/// connection costs no worker thread. The poll loop is the portable
/// fallback: non-blocking accept with a short sleep, one worker pinned
/// per live connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Use the epoll reactor when the platform supports it (Linux), fall
    /// back to the poll loop elsewhere. The default.
    #[default]
    Auto,
    /// Force the portable sleep-polling accept loop.
    Poll,
}

impl Transport {
    /// The knob's spelling on the `cc-serve --transport` flag.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Transport::Auto => "auto",
            Transport::Poll => "poll",
        }
    }
}

impl std::str::FromStr for Transport {
    type Err = String;

    fn from_str(s: &str) -> Result<Transport, String> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(Transport::Auto),
            "poll" => Ok(Transport::Poll),
            other => Err(format!("unknown transport '{other}' (expected auto or poll)")),
        }
    }
}

/// Configuration for [`crate::Server::start`].
///
/// Plain data with a sensible [`Default`]; builder-style `with_*` methods
/// keep call sites one-liners.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8317`. Port `0` picks an ephemeral
    /// port (the bound address is reported by `ServerHandle::addr`).
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Largest accepted request body; anything bigger is a `413`.
    pub max_body_bytes: usize,
    /// Capacity of the result cache fronting the oracle (rounded up to
    /// whole sets; `0` disables it).
    pub cache_capacity: usize,
    /// Per-connection read timeout; an idle keep-alive connection is closed
    /// after this long.
    pub read_timeout: Duration,
    /// Accept/connection transport ([`Transport::Auto`] resolves to the
    /// epoll reactor on Linux, the poll loop elsewhere). `/stats` reports
    /// the resolved choice as `transport`.
    pub transport: Transport,
    /// Access/slow-query log every request is recorded to. `None` (the
    /// default) disables request logging entirely; the log's own
    /// threshold decides which requests it keeps (see
    /// [`AccessLog::to_writer`]).
    pub access_log: Option<Arc<AccessLog>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: std::thread::available_parallelism().map_or(4, |p| p.get()).min(16),
            max_body_bytes: 1 << 20,
            cache_capacity: 4096,
            read_timeout: Duration::from_secs(5),
            transport: Transport::Auto,
            access_log: None,
        }
    }
}

impl ServerConfig {
    /// Sets the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the worker thread count (minimum 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the request-body size limit.
    pub fn with_max_body_bytes(mut self, bytes: usize) -> Self {
        self.max_body_bytes = bytes;
        self
    }

    /// Sets the result-cache capacity.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the per-connection read timeout.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Selects the accept/connection transport.
    pub fn with_transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Sets the access/slow-query log requests are recorded to.
    pub fn with_access_log(mut self, log: Arc<AccessLog>) -> Self {
        self.access_log = Some(log);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_override_defaults() {
        let c = ServerConfig::default()
            .with_addr("0.0.0.0:9999")
            .with_workers(0)
            .with_max_body_bytes(512)
            .with_cache_capacity(7)
            .with_read_timeout(Duration::from_millis(250))
            .with_transport(Transport::Poll)
            .with_access_log(Arc::new(AccessLog::stderr(0)));
        assert_eq!(c.addr, "0.0.0.0:9999");
        assert_eq!(c.workers, 1, "worker count is clamped to at least 1");
        assert_eq!(c.max_body_bytes, 512);
        assert_eq!(c.cache_capacity, 7);
        assert_eq!(c.read_timeout, Duration::from_millis(250));
        assert_eq!(c.transport, Transport::Poll);
        assert!(c.access_log.is_some());
    }

    #[test]
    fn transport_parses_case_insensitively_and_rejects_garbage() {
        assert_eq!("AUTO".parse(), Ok(Transport::Auto));
        assert_eq!("Poll".parse(), Ok(Transport::Poll));
        assert_eq!(ServerConfig::default().transport, Transport::Auto);
        for garbage in ["kqueue", "epoll"] {
            let err = garbage.parse::<Transport>().unwrap_err();
            assert!(err.contains(garbage) && err.contains("auto or poll"), "err: {err}");
        }
        for t in [Transport::Auto, Transport::Poll] {
            assert_eq!(t.label().parse(), Ok(t), "label must round-trip");
        }
    }
}
