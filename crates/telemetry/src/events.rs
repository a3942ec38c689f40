//! The structured event layer: a JSON-lines access/slow-query log with
//! monotonically assigned request ids.
//!
//! Every request is assigned an id from a process-wide monotone counter
//! ([`AccessLog::begin`]); whether its completion record is *written*
//! depends on the configured mode — everything (access log) or only
//! requests at or above a slowness threshold (slow-query log). Records
//! are rendered with the [`Json`](crate::Json) writer, so a path or
//! error containing a quote cannot corrupt the stream.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::JsonObject;

/// One completed request, ready to be logged.
#[derive(Debug, Clone)]
pub struct AccessRecord<'a> {
    /// Monotone request id from [`AccessLog::begin`].
    pub id: u64,
    /// HTTP method.
    pub method: &'a str,
    /// Request path (including the query string).
    pub path: &'a str,
    /// Response status code.
    pub status: u16,
    /// Endpoint class (`distance`, `batch`, `reload`, ...).
    pub endpoint: &'a str,
    /// Wall time spent serving the request, in nanoseconds.
    pub duration_ns: u64,
}

/// A JSON-lines access/slow-query log.
///
/// In slow-query mode (`threshold_ns > 0`) only requests taking at least
/// the threshold are written, each tagged `"slow":true`. With a zero
/// threshold every request is written.
pub struct AccessLog {
    sink: Mutex<Box<dyn Write + Send>>,
    next_id: AtomicU64,
    threshold_ns: u64,
}

impl std::fmt::Debug for AccessLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessLog").field("threshold_ns", &self.threshold_ns).finish()
    }
}

impl AccessLog {
    /// A log writing JSON lines to `sink`; records faster than
    /// `threshold_ns` are suppressed (0 logs everything).
    pub fn to_writer(sink: Box<dyn Write + Send>, threshold_ns: u64) -> AccessLog {
        AccessLog { sink: Mutex::new(sink), next_id: AtomicU64::new(1), threshold_ns }
    }

    /// A log writing to stderr (the conventional place for `cc-serve`).
    pub fn stderr(threshold_ns: u64) -> AccessLog {
        Self::to_writer(Box::new(std::io::stderr()), threshold_ns)
    }

    /// Assigns the next monotone request id.
    pub fn begin(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The configured slowness threshold in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// Writes the completion record if it clears the threshold.
    pub fn record(&self, rec: &AccessRecord<'_>) {
        if rec.duration_ns < self.threshold_ns {
            return;
        }
        let mut o = JsonObject::new();
        o.set("request_id", rec.id);
        o.set("method", rec.method);
        o.set("path", rec.path);
        o.set("endpoint", rec.endpoint);
        o.set("status", rec.status as u64);
        o.set("duration_ns", rec.duration_ns);
        if self.threshold_ns > 0 {
            o.set("slow", true);
        }
        let line = o.render();
        if let Ok(mut sink) = self.sink.lock() {
            // A failed log write must never take down the serving path.
            let _ = writeln!(sink, "{line}");
            let _ = sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, PoisonError};

    use super::*;

    /// An in-memory `Write` sink sharable across threads, to capture log
    /// output.
    #[derive(Debug, Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn new() -> SharedBuf {
            SharedBuf::default()
        }

        fn contents(&self) -> String {
            String::from_utf8_lossy(&self.0.lock().unwrap_or_else(PoisonError::into_inner))
                .into_owned()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap_or_else(PoisonError::into_inner).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn rec<'a>(id: u64, path: &'a str, duration_ns: u64) -> AccessRecord<'a> {
        AccessRecord { id, method: "GET", path, status: 200, endpoint: "distance", duration_ns }
    }

    #[test]
    fn request_ids_are_monotone() {
        let log = AccessLog::to_writer(Box::new(SharedBuf::new()), 0);
        let a = log.begin();
        let b = log.begin();
        let c = log.begin();
        assert!(a < b && b < c);
    }

    #[test]
    fn access_mode_logs_every_request_as_json_lines() {
        let buf = SharedBuf::new();
        let log = AccessLog::to_writer(Box::new(buf.clone()), 0);
        log.record(&rec(log.begin(), "/distance?u=0&v=1", 10));
        log.record(&rec(log.begin(), "/distance?u=2&v=3", 20));
        let out = buf.contents();
        assert_eq!(out.lines().count(), 2);
        assert!(out.lines().all(|l| l.starts_with("{\"request_id\":")));
        assert!(out.contains("\"duration_ns\":20"));
        assert!(!out.contains("\"slow\""));
    }

    #[test]
    fn slow_query_mode_suppresses_fast_requests_and_tags_slow_ones() {
        let buf = SharedBuf::new();
        let log = AccessLog::to_writer(Box::new(buf.clone()), 1_000);
        log.record(&rec(log.begin(), "/distance?u=0&v=1", 999));
        log.record(&rec(log.begin(), "/batch", 5_000));
        let out = buf.contents();
        assert_eq!(out.lines().count(), 1);
        assert!(out.contains("\"slow\":true"));
        assert!(out.contains("\"duration_ns\":5000"));
    }

    #[test]
    fn hostile_paths_stay_valid_json() {
        let buf = SharedBuf::new();
        let log = AccessLog::to_writer(Box::new(buf.clone()), 0);
        log.record(&rec(log.begin(), "/distance?u=\"\\evil\n", 1));
        let out = buf.contents();
        assert!(out.contains(r#""path":"/distance?u=\"\\evil\n""#));
    }
}
