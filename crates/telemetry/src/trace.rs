//! Per-phase build tracing for the oracle construction pipeline.
//!
//! The PODC 2019 construction is analyzed in *rounds*, so "make builds
//! cheap" needs per-phase round/wall/message-volume numbers rather than
//! one aggregate. The oracle builders (k-nearest balls → hitting-set
//! landmarks → MSSP columns) fill a [`BuildTrace`] with one [`PhaseSpan`]
//! per phase; the trace can then be read span by span (the benchmark
//! ledger does), exported as registry gauges (for `/metrics`), or printed
//! as log lines (for `cc-serve --demo`).

use crate::registry::Registry;

/// One instrumented build phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase name, e.g. `k_nearest_balls`.
    pub name: String,
    /// Wall time spent in the phase, nanoseconds.
    pub wall_ns: u64,
    /// Simulated congested-clique rounds charged to the phase.
    pub rounds: u64,
    /// Messages (envelopes) delivered during the phase.
    pub messages: u64,
    /// Words moved during the phase — the message-volume estimate.
    pub words: u64,
}

/// An ordered list of [`PhaseSpan`]s describing one build.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BuildTrace {
    spans: Vec<PhaseSpan>,
}

impl BuildTrace {
    /// An empty trace.
    pub fn new() -> BuildTrace {
        BuildTrace::default()
    }

    /// Appends a completed phase.
    pub fn record(&mut self, name: &str, wall_ns: u64, rounds: u64, messages: u64, words: u64) {
        self.spans.push(PhaseSpan { name: name.to_owned(), wall_ns, rounds, messages, words });
    }

    /// Runs `f`, records it as a purely local phase (zero rounds, zero
    /// messages, zero words), and returns its result.
    ///
    /// This is the one place build-phase code is allowed to read a wall
    /// clock: keeping the `Instant::now()` pair here means the oracle's
    /// kernel files (scanned by cc-lint's `determinism` rule) never touch a
    /// clock themselves — traced build phases call this instead.
    pub fn time_local<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let started = std::time::Instant::now();
        let out = f();
        self.record(name, started.elapsed().as_nanos() as u64, 0, 0, 0);
        out
    }

    /// All spans in build order.
    pub fn spans(&self) -> &[PhaseSpan] {
        &self.spans
    }

    /// Looks a phase up by name.
    pub fn span(&self, name: &str) -> Option<&PhaseSpan> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Publishes the trace as `cc_build_phase_*{phase="..."}` gauges so
    /// `/metrics` exposes build-phase cost next to the serving metrics.
    pub fn export_gauges(&self, registry: &Registry) {
        registry.describe("cc_build_phase_wall_ns", "Wall time per oracle build phase.");
        registry.describe("cc_build_phase_rounds", "Simulated clique rounds per build phase.");
        registry.describe("cc_build_phase_words", "Words moved (message volume) per build phase.");
        for s in &self.spans {
            let labels = [("phase", s.name.as_str())];
            registry.gauge("cc_build_phase_wall_ns", &labels).set(s.wall_ns as f64);
            registry.gauge("cc_build_phase_rounds", &labels).set(s.rounds as f64);
            registry.gauge("cc_build_phase_words", &labels).set(s.words as f64);
        }
    }

    /// One log line per span, for `cc-serve --demo` startup output.
    pub fn log_lines(&self) -> String {
        self.spans
            .iter()
            .map(|s| {
                format!(
                    "build-trace phase={} rounds={} wall_ms={:.2} messages={} words={}",
                    s.name,
                    s.rounds,
                    s.wall_ns as f64 / 1e6,
                    s.messages,
                    s.words
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BuildTrace {
        let mut t = BuildTrace::new();
        t.record("k_nearest_balls", 2_000_000, 10, 100, 400);
        t.record("hitting_set_landmarks", 500_000, 1, 8, 8);
        t.record("mssp_columns", 7_000_000, 25, 900, 3600);
        t
    }

    #[test]
    fn totals_and_lookup() {
        let t = sample();
        assert_eq!(t.spans().iter().map(|s| s.wall_ns).sum::<u64>(), 9_500_000);
        assert_eq!(t.spans().iter().map(|s| s.rounds).sum::<u64>(), 36);
        assert_eq!(t.span("mssp_columns").unwrap().words, 3600);
        assert!(t.span("nope").is_none());
    }

    #[test]
    fn gauges_are_exported_per_phase() {
        let r = Registry::new();
        sample().export_gauges(&r);
        let snap = r.snapshot();
        assert_eq!(
            snap.gauge_value("cc_build_phase_rounds", &[("phase", "k_nearest_balls")]),
            Some(10.0)
        );
        assert_eq!(
            snap.gauge_value("cc_build_phase_wall_ns", &[("phase", "mssp_columns")]),
            Some(7_000_000.0)
        );
        let text = crate::render_prometheus(&snap);
        assert!(text.contains("cc_build_phase_rounds{phase=\"hitting_set_landmarks\"} 1"));
    }

    #[test]
    fn time_local_records_a_zero_round_span_and_passes_the_result_through() {
        let mut t = BuildTrace::new();
        let out = t.time_local("local_extraction", || 41 + 1);
        assert_eq!(out, 42);
        let span = t.span("local_extraction").unwrap();
        assert_eq!((span.rounds, span.messages, span.words), (0, 0, 0));
        assert_eq!(t.spans().len(), 1);
    }

    #[test]
    fn log_lines_list_every_phase() {
        let lines = sample().log_lines();
        assert_eq!(lines.lines().count(), 3);
        assert!(lines.contains("build-trace phase=mssp_columns rounds=25"));
    }
}
