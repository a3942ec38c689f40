//! A process-wide named collection of counters, gauges, and histograms.
//!
//! Registration (looking a metric up by name + labels) takes a short
//! mutex; the [`Counter`], [`Gauge`], and [`Histogram`] handles it hands
//! back are `Arc`s whose hot-path operations are single lock-free
//! atomics. Handles are registered once at setup and cloned into the
//! request path, so the lock is never on the serving path.
//!
//! [`Registry::snapshot`] captures every metric at once; `/stats` and
//! `/metrics` both render from that one snapshot, so they cannot
//! disagree about a counter value.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::hist::{HistSnapshot, Histogram};

/// A metric's identity: family name plus an ordered label set.
///
/// Families group series in the Prometheus exposition: all series of one
/// family share a single `# TYPE` line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    /// The metric family name, e.g. `cc_request_duration_ns`.
    pub family: String,
    /// Label key/value pairs, e.g. `[("endpoint", "distance")]`.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(family: &str, labels: &[(&str, &str)]) -> MetricId {
        MetricId {
            family: family.to_owned(),
            labels: labels.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect(),
        }
    }

    /// Renders the label set as `{k="v",...}`, or `""` when unlabeled.
    /// Label values are escaped per the Prometheus text format
    /// (backslash, double quote, newline).
    pub fn label_suffix(&self) -> String {
        if self.labels.is_empty() {
            return String::new();
        }
        let escape = |v: &str| v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
        let body: Vec<String> =
            self.labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape(v))).collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A monotonically increasing counter handle; cloning shares the value.
#[derive(Debug, Clone)]
pub struct Counter(Arc<CounterInner>);

#[derive(Debug)]
struct CounterInner {
    value: AtomicU64,
    enabled: bool,
}

impl Counter {
    fn new(enabled: bool) -> Counter {
        Counter(Arc::new(CounterInner { value: AtomicU64::new(0), enabled }))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if self.0.enabled {
            self.0.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }
}

/// A gauge handle holding an `f64`; cloning shares the value.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<GaugeInner>);

#[derive(Debug)]
struct GaugeInner {
    bits: AtomicU64,
    enabled: bool,
}

impl Gauge {
    fn new(enabled: bool) -> Gauge {
        Gauge(Arc::new(GaugeInner { bits: AtomicU64::new(0f64.to_bits()), enabled }))
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        if self.0.enabled {
            self.0.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative) with a CAS loop.
    pub fn add(&self, delta: f64) {
        if !self.0.enabled {
            return;
        }
        let mut cur = self.0.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self.0.bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Adds one (e.g. a job entered the queue).
    pub fn inc(&self) {
        self.add(1.0);
    }

    /// Subtracts one (e.g. a job left the queue).
    pub fn dec(&self) {
        self.add(-1.0);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.bits.load(Ordering::Relaxed))
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<MetricId, Counter>,
    gauges: BTreeMap<MetricId, Gauge>,
    histograms: BTreeMap<MetricId, Arc<Histogram>>,
    help: BTreeMap<String, String>,
}

/// The process-wide metric registry.
///
/// See the [crate docs](crate) for the full model. Registering the same
/// family + labels twice returns a handle to the same underlying metric.
pub struct Registry {
    inner: Mutex<Inner>,
    enabled: bool,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An enabled registry: handles record normally.
    pub fn new() -> Registry {
        Registry { inner: Mutex::new(Inner::default()), enabled: true }
    }

    /// A disabled registry: every handle it returns is a permanent no-op
    /// (reads return zero). Used to measure instrumentation overhead.
    pub fn new_disabled() -> Registry {
        Registry { inner: Mutex::new(Inner::default()), enabled: false }
    }

    /// Attaches help text to a metric family (`# HELP` in the exposition).
    pub fn describe(&self, family: &str, help: &str) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.help.insert(family.to_owned(), help.to_owned());
    }

    /// Returns (registering on first use) the counter `family{labels}`.
    pub fn counter(&self, family: &str, labels: &[(&str, &str)]) -> Counter {
        let id = MetricId::new(family, labels);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.counters.entry(id).or_insert_with(|| Counter::new(self.enabled)).clone()
    }

    /// Returns (registering on first use) the gauge `family{labels}`.
    pub fn gauge(&self, family: &str, labels: &[(&str, &str)]) -> Gauge {
        let id = MetricId::new(family, labels);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.gauges.entry(id).or_insert_with(|| Gauge::new(self.enabled)).clone()
    }

    /// Returns (registering on first use) the histogram `family{labels}`.
    pub fn histogram(&self, family: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let id = MetricId::new(family, labels);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner
            .histograms
            .entry(id)
            .or_insert_with(|| Arc::new(Histogram::with_enabled(self.enabled)))
            .clone()
    }

    /// Captures every registered metric at once, ordered by family then
    /// label set.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        RegistrySnapshot {
            counters: inner.counters.iter().map(|(id, c)| (id.clone(), c.get())).collect(),
            gauges: inner.gauges.iter().map(|(id, g)| (id.clone(), g.get())).collect(),
            histograms: inner.histograms.iter().map(|(id, h)| (id.clone(), h.snapshot())).collect(),
            help: inner.help.clone(),
        }
    }
}

/// A point-in-time copy of every metric in a [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Counter samples, sorted by id.
    pub counters: Vec<(MetricId, u64)>,
    /// Gauge samples, sorted by id.
    pub gauges: Vec<(MetricId, f64)>,
    /// Histogram snapshots, sorted by id.
    pub histograms: Vec<(MetricId, HistSnapshot)>,
    /// `# HELP` text per family.
    pub help: BTreeMap<String, String>,
}

impl RegistrySnapshot {
    fn matches(id: &MetricId, family: &str, labels: &[(&str, &str)]) -> bool {
        id.family == family
            && id.labels.len() == labels.len()
            && id.labels.iter().zip(labels).all(|((k, v), (lk, lv))| k == lk && v == lv)
    }

    /// The value of counter `family{labels}`, if registered.
    pub fn counter_value(&self, family: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters.iter().find(|(id, _)| Self::matches(id, family, labels)).map(|(_, v)| *v)
    }

    /// The value of gauge `family{labels}`, if registered.
    pub fn gauge_value(&self, family: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.iter().find(|(id, _)| Self::matches(id, family, labels)).map(|(_, v)| *v)
    }

    /// The snapshot of histogram `family{labels}`, if registered.
    pub fn histogram(&self, family: &str, labels: &[(&str, &str)]) -> Option<&HistSnapshot> {
        self.histograms.iter().find(|(id, _)| Self::matches(id, family, labels)).map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_across_registration() {
        let r = Registry::new();
        let a = r.counter("cc_requests_total", &[]);
        let b = r.counter("cc_requests_total", &[]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.snapshot().counter_value("cc_requests_total", &[]), Some(3));
    }

    #[test]
    fn labeled_series_are_distinct() {
        let r = Registry::new();
        r.counter("cc_requests_total", &[("endpoint", "distance")]).inc();
        r.counter("cc_requests_total", &[("endpoint", "batch")]).add(5);
        let snap = r.snapshot();
        assert_eq!(snap.counter_value("cc_requests_total", &[("endpoint", "distance")]), Some(1));
        assert_eq!(snap.counter_value("cc_requests_total", &[("endpoint", "batch")]), Some(5));
        assert_eq!(snap.counter_value("cc_requests_total", &[]), None);
    }

    #[test]
    fn gauge_add_and_set_round_trip() {
        let r = Registry::new();
        let g = r.gauge("cc_pool_queue_depth", &[]);
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1.0);
        g.set(0.25);
        assert_eq!(r.snapshot().gauge_value("cc_pool_queue_depth", &[]), Some(0.25));
    }

    #[test]
    fn disabled_registry_is_a_no_op() {
        let r = Registry::new_disabled();
        let c = r.counter("c", &[]);
        let g = r.gauge("g", &[]);
        let h = r.histogram("h", &[]);
        c.inc();
        g.set(7.0);
        g.inc();
        h.record(1);
        let snap = r.snapshot();
        assert_eq!(snap.counter_value("c", &[]), Some(0));
        assert_eq!(snap.gauge_value("g", &[]), Some(0.0));
        assert_eq!(snap.histogram("h", &[]).unwrap().count(), 0);
    }

    #[test]
    fn snapshot_is_ordered_by_family_then_labels() {
        let r = Registry::new();
        r.counter("b_total", &[]).inc();
        r.counter("a_total", &[("x", "2")]).inc();
        r.counter("a_total", &[("x", "1")]).inc();
        let snap = r.snapshot();
        let names: Vec<String> = snap
            .counters
            .iter()
            .map(|(id, _)| format!("{}{}", id.family, id.label_suffix()))
            .collect();
        assert_eq!(names, vec!["a_total{x=\"1\"}", "a_total{x=\"2\"}", "b_total"]);
    }
}
