//! # `cc-telemetry`: observability primitives for the serving stack
//!
//! A std-only crate (matching the `crates/shim` no-network philosophy)
//! that gives every layer of the congested-clique serving system the same
//! vocabulary for *seeing itself*: counters, gauges, latency histograms, a
//! structured access log, and per-phase build traces.
//!
//! The pieces:
//!
//! * [`Histogram`] — a fixed-bucket, log₂-scaled latency histogram backed
//!   by an atomic bucket array. `record(ns)` is lock-free and wait-free on
//!   the hot path; a [`HistSnapshot`] is a consistent copy of the buckets,
//!   which [`render_prometheus`] exposes. Bucket `i` holds values in
//!   `(2^(i-1), 2^i]`, so a quantile read off a bucket's upper bound — the
//!   first whose cumulative count reaches the rank — is always within 2× of
//!   the true value.
//! * [`Registry`] — a process-wide named collection of [`Counter`]s,
//!   [`Gauge`]s, and histograms. Registration takes a short lock;
//!   the handles it returns are plain `Arc`s whose operations are
//!   lock-free atomics. [`Registry::snapshot`] captures everything at
//!   once so `/stats` and `/metrics` render from the same data and can
//!   never disagree. A [`Registry::new_disabled`] registry turns every
//!   handle into a no-op, which is how the bench measures instrumentation
//!   overhead.
//! * [`render_prometheus`] — Prometheus text exposition (`# TYPE`,
//!   cumulative `_bucket`/`_sum`/`_count` series) of a snapshot.
//! * [`Json`] / [`JsonObject`] — a tiny JSON writer (escaping, nesting)
//!   so no endpoint assembles JSON by `format!` string concatenation.
//! * [`AccessLog`] — a JSON-lines access/slow-query log with
//!   monotonically assigned request ids.
//! * [`BuildTrace`] — per-phase spans (rounds, wall time, message volume)
//!   filled by the oracle builder and shard partitioner, exportable as
//!   registry gauges, JSON, or human-readable log lines.
//!
//! # Example
//!
//! ```
//! use cc_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let requests = registry.counter("cc_requests_total", &[]);
//! let latency = registry.histogram("cc_request_duration_ns", &[("endpoint", "distance")]);
//! requests.inc();
//! latency.record(1500);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter_value("cc_requests_total", &[]), Some(1));
//! let text = cc_telemetry::render_prometheus(&snap);
//! assert!(text.contains("# TYPE cc_requests_total counter"));
//! ```
//!
//! Unsafe code is forbidden (`#![forbid(unsafe_code)]`), as across the
//! whole workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod events;
mod expo;
mod hist;
pub mod json;
mod registry;
mod trace;

pub use events::{AccessLog, AccessRecord};
pub use expo::render_prometheus;
pub use hist::{HistSnapshot, Histogram, BUCKETS};
pub use json::{Json, JsonObject};
pub use registry::{Counter, Gauge, MetricId, Registry, RegistrySnapshot};
pub use trace::{BuildTrace, PhaseSpan};
