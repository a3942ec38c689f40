//! The shared serving state. A [`LoadedBackend`] is the only thing that
//! becomes an [`AppState`] ([`AppState::new`] for an artifact already in
//! memory, [`AppState::from_spec`] for files that can be re-read), and
//! [`AppState::reload`] is the only way to replace it under traffic.
//!
//! All bookkeeping lives in a per-state [`cc_telemetry::Registry`]:
//! counters and histograms are pre-registered handles (single atomic ops
//! on the hot path).

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use cc_oracle::{serde, OracleError, OracleShard, ShardRouter};
use cc_telemetry::{AccessLog, Counter, Gauge, Histogram, Registry};

use crate::reload::{
    Generation, ReloadError, ReloadHandle, ReloadOutcome, ReloadTarget, SnapshotInfo, WARM_KEYS,
};
use crate::source::{BackendSpec, LoadedBackend};

/// Shared per-server state: one hot-swappable [`Generation`] over a
/// [`cc_oracle::Backend`], the reload source, and the metric registry.
pub struct AppState {
    pub(crate) handle: ReloadHandle,
    /// Where `POST /reload` / SIGHUP reload from: a manifest (re-read each
    /// time), a snapshot file, or a shard file set. `None` means a reload
    /// must name a path explicitly.
    spec: Option<BackendSpec>,
    /// Result-cache capacity for the *next* generation: the startup value
    /// until a manifest reload declares `cache_capacity`, which then
    /// becomes the new default (so a later single-shard or explicit-path
    /// reload cannot silently revert an operator's manifest setting).
    cache_capacity: AtomicUsize,
    /// Serializes load+swap so overlapping reloads apply in a definite
    /// order; never held by the request path.
    reload_lock: Mutex<()>,
    pub(crate) last_reload_error: Mutex<Option<String>>,
    pub(crate) started: Instant,
    pub(crate) registry: Arc<Registry>,
    pub(crate) metrics: Metrics,
    access_log: Option<Arc<AccessLog>>,
    /// Which accept/read transport feeds this state (`"epoll"` or
    /// `"poll"`), surfaced in `/stats`; `"in-process"` until a server
    /// binds it to a listener.
    pub(crate) transport: &'static str,
}

/// Endpoint classes with their own `cc_request_duration_ns` series; the
/// catch-all `other` class must stay last (it is the fallback of
/// [`AppState::record_request`]).
const ENDPOINT_CLASSES: [&str; 4] = ["distance", "batch", "reload", "other"];

/// Pre-registered metric handles — created once per registry so the
/// request path touches single atomics and never the registration lock.
pub(crate) struct Metrics {
    pub(crate) requests: Counter,
    pub(crate) distance_requests: Counter,
    pub(crate) batch_requests: Counter,
    pub(crate) reload_requests: Counter,
    pub(crate) batch_pairs: Counter,
    pub(crate) client_errors: Counter,
    load_shed: Counter,
    accept_errors: Counter,
    reloads: Counter,
    reload_failures: Counter,
    reload_duration: Arc<Histogram>,
    /// Per-endpoint-class request latency, parallel to
    /// [`ENDPOINT_CLASSES`].
    durations: Vec<(&'static str, Arc<Histogram>)>,
    pub(crate) cache_hits: Gauge,
    pub(crate) cache_misses: Gauge,
    pub(crate) cache_hit_rate: Gauge,
    pub(crate) cache_len: Gauge,
    pub(crate) cache_capacity: Gauge,
    pub(crate) cache_warmed_keys: Gauge,
    pub(crate) uptime: Gauge,
}

impl Metrics {
    fn register(r: &Registry) -> Metrics {
        r.describe("cc_requests_total", "Requests handled, any endpoint, any outcome.");
        r.describe("cc_endpoint_requests_total", "Requests per query/reload endpoint.");
        r.describe("cc_batch_pairs_total", "Distance pairs answered through POST /batch.");
        r.describe("cc_client_errors_total", "Responses with a 4xx status.");
        r.describe("cc_load_shed_total", "Connections shed with 503 by the acceptor.");
        r.describe("cc_accept_errors_total", "accept(2) failures, transient or fatal.");
        r.describe("cc_reloads_total", "Successful hot-reload swaps.");
        r.describe("cc_reload_failures_total", "Reload attempts rejected by validation.");
        r.describe("cc_request_duration_ns", "Wall time per request, first byte to flush.");
        r.describe("cc_reload_duration_ns", "Wall time per successful reload, load to swap.");
        r.describe("cc_pool_queue_depth", "Connections queued for a worker right now.");
        r.describe("cc_cache_hits", "Result-cache hits of the serving generation.");
        r.describe("cc_cache_misses", "Result-cache misses of the serving generation.");
        r.describe("cc_cache_hit_rate", "Result-cache hit rate of the serving generation.");
        r.describe("cc_cache_len", "Entries resident in the result cache.");
        r.describe("cc_cache_capacity", "Result-cache capacity of the serving generation.");
        r.describe("cc_cache_warmed_keys", "Keys replayed into the cache at the last reload.");
        r.describe("cc_uptime_seconds", "Seconds since this serving state was created.");
        // Registered here (owned by the worker pool) so a scrape before
        // any traffic still sees the series.
        let _ = r.gauge("cc_pool_queue_depth", &[]);
        Metrics {
            requests: r.counter("cc_requests_total", &[]),
            distance_requests: r.counter("cc_endpoint_requests_total", &[("endpoint", "distance")]),
            batch_requests: r.counter("cc_endpoint_requests_total", &[("endpoint", "batch")]),
            reload_requests: r.counter("cc_endpoint_requests_total", &[("endpoint", "reload")]),
            batch_pairs: r.counter("cc_batch_pairs_total", &[]),
            client_errors: r.counter("cc_client_errors_total", &[]),
            load_shed: r.counter("cc_load_shed_total", &[]),
            accept_errors: r.counter("cc_accept_errors_total", &[]),
            reloads: r.counter("cc_reloads_total", &[]),
            reload_failures: r.counter("cc_reload_failures_total", &[]),
            reload_duration: r.histogram("cc_reload_duration_ns", &[]),
            durations: ENDPOINT_CLASSES
                .iter()
                .map(|&e| (e, r.histogram("cc_request_duration_ns", &[("endpoint", e)])))
                .collect(),
            cache_hits: r.gauge("cc_cache_hits", &[]),
            cache_misses: r.gauge("cc_cache_misses", &[]),
            cache_hit_rate: r.gauge("cc_cache_hit_rate", &[]),
            cache_len: r.gauge("cc_cache_len", &[]),
            cache_capacity: r.gauge("cc_cache_capacity", &[]),
            cache_warmed_keys: r.gauge("cc_cache_warmed_keys", &[]),
            uptime: r.gauge("cc_uptime_seconds", &[]),
        }
    }
}

impl AppState {
    /// Wraps an artifact already in memory for serving, with a result
    /// cache of `cache_capacity` entries and no default reload source. A
    /// bare [`cc_oracle::DistanceOracle`] converts into a [`LoadedBackend`]
    /// reported as an in-process build; pass [`LoadedBackend::mono`] /
    /// [`LoadedBackend::router`] to give it another identity.
    pub fn new(backend: impl Into<LoadedBackend>, cache_capacity: usize) -> AppState {
        AppState::from_loaded(backend.into(), None, cache_capacity)
    }

    /// Router-mode state over in-process shard slices (no backing files),
    /// for tests and benchmarks that partition an oracle directly.
    ///
    /// # Errors
    ///
    /// Everything [`ShardRouter::assemble`] rejects.
    pub fn with_in_process_shards(
        shards: Vec<OracleShard>,
        cache_capacity: usize,
    ) -> Result<AppState, OracleError> {
        let infos = shards
            .iter()
            .map(|shard| SnapshotInfo::in_process(serde::shard_checksum(shard), "in-process"))
            .collect();
        let router = ShardRouter::assemble(shards)?;
        Ok(AppState::new(LoadedBackend::router(router, infos, "in-process"), cache_capacity))
    }

    /// State serving whatever `spec` names — the manifest-driven startup
    /// path. The spec's `cache_capacity` (when set) overrides
    /// `default_cache_capacity`, and the spec becomes the reload source: a
    /// manifest is **re-read on every bare `/reload` / SIGHUP**, so an
    /// operator rolls a new artifact by updating manifest + files and
    /// poking the endpoint.
    ///
    /// # Errors
    ///
    /// Everything [`BackendSpec::load`] rejects — including an
    /// `expected_set_id` mismatch, so a wrong-build artifact fails here,
    /// before the socket ever accepts.
    pub fn from_spec(
        spec: BackendSpec,
        default_cache_capacity: usize,
    ) -> Result<AppState, Box<dyn std::error::Error>> {
        let cache_capacity = spec.cache_capacity.unwrap_or(default_cache_capacity);
        let loaded = spec.load()?;
        Ok(AppState::from_loaded(loaded, Some(spec), cache_capacity))
    }

    fn from_loaded(
        loaded: LoadedBackend,
        spec: Option<BackendSpec>,
        cache_capacity: usize,
    ) -> AppState {
        let registry = Arc::new(Registry::new());
        let metrics = Metrics::register(&registry);
        let mut handle = ReloadHandle::new(Generation::new(loaded, cache_capacity));
        handle.set_duration_histogram(Arc::clone(&metrics.reload_duration));
        AppState {
            handle,
            spec,
            cache_capacity: AtomicUsize::new(cache_capacity),
            reload_lock: Mutex::new(()),
            last_reload_error: Mutex::new(None),
            started: Instant::now(),
            registry,
            metrics,
            access_log: None,
            transport: "in-process",
        }
    }

    /// Records which transport ([`crate::config::Transport`], as resolved
    /// at bind time) feeds this state; reported by `GET /stats`.
    pub fn set_transport_label(&mut self, label: &'static str) {
        self.transport = label;
    }

    /// The metric registry backing `/stats` and `/metrics`. The server
    /// registers the worker-pool queue-depth gauge here, and the binary
    /// exports build-phase gauges into it after a `--demo` build.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Replaces the registry with a permanently disabled one: every metric
    /// handle becomes a no-op (used to measure instrumentation overhead).
    /// Must be called before the state starts serving — existing handles
    /// are re-created, so earlier recordings are discarded.
    pub fn disable_telemetry(&mut self) {
        self.registry = Arc::new(Registry::new_disabled());
        self.metrics = Metrics::register(&self.registry);
        self.handle.set_duration_histogram(Arc::clone(&self.metrics.reload_duration));
    }

    /// Sets the access/slow-query log every served request is recorded to.
    pub fn set_access_log(&mut self, log: Arc<AccessLog>) {
        self.access_log = Some(log);
    }

    /// The access/slow-query log, when one is configured.
    pub fn access_log(&self) -> Option<&Arc<AccessLog>> {
        self.access_log.as_ref()
    }

    /// Records one served request into the per-endpoint latency histogram
    /// (`cc_request_duration_ns{endpoint=...}`); unknown endpoints land in
    /// the `other` class.
    pub fn record_request(&self, endpoint: &str, duration_ns: u64) {
        let slot = self
            .metrics
            .durations
            .iter()
            .find(|(name, _)| *name == endpoint)
            .or_else(|| self.metrics.durations.last());
        if let Some((_, hist)) = slot {
            hist.record(duration_ns);
        }
    }

    /// True when this state routes over a shard set (right now — a
    /// manifest reload can change the mode).
    pub fn is_sharded(&self) -> bool {
        self.handle.current().is_sharded()
    }

    /// The generation serving right now (backend + cache + identity). The
    /// clone is an `Arc` refcount bump; holders keep the artifact alive
    /// across a concurrent reload.
    pub fn generation(&self) -> Arc<Generation> {
        self.handle.current()
    }

    /// Successful hot-reload swaps so far (one per shard swapped in a
    /// full-set roll).
    pub fn reloads(&self) -> u64 {
        self.metrics.reloads.get()
    }

    /// Reload attempts rejected by validation (the old artifact kept
    /// serving each time).
    pub fn reload_failures(&self) -> u64 {
        self.metrics.reload_failures.get()
    }

    fn record_reload_failure(&self, msg: &str) {
        self.metrics.reload_failures.inc();
        *self.last_reload_error.lock().unwrap_or_else(PoisonError::into_inner) =
            Some(msg.to_owned());
    }

    /// Installs a validated replacement backend as the next generation:
    /// warms its cache from the outgoing one, swaps atomically (charging
    /// `started.elapsed()` — the whole load → validate → warm → swap — to
    /// `cc_reload_duration_ns`), and books the successful swaps: one for a
    /// single slot (reporting that slice's identity), else one per shard
    /// rolled (one for a monolith).
    fn install(
        &self,
        loaded: LoadedBackend,
        outgoing: &Generation,
        target: &ReloadTarget,
        started: Instant,
    ) -> ReloadOutcome {
        let (n, shards) = (loaded.n(), loaded.backend.shards().len());
        let (info, swap_units) = match target {
            ReloadTarget::Shard { index, .. } => (loaded.shard_infos[*index].clone(), 1),
            _ => (loaded.info.clone(), shards.max(1)),
        };
        let next = Generation::new(loaded, self.cache_capacity.load(Ordering::Relaxed));
        self.handle.swap_timed(next.warmed_from(outgoing, WARM_KEYS), started);
        self.metrics.reloads.add(swap_units as u64);
        *self.last_reload_error.lock().unwrap_or_else(PoisonError::into_inner) = None;
        ReloadOutcome { info, n, shards, reloads: self.metrics.reloads.get() }
    }

    /// Loads + validates what `target` names and, only if it is fully
    /// valid, swaps it in atomically — the single reload path behind `POST
    /// /reload`, SIGHUP, and embedding callers. On any failure the serving
    /// generation is untouched.
    ///
    /// Reloads are serialized, and the target is resolved under that lock,
    /// against the generation being replaced. The load happens on the
    /// calling thread without blocking the request path: queries keep
    /// cloning the old generation until the one-pointer swap.
    ///
    /// # Errors
    ///
    /// [`ReloadError::Unfit`] when the target does not fit the serving
    /// mode, [`ReloadError::Rejected`] when the reload was attempted and
    /// refused — only that one is counted and recorded for `/stats`.
    pub fn reload(&self, target: &ReloadTarget) -> Result<ReloadOutcome, ReloadError> {
        let started = Instant::now();
        let _serialized = self.reload_lock.lock().unwrap_or_else(PoisonError::into_inner);
        let current = self.handle.current();
        match target.stage(&current, self.spec.as_ref()) {
            Ok((loaded, capacity)) => {
                // A manifest-declared capacity becomes the default for
                // every subsequent reload, not just this generation.
                if let Some(capacity) = capacity {
                    self.cache_capacity.store(capacity, Ordering::Relaxed);
                }
                Ok(self.install(loaded, &current, target, started))
            }
            Err(e) => {
                if let ReloadError::Rejected(msg) = &e {
                    self.record_reload_failure(msg);
                }
                Err(e)
            }
        }
    }

    /// [`AppState::reload`] of the **monolithic** snapshot at `path`.
    ///
    /// # Errors
    ///
    /// As [`AppState::reload`].
    pub fn reload_from(&self, path: &Path) -> Result<ReloadOutcome, ReloadError> {
        self.reload(&ReloadTarget::Snapshot(path.to_path_buf()))
    }

    /// [`AppState::reload`] of shard `i` from `path` (router mode).
    ///
    /// # Errors
    ///
    /// As [`AppState::reload`].
    pub fn reload_shard_from(&self, i: usize, path: &Path) -> Result<ReloadOutcome, ReloadError> {
        self.reload(&ReloadTarget::Shard { index: i, path: Some(path.to_path_buf()) })
    }

    /// Total requests routed so far (any endpoint, any outcome).
    pub fn requests(&self) -> u64 {
        self.metrics.requests.get()
    }

    /// Records a 4xx produced below the router (protocol parse errors).
    pub fn count_protocol_error(&self) {
        self.metrics.requests.inc();
        self.metrics.client_errors.inc();
    }

    /// Records a connection shed with `503` at the acceptor (queue full),
    /// so `/stats` stays honest under the exact overload it diagnoses.
    pub fn count_load_shed(&self) {
        self.metrics.requests.inc();
        self.metrics.load_shed.inc();
    }

    /// Records one failed `accept(2)` (transient or fatal). No request was
    /// routed, so — unlike sheds — this does not bump `cc_requests_total`;
    /// it only feeds `cc_accept_errors_total` for the overload runbook.
    pub fn count_accept_error(&self) {
        self.metrics.accept_errors.inc();
    }
}
