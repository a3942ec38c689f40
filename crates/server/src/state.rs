//! The shared serving state. A [`LoadedBackend`] is the only thing that
//! becomes an [`AppState`] ([`AppState::new`] for an artifact already in
//! memory, [`AppState::from_spec`] for files that can be re-read), and
//! [`AppState::reload`] is the only way to replace it under traffic.
//!
//! All bookkeeping lives in a per-state [`cc_telemetry::Registry`]:
//! counters and histograms are pre-registered handles (single atomic ops
//! on the hot path).

use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

use cc_oracle::{serde, OracleError, OracleShard, ShardRouter};
use cc_telemetry::{AccessLog, Counter, Gauge, Histogram, Registry};

use crate::reload::{
    Generation, ReloadError, ReloadOutcome, ReloadTarget, SnapshotInfo, WARM_KEYS,
};
use crate::source::{BackendSpec, LoadedBackend};

/// Shared per-server state: one hot-swappable [`Generation`] over a
/// [`cc_oracle::Backend`], the reload source, and the metric registry.
pub struct AppState {
    /// The serving generation, used as a pointer cell (the build image has
    /// no `arc-swap`): readers hold the read lock only to clone the `Arc`,
    /// a reload holds the write lock only to replace it.
    current: RwLock<Arc<Generation>>,
    /// The source in force — where `POST /reload` / SIGHUP reload from,
    /// and whose `set_id` pin gates explicit paths: a manifest (re-read
    /// each time, and replaced by a re-read that loads), a snapshot file,
    /// or a shard file set. `None` means a reload must name a path. Its
    /// lock serializes reloads; the request path never takes it.
    spec: Mutex<Option<BackendSpec>>,
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
        AppState {
            current: RwLock::new(Arc::new(Generation::new(loaded, cache_capacity))),
            spec: Mutex::new(spec),
            last_reload_error: Mutex::new(None),
            started: Instant::now(),
            metrics: Metrics::register(&registry),
            registry,
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
        self.generation().is_sharded()
    }

    /// The generation serving right now (backend + cache + identity). The
    /// clone is an `Arc` refcount bump; holders keep the artifact alive
    /// across a concurrent reload. The read lock is held only for the
    /// clone, so this never waits behind a load — only behind the swap of
    /// one pointer.
    pub fn generation(&self) -> Arc<Generation> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
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

    /// Installs `next`: warms its cache from the outgoing one, swaps it in
    /// (charging `started.elapsed()` — the whole load → validate → warm →
    /// swap — to `cc_reload_duration_ns`), and books the successful swaps:
    /// one for a single slot, else one per shard rolled (one for a
    /// monolith).
    fn install(
        &self,
        next: Generation,
        outgoing: &Generation,
        target: &ReloadTarget,
        started: Instant,
    ) -> ReloadOutcome {
        let swaps = match target {
            ReloadTarget::Shard { .. } => 1,
            _ => next.backend().shards().len().max(1),
        };
        let generation = Arc::new(next.warmed_from(outgoing, WARM_KEYS));
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = Arc::clone(&generation);
        self.metrics.reload_duration.record(started.elapsed().as_nanos() as u64);
        self.metrics.reloads.add(swaps as u64);
        *self.last_reload_error.lock().unwrap_or_else(PoisonError::into_inner) = None;
        ReloadOutcome { generation, reloads: self.metrics.reloads.get() }
    }

    /// Loads + validates what `target` names and, only if it is fully
    /// valid, swaps it in atomically — the single reload path behind `POST
    /// /reload`, SIGHUP, and embedding callers. On any failure the serving
    /// generation and the source in force are untouched.
    ///
    /// Reloads are serialized by the lock on the source in force, and the
    /// target is resolved under it, against the generation being replaced
    /// (`ReloadTarget::stage`). The load happens on the calling thread
    /// without blocking the request path: queries keep cloning the old
    /// generation until the one-pointer swap, and a clone taken before it
    /// finishes on the old artifact.
    ///
    /// # Example
    ///
    /// ```
    /// use cc_server::{source, AppState, ReloadTarget};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let (old, new) = (source::build_demo(16, 1, 0.25)?, source::build_demo(16, 2, 0.25)?);
    /// let path = std::env::temp_dir().join(format!("cc-doc-{}.snap", std::process::id()));
    /// source::write_snapshot(&new, &path)?;
    ///
    /// let state = AppState::new(old.clone(), 1024);
    /// let serving = state.generation();
    /// let outcome = state.reload(&ReloadTarget::Snapshot(path.clone()))?;
    /// // The clone taken before the swap still answers on the old artifact.
    /// assert_eq!(serving.cached().try_query(0, 15)?, old.try_query(0, 15)?);
    /// assert_eq!(outcome.generation.cached().try_query(0, 15)?, new.try_query(0, 15)?);
    /// assert!(std::sync::Arc::ptr_eq(&outcome.generation, &state.generation()));
    /// # std::fs::remove_file(&path)?;
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`ReloadError::Unfit`] when the target does not fit the serving
    /// mode, [`ReloadError::Rejected`] when the reload was attempted and
    /// refused — only that one is counted and recorded for `/stats`.
    pub fn reload(&self, target: &ReloadTarget) -> Result<ReloadOutcome, ReloadError> {
        let started = Instant::now();
        let mut spec = self.spec.lock().unwrap_or_else(PoisonError::into_inner);
        let outgoing = self.generation();
        let next = target.stage(&outgoing, &mut spec).inspect_err(|e| {
            if let ReloadError::Rejected(msg) = e {
                self.metrics.reload_failures.inc();
                *self.last_reload_error.lock().unwrap_or_else(PoisonError::into_inner) =
                    Some(msg.clone());
            }
        })?;
        Ok(self.install(next, &outgoing, target, started))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{build_demo, write_snapshot};
    use cc_matrix::Dist;
    use cc_oracle::DistanceOracle;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    /// Writes `oracle` as the snapshot file `name`, unique per test.
    fn snapshot(name: &str, oracle: &DistanceOracle) -> PathBuf {
        let dir = std::env::temp_dir().join("cc-serve-state-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        write_snapshot(oracle, &path).unwrap();
        path
    }

    fn row(oracle: &DistanceOracle, u: usize) -> Vec<Dist> {
        (0..oracle.n()).map(|v| oracle.try_query(u, v).unwrap()).collect()
    }

    #[test]
    fn a_generation_held_across_a_reload_answers_from_the_old_artifact() {
        let (a, b) = (build_demo(20, 3, 0.5).unwrap(), build_demo(20, 4, 0.5).unwrap());
        let path = snapshot("held-b.snap", &b);
        let state = AppState::new(a.clone(), 64);
        let held = state.generation();
        state.reload_from(&path).unwrap();

        // The pre-reload clone still serves A; fresh clones serve B.
        assert_eq!(held.info().source, "in-process");
        for v in 0..20 {
            assert_eq!(held.cached().try_query(0, v).unwrap(), a.try_query(0, v).unwrap());
            let fresh = state.generation().cached().try_query(0, v).unwrap();
            assert_eq!(fresh, b.try_query(0, v).unwrap());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_readers_only_ever_see_whole_generations() {
        let (a, b) = (build_demo(16, 5, 0.5).unwrap(), build_demo(16, 6, 0.5).unwrap());
        let (a_path, b_path) = (snapshot("race-a.snap", &a), snapshot("race-b.snap", &b));
        let state = AppState::from_spec(BackendSpec::mono(&a_path), 64).unwrap();
        let want = [
            (a_path.display().to_string(), row(&a, 3)),
            (b_path.display().to_string(), row(&b, 3)),
        ];
        let (start, done) = (Barrier::new(5), AtomicBool::new(false));

        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    while !done.load(Ordering::SeqCst) {
                        // Every answer from one clone must be those of
                        // exactly the artifact it reports.
                        let generation = state.generation();
                        let source = &generation.info().source;
                        let (_, row) = want.iter().find(|(s, _)| s == source).unwrap();
                        let got: Vec<Dist> =
                            (0..16).map(|v| generation.cached().try_query(3, v).unwrap()).collect();
                        assert_eq!(&got, row, "generation {source} answered inconsistently");
                    }
                });
            }
            start.wait();
            for i in 0..50 {
                state.reload_from(if i % 2 == 0 { &b_path } else { &a_path }).unwrap();
            }
            done.store(true, Ordering::SeqCst);
        });
        assert_eq!(state.reloads(), 50);
        std::fs::remove_file(&a_path).ok();
        std::fs::remove_file(&b_path).ok();
    }

    #[test]
    fn reload_duration_counts_successful_reloads_only() {
        let (a, b) = (build_demo(12, 3, 0.5).unwrap(), build_demo(12, 4, 0.5).unwrap());
        let path = snapshot("timed-b.snap", &b);
        let bad = path.with_file_name("timed-bad.snap");
        std::fs::write(&bad, b"these are not oracle bytes").unwrap();
        let recorded = |s: &AppState| s.metrics.reload_duration.snapshot().count();

        let state = AppState::new(a.clone(), 64);
        state.reload_from(&path).unwrap();
        state.reload_from(&path).unwrap();
        assert!(state.reload_from(&bad).is_err());
        assert_eq!((recorded(&state), state.reloads(), state.reload_failures()), (2, 2, 1));

        // With telemetry disabled nothing is recorded, and reloads still swap.
        let mut quiet = AppState::new(a, 64);
        quiet.disable_telemetry();
        let outcome = quiet.reload_from(&path).unwrap();
        assert_eq!(outcome.generation.info().source, path.display().to_string());
        assert_eq!(
            quiet.generation().cached().try_query(0, 11).unwrap(),
            b.try_query(0, 11).unwrap()
        );
        assert_eq!(recorded(&quiet), 0);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&bad).ok();
    }
}
