//! Atomic hot-swap of the served artifact: a [`ReloadHandle`] lets the
//! request path keep answering on the current snapshot while a new one is
//! loaded, validated, and swapped in — with zero dropped requests.
//!
//! A [`Generation`] is one immutable serving unit: a [`Backend`] (a
//! monolithic oracle or a shard router) behind its own [`CachingOracle`],
//! plus the identity of the snapshot(s) it came from. Because the cache
//! wraps either variant, the router tier gets the same result cache the
//! monolith always had, and a swap replaces backend + cache as one unit —
//! answers from an old artifact can never leak into a new generation.
//! What *does* carry over is heat: [`Generation::warmed_from`] replays the
//! hottest keys of the outgoing cache against the **new** backend, so the
//! hit rate doesn't fall off a cliff at every reload.
//!
//! The build image has no `arc-swap` crate, so the handle is an
//! `RwLock<Arc<Generation>>` used as a pointer cell: readers take the read
//! lock only long enough to clone the `Arc` (a refcount bump, never held
//! across a query), and a swap takes the write lock only to replace the
//! pointer. In-flight requests that already cloned the old generation
//! finish on the old artifact; its memory is freed when the last clone
//! drops.
//!
//! What a reload *loads* is a [`ReloadTarget`]; resolving one against the
//! generation being replaced ([`ReloadTarget::stage`]) is the whole reload
//! operation short of the swap, which [`crate::AppState::reload`] performs
//! under its lock and reports as a [`ReloadOutcome`] or a [`ReloadError`].

use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

use cc_oracle::serde::{self, SnapshotHeader};
use cc_oracle::shard::ShardRouter;
use cc_oracle::{Backend, BackendDescriptor, CachingOracle};
use cc_telemetry::Histogram;

use crate::source::{self, BackendSpec, LoadedBackend};

/// Identity of a serving artifact, as reported by `/stats` and
/// `/artifact`: snapshot format version, build id (payload checksum), when
/// the snapshot was written, and where it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Snapshot format version the artifact was loaded from (the current
    /// `serde::SNAPSHOT_VERSION` for in-process builds).
    pub version: u32,
    /// Stable artifact identity: the payload checksum as 16 hex digits.
    /// Identical artifacts share a build id; any payload difference
    /// changes it.
    pub build_id: String,
    /// Unix timestamp (seconds) the snapshot was written; `0` when unknown
    /// (in-process builds that never touched disk).
    pub created_unix_secs: u64,
    /// Where the artifact came from: a snapshot path, or `"demo"` /
    /// `"in-process"` for built-not-loaded oracles.
    pub source: String,
}

impl SnapshotInfo {
    /// Info for an artifact loaded from a versioned snapshot — monolithic
    /// or per-shard — at `source`. For a shard, `build_id` is the shard
    /// file's own checksum (distinct per slice); the set-wide identity is
    /// the shard's set id.
    pub fn from_header(header: &SnapshotHeader, source: impl Into<String>) -> SnapshotInfo {
        SnapshotInfo {
            version: header.version,
            build_id: header.build_id(),
            created_unix_secs: header.created_unix_secs,
            source: source.into(),
        }
    }

    /// Info synthesized for something that is not one snapshot file — an
    /// oracle or shard built in-process and never snapshotted, or a shard
    /// set as a whole: current format version, and the id the codec would
    /// store (`serde::payload_checksum` for an oracle,
    /// `serde::shard_checksum` for a shard, the shared set id for a set).
    pub fn in_process(build_id: u64, source: impl Into<String>) -> SnapshotInfo {
        SnapshotInfo {
            version: cc_oracle::serde::SNAPSHOT_VERSION,
            build_id: format!("{build_id:016x}"),
            created_unix_secs: 0,
            source: source.into(),
        }
    }
}

/// How many of the outgoing cache's hottest keys a reload replays into the
/// incoming generation's cache (see [`Generation::warmed_from`]).
pub const WARM_KEYS: usize = 1024;

/// One immutable serving generation: a [`Backend`] behind its result
/// cache, plus the identity of the snapshot(s) it came from. A reload
/// builds a fresh `Generation` and swaps it in whole; the cache starts
/// empty (answers from the old artifact must not leak into the new one)
/// but can be pre-warmed with [`Generation::warmed_from`].
pub struct Generation {
    cached: CachingOracle,
    info: SnapshotInfo,
    shard_infos: Vec<SnapshotInfo>,
    warmed_keys: u64,
}

impl Generation {
    /// Wraps a [`LoadedBackend`] — [`LoadedBackend::mono`],
    /// [`LoadedBackend::router`], or the output of
    /// [`crate::source::BackendSpec::load`] — for serving with a fresh
    /// cache of `cache_capacity` entries (`0` disables caching).
    pub fn new(loaded: LoadedBackend, cache_capacity: usize) -> Generation {
        Generation {
            cached: CachingOracle::new(loaded.backend, cache_capacity),
            info: loaded.info,
            shard_infos: loaded.shard_infos,
            warmed_keys: 0,
        }
    }

    /// Replays up to `limit` of `donor`'s hottest cached pairs into this
    /// generation's cache, **recomputed on this generation's backend** (a
    /// warm-up can never leak a stale answer), and records the count for
    /// `/stats`. Call between loading the new generation and swapping it
    /// in.
    pub fn warmed_from(mut self, donor: &Generation, limit: usize) -> Self {
        let keys = donor.cached.hottest_keys(limit);
        self.warmed_keys = self.cached.warm(&keys) as u64;
        self
    }

    /// The cache-fronted query interface — the one the request path uses.
    pub fn cached(&self) -> &CachingOracle {
        &self.cached
    }

    /// The backend behind the cache.
    pub fn backend(&self) -> &Backend {
        self.cached.inner()
    }

    /// Number of nodes this generation serves.
    pub fn n(&self) -> usize {
        self.cached.n()
    }

    /// What this generation serves (mode, build parameters, shard layout,
    /// cache counters) — [`CachingOracle::descriptor`].
    pub fn descriptor(&self) -> BackendDescriptor {
        self.cached.descriptor()
    }

    /// Identity of the snapshot this generation was loaded from (for a
    /// shard set: the set-level identity).
    pub fn info(&self) -> &SnapshotInfo {
        &self.info
    }

    /// Per-slice snapshot identities, parallel to [`Backend::shards`].
    pub fn shard_infos(&self) -> &[SnapshotInfo] {
        &self.shard_infos
    }

    /// True when this generation routes a shard set.
    pub fn is_sharded(&self) -> bool {
        matches!(self.backend(), Backend::Router(_))
    }

    /// How many cache entries [`Generation::warmed_from`] replayed into
    /// this generation.
    pub fn warmed_keys(&self) -> u64 {
        self.warmed_keys
    }
}

/// What [`crate::AppState::reload`] should load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReloadTarget {
    /// The configured source (a bare `POST /reload`, SIGHUP): a manifest
    /// is **re-read** (mode, files, set id, cache capacity may all
    /// change), a shard-file source rolls every shard all-or-nothing, a
    /// snapshot source reloads the file.
    Configured,
    /// This monolithic snapshot file (`/reload?path=FILE`); the configured
    /// `set_id` pin still gates it.
    Snapshot(PathBuf),
    /// One slot of a routed set (`/reload?shard=i[&path=FILE]`), every
    /// other slice shared into the new generation untouched. A new set id
    /// is allowed — that is how a rolling rollout moves the set to a new
    /// artifact generation one shard at a time (`/stats` reports
    /// `set_uniform` so the roll's progress is observable).
    Shard {
        /// The slot to replace.
        index: usize,
        /// The per-shard snapshot to load; by default, the file the slice
        /// was last loaded from.
        path: Option<PathBuf>,
    },
}

/// What a successful reload installed, captured atomically with the swap —
/// a response built from this cannot mix in state from a concurrent later
/// reload.
#[derive(Debug, Clone)]
pub struct ReloadOutcome {
    /// Identity of the artifact that was swapped in (the affected shard's
    /// file for a single-shard reload).
    pub info: SnapshotInfo,
    /// Node count of the artifact that was swapped in.
    pub n: usize,
    /// Shard count of the generation that was swapped in (0: a monolith).
    pub shards: usize,
    /// Successful-swap count as of this swap (this reload included; a
    /// full-set roll counts one per shard).
    pub reloads: u64,
}

/// Why a reload swapped nothing (the old generation keeps serving);
/// displays as the human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReloadError {
    /// The request does not fit the serving mode (a slot on a monolith, a
    /// snapshot path on a routed set, a slot with no file to default to):
    /// nothing was attempted, nothing is counted.
    Unfit(String),
    /// Attempted and refused (I/O, magic, version, checksum, structure,
    /// slot, `set_id` pin, no configured source): counted in
    /// `reload_failures` and recorded as `last_reload_error`.
    Rejected(String),
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (ReloadError::Unfit(msg) | ReloadError::Rejected(msg)) = self;
        f.write_str(msg)
    }
}

/// The replacement a reload staged, plus the cache capacity a re-read
/// manifest declares.
type Staged = Result<(LoadedBackend, Option<usize>), ReloadError>;

impl ReloadTarget {
    /// Loads and validates the replacement for `current` this target
    /// names, given the configured source — everything a reload does short
    /// of the swap. Every precondition is checked here, against the
    /// generation being replaced, and nowhere else.
    pub(crate) fn stage(&self, current: &Generation, spec: Option<&BackendSpec>) -> Staged {
        let pin = spec.and_then(|s| s.expected_set_id);
        let rejected =
            |what: &str, e: Box<dyn Error>| ReloadError::Rejected(format!("{what} rejected: {e}"));
        let spec = match (self, spec) {
            (ReloadTarget::Shard { index, path }, _) => {
                return Ok((stage_shard(current, *index, path.as_deref())?, None));
            }
            (ReloadTarget::Snapshot(path), _) => return stage_snapshot(current, path, pin),
            (ReloadTarget::Configured, Some(spec)) => spec,
            (ReloadTarget::Configured, None) => {
                return Err(ReloadError::Rejected(
                    "no reload source configured: start with --manifest, or pass an explicit path"
                        .to_owned(),
                ));
            }
        };
        // A spec names a manifest, one snapshot, or a shard file set.
        match (spec.manifest_path(), spec.mono_path()) {
            // Re-read: new files, a new expected set id, a new cache
            // capacity, even a different mode or `n`.
            (Some(manifest), _) => BackendSpec::from_manifest(manifest)
                .and_then(|fresh| Ok((fresh.load()?, fresh.cache_capacity)))
                .map_err(|e| rejected("manifest reload", e)),
            (None, Some(path)) => stage_snapshot(current, path, pin),
            (None, None) => {
                let loaded = spec.load().and_then(|loaded| {
                    if loaded.n() != current.n() {
                        return Err(format!(
                            "n = {} but the serving set has n = {} (restart to change the graph \
                             size)",
                            loaded.n(),
                            current.n()
                        )
                        .into());
                    }
                    Ok((loaded, None))
                });
                loaded.map_err(|e| rejected("full-set reload", e))
            }
        }
    }
}

/// Stages the monolithic snapshot at `path`. The manifest's `set_id` pin
/// gates explicit-path reloads too: a wrong-build snapshot must not sneak
/// past the gate the operator configured (docs/OPERATIONS.md).
fn stage_snapshot(current: &Generation, path: &Path, pin: Option<u64>) -> Staged {
    if current.is_sharded() {
        // Silently rolling the configured source instead would answer 200
        // without deploying the named file.
        return Err(ReloadError::Unfit(
            "this server routes a shard set: a bare /reload rolls the configured \
             manifest/files; use /reload?shard=i&path=FILE to roll one slice"
                .to_owned(),
        ));
    }
    let mut spec = BackendSpec::mono(path);
    spec.expected_set_id = pin;
    spec.load()
        .map(|loaded| (loaded, None))
        .map_err(|e| ReloadError::Rejected(format!("reload from {} rejected: {e}", path.display())))
}

/// Stages `current` with slot `index` replaced by the per-shard snapshot
/// at `path`; [`ShardRouter::assemble_rolling`] holds it to the slot, the
/// shard count and the `n` of the serving set.
fn stage_shard(
    current: &Generation,
    index: usize,
    path: Option<&Path>,
) -> Result<LoadedBackend, ReloadError> {
    let Backend::Router(router) = current.backend() else {
        return Err(ReloadError::Unfit(
            "this server is monolithic: /reload takes no 'shard' parameter".to_owned(),
        ));
    };
    // Bounds-check before resolving the path: an out-of-range index must
    // name the real problem (and land in reload_failures for monitoring),
    // not claim a missing default path.
    let Some(serving) = current.shard_infos().get(index) else {
        let count = router.shards().len();
        return Err(ReloadError::Rejected(format!("shard index {index} outside 0..{count}")));
    };
    let path = match path {
        Some(path) => path,
        None if serving.source != "in-process" => Path::new(&serving.source),
        None => {
            return Err(ReloadError::Unfit(format!(
                "shard {index} has no default snapshot file; pass /reload?shard={index}&path=FILE"
            )));
        }
    };
    let rolled = source::load_slice(path, serde::from_shard_bytes_with_header).and_then(|loaded| {
        let mut shards = router.shards().to_vec();
        shards[index] = Arc::new(loaded.artifact);
        let mut shard_infos = current.shard_infos().to_vec();
        shard_infos[index] = loaded.info;
        let router = ShardRouter::assemble_rolling(shards)?;
        Ok(LoadedBackend::router(router, shard_infos, current.info().source.clone()))
    });
    rolled.map_err(|e: Box<dyn Error>| {
        ReloadError::Rejected(format!(
            "reload of shard {index} from {} rejected: {e}",
            path.display()
        ))
    })
}

/// The swap point between the request path and reloads: one handle
/// serves every tier — monolith or router, cached or not.
///
/// # Example
///
/// ```
/// use cc_oracle::serde::payload_checksum;
/// use cc_server::{Generation, LoadedBackend, ReloadHandle, SnapshotInfo};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let old = cc_server::source::build_demo(16, 1, 0.25)?;
/// let new = cc_server::source::build_demo(16, 2, 0.25)?;
/// let old_info = SnapshotInfo::in_process(payload_checksum(&old), "demo");
/// let new_info = SnapshotInfo::in_process(payload_checksum(&new), "demo-2");
///
/// let handle = ReloadHandle::new(Generation::new(LoadedBackend::mono(old, old_info), 1024));
///
/// // The request path clones the current generation (a refcount bump)...
/// let serving = handle.current();
/// let before = serving.cached().try_query(0, 15)?;
///
/// // ...a reload swaps in a validated replacement atomically...
/// handle.swap(Generation::new(LoadedBackend::mono(new, new_info), 1024));
///
/// // ...and the clone taken before the swap still answers on the old
/// // artifact, so an in-flight request never sees a half-swapped state.
/// assert_eq!(serving.cached().try_query(0, 15)?, before);
/// assert_eq!(handle.current().info().source, "demo-2");
/// # Ok(())
/// # }
/// ```
pub struct ReloadHandle {
    current: RwLock<Arc<Generation>>,
    duration: Option<Arc<Histogram>>,
}

impl ReloadHandle {
    /// Starts with `initial` as the serving generation.
    pub fn new(initial: Generation) -> ReloadHandle {
        ReloadHandle { current: RwLock::new(Arc::new(initial)), duration: None }
    }

    /// Sets the histogram [`swap_timed`](Self::swap_timed) records reload
    /// durations (nanoseconds) into — `cc_reload_duration_ns` when the
    /// server wires it up.
    pub fn set_duration_histogram(&mut self, duration: Arc<Histogram>) {
        self.duration = Some(duration);
    }

    /// The generation serving right now. The read lock is held only for
    /// the `Arc` clone, so this never blocks behind a load — only behind
    /// the pointer swap itself, which is a few instructions.
    pub fn current(&self) -> Arc<Generation> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Atomically replaces the serving generation, returning the previous
    /// one. Callers must fully load **and validate** the new artifact
    /// before calling this; in-flight requests holding the old `Arc`
    /// finish on the old artifact.
    pub fn swap(&self, next: Generation) -> Arc<Generation> {
        let mut slot = self.current.write().unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *slot, Arc::new(next))
    }

    /// [`swap`](Self::swap), charging the whole reload — `started` should
    /// be taken before the load/validate/warm work, so the recorded
    /// duration covers load → validate → warm → swap — to the histogram
    /// set by [`set_duration_histogram`](Self::set_duration_histogram).
    pub fn swap_timed(&self, next: Generation, started: Instant) -> Arc<Generation> {
        let prev = self.swap(next);
        if let Some(duration) = &self.duration {
            duration.record(started.elapsed().as_nanos() as u64);
        }
        prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::build_demo;
    use cc_oracle::serde::{payload_checksum, shard_checksum};
    use cc_oracle::DistanceOracle;

    fn mono(oracle: &DistanceOracle, source: &str, cache_capacity: usize) -> Generation {
        let info = SnapshotInfo::in_process(payload_checksum(oracle), source);
        Generation::new(LoadedBackend::mono(oracle.clone(), info), cache_capacity)
    }

    #[test]
    fn swap_is_atomic_and_old_readers_finish_on_the_old_artifact() {
        let a = build_demo(20, 3, 0.5).unwrap();
        let b = build_demo(20, 4, 0.5).unwrap();
        let a_answers: Vec<_> = (0..20).map(|v| a.try_query(0, v).unwrap()).collect();
        let b_answers: Vec<_> = (0..20).map(|v| b.try_query(0, v).unwrap()).collect();

        let handle = ReloadHandle::new(mono(&a, "a", 64));
        let held = handle.current();
        let prev = handle.swap(mono(&b, "b", 64));
        assert_eq!(prev.info().source, "a");

        // The pre-swap clone still serves A; fresh clones serve B.
        for v in 0..20 {
            assert_eq!(held.cached().try_query(0, v).unwrap(), a_answers[v]);
            assert_eq!(handle.current().cached().try_query(0, v).unwrap(), b_answers[v]);
        }
    }

    #[test]
    fn concurrent_readers_always_see_a_complete_generation() {
        let a = build_demo(16, 5, 0.5).unwrap();
        let b = build_demo(16, 6, 0.5).unwrap();
        let a_ans: Vec<_> = (0..16).map(|v| a.try_query(3, v).unwrap()).collect();
        let b_ans: Vec<_> = (0..16).map(|v| b.try_query(3, v).unwrap()).collect();
        let handle = ReloadHandle::new(mono(&a, "a", 64));

        std::thread::scope(|scope| {
            for _ in 0..4 {
                let handle = &handle;
                let (a_ans, b_ans) = (&a_ans, &b_ans);
                scope.spawn(move || {
                    for _ in 0..2_000 {
                        let generation = handle.current();
                        let src = generation.info().source.clone();
                        // Every answer from one clone must be internally
                        // consistent with exactly that generation.
                        for v in 0..16 {
                            let d = generation.cached().try_query(3, v).unwrap();
                            let want = if src == "a" { a_ans[v] } else { b_ans[v] };
                            assert_eq!(d, want, "generation {src} answered inconsistently");
                        }
                    }
                });
            }
            let handle = &handle;
            scope.spawn(move || {
                for i in 0..50 {
                    let (oracle, name) = if i % 2 == 0 { (&b, "b") } else { (&a, "a") };
                    handle.swap(mono(oracle, name, 64));
                }
            });
        });
    }

    #[test]
    fn swap_timed_charges_the_reload_histogram() {
        let registry = cc_telemetry::Registry::new();
        let hist = registry.histogram("cc_reload_duration_ns", &[]);
        let a = build_demo(12, 3, 0.5).unwrap();
        let b = build_demo(12, 4, 0.5).unwrap();
        let mut handle = ReloadHandle::new(mono(&a, "a", 64));
        handle.set_duration_histogram(Arc::clone(&hist));

        let started = Instant::now();
        let next = mono(&b, "b", 64);
        let prev = handle.swap_timed(next, started);
        assert_eq!(prev.info().source, "a");
        assert_eq!(handle.current().info().source, "b");
        assert_eq!(hist.snapshot().count(), 1, "one reload, one recording");
    }

    #[test]
    fn snapshot_info_variants_describe_their_origin() {
        let oracle = build_demo(12, 9, 0.5).unwrap();
        let bytes = cc_oracle::serde::to_bytes_created_at(&oracle, 1_753_000_000);
        let header = cc_oracle::serde::peek_header(&bytes).unwrap();

        let from_file = SnapshotInfo::from_header(&header, "/tmp/x.snap");
        assert_eq!(from_file.version, cc_oracle::serde::SNAPSHOT_VERSION);
        assert_eq!(from_file.created_unix_secs, 1_753_000_000);
        assert_eq!(from_file.source, "/tmp/x.snap");

        let built = SnapshotInfo::in_process(payload_checksum(&oracle), "demo");
        // Same artifact ⇒ same build id, regardless of how it arrived.
        assert_eq!(built.build_id, from_file.build_id);
        assert_eq!(built.created_unix_secs, 0);

        // A shard's info carries the shard file's own id: distinct from the
        // monolithic build id, stable across loads of the same slice.
        let shards = cc_oracle::ShardedArtifact::partition(&oracle, 2).unwrap().into_shards();
        let shard_bytes = cc_oracle::serde::to_shard_bytes_created_at(&shards[0], 7);
        let shard_header = cc_oracle::serde::peek_shard_header(&shard_bytes).unwrap();
        let from_shard = SnapshotInfo::from_header(&shard_header, "/tmp/s0.snap");
        assert_eq!(from_shard.version, cc_oracle::serde::SNAPSHOT_VERSION);
        assert_ne!(from_shard.build_id, from_file.build_id);
        let built_shard = SnapshotInfo::in_process(shard_checksum(&shards[0]), "x");
        assert_eq!(from_shard.build_id, built_shard.build_id);
        assert_eq!(shard_header.set_build_id(), from_file.build_id);
    }

    #[test]
    fn generations_wrap_any_backend_and_describe_it() {
        let oracle = build_demo(20, 3, 0.5).unwrap();
        // A monolithic generation...
        let mono = mono(&oracle, "demo", 64);
        assert_eq!(mono.descriptor().mode, "mono");
        assert!(!mono.is_sharded());
        assert_eq!(mono.n(), 20);

        // ...and a sharded one through the same type.
        let shards = cc_oracle::ShardedArtifact::partition(&oracle, 2).unwrap().into_shards();
        let infos = shards
            .iter()
            .map(|s| SnapshotInfo::in_process(shard_checksum(s), "in-process"))
            .collect();
        let router = ShardRouter::assemble(shards).unwrap();
        let routed = Generation::new(LoadedBackend::router(router, infos, "in-process"), 64);
        assert_eq!(routed.descriptor().mode, "router");
        assert!(routed.is_sharded());
        assert_eq!(routed.backend().shards().len(), 2);
        assert_eq!(routed.shard_infos().len(), 2);
        for v in 0..20 {
            assert_eq!(
                routed.cached().try_query(0, v).unwrap(),
                mono.cached().try_query(0, v).unwrap()
            );
        }
        // The router generation's cache works: the loop above asked (0, 0)
        // then distinct pairs; re-ask one and the hit counter moves.
        let hits_before = routed.descriptor().cache.unwrap().hits;
        routed.cached().try_query(0, 5).unwrap();
        assert!(routed.descriptor().cache.unwrap().hits > hits_before);
    }

    #[test]
    fn warmed_from_replays_the_donor_heat_onto_the_new_backend() {
        let a = build_demo(24, 3, 0.5).unwrap();
        let b = build_demo(24, 4, 0.5).unwrap();
        let old = mono(&a, "a", 512);
        let hot: Vec<(usize, usize)> = (0..10).map(|i| (i, (i * 5 + 1) % 24)).collect();
        for &(u, v) in &hot {
            old.cached().try_query(u, v).unwrap();
        }

        let fresh = mono(&b, "b", 512).warmed_from(&old, WARM_KEYS);
        assert_eq!(fresh.warmed_keys(), old.descriptor().cache.unwrap().len as u64);
        // The warmed entries answer with B's values (recomputed, never
        // copied from A) and hit without missing.
        let misses_before = fresh.descriptor().cache.unwrap().misses;
        for &(u, v) in &hot {
            assert_eq!(fresh.cached().try_query(u, v).unwrap(), b.try_query(u, v).unwrap());
        }
        assert_eq!(fresh.descriptor().cache.unwrap().misses, misses_before);

        // A donor larger than the target: out-of-range keys are skipped.
        let big = build_demo(40, 5, 0.5).unwrap();
        let big_gen = mono(&big, "big", 512);
        big_gen.cached().try_query(30, 39).unwrap();
        big_gen.cached().try_query(0, 1).unwrap();
        let small = mono(&a, "a", 512).warmed_from(&big_gen, WARM_KEYS);
        assert_eq!(small.warmed_keys(), 1, "only the in-range key is warmable");
    }
}
