//! What a hot swap of the served artifact swaps: a [`Generation`] is one
//! immutable serving unit, a [`Backend`] (a monolithic oracle or a shard
//! router) behind its own [`CachingOracle`], plus the identity of the
//! snapshot(s) it came from. Because the cache wraps either variant, the
//! router tier gets the same result cache the monolith always had, and a
//! swap replaces backend + cache as one unit — answers from an old
//! artifact can never leak into a new generation. What *does* carry over
//! is heat: [`Generation::warmed_from`] replays the hottest keys of the
//! outgoing cache against the **new** backend, so the hit rate doesn't
//! fall off a cliff at every reload.
//!
//! What a reload *loads* is a [`ReloadTarget`]; resolving one against the
//! generation being replaced and the source in force
//! ([`ReloadTarget::stage`]) builds the whole next generation. Swapping it
//! in is [`crate::AppState::reload`]'s job, which reports a
//! [`ReloadOutcome`] or a [`ReloadError`].

use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cc_oracle::serde::{self, SnapshotHeader};
use cc_oracle::shard::ShardRouter;
use cc_oracle::{Backend, BackendDescriptor, CachingOracle};

use crate::source::{self, BackendSpec, LoadedBackend};

/// Identity of a serving artifact, as reported by `/stats` and
/// `/artifact`: build id (payload checksum), when the snapshot was
/// written, and where it came from. Every served artifact is in the
/// current snapshot format, `serde::SNAPSHOT_VERSION`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
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
            build_id: header.build_id(),
            created_unix_secs: header.created_unix_secs,
            source: source.into(),
        }
    }

    /// Info synthesized for something that is not one snapshot file — an
    /// oracle or shard built in-process and never snapshotted, or a shard
    /// set as a whole: the id the codec would store
    /// (`serde::payload_checksum` for an oracle, `serde::shard_checksum`
    /// for a shard, the shared set id for a set).
    pub fn in_process(build_id: u64, source: impl Into<String>) -> SnapshotInfo {
        SnapshotInfo {
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
#[derive(Clone)]
pub struct ReloadOutcome {
    /// The generation that was swapped in.
    pub generation: Arc<Generation>,
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

impl Error for ReloadError {}

impl ReloadTarget {
    /// Loads and validates the generation that replaces `current` — the
    /// backend this target names, its identities and its cache capacity —
    /// given `spec`, the source in force: everything a reload does short
    /// of the swap. Every precondition is checked here, against the
    /// generation being replaced, and nowhere else.
    ///
    /// A manifest re-read that loads replaces `spec`, so its `set_id` pin
    /// gates later explicit-path reloads and its `cache_capacity`, when it
    /// declares one, sizes the cache. Otherwise the capacity carries over
    /// from `current` (rounding to whole sets is idempotent), and a
    /// rejected re-read leaves `spec` as it was.
    pub(crate) fn stage(
        &self,
        current: &Generation,
        spec: &mut Option<BackendSpec>,
    ) -> Result<Generation, ReloadError> {
        let mut capacity = current.cached().stats().capacity;
        let pin = spec.as_ref().and_then(|s| s.expected_set_id);
        let rejected =
            |what: &str, e: Box<dyn Error>| ReloadError::Rejected(format!("{what} rejected: {e}"));
        let loaded = match (self, spec.as_ref()) {
            (ReloadTarget::Shard { index, path }, _) => {
                stage_shard(current, *index, path.as_deref())?
            }
            (ReloadTarget::Snapshot(path), _) => stage_snapshot(current, path, pin)?,
            (ReloadTarget::Configured, None) => {
                return Err(ReloadError::Rejected(
                    "no reload source configured: start with --manifest, or pass an explicit path"
                        .to_owned(),
                ));
            }
            // A spec names a manifest, one snapshot, or a shard file set.
            (ReloadTarget::Configured, Some(configured)) => {
                match (configured.manifest_path(), configured.mono_path()) {
                    // Re-read: new files, a new expected set id, a new
                    // cache capacity, even a different mode or `n`.
                    (Some(manifest), _) => {
                        let reread = |e| rejected("manifest reload", e);
                        let fresh = BackendSpec::from_manifest(manifest).map_err(reread)?;
                        let loaded = fresh.load().map_err(reread)?;
                        capacity = fresh.cache_capacity.unwrap_or(capacity);
                        *spec = Some(fresh);
                        loaded
                    }
                    (None, Some(path)) => stage_snapshot(current, path, pin)?,
                    (None, None) => {
                        let loaded = configured.load().and_then(|loaded| {
                            if loaded.n() != current.n() {
                                return Err(format!(
                                    "n = {} but the serving set has n = {} (restart to change \
                                     the graph size)",
                                    loaded.n(),
                                    current.n()
                                )
                                .into());
                            }
                            Ok(loaded)
                        });
                        loaded.map_err(|e| rejected("full-set reload", e))?
                    }
                }
            }
        };
        Ok(Generation::new(loaded, capacity))
    }
}

/// Stages the monolithic snapshot at `path`. The `set_id` pin of the
/// source in force gates explicit-path reloads too: a wrong-build snapshot
/// must not sneak past the gate the operator configured
/// (docs/OPERATIONS.md).
fn stage_snapshot(
    current: &Generation,
    path: &Path,
    pin: Option<u64>,
) -> Result<LoadedBackend, ReloadError> {
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
        .map_err(|e| ReloadError::Rejected(format!("reload from {} rejected: {e}", path.display())))
}

/// Stages `current` with slot `index` replaced by the per-shard snapshot
/// at `path`; [`ShardRouter::assemble_rolling`] holds it to the slot, the
/// shard count and the `n` of the serving set. The new slice adopts a
/// serving slot's column allocation when the matrices are equal.
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
        let mut shard = loaded.artifact;
        shard.share_columns(router.shards());
        let mut shards = router.shards().to_vec();
        shards[index] = Arc::new(shard);
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
    fn snapshot_info_variants_describe_their_origin() {
        let oracle = build_demo(12, 9, 0.5).unwrap();
        let bytes = cc_oracle::serde::to_bytes_created_at(&oracle, 1_753_000_000);
        let (header, _) = cc_oracle::serde::from_bytes_with_header(&bytes).unwrap();

        let from_file = SnapshotInfo::from_header(&header, "/tmp/x.snap");
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
        let (shard_header, _) =
            cc_oracle::serde::from_shard_bytes_with_header(&shard_bytes).unwrap();
        let from_shard = SnapshotInfo::from_header(&shard_header, "/tmp/s0.snap");
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
