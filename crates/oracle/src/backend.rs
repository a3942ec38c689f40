//! The serving contract every query tier implements: [`QueryBackend`].
//!
//! The paper's build-once / query-many structure means every serving
//! arrangement of the artifact — the monolithic [`DistanceOracle`], the
//! sharded [`ShardRouter`], and either of them behind a
//! [`crate::CachingOracle`] — answers the *same* fallible query contract.
//! This module names that contract once, object-safely, so a serving layer
//! (like `cc-serve`) can hold a `Box<dyn QueryBackend>` and never branch on
//! which tier it is fronting, and so alternative approximation backends can
//! plug in later without touching the HTTP layer.
//!
//! # The contract
//!
//! * [`QueryBackend::try_query`] / [`QueryBackend::try_query_batch`] are
//!   **fallible-first**: an endpoint outside `0..n` is
//!   [`OracleError::QueryOutOfRange`], never a panic. Answers must be
//!   bit-identical across backends serving the same artifact — the
//!   `tests/backend_equivalence.rs` suite pins this down for every in-repo
//!   implementation.
//! * [`QueryBackend::n`] bounds the id space, so wrappers (caches, routers)
//!   can validate without knowing the concrete backend.
//! * [`QueryBackend::descriptor`] reports what is being served — mode,
//!   build parameters, stretch guarantee, per-shard layout, cache counters
//!   — so `/stats`- and `/artifact`-style endpoints are written once
//!   against the trait.
//!
//! # Example: dispatch over erased backends
//!
//! ```
//! use cc_clique::Clique;
//! use cc_graph::generators;
//! use cc_oracle::{CachingOracle, OracleBuilder, QueryBackend, ShardedArtifact};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::gnp_weighted(24, 0.2, 30, 7)?;
//! let mut clique = Clique::new(24);
//! let oracle = OracleBuilder::new().build(&mut clique, &g)?;
//!
//! // Three tiers, one contract: answers are bit-identical.
//! let backends: Vec<Box<dyn QueryBackend>> = vec![
//!     Box::new(oracle.clone()),
//!     Box::new(ShardedArtifact::partition(&oracle, 3)?.into_router()?),
//!     Box::new(CachingOracle::new(oracle.clone(), 1024)),
//! ];
//! for backend in &backends {
//!     assert_eq!(backend.try_query(0, 23)?, oracle.try_query(0, 23)?);
//! }
//! # Ok(())
//! # }
//! ```

use cc_matrix::Dist;

use crate::cache::CacheStats;
use crate::oracle::{check_pair, ArtifactSlice};
use crate::shard::ShardRouter;
use crate::{CachingOracle, DistanceOracle, OracleError};

/// What one shard of a routed backend serves, as reported by
/// [`BackendDescriptor::shards`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardDescriptor {
    /// The shard's slot in its set.
    pub index: usize,
    /// First node the shard owns.
    pub owned_start: usize,
    /// Number of contiguous nodes the shard owns.
    pub owned_len: usize,
    /// Heap footprint of the slice in bytes.
    pub artifact_bytes: usize,
    /// Identity of the artifact generation the slice was cut from.
    pub set_id: u64,
}

/// A self-description of a serving backend: everything a `/stats` or
/// `/artifact` endpoint reports, with no downcasting.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendDescriptor {
    /// The serving tier: `"mono"` for a monolithic oracle, `"router"` for a
    /// shard set. A caching wrapper keeps its inner backend's mode.
    pub mode: &'static str,
    /// Number of nodes the backend covers.
    pub n: usize,
    /// The ball-size parameter `k` of the underlying build.
    pub k: usize,
    /// The MSSP accuracy parameter `ε` of the underlying build; for a
    /// mixed-generation routed set, the largest `ε` across slices (the
    /// weakest accuracy actually served mid-roll).
    pub epsilon: f64,
    /// Number of landmarks in the underlying build.
    pub landmark_count: usize,
    /// Heap footprint in bytes (summed over shards for a router).
    pub artifact_bytes: usize,
    /// The documented multiplicative stretch bound `3·(1+ε)`; for a
    /// mixed-generation routed set, the weakest (largest) bound across
    /// slices.
    pub stretch_bound: f64,
    /// Clique rounds the one-off build phase charged.
    pub build_rounds: u64,
    /// The landmark-selection seed of the build.
    pub seed: u64,
    /// Per-shard layout, in slot order; empty for a monolithic backend.
    pub shards: Vec<ShardDescriptor>,
    /// Result-cache counters, when a [`CachingOracle`] fronts the backend.
    pub cache: Option<CacheStats>,
}

impl BackendDescriptor {
    /// True when every shard was cut from the same artifact generation
    /// (trivially true for a monolithic backend). During a rolling rollout
    /// a router reports `false` here until the last slice is swapped.
    pub fn set_uniform(&self) -> bool {
        self.shards.windows(2).all(|w| w[0].set_id == w[1].set_id)
    }
}

/// The object-safe query contract every serving tier implements; see the
/// [module docs](self) for the guarantees and an example.
///
/// Implementations must be `Send + Sync`: a backend is shared across worker
/// threads by the serving layer.
pub trait QueryBackend: Send + Sync {
    /// Number of nodes the backend covers; queries must name endpoints in
    /// `0..n`.
    fn n(&self) -> usize;

    /// Distance estimate for the pair `(u, v)`; identical answers across
    /// every backend serving the same artifact.
    ///
    /// # Errors
    ///
    /// [`OracleError::QueryOutOfRange`] if `u` or `v` is not in `0..n`.
    fn try_query(&self, u: usize, v: usize) -> Result<Dist, OracleError>;

    /// Answers a batch in request order. Validates every pair up front:
    /// either the whole batch is answered or nothing is computed.
    ///
    /// The default implementation validates and then answers pair-by-pair;
    /// backends with a cheaper bulk path (one validation pass, counters
    /// bumped once for the whole batch) should override it.
    ///
    /// # Errors
    ///
    /// [`OracleError::QueryOutOfRange`] naming the first offending pair.
    fn try_query_batch(&self, pairs: &[(usize, usize)]) -> Result<Vec<Dist>, OracleError> {
        let n = self.n();
        for &(u, v) in pairs {
            check_pair(n, u, v)?;
        }
        pairs.iter().map(|&(u, v)| self.try_query(u, v)).collect()
    }

    /// What this backend serves: mode, build parameters, per-shard layout,
    /// cache counters. Called per monitoring request, so it should be cheap
    /// (no artifact traversal beyond summing per-shard sizes).
    fn descriptor(&self) -> BackendDescriptor;
}

/// The one descriptor body: what a backend serving exactly `slice`
/// reports. A router starts from its first slice and widens.
fn describe(mode: &'static str, slice: &ArtifactSlice) -> BackendDescriptor {
    BackendDescriptor {
        mode,
        n: slice.n(),
        k: slice.k(),
        epsilon: slice.epsilon(),
        landmark_count: slice.landmarks().len(),
        artifact_bytes: slice.artifact_bytes(),
        stretch_bound: slice.stretch_bound(),
        build_rounds: slice.build_rounds(),
        seed: slice.seed(),
        shards: Vec::new(),
        cache: None,
    }
}

impl QueryBackend for DistanceOracle {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn try_query(&self, u: usize, v: usize) -> Result<Dist, OracleError> {
        DistanceOracle::try_query(self, u, v)
    }

    fn try_query_batch(&self, pairs: &[(usize, usize)]) -> Result<Vec<Dist>, OracleError> {
        DistanceOracle::try_query_batch(self, pairs)
    }

    fn descriptor(&self) -> BackendDescriptor {
        describe("mono", self)
    }
}

impl QueryBackend for ShardRouter {
    fn n(&self) -> usize {
        ShardRouter::n(self)
    }

    fn try_query(&self, u: usize, v: usize) -> Result<Dist, OracleError> {
        ShardRouter::try_query(self, u, v)
    }

    fn try_query_batch(&self, pairs: &[(usize, usize)]) -> Result<Vec<Dist>, OracleError> {
        ShardRouter::try_query_batch(self, pairs)
    }

    fn descriptor(&self) -> BackendDescriptor {
        let shards = self.shards();
        let mut desc = describe("router", &shards[0]);
        for s in &shards[1..] {
            // During a rolling rollout the slices may come from builds with
            // different ε: report the **weakest** guarantee actually served,
            // not shard 0's (for a uniform set they coincide).
            desc.epsilon = desc.epsilon.max(s.epsilon());
            desc.stretch_bound = desc.stretch_bound.max(s.stretch_bound());
            desc.artifact_bytes += s.artifact_bytes();
        }
        desc.shards = shards
            .iter()
            .map(|s| ShardDescriptor {
                index: s.index(),
                owned_start: s.owned().start,
                owned_len: s.owned().len(),
                artifact_bytes: s.artifact_bytes(),
                set_id: s.set_id(),
            })
            .collect();
        desc
    }
}

impl<B: QueryBackend> QueryBackend for CachingOracle<B> {
    fn n(&self) -> usize {
        CachingOracle::n(self)
    }

    fn try_query(&self, u: usize, v: usize) -> Result<Dist, OracleError> {
        CachingOracle::try_query(self, u, v)
    }

    fn try_query_batch(&self, pairs: &[(usize, usize)]) -> Result<Vec<Dist>, OracleError> {
        CachingOracle::try_query_batch(self, pairs)
    }

    fn descriptor(&self) -> BackendDescriptor {
        BackendDescriptor { cache: Some(self.stats()), ..self.inner().descriptor() }
    }
}

/// Boxed backends dispatch through to the boxed value, so
/// `CachingOracle<Box<dyn QueryBackend>>` — a cache over *any* tier — and
/// nested erasure both work.
impl<B: QueryBackend + ?Sized> QueryBackend for Box<B> {
    fn n(&self) -> usize {
        (**self).n()
    }

    fn try_query(&self, u: usize, v: usize) -> Result<Dist, OracleError> {
        (**self).try_query(u, v)
    }

    fn try_query_batch(&self, pairs: &[(usize, usize)]) -> Result<Vec<Dist>, OracleError> {
        (**self).try_query_batch(pairs)
    }

    fn descriptor(&self) -> BackendDescriptor {
        (**self).descriptor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OracleBuilder, ShardedArtifact};
    use cc_clique::Clique;
    use cc_graph::generators;

    fn build(n: usize, seed: u64) -> DistanceOracle {
        let g = generators::gnp_weighted(n, 0.15, 30, seed).unwrap();
        let mut clique = Clique::new(n);
        OracleBuilder::new().seed(seed).build(&mut clique, &g).unwrap()
    }

    #[test]
    fn erased_backends_agree_with_the_concrete_oracle() {
        let oracle = build(20, 3);
        let router = ShardedArtifact::partition(&oracle, 3).unwrap().into_router().unwrap();
        let backends: Vec<Box<dyn QueryBackend>> = vec![
            Box::new(oracle.clone()),
            Box::new(router.clone()),
            Box::new(CachingOracle::new(oracle.clone(), 256)),
            Box::new(CachingOracle::new(router, 256)),
        ];
        for backend in &backends {
            assert_eq!(backend.n(), 20);
            for u in 0..20 {
                for v in 0..20 {
                    assert_eq!(
                        backend.try_query(u, v).unwrap(),
                        oracle.try_query(u, v).unwrap(),
                        "({u},{v}) via {}",
                        backend.descriptor().mode
                    );
                }
            }
            assert!(backend.try_query(0, 20).is_err());
            let pairs: Vec<(usize, usize)> = (0..20).map(|i| (i, (i * 7 + 3) % 20)).collect();
            assert_eq!(
                backend.try_query_batch(&pairs).unwrap(),
                oracle.try_query_batch(&pairs).unwrap()
            );
            let mut bad = pairs;
            bad.push((0, 20));
            assert!(backend.try_query_batch(&bad).is_err());
        }
    }

    #[test]
    fn descriptors_name_the_tier_and_the_build() {
        let oracle = build(21, 5);
        let mono = oracle.descriptor();
        assert_eq!(mono.mode, "mono");
        assert_eq!(mono.n, 21);
        assert_eq!(mono.k, oracle.k());
        assert_eq!(mono.landmark_count, oracle.landmarks().len());
        assert_eq!(mono.artifact_bytes, oracle.artifact_bytes());
        assert!(mono.shards.is_empty());
        assert!(mono.cache.is_none());
        assert!(mono.set_uniform());

        let router = ShardedArtifact::partition(&oracle, 3).unwrap().into_router().unwrap();
        let routed = router.descriptor();
        assert_eq!(routed.mode, "router");
        assert_eq!(routed.n, 21);
        assert_eq!(routed.shards.len(), 3);
        assert!(routed.set_uniform());
        assert_eq!(
            routed.shards.iter().map(|s| s.owned_len).sum::<usize>(),
            21,
            "shards must cover every node"
        );
        assert_eq!(
            routed.artifact_bytes,
            routed.shards.iter().map(|s| s.artifact_bytes).sum::<usize>()
        );

        // A cache keeps the inner mode and adds its counters.
        let cached = CachingOracle::new(router, 64);
        cached.try_query(0, 7).unwrap();
        cached.try_query(0, 7).unwrap();
        let desc = cached.descriptor();
        assert_eq!(desc.mode, "router");
        let stats = desc.cache.expect("cached backend must report cache stats");
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn boxed_dispatch_is_transparent() {
        let oracle = build(12, 9);
        let boxed: Box<dyn QueryBackend> = Box::new(oracle.clone());
        let rebox: Box<Box<dyn QueryBackend>> = Box::new(boxed);
        assert_eq!(rebox.n(), 12);
        assert_eq!(rebox.try_query(1, 11).unwrap(), oracle.try_query(1, 11).unwrap());
        assert_eq!(rebox.descriptor(), oracle.descriptor());
    }
}
