//! The artifact a serving tier answers from: a closed [`Backend`] enum.
//!
//! The paper's build-once / query-many structure has exactly two serving
//! shapes here: the whole [`DistanceOracle`], answered locally, and a
//! [`ShardRouter`] over its row slices. [`Backend`] names them once, so a
//! serving layer (like `cc-serve`) holds one value — usually behind a
//! [`crate::CachingOracle`] — and still gets the router's slices back
//! ([`Backend::shards`]) when it rolls one.
//!
//! # The contract
//!
//! * [`Backend::try_query`] / [`Backend::try_query_batch`] are
//!   **fallible-first**: an endpoint outside `0..n` is
//!   [`OracleError::QueryOutOfRange`], never a panic. Answers are
//!   bit-identical across variants serving the same artifact, cached or
//!   not — the `tests/backend_equivalence.rs` suite pins this down.
//! * [`Backend::descriptor`] reports what is being served — mode, build
//!   parameters, stretch guarantee, per-shard layout, and (through the
//!   cache) its counters — so `/stats`- and `/artifact`-style endpoints are
//!   written once.
//!
//! # Example
//!
//! ```
//! use cc_clique::Clique;
//! use cc_graph::generators;
//! use cc_oracle::{Backend, CachingOracle, OracleBuilder, ShardedArtifact};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::gnp_weighted(24, 0.2, 30, 7)?;
//! let mut clique = Clique::new(24);
//! let oracle = OracleBuilder::new().build(&mut clique, &g)?;
//!
//! // Both shapes, one type: answers are bit-identical.
//! let router = ShardedArtifact::partition(&oracle, 3)?.into_router()?;
//! let backends = [Backend::from(oracle.clone()), Backend::from(router)];
//! for backend in &backends {
//!     assert_eq!(backend.try_query(0, 23)?, oracle.try_query(0, 23)?);
//! }
//! let cached = CachingOracle::new(oracle.clone(), 1024);
//! assert_eq!(cached.try_query(0, 23)?, oracle.try_query(0, 23)?);
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use cc_matrix::Dist;

use crate::cache::CacheStats;
use crate::oracle::{check_pair, ArtifactSlice};
use crate::shard::{OracleShard, ShardRouter};
use crate::{DistanceOracle, OracleError};

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
    /// Heap footprint of the slice in bytes
    /// ([`ArtifactSlice::artifact_bytes`]: its columns count in full even
    /// when another slot shares them).
    pub artifact_bytes: usize,
    /// Identity of the artifact generation the slice was cut from.
    pub set_id: u64,
}

/// A self-description of a serving backend: everything a `/stats` or
/// `/artifact` endpoint reports.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendDescriptor {
    /// The serving tier: `"mono"` for a monolithic oracle, `"router"` for a
    /// shard set. A caching wrapper keeps its backend's mode.
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
    /// Heap footprint in bytes. For a router, summed over shards with each
    /// column allocation counted once: a slot holding the same allocation
    /// as an earlier slot adds its bytes less the columns.
    pub artifact_bytes: usize,
    /// The multiplicative stretch bound the artifact certifies; for a
    /// router, the weakest (largest) bound across its slices.
    pub stretch_bound: f64,
    /// Clique rounds the one-off build phase charged.
    pub build_rounds: u64,
    /// The landmark-selection seed of the build.
    pub seed: u64,
    /// Per-shard layout, in slot order; empty for a monolithic backend.
    pub shards: Vec<ShardDescriptor>,
    /// Result-cache counters, when a [`crate::CachingOracle`] fronts the
    /// backend.
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

/// The artifact a serving tier answers from; see the [module docs](self)
/// for the contract and an example.
#[derive(Debug, Clone, PartialEq)]
pub enum Backend {
    /// The whole artifact, answered by the monolithic query kernel.
    Mono(DistanceOracle),
    /// A shard set, answered by the monolith's kernel over the shards
    /// owning the two endpoints.
    Router(ShardRouter),
}

impl Backend {
    /// Number of nodes the backend covers; queries must name endpoints in
    /// `0..n`.
    pub fn n(&self) -> usize {
        match self {
            Backend::Mono(oracle) => oracle.n(),
            Backend::Router(router) => router.n(),
        }
    }

    /// Distance estimate for the pair `(u, v)`.
    ///
    /// # Errors
    ///
    /// [`OracleError::QueryOutOfRange`] if `u` or `v` is not in `0..n`.
    pub fn try_query(&self, u: usize, v: usize) -> Result<Dist, OracleError> {
        check_pair(self.n(), u, v)?;
        Ok(self.query_unchecked(u, v))
    }

    /// The variant's query kernel; callers must have validated `u, v < n`.
    /// Kept out of line: inlined, both kernels would bloat the result
    /// cache's hit path, which calls this only on a miss.
    #[inline(never)]
    pub(crate) fn query_unchecked(&self, u: usize, v: usize) -> Dist {
        match self {
            Backend::Mono(oracle) => oracle.query_unchecked(u, v),
            Backend::Router(router) => router.query_unchecked(u, v),
        }
    }

    /// Answers a batch in request order. Validates every pair up front:
    /// either the whole batch is answered or nothing is computed.
    ///
    /// # Errors
    ///
    /// [`OracleError::QueryOutOfRange`] naming the first offending pair.
    pub fn try_query_batch(&self, pairs: &[(usize, usize)]) -> Result<Vec<Dist>, OracleError> {
        match self {
            Backend::Mono(oracle) => oracle.try_query_batch(pairs),
            Backend::Router(router) => router.try_query_batch(pairs),
        }
    }

    /// The router's slices in slot order; empty for a monolith.
    pub fn shards(&self) -> &[Arc<OracleShard>] {
        match self {
            Backend::Mono(_) => &[],
            Backend::Router(router) => router.shards(),
        }
    }

    /// What this backend serves: mode, build parameters, per-shard layout.
    /// Cheap: no artifact traversal beyond summing per-shard sizes.
    pub fn descriptor(&self) -> BackendDescriptor {
        let shards = match self {
            Backend::Mono(oracle) => return describe("mono", oracle),
            Backend::Router(router) => router.shards(),
        };
        let mut desc = describe("router", &shards[0]);
        for (i, s) in shards.iter().enumerate().skip(1) {
            // During a rolling rollout the slices may come from builds with
            // different ε: report the **weakest** guarantee actually served,
            // not shard 0's (for a uniform set they coincide).
            desc.epsilon = desc.epsilon.max(s.epsilon());
            desc.stretch_bound = desc.stretch_bound.max(s.stretch_bound());
            let columns = &s.sections().columns;
            let held = shards[..i].iter().any(|t| Arc::ptr_eq(&t.sections().columns, columns));
            desc.artifact_bytes += s.artifact_bytes() - if held { columns.len() * 8 } else { 0 };
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

impl From<DistanceOracle> for Backend {
    fn from(oracle: DistanceOracle) -> Backend {
        Backend::Mono(oracle)
    }
}

impl From<ShardRouter> for Backend {
    fn from(router: ShardRouter) -> Backend {
        Backend::Router(router)
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CachingOracle, OracleBuilder, ShardedArtifact};
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
        for backend in [Backend::from(oracle.clone()), Backend::from(router)] {
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
        let mono = Backend::from(oracle.clone());
        assert!(mono.shards().is_empty());
        let mono = mono.descriptor();
        assert_eq!(mono.mode, "mono");
        assert_eq!(mono.n, 21);
        assert_eq!(mono.k, oracle.k());
        assert_eq!(mono.landmark_count, oracle.landmarks().len());
        assert_eq!(mono.artifact_bytes, oracle.artifact_bytes());
        assert!(mono.shards.is_empty());
        assert!(mono.cache.is_none());
        assert!(mono.set_uniform());

        let router = ShardedArtifact::partition(&oracle, 3).unwrap().into_router().unwrap();
        let routed = Backend::from(router.clone());
        assert_eq!(routed.shards(), router.shards());
        let routed = routed.descriptor();
        assert_eq!(routed.mode, "router");
        assert_eq!(routed.n, 21);
        assert_eq!(routed.shards.len(), 3);
        assert!(routed.set_uniform());
        assert_eq!(
            routed.shards.iter().map(|s| s.owned_len).sum::<usize>(),
            21,
            "shards must cover every node"
        );
        // One column matrix for the set: the monolith's bytes plus what each
        // further shard repeats, its landmark list and one more ball offset.
        let columns = oracle.n() * oracle.landmarks().len() * 8;
        let repeated = 2 * (oracle.landmarks().len() * 4 + 4);
        assert_eq!(routed.artifact_bytes, oracle.artifact_bytes() + repeated);
        assert_eq!(
            routed.artifact_bytes,
            routed.shards.iter().map(|s| s.artifact_bytes).sum::<usize>() - 2 * columns,
            "each slice still reports its own columns"
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
}
