//! The serving-contract suite for [`Backend`]: every variant — monolithic
//! oracle and shard router — bare and behind a result cache of every
//! interesting capacity (off, one set, evicting, roomy) must answer
//! **bit-identically** to the concrete oracle, for every pair of every
//! standard graph family (gnp, road_like, disconnected multi-island),
//! including ∞ for disconnected pairs and the `MAX_FINITE_DISTANCE` clamp
//! for landmark sums that brush `u64::MAX`.
//!
//! This is the safety net under the serving plane: `cc-serve` answers
//! through exactly one cached `Backend`, so if dispatch, caching, or
//! routing perturbed a single bit, it would change wire answers. It never
//! may.

// Node-indexed loops over parallel per-node vectors are the domain idiom.
#![allow(clippy::needless_range_loop)]

use congested_clique::clique::Clique;
use congested_clique::graph::{generators, Graph};
use congested_clique::matrix::Dist;
use congested_clique::oracle::{
    Backend, BackendDescriptor, CachingOracle, DistanceOracle, OracleBuilder, OracleError,
    ShardedArtifact, MAX_FINITE_DISTANCE,
};

mod support;

fn build(g: &Graph, seed: u64) -> DistanceOracle {
    let mut clique = Clique::new(g.n());
    OracleBuilder::new().epsilon(0.25).seed(seed).build(&mut clique, g).expect("oracle build")
}

/// Cache capacities every variant is fronted with: pass-through, one entry
/// asked for (one set got), exactly one set, a few sets that evict
/// constantly, and room for everything.
const CACHE_CAPACITIES: [usize; 5] = [0, 1, 3, 64, 4096];

/// Both [`Backend`] variants over `oracle`, with the label used in failure
/// messages. Shard count 3 keeps same-shard, adjacent-shard and far-shard
/// pairs in play.
fn backends(oracle: &DistanceOracle) -> [(&'static str, Backend); 2] {
    let count = 3.min(oracle.n());
    let router = ShardedArtifact::partition(oracle, count)
        .expect("partition")
        .into_router()
        .expect("assemble");
    [("mono", oracle.clone().into()), ("router", router.into())]
}

/// Every pair, twice (the second pass hits the caches), plus the batch
/// path and out-of-range rejection through one serving path: answers must
/// equal the monolith's direct answers exactly.
fn check_served(
    oracle: &DistanceOracle,
    label: &str,
    query: impl Fn(usize, usize) -> Result<Dist, OracleError>,
    batch: impl Fn(&[(usize, usize)]) -> Result<Vec<Dist>, OracleError>,
    desc: &BackendDescriptor,
) {
    let n = oracle.n();
    for pass in 0..2 {
        for u in 0..n {
            for v in 0..n {
                assert_eq!(
                    query(u, v).unwrap(),
                    oracle.try_query(u, v).unwrap(),
                    "({u},{v}) via {label}, pass {pass}"
                );
            }
        }
    }
    let pairs: Vec<(usize, usize)> = (0..2 * n).map(|i| (i % n, (i * 7 + 3) % n)).collect();
    assert_eq!(
        batch(&pairs).unwrap(),
        oracle.try_query_batch(&pairs).unwrap(),
        "batch via {label}"
    );
    // Validation is part of the contract: same error, same fields.
    assert!(
        matches!(
            query(0, n),
            Err(OracleError::QueryOutOfRange { u: 0, v, n: got }) if v == n && got == n
        ),
        "{label} must reject out-of-range pairs"
    );
    let mut bad = pairs;
    bad.push((n, 0));
    assert!(batch(&bad).is_err(), "{label} must reject bad batches");
    // The descriptor agrees with the artifact on the basics.
    assert_eq!(desc.n, n, "{label}");
    assert_eq!(desc.k, oracle.k(), "{label}");
    assert_eq!(desc.landmark_count, oracle.landmarks().len(), "{label}");
}

/// Every variant, bare and behind a cache of each of
/// [`CACHE_CAPACITIES`], checked against the concrete oracle.
fn check_dispatch_is_bit_identical(oracle: &DistanceOracle) {
    for (label, backend) in backends(oracle) {
        assert_eq!(backend.n(), oracle.n(), "{label}");
        check_served(
            oracle,
            label,
            |u, v| backend.try_query(u, v),
            |pairs| backend.try_query_batch(pairs),
            &backend.descriptor(),
        );
        for capacity in CACHE_CAPACITIES {
            let cached = CachingOracle::new(backend.clone(), capacity);
            assert_eq!(cached.n(), oracle.n(), "{label}");
            check_served(
                oracle,
                &format!("{label} behind cache {capacity}"),
                |u, v| cached.try_query(u, v),
                |pairs| cached.try_query_batch(pairs),
                &cached.descriptor(),
            );
        }
    }
}

#[test]
fn gnp_graphs_dispatch_bit_identically() {
    for (n, p, w, seed) in [(24usize, 0.2, 30u64, 7u64), (33, 0.12, 50, 11)] {
        let g = generators::gnp_weighted(n, p, w, seed).expect("graph");
        check_dispatch_is_bit_identical(&build(&g, seed));
    }
}

#[test]
fn road_like_graphs_dispatch_bit_identically() {
    let g = generators::road_like(5, 6, 40, 9).expect("graph");
    check_dispatch_is_bit_identical(&build(&g, 9));
}

#[test]
fn disconnected_graphs_dispatch_bit_identically_including_infinity() {
    // Three islands: most pairs are ∞, and every backend must say so.
    let g =
        Graph::from_edges(12, [(0, 1, 3), (1, 2, 5), (4, 5, 2), (5, 6, 7), (6, 7, 1), (9, 10, 4)])
            .expect("graph");
    let oracle = build(&g, 3);
    // Sanity: the graph really is disconnected as seen by the oracle.
    assert_eq!(oracle.try_query(0, 4).unwrap(), Dist::INF);
    assert_eq!(oracle.try_query(3, 11).unwrap(), Dist::INF);
    check_dispatch_is_bit_identical(&oracle);
}

/// The hand-crafted near-`u64::MAX` path artifact from the monolithic
/// clamp regression tests: `0 — 1 — 2` with weights near the sentinel,
/// `k = 1`, node 1 the only landmark. The clamped sum must come out of
/// every variant bit-identically — and equal to the documented
/// clamp value, not ∞.
#[test]
fn near_max_clamped_sums_survive_every_backend() {
    use congested_clique::oracle::serde::from_bytes;
    let w = u64::MAX - 3;
    // Written by hand in the documented snapshot format, so the crafted
    // oracle flows through the same loader a server would use.
    let v3 = from_bytes(&support::near_max_snapshot_v3(w, w)).expect("v3 snapshot");
    assert_eq!(v3.try_query(0, 2).unwrap(), Dist::fin(MAX_FINITE_DISTANCE));
    check_dispatch_is_bit_identical(&v3);

    // The exact-sentinel collision (sum == u64::MAX with no overflow).
    let (w01, w12) = (u64::MAX / 2, u64::MAX / 2 + 1);
    let collide = from_bytes(&support::near_max_snapshot_v3(w01, w12)).expect("snapshot");
    assert_eq!(collide.try_query(0, 2).unwrap(), Dist::fin(MAX_FINITE_DISTANCE));
    check_dispatch_is_bit_identical(&collide);
}
