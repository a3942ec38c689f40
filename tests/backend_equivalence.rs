//! The serving-contract suite for the [`QueryBackend`] trait: dispatching
//! through `Box<dyn QueryBackend>` over every in-repo tier — monolithic
//! oracle and shard router, bare and behind a result cache of every
//! interesting capacity (off, one set, evicting, roomy) — must be
//! **bit-identical** to calling the concrete type directly, for every
//! pair of every standard graph family (gnp, road_like, disconnected
//! multi-island), including ∞ for disconnected pairs and the
//! `MAX_FINITE_DISTANCE` clamp for landmark sums that brush `u64::MAX`.
//!
//! This is the safety net under the serving-plane redesign: `cc-serve`
//! holds exactly one `Box<dyn QueryBackend>`, so if erasure, caching, or
//! routing perturbed a single bit, it would change wire answers. It never
//! may.

// Node-indexed loops over parallel per-node vectors are the domain idiom.
#![allow(clippy::needless_range_loop)]

use congested_clique::clique::Clique;
use congested_clique::graph::{generators, Graph};
use congested_clique::matrix::Dist;
use congested_clique::oracle::{
    CachingOracle, DistanceOracle, OracleBuilder, QueryBackend, ShardedArtifact,
    MAX_FINITE_DISTANCE,
};

mod support;

fn build(g: &Graph, seed: u64) -> DistanceOracle {
    let mut clique = Clique::new(g.n());
    OracleBuilder::new().epsilon(0.25).seed(seed).build(&mut clique, g).expect("oracle build")
}

/// Cache capacities every tier is fronted with: pass-through, one entry
/// asked for (one set got), exactly one set, a few sets that evict
/// constantly, and room for everything.
const CACHE_CAPACITIES: [usize; 5] = [0, 1, 3, 64, 4096];

/// Every in-repo backend arrangement over `oracle`, type-erased, with the
/// label used in failure messages: the monolith and a router, bare and
/// behind a cache of each of [`CACHE_CAPACITIES`]. Shard count 3 keeps
/// same-shard, adjacent-shard and far-shard pairs in play.
fn erased_backends(oracle: &DistanceOracle) -> Vec<(String, Box<dyn QueryBackend>)> {
    let count = 3.min(oracle.n());
    let router = || {
        ShardedArtifact::partition(oracle, count)
            .expect("partition")
            .into_router()
            .expect("assemble")
    };
    let mut backends: Vec<(String, Box<dyn QueryBackend>)> =
        vec![("mono".into(), Box::new(oracle.clone())), ("router".into(), Box::new(router()))];
    for capacity in CACHE_CAPACITIES {
        let mono = CachingOracle::new(oracle.clone(), capacity);
        backends.push((format!("mono behind cache {capacity}"), Box::new(mono)));
        let routed = CachingOracle::new(router(), capacity);
        backends.push((format!("router behind cache {capacity}"), Box::new(routed)));
    }
    backends
}

/// Every pair, twice (the second pass hits the caches), plus the batch
/// path and out-of-range rejection: erased answers must equal the
/// monolith's direct answers exactly.
fn check_dispatch_is_bit_identical(oracle: &DistanceOracle) {
    let n = oracle.n();
    for (label, backend) in erased_backends(oracle) {
        assert_eq!(backend.n(), n, "{label}");
        for pass in 0..2 {
            for u in 0..n {
                for v in 0..n {
                    assert_eq!(
                        backend.try_query(u, v).unwrap(),
                        oracle.try_query(u, v).unwrap(),
                        "({u},{v}) via {label}, pass {pass}"
                    );
                }
            }
        }
        let pairs: Vec<(usize, usize)> = (0..2 * n).map(|i| (i % n, (i * 7 + 3) % n)).collect();
        assert_eq!(
            backend.try_query_batch(&pairs).unwrap(),
            oracle.try_query_batch(&pairs).unwrap(),
            "batch via {label}"
        );
        // Validation is part of the contract: same error, same fields.
        assert!(
            matches!(
                backend.try_query(0, n),
                Err(congested_clique::oracle::OracleError::QueryOutOfRange { u: 0, v, n: got })
                    if v == n && got == n
            ),
            "{label} must reject out-of-range pairs"
        );
        let mut bad = pairs;
        bad.push((n, 0));
        assert!(backend.try_query_batch(&bad).is_err(), "{label} must reject bad batches");
        // The descriptor agrees with the artifact on the basics.
        let desc = backend.descriptor();
        assert_eq!(desc.n, n, "{label}");
        assert_eq!(desc.k, oracle.k(), "{label}");
        assert_eq!(desc.landmark_count, oracle.landmarks().len(), "{label}");
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
/// every erased backend bit-identically — and equal to the documented
/// clamp value, not ∞.
#[test]
fn near_max_clamped_sums_survive_every_backend() {
    use congested_clique::oracle::serde::from_bytes;
    let w = u64::MAX - 3;
    // The same artifact written by hand in both formats this build reads:
    // v2 (proving the one-release reader) and v3.
    let v2 = from_bytes(&near_max_snapshot(w, w)).expect("v2 snapshot");
    let v3 = from_bytes(&support::near_max_snapshot_v3(w, w)).expect("v3 snapshot");
    assert_eq!(v2, v3);
    assert_eq!(v3.try_query(0, 2).unwrap(), Dist::fin(MAX_FINITE_DISTANCE));
    check_dispatch_is_bit_identical(&v2);
    check_dispatch_is_bit_identical(&v3);

    // The exact-sentinel collision (sum == u64::MAX with no overflow).
    let (w01, w12) = (u64::MAX / 2, u64::MAX / 2 + 1);
    for bytes in [near_max_snapshot(w01, w12), support::near_max_snapshot_v3(w01, w12)] {
        let collide = from_bytes(&bytes).expect("snapshot");
        assert_eq!(collide.try_query(0, 2).unwrap(), Dist::fin(MAX_FINITE_DISTANCE));
        check_dispatch_is_bit_identical(&collide);
    }
}

/// Serializes the 3-node near-MAX path artifact through the documented
/// **v2** snapshot byte format (mirroring `tests/shard_equivalence.rs`), so
/// the hand-crafted oracle flows through the same loader a server would
/// use; its v3 twin is `support::near_max_snapshot_v3`.
fn near_max_snapshot(w01: u64, w12: u64) -> Vec<u8> {
    let mut payload = Vec::new();
    // landmarks: [1]
    payload.extend_from_slice(&1u32.to_le_bytes());
    // nearest landmark per node: (0, w01), (0, 0), (0, w12)
    for d in [w01, 0, w12] {
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&d.to_le_bytes());
    }
    // balls: each node's singleton {self: 0}
    for id in 0u32..3 {
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&id.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
    }
    // columns (3×1): w01, 0, w12
    for c in [w01, 0, w12] {
        payload.extend_from_slice(&c.to_le_bytes());
    }

    let mut bytes = Vec::with_capacity(80 + payload.len());
    bytes.extend_from_slice(b"CCOS");
    bytes.extend_from_slice(&2u32.to_le_bytes());
    for field in [3u64, 1, 0.25f64.to_bits(), 1, 0, 0, 0, payload.len() as u64, fnv1a64(&payload)] {
        bytes.extend_from_slice(&field.to_le_bytes());
    }
    bytes.extend_from_slice(&payload);
    bytes
}

/// Independent FNV-1a 64 implementation (not the crate's), so a checksum
/// bug cannot hide by agreeing with itself.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
