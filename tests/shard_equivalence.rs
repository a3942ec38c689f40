//! The sharding contract, pinned bit-for-bit: for every graph in the
//! standard families (gnp and road_like, several seeds), every shard count
//! in {1, 2, 3, 7}, and **every** node pair, the [`ShardRouter`] assembled
//! from a partitioned oracle answers exactly what the monolithic
//! [`DistanceOracle`] answers — the same finite values, the same ∞ for
//! disconnected pairs, and the same clamped value for landmark sums that
//! brush `u64::MAX`. Per-shard snapshots are deterministic and round-trip
//! to an identical, identically-answering router.
//!
//! This suite is the reason the sharded router tier may call itself a
//! drop-in replacement for the monolithic tier.

// Node-indexed loops over parallel per-node vectors are the domain idiom.
#![allow(clippy::needless_range_loop)]

use congested_clique::clique::Clique;
use congested_clique::graph::{generators, Graph};
use congested_clique::oracle::{
    serde, DistanceOracle, OracleBuilder, ShardRouter, ShardedArtifact,
};
use proptest::prelude::*;

mod support;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

fn build(g: &Graph, k: usize, epsilon: f64, seed: u64) -> DistanceOracle {
    let mut clique = Clique::new(g.n());
    OracleBuilder::new()
        .k(k)
        .epsilon(epsilon)
        .seed(seed)
        .build(&mut clique, g)
        .expect("oracle build")
}

/// Every pair, every shard count: the router's `Dist` must equal the
/// monolith's `Dist` exactly — not within stretch, not up to rounding,
/// *equal* (which also pins ∞ ↔ ∞).
fn check_bit_identical(oracle: &DistanceOracle) {
    let n = oracle.n();
    for count in SHARD_COUNTS {
        if count > n {
            continue;
        }
        let router = ShardedArtifact::partition(oracle, count)
            .expect("partition")
            .into_router()
            .expect("assemble");
        for u in 0..n {
            for v in 0..n {
                assert_eq!(
                    router.try_query(u, v).unwrap(),
                    oracle.try_query(u, v).unwrap(),
                    "({u},{v}) with {count} shards"
                );
            }
        }
        // The batch path routes pair-by-pair through the same combine.
        let pairs: Vec<(usize, usize)> = (0..n * 2).map(|i| (i % n, (i * 7 + 3) % n)).collect();
        assert_eq!(
            router.try_query_batch(&pairs).expect("in-range batch"),
            oracle.try_query_batch(&pairs).unwrap(),
            "batch with {count} shards"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn gnp_router_answers_are_bit_identical(
        seed in 0u64..100_000,
        k in 4usize..12,
        dense in 0u64..2,
    ) {
        let p = if dense == 1 { 0.3 } else { 0.1 };
        let g = generators::gnp_weighted(28, p, 40, seed).expect("gnp");
        check_bit_identical(&build(&g, k, 0.25, seed ^ 0xA5A5));
    }

    #[test]
    fn road_like_router_answers_are_bit_identical(
        seed in 0u64..100_000,
        k in 4usize..10,
    ) {
        let g = generators::road_like(6, 5, 25, seed).expect("road_like");
        check_bit_identical(&build(&g, k, 0.5, seed.wrapping_mul(3)));
    }

    #[test]
    fn disconnected_graphs_report_infinity_identically(seed in 0u64..100_000) {
        // Three islands: most pairs are ∞, and the router must say so for
        // exactly the same pairs the monolith does.
        let mut edges: Vec<(usize, usize, u64)> = Vec::new();
        for island in 0..3usize {
            let base = island * 7;
            for i in 0..6 {
                edges.push((base + i, base + i + 1, (seed % 30) + 1 + i as u64));
            }
        }
        let g = Graph::from_edges(21, edges).expect("islands");
        check_bit_identical(&build(&g, 3, 0.25, seed));
    }

    #[test]
    fn shard_snapshots_are_deterministic_and_round_trip(seed in 0u64..100_000) {
        let g = generators::road_like(5, 5, 30, seed).expect("road_like");
        let oracle = build(&g, 6, 0.25, seed);
        for count in [1usize, 2, 3] {
            let shards = ShardedArtifact::partition(&oracle, count)
                .expect("partition")
                .into_shards();
            if count == 1 {
                // The monolith is slot 0 of a 1-shard plan: same payload
                // sections behind the 96-byte CCSH / 80-byte CCOS headers.
                prop_assert_eq!(
                    &serde::to_shard_bytes(&shards[0])[serde::SHARD_HEADER_LEN..],
                    &serde::to_bytes(&oracle)[serde::HEADER_LEN..],
                    "a 1-shard CCSH payload must equal the monolith's CCOS payload"
                );
            }

            let mut reloaded = Vec::with_capacity(count);
            for shard in &shards {
                // Same shard + same timestamp ⇒ byte-identical snapshot
                // (content-addressed artifact stores depend on this).
                let bytes = serde::to_shard_bytes_created_at(shard, 1_753_000_000);
                prop_assert_eq!(
                    &bytes,
                    &serde::to_shard_bytes_created_at(shard, 1_753_000_000),
                    "shard serialization must be deterministic"
                );
                // The write timestamp changes the header, not the identity.
                let (header, back) =
                    serde::from_shard_bytes_with_header(&bytes).expect("round trip");
                let (later, _) = serde::from_shard_bytes_with_header(
                    &serde::to_shard_bytes_created_at(shard, 1_999_999_999),
                ).expect("header");
                prop_assert_eq!(header.build_id(), later.build_id());
                prop_assert_eq!(&back, shard, "shard must round-trip identically");
                reloaded.push(back);
            }

            // The round-tripped set assembles and answers identically.
            let router = ShardRouter::assemble(reloaded).expect("assemble");
            for u in 0..g.n() {
                for v in 0..g.n() {
                    prop_assert_eq!(router.try_query(u, v).unwrap(), oracle.try_query(u, v).unwrap());
                }
            }
        }
    }
}

/// The 3-node path `0 — 1 — 2` with both edge weights `w` (near
/// `u64::MAX`), `k = 1` and node 1 the only landmark, hand-written in the
/// documented snapshot format: the only route for the pair `(0, 2)` is the
/// landmark sum `w + w`, which overflows and must clamp to
/// `MAX_FINITE_DISTANCE`.
#[test]
fn near_max_weights_clamp_identically_through_the_router() {
    use congested_clique::matrix::Dist;
    use congested_clique::oracle::MAX_FINITE_DISTANCE;

    for w in [u64::MAX - 3, u64::MAX / 2, u64::MAX / 2 + 1] {
        let oracle =
            serde::from_bytes(&support::near_max_snapshot_v3(w, w)).expect("crafted v3 snapshot");
        // Sanity: the monolith clamps the overflowing landmark sum.
        let expect = w.checked_add(w).map_or(MAX_FINITE_DISTANCE, |s| s.min(MAX_FINITE_DISTANCE));
        assert_eq!(oracle.try_query(0, 2).unwrap(), Dist::fin(expect), "w = {w}");

        for count in [1usize, 2, 3] {
            let router = ShardedArtifact::partition(&oracle, count)
                .expect("partition")
                .into_router()
                .expect("assemble");
            for u in 0..3 {
                for v in 0..3 {
                    assert_eq!(
                        router.try_query(u, v).unwrap(),
                        oracle.try_query(u, v).unwrap(),
                        "({u},{v}) with {count} shards, w = {w}"
                    );
                }
            }
        }
    }
}
