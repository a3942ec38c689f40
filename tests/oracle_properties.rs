//! Property tests for the serving-layer oracle: on random graphs from two
//! families (`gnp` and `road_like`), every answer is sound (never below the
//! true distance) and within the artifact's certified stretch bound of the
//! Dijkstra ground truth, for faithful and capped builds alike, and a
//! faithful build certifies at most `3+2ε`; builds are deterministic in the
//! seed; and the byte snapshot round-trips to an identical artifact.

// Node-indexed loops over parallel per-node vectors are the domain idiom.
#![allow(clippy::needless_range_loop)]

use congested_clique::clique::Clique;
use congested_clique::graph::{generators, reference, Graph};
use congested_clique::oracle::{serde, DirectBuilder, DistanceOracle, OracleBuilder};
use proptest::prelude::*;

fn build(g: &Graph, k: usize, epsilon: f64, seed: u64) -> DistanceOracle {
    let mut clique = Clique::new(g.n());
    let oracle = OracleBuilder::new()
        .k(k)
        .epsilon(epsilon)
        .seed(seed)
        .build(&mut clique, g)
        .expect("oracle build");
    let bound = oracle.stretch_bound();
    assert!(bound <= 3.0 + 2.0 * epsilon + 1e-12, "a faithful build certified {bound}");
    oracle
}

/// Every pair: `d(u,v) ≤ query(u,v) ≤ stretch_bound()·d(u,v)`, with
/// reachability agreeing exactly.
fn check_sound_and_bounded(g: &Graph, oracle: &DistanceOracle) {
    let bound = oracle.stretch_bound();
    for u in 0..g.n() {
        let exact = reference::dijkstra(g, u);
        for v in 0..g.n() {
            match (exact[v], oracle.try_query(u, v).unwrap().value()) {
                (Some(d), Some(est)) => {
                    assert!(est >= d, "underestimate: query({u},{v}) = {est} < {d}");
                    // `d = 0` only at `u = v`, whose answer is 0; an
                    // infinite bound times 0 would not compare.
                    assert!(
                        d == 0 || est as f64 <= bound * d as f64 + 1e-9,
                        "stretch violated: query({u},{v}) = {est} > {bound} * {d}"
                    );
                }
                (None, None) => {}
                (d, est) => panic!("reachability mismatch for ({u},{v}): {d:?} vs {est:?}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn gnp_answers_sound_and_within_stretch(
        seed in 0u64..100_000,
        k in 4usize..12,
        dense in 0u64..2,
    ) {
        let p = if dense == 1 { 0.3 } else { 0.1 };
        let g = generators::gnp_weighted(28, p, 40, seed).expect("gnp");
        let oracle = build(&g, k, 0.25, seed ^ 0xA5A5);
        check_sound_and_bounded(&g, &oracle);
    }

    #[test]
    fn road_like_answers_sound_and_within_stretch(
        seed in 0u64..100_000,
        k in 4usize..10,
    ) {
        let g = generators::road_like(6, 5, 25, seed).expect("road_like");
        let oracle = build(&g, k, 0.5, seed.wrapping_mul(3));
        check_sound_and_bounded(&g, &oracle);
    }

    #[test]
    fn capped_road_like_answers_sound_and_within_certified_stretch(
        seed in 0u64..100_000,
        k in 4usize..10,
        cap in 1usize..4,
    ) {
        let g = generators::road_like(6, 5, 25, seed).expect("road_like");
        let direct = DirectBuilder::new().k(k).epsilon(0.5).seed(seed).max_landmarks(cap);
        check_sound_and_bounded(&g, &direct.build(&g).expect("capped build"));
    }

    #[test]
    fn builds_are_deterministic_and_snapshots_round_trip(seed in 0u64..100_000) {
        let g = generators::road_like(5, 5, 30, seed).expect("road_like");
        let a = build(&g, 6, 0.25, seed);
        let b = build(&g, 6, 0.25, seed);
        prop_assert_eq!(&a, &b, "same seed must rebuild the identical artifact");

        let bytes = serde::to_bytes(&a);
        let reloaded = serde::from_bytes(&bytes).expect("round trip");
        prop_assert_eq!(&reloaded, &a, "snapshot must reload to an identical artifact");
        // And the reloaded artifact serves identical answers.
        for u in 0..g.n() {
            for v in 0..g.n() {
                prop_assert_eq!(reloaded.try_query(u, v).unwrap(), a.try_query(u, v).unwrap());
            }
        }
    }

    #[test]
    fn batch_and_cache_agree_with_raw_queries(seed in 0u64..100_000) {
        let g = generators::gnp(24, 0.15, seed).expect("gnp");
        let oracle = build(&g, 5, 0.25, seed);
        let pairs: Vec<(usize, usize)> =
            (0..24 * 24).map(|i| (i % 24, (i / 24) % 24)).collect();
        let batch = oracle.try_query_batch(&pairs).unwrap();
        let cached = congested_clique::oracle::CachingOracle::new(oracle.clone(), 64);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            prop_assert_eq!(batch[i], oracle.try_query(u, v).unwrap());
            prop_assert_eq!(cached.try_query(u, v).unwrap(), oracle.try_query(u, v).unwrap());
        }
    }
}
