//! The direct builder's bit-identity contract, enforced differentially:
//! for every graph family × seed × ε × k configuration,
//! [`DirectBuilder`](cc_oracle::DirectBuilder) must produce the **same
//! snapshot payload bytes** as the clique
//! [`OracleBuilder`](cc_oracle::OracleBuilder) — same balls, same
//! landmarks, same nearest-landmark picks, same `(1+ε)` columns, same
//! build id. `cc_oracle::testkit::assert_same_artifact` panics with the
//! first divergent section otherwise.
//!
//! This suite is the *proof* behind `docs/BUILDERS.md`: the direct path is
//! not "approximately the clique build, but faster" — it is the clique
//! build, with the simulator removed.

use congested_clique::clique::Clique;
use congested_clique::graph::{generators, Graph};
use congested_clique::hopset::HopsetConfig;
use congested_clique::oracle::{testkit, DirectBuilder, DistanceOracle, OracleBuilder};

/// Builds the same configuration through both pipelines and asserts the
/// artifacts are byte-identical and certify at most `3+2ε`.
fn assert_builders_agree(name: &str, g: &Graph, epsilon: f64, seed: u64, k: Option<usize>) {
    let mut clique = Clique::new(g.n());
    let mut via_clique = OracleBuilder::new().epsilon(epsilon).seed(seed);
    let mut direct = DirectBuilder::new().epsilon(epsilon).seed(seed);
    if let Some(k) = k {
        via_clique = via_clique.k(k);
        direct = direct.k(k);
    }
    let reference = via_clique
        .build(&mut clique, g)
        .unwrap_or_else(|e| panic!("clique build failed on {name}: {e}"));
    let candidate =
        direct.build(g).unwrap_or_else(|e| panic!("direct build failed on {name}: {e}"));
    eprintln!("case {name}: eps={epsilon} seed={seed} k={k:?} n={}", g.n());
    testkit::assert_same_artifact(&candidate, &reference);
    // Faithful landmarks hit every ball, so every row certifies at most 3+2ε.
    let bound = reference.stretch_bound();
    assert!(bound <= 3.0 + 2.0 * epsilon + 1e-12, "{name}: certified {bound}");
}

/// The tentpole sweep: every standard-suite family × 3 seeds × 2 ε × 2 k.
#[test]
fn direct_builder_is_bit_identical_across_the_standard_suite() {
    for seed in [1, 29, 77] {
        let suite = generators::standard_suite(24, seed).unwrap();
        for (name, g) in &suite {
            for epsilon in [0.25, 0.5] {
                for k in [None, Some(4)] {
                    assert_builders_agree(name, g, epsilon, seed, k);
                }
            }
        }
    }
}

/// Larger spot checks at n = 72, where the hopset schedule and landmark
/// counts differ meaningfully from n = 24. A representative slice of the
/// suite (sparse random, heavy-tailed, grid-like, path) keeps the debug
/// run fast; the full sweep above covers every family.
#[test]
fn direct_builder_is_bit_identical_at_larger_n() {
    let suite = generators::standard_suite(72, 5).unwrap();
    for (name, g) in &suite {
        if ["gnp-sparse", "road-like", "ba", "path"].contains(&name.as_str()) {
            assert_builders_agree(name, g, 0.25, 11, None);
        }
    }
}

/// Multi-level hopsets. Up to n = 72 every schedule has one level with
/// exploration n; at n = 256 a large ε shortens the exploration enough that
/// the schedule runs several levels, so the level loop and its stop at the
/// first level that adds no lighter edge are compared here.
#[test]
fn direct_builder_matches_with_a_multi_level_hopset() {
    let cases = [
        ("path", generators::path(256).unwrap(), 4.0),
        ("grid-weighted", generators::grid_weighted(8, 32, 20, 2).unwrap(), 6.0),
    ];
    for (name, g, epsilon) in &cases {
        let levels = HopsetConfig::new(*epsilon).schedule(g.n()).levels;
        assert!(levels > 1, "{name}: the schedule runs {levels} level");
        assert_builders_agree(name, g, *epsilon, 3, None);
    }
}

/// Disconnected graphs: three islands of different sizes (including a
/// singleton). Balls stay island-local, cross-island columns are the ∞
/// sentinel — both builders must agree on every one of them.
#[test]
fn direct_builder_matches_on_disconnected_islands() {
    // Island A: a 5-path (0..=4). Island B: a weighted triangle (5..=7).
    // Island C: the singleton 8.
    let g = Graph::from_edges(
        9,
        [(0, 1, 2), (1, 2, 1), (2, 3, 4), (3, 4, 1), (5, 6, 3), (6, 7, 2), (5, 7, 9)],
    )
    .unwrap();
    for seed in [0, 3] {
        for k in [None, Some(2), Some(4)] {
            assert_builders_agree("three-islands", &g, 0.5, seed, k);
        }
    }
}

/// Near-sentinel weights: one edge weighs just under `u64::MAX / 2`, so a
/// build-time relaxation that sums two path distances containing it comes
/// close to `u64::MAX` without passing it. Every such sum is a real path
/// here, and the artifact must carry the huge distances exactly. (Both
/// builders compute in the augmented semiring, where a sum that overflows
/// is no path; `tests/edge_cases.rs` pins that case.)
#[test]
fn direct_builder_matches_on_near_max_finite_weights() {
    let huge = u64::MAX / 2 - 64;
    let g = Graph::from_edges(4, [(0, 1, 1), (1, 2, huge), (2, 3, 3)]).unwrap();
    for k in [None, Some(1), Some(2)] {
        assert_builders_agree("near-max-weights", &g, 0.25, 2, k);
    }
    // Sanity: the huge distance survives into query answers unclamped.
    let direct = DirectBuilder::new().seed(2).build(&g).unwrap();
    assert_eq!(direct.try_query(0, 3).unwrap().value(), Some(huge + 4));
}

/// `k = n` makes every ball the whole component and every query exact —
/// a degenerate configuration worth pinning on both pipelines.
#[test]
fn direct_builder_matches_with_maximal_k() {
    let g = generators::cliques_with_bridges(4, 6, 13).unwrap();
    assert_builders_agree("cliques-with-bridges", &g, 0.5, 7, Some(g.n()));
}

/// The differential guarantee extends through serialization: same payload
/// checksum means same `build_id` in the snapshot header.
#[test]
fn direct_and_clique_builds_share_a_build_id() {
    use congested_clique::oracle::serde;
    let g = generators::road_like(6, 6, 25, 3).unwrap();
    let mut clique = Clique::new(g.n());
    let via_clique = OracleBuilder::new().seed(5).build(&mut clique, &g).unwrap();
    let direct: DistanceOracle = DirectBuilder::new().seed(5).build(&g).unwrap();
    let id_of = |o: &DistanceOracle| {
        serde::from_bytes_with_header(&serde::to_bytes(o)).unwrap().0.build_id()
    };
    assert_eq!(id_of(&direct), id_of(&via_clique));
}

/// Opt-in: a faithful build at 10⁴ nodes, whose hopset schedule has 14
/// levels and whose hop-bounded rows span a 10⁴-node union. No clique build
/// is feasible here, so the payload checksum is pinned instead, at one and
/// two worker threads.
#[test]
#[ignore = "about 20 s in release for both thread counts; run with --ignored"]
fn a_faithful_ten_thousand_node_build_keeps_its_payload() {
    use congested_clique::oracle::serde;
    let g = generators::road_like(100, 100, 30, 42).unwrap();
    for threads in [1, 2] {
        let oracle = DirectBuilder::new().epsilon(0.25).seed(7).threads(threads).build(&g).unwrap();
        let checksum = format!("{:016x}", serde::payload_checksum(&oracle));
        assert_eq!(checksum, "c46f33517ce546f1", "threads={threads}");
        let bound = oracle.stretch_bound();
        assert!(bound <= 3.0 + 2.0 * 0.25 + 1e-12, "certified {bound}");
    }
}
