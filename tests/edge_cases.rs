//! Degenerate-size and boundary-condition tests: the whole pipeline on
//! cliques of 1–4 nodes, extreme parameters, and parameter boundaries.
//! Theory papers assume `n` large; a library must also survive `n` tiny.

// Node-indexed loops over parallel per-node vectors are the domain idiom.
#![allow(clippy::needless_range_loop)]

use congested_clique::clique::Clique;
use congested_clique::core::{apsp, baselines, diameter, mssp, paths, sssp};
use congested_clique::distance::{distance_through_sets, hitting_set, k_nearest, DistanceError};
use congested_clique::graph::{generators, reference, DiGraph, Graph, GraphError};
use congested_clique::hopset::{build_hopset, HopsetConfig};
use congested_clique::matmul::{dense_multiply, filtered_multiply, sparse_multiply};
use congested_clique::matrix::{Dist, MinPlus, SparseMatrix};
use congested_clique::oracle::{serde, testkit, DirectBuilder, OracleBuilder, OracleError};

#[test]
fn single_node_clique_runs_everything() {
    let g = Graph::empty(1);
    let mut clique = Clique::new(1);
    let near = k_nearest(&mut clique, &g, 1).unwrap();
    assert_eq!(near[0].nnz(), 1); // itself
    let run = sssp::exact_sssp(&mut clique, &g, 0).unwrap();
    assert_eq!(run.dist[0], Dist::ZERO);
    let run = apsp::weighted_2eps(&mut clique, &g, 0.5).unwrap();
    assert_eq!(run.dist[0][0], Dist::ZERO);
    let h = build_hopset(&mut clique, &g, HopsetConfig::new(0.5)).unwrap();
    assert!(h.edges.is_empty());
}

#[test]
fn single_node_matmul() {
    let mut clique = Clique::new(1);
    let m = SparseMatrix::<Dist>::identity::<MinPlus>(1);
    let p = sparse_multiply::<MinPlus>(&mut clique, m.rows(), m.rows(), 1).unwrap();
    assert_eq!(SparseMatrix::from_rows(p), m);
    let p = filtered_multiply::<MinPlus>(&mut clique, m.rows(), m.rows(), 1).unwrap();
    assert_eq!(SparseMatrix::from_rows(p), m);
    let p = dense_multiply::<MinPlus>(&mut clique, m.rows(), m.rows()).unwrap();
    assert_eq!(SparseMatrix::from_rows(p), m);
}

#[test]
fn two_node_graph_full_pipeline() {
    let g = Graph::from_edges(2, [(0, 1, 7)]).unwrap();
    let mut clique = Clique::new(2);
    let run = mssp::mssp(&mut clique, &g, &[0], 0.5).unwrap();
    assert_eq!(run.dist[1][0].value(), Some(7));
    let run = apsp::weighted_2eps(&mut clique, &g, 0.5).unwrap();
    assert_eq!(run.dist[0][1].value(), Some(7));
    let run = diameter::diameter_approx(&mut clique, &g, 0.5).unwrap();
    assert!(run.estimate >= 7);
    let tables = paths::exact_apsp_paths(&mut clique, &g).unwrap();
    assert_eq!(tables.path(0, 1), Some(vec![0, 1]));
}

#[test]
fn four_node_cycle_everything_exact() {
    let g = generators::cycle(4).unwrap();
    let exact = reference::all_pairs(&g);
    let mut clique = Clique::new(4);
    let run = apsp::unweighted_2eps(&mut clique, &g, 0.5).unwrap();
    for u in 0..4 {
        for v in 0..4 {
            // Tiny graphs are covered exactly by the ball phase.
            assert_eq!(run.dist[u][v].value(), exact[u][v]);
        }
    }
}

#[test]
fn k_equals_n_nearest_is_whole_graph() {
    let g = generators::gnp_weighted(12, 0.3, 9, 2).unwrap();
    let mut clique = Clique::new(12);
    let near = k_nearest(&mut clique, &g, 12).unwrap();
    let exact = reference::all_pairs(&g);
    for v in 0..12 {
        let reachable = exact[v].iter().flatten().count();
        assert_eq!(near[v].nnz(), reachable);
        for (u, a) in near[v].iter() {
            assert_eq!(Some(a.dist), exact[v][u as usize]);
        }
    }
}

#[test]
fn k_larger_than_n_is_clamped() {
    let g = generators::path(6).unwrap();
    let mut clique = Clique::new(6);
    let near = k_nearest(&mut clique, &g, 1000).unwrap();
    assert_eq!(near[0].nnz(), 6);
}

#[test]
fn empty_graph_distances_are_all_infinite() {
    let g = Graph::empty(8);
    let mut clique = Clique::new(8);
    let run = sssp::bellman_ford(&mut clique, &g, 3, None).unwrap();
    for v in 0..8 {
        if v == 3 {
            assert_eq!(run.dist[v], Dist::ZERO);
        } else {
            assert_eq!(run.dist[v], Dist::INF);
        }
    }
    let run = baselines::exact_apsp_squaring(&mut clique, &g).unwrap();
    assert_eq!(run.dist[0][1], Dist::INF);
}

#[test]
fn zero_weight_edges_are_supported() {
    // The paper allows non-negative weights; zero-weight edges must work.
    let g = Graph::from_edges(5, [(0, 1, 0), (1, 2, 3), (2, 3, 0), (3, 4, 2)]).unwrap();
    let exact = reference::dijkstra(&g, 0);
    assert_eq!(exact[4], Some(5));
    let mut clique = Clique::new(5);
    let run = sssp::exact_sssp(&mut clique, &g, 0).unwrap();
    for v in 0..5 {
        assert_eq!(run.dist[v].value(), exact[v]);
    }
    let mut clique = Clique::new(5);
    let run = apsp::weighted_2eps(&mut clique, &g, 0.5).unwrap();
    congested_clique::core::stretch::assert_sound(&run.dist, &reference::all_pairs(&g));
}

#[test]
fn huge_weights_do_not_overflow() {
    let big = 1u64 << 40;
    let g = Graph::from_edges(4, [(0, 1, big), (1, 2, big), (2, 3, big)]).unwrap();
    let mut clique = Clique::new(4);
    let run = sssp::exact_sssp(&mut clique, &g, 0).unwrap();
    assert_eq!(run.dist[3].value(), Some(3 * big));
    let mut clique = Clique::new(4);
    let run = apsp::weighted_3eps(&mut clique, &g, 0.5).unwrap();
    assert!(run.dist[0][3].value().unwrap() >= 3 * big);
}

/// A path whose length overflows is no path: the augmented semiring's rule
/// (§3.1, `AugDist::combine`). On the path 0–1–2–3 with weights 2⁶³, 2⁶³, 1
/// the length of 0–1–2 is 2⁶⁴, so nodes 2 and 3 are unreachable from 0.
#[test]
fn overflowing_path_is_no_path_everywhere() {
    let half = 1u64 << 63;
    let g = Graph::from_edges(4, [(0, 1, half), (1, 2, half), (2, 3, 1)]).unwrap();
    assert_eq!(reference::dijkstra(&g, 0), vec![Some(0), Some(half), None, None]);
    for k in [None, Some(1), Some(2), Some(4)] {
        let (mut via_clique, mut direct) = (OracleBuilder::new(), DirectBuilder::new());
        if let Some(k) = k {
            via_clique = via_clique.k(k);
            direct = direct.k(k);
        }
        let clique_built = via_clique.build(&mut Clique::new(4), &g).unwrap();
        testkit::assert_same_artifact(&direct.build(&g).unwrap(), &clique_built);
        // A capped build returns Ok or Err, never panics.
        for m in 1..=4 {
            let _ = direct.clone().max_landmarks(m).build(&g);
        }
    }
}

/// An arc weighing `u64::MAX`, the ∞ sentinel, has no finite element in the
/// weight matrices: the graph refuses it at input, and the graph it was
/// offered to is left as it was.
#[test]
fn an_arc_weighing_the_infinity_sentinel_is_refused_at_input() {
    let refused = Graph::from_edges(2, [(0, 1, u64::MAX)]).unwrap_err();
    assert_eq!(refused, GraphError::InfiniteWeight { u: 0, v: 1 });
    let mut g = Graph::from_edges(3, [(0, 1, u64::MAX - 1)]).unwrap();
    assert_eq!(g.add_edge(1, 2, u64::MAX), Err(GraphError::InfiniteWeight { u: 1, v: 2 }));
    assert_eq!((g.m(), g.max_weight()), (1, u64::MAX - 1));
    let near = k_nearest(&mut Clique::new(3), &g, 3).unwrap();
    assert_eq!(near[0].iter().map(|(c, _)| c).collect::<Vec<_>>(), vec![0, 1]);
    assert!(DiGraph::from_arcs(2, [(1, 0, u64::MAX)]).is_err());
}

/// Two graphs whose lengths do not all fit a word: the path 0…7 with every
/// weight 2⁶² (four arcs weigh 2⁶⁴) and the triangle 0–1, 1–2, 0–2 at
/// 3·2⁶² plus the edge 2–3 at 2⁶² (every two-arc path overflows).
fn overflowing_graphs() -> [Graph; 2] {
    let q = 1u64 << 62;
    [
        Graph::from_edges(8, (0..7).map(|v| (v, v + 1, q))).unwrap(),
        Graph::from_edges(4, [(0, 1, 3 * q), (1, 2, 3 * q), (0, 2, 3 * q), (2, 3, q)]).unwrap(),
    ]
}

/// The exact algorithms extend lengths in the semirings, so they answer
/// what the sequential search answers, ∞ where a length overflows.
#[test]
fn exact_algorithms_equal_the_reference_when_lengths_overflow() {
    for g in overflowing_graphs() {
        let n = g.n();
        let exact = reference::all_pairs(&g);
        let squaring = baselines::exact_apsp_squaring(&mut Clique::new(n), &g).unwrap();
        let tables = paths::exact_apsp_paths(&mut Clique::new(n), &g).unwrap();
        for u in 0..n {
            let bf = sssp::bellman_ford(&mut Clique::new(n), &g, u, None).unwrap();
            let fast = sssp::exact_sssp(&mut Clique::new(n), &g, u).unwrap();
            for v in 0..n {
                assert_eq!(squaring.dist[u][v].value(), exact[u][v], "squaring ({u},{v})");
                assert_eq!(tables.distance(u, v), exact[u][v], "witnessed paths ({u},{v})");
                assert_eq!(bf.dist[v].value(), exact[u][v], "bellman-ford ({u},{v})");
                assert_eq!(fast.dist[v].value(), exact[u][v], "exact sssp ({u},{v})");
            }
        }
    }
}

/// The approximations never underestimate and answer ∞ wherever the
/// sequential search does; they may answer ∞ where a detour overflows.
#[test]
fn approximations_stay_sound_when_lengths_overflow() {
    let eps = 0.5;
    for g in overflowing_graphs() {
        let n = g.n();
        let exact = reference::all_pairs(&g);
        let runs = [
            ("(3+eps)", apsp::weighted_3eps(&mut Clique::new(n), &g, eps).unwrap()),
            ("(2+eps)", apsp::weighted_2eps(&mut Clique::new(n), &g, eps).unwrap()),
            ("spanner k=2", baselines::spanner_apsp(&mut Clique::new(n), &g, 2).unwrap()),
            ("spanner k=3", baselines::spanner_apsp(&mut Clique::new(n), &g, 3).unwrap()),
        ];
        for (name, run) in &runs {
            for u in 0..n {
                for v in 0..n {
                    let (est, d) = (run.dist[u][v].value(), exact[u][v]);
                    match d {
                        Some(d) => assert!(est.is_none_or(|e| e >= d), "{name} ({u},{v})"),
                        None => assert_eq!(est, None, "{name} ({u},{v})"),
                    }
                }
            }
        }
        if n == 4 {
            // Stretch 3 or 5 cannot span 1–2 through 0: that path overflows.
            for (name, run) in &runs[2..] {
                assert_eq!(run.dist[1][2].value(), Some(3 << 62), "{name}");
            }
        }
        let run = diameter::diameter_approx(&mut Clique::new(n), &g, eps).unwrap();
        // Claim 35's bounds around the longest length that fits a word.
        let longest = reference::diameter(&g).unwrap();
        assert!(diameter::within_claim35(run.estimate, longest, eps), "{}", run.estimate);
    }
}

#[test]
fn hitting_set_with_k_exceeding_set_sizes() {
    // k larger than every set: sampling probability 1 would be used, but
    // the repair path must still guarantee coverage.
    let sets = vec![vec![1], vec![2], vec![3], vec![0]];
    let mut clique = Clique::new(4);
    let hs = hitting_set(&mut clique, &sets, 100, 3).unwrap();
    for set in &sets {
        assert!(set.iter().any(|&w| hs.contains(w)));
    }
}

#[test]
fn through_sets_with_self_referential_sets() {
    // Sets containing the node itself at distance 0.
    let sets: Vec<Vec<(usize, Dist)>> = (0..4).map(|v| vec![(v, Dist::ZERO)]).collect();
    let mut clique = Clique::new(4);
    let rows = distance_through_sets(&mut clique, &sets).unwrap();
    for v in 0..4 {
        assert_eq!(rows[v].get(v as u32), Some(&Dist::ZERO));
        assert_eq!(rows[v].nnz(), 1);
    }
}

#[test]
fn epsilon_extremes() {
    let g = generators::gnp_weighted(16, 0.2, 9, 5).unwrap();
    // Very large epsilon: still sound, just loose.
    let mut clique = Clique::new(16);
    let run = mssp::mssp(&mut clique, &g, &[0], 8.0).unwrap();
    let exact = reference::dijkstra(&g, 0);
    for v in 0..16 {
        let e = run.dist[v][0].value().unwrap();
        let d = exact[v].unwrap();
        assert!(e >= d && e as f64 <= 9.0 * d as f64 + 1e-9);
    }
    // Tiny epsilon: beta saturates at n, results effectively exact.
    let mut clique = Clique::new(16);
    let run = mssp::mssp(&mut clique, &g, &[0], 1e-6).unwrap();
    for v in 0..16 {
        assert_eq!(run.dist[v][0].value(), exact[v]);
    }
}

/// One check admits ε — finite and > 0 — and every entry point runs it
/// before any round or search.
#[test]
fn an_epsilon_that_is_not_finite_and_positive_is_refused_before_any_round() {
    let g = generators::gnp_weighted(16, 0.2, 9, 5).unwrap();
    let refused =
        |r: Result<(), DistanceError>| matches!(r, Err(DistanceError::InvalidParameter { .. }));
    for eps in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
        let mut clique = Clique::new(16);
        let built = OracleBuilder::new().epsilon(eps).build(&mut clique, &g);
        assert!(matches!(built, Err(OracleError::InvalidParameter { .. })), "{eps}: {built:?}");
        for direct in [DirectBuilder::new(), DirectBuilder::new().max_landmarks(4)] {
            let built = direct.epsilon(eps).build(&g);
            assert!(matches!(built, Err(OracleError::InvalidParameter { .. })), "{eps}: {built:?}");
        }
        assert!(refused(mssp::mssp(&mut clique, &g, &[0], eps).map(drop)), "{eps}");
        assert!(refused(apsp::weighted_3eps(&mut clique, &g, eps).map(drop)), "{eps}");
        assert!(refused(diameter::diameter_approx(&mut clique, &g, eps).map(drop)), "{eps}");
        assert!(refused(build_hopset(&mut clique, &g, HopsetConfig::new(eps)).map(drop)), "{eps}");
        assert_eq!(clique.rounds(), 0, "{eps}");
    }
    // The snapshot reader refuses the same values in a header (offset 24).
    let oracle = OracleBuilder::new().build(&mut Clique::new(16), &g).unwrap();
    for eps in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
        let mut bytes = serde::to_bytes(&oracle);
        bytes[24..32].copy_from_slice(&eps.to_bits().to_le_bytes());
        let read = serde::from_bytes(&bytes);
        assert!(matches!(read, Err(OracleError::CorruptSnapshot { .. })), "{eps}: {read:?}");
    }
}
