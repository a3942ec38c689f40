//! Property-based tests over random graphs and matrices: the distributed
//! algorithms agree with sequential references on arbitrary inputs, and the
//! paper's invariants hold.

// Node-indexed loops over parallel per-node vectors are the domain idiom.
#![allow(clippy::needless_range_loop)]

use std::ops::Range;

use congested_clique::clique::Clique;
use congested_clique::core::{baselines, mssp, paths, sssp};
use congested_clique::distance::k_nearest;
use congested_clique::graph::{reference, Graph, GraphError};
use congested_clique::matmul::{filtered_multiply, sparse_multiply_auto};
use congested_clique::matrix::{Dist, Entry, MinPlus, SparseMatrix};
use congested_clique::oracle::{testkit, DirectBuilder, OracleBuilder};
use proptest::prelude::*;

/// Every weight in [2⁶², 2⁶³]: some two-arc paths and every path of four
/// or more arcs overflow `u64`, and an overflowing path is no path (§3.1).
const HUGE: Range<u64> = (1 << 62)..(1 << 63) + 1;

/// Arbitrary connected weighted graph on exactly `n` nodes.
fn arb_graph(n: usize) -> impl Strategy<Value = Graph> {
    arb_graph_weighted(n, 1..50)
}

/// Arbitrary weighted graph on exactly `n` nodes, a path spine plus extra
/// edges, every weight drawn from `weights`.
fn arb_graph_weighted(n: usize, weights: Range<u64>) -> impl Strategy<Value = Graph> {
    let extra = prop::collection::vec((0..n, 0..n, weights.clone()), 0..3 * n);
    let spine = prop::collection::vec(weights, n - 1);
    (extra, spine).prop_map(move |(extra, spine)| {
        let mut g = Graph::empty(n);
        for (i, w) in spine.into_iter().enumerate() {
            g.add_edge(i, i + 1, w).expect("spine edges valid");
        }
        for (u, v, w) in extra {
            if u != v {
                g.add_edge(u, v, w).expect("extra edges valid");
            }
        }
        g
    })
}

/// The clique's `k_nearest` equals the sequential search, node by node, in
/// the augmented order `(distance, hops, id)`.
fn assert_k_nearest_matches_reference(g: &Graph, k: usize) {
    let mut clique = Clique::new(g.n());
    let got = k_nearest(&mut clique, g, k).unwrap();
    for v in 0..g.n() {
        let mut items: Vec<(u64, u32, usize)> =
            got[v].iter().map(|(c, a)| (a.dist, a.hops, c as usize)).collect();
        items.sort_unstable();
        let got_v: Vec<(usize, u64, u32)> = items.into_iter().map(|(d, h, u)| (u, d, h)).collect();
        assert_eq!(got_v, reference::k_nearest(g, v, k), "node {v}, k={k}");
    }
}

fn arb_matrix(n: usize, max_entries: usize) -> impl Strategy<Value = SparseMatrix<Dist>> {
    prop::collection::vec((0..n as u32, 0..n as u32, 1u64..500), 0..max_entries).prop_map(
        move |entries| {
            SparseMatrix::from_entries::<MinPlus>(
                n,
                entries.into_iter().map(|(r, c, w)| Entry::new(r, c, Dist::fin(w))),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sparse_multiply_auto_matches_reference(
        s in arb_matrix(12, 50),
        t in arb_matrix(12, 50),
    ) {
        let mut clique = Clique::new(12);
        let t_cols = t.transpose();
        let (rows, _) =
            sparse_multiply_auto::<MinPlus>(&mut clique, s.rows(), t_cols.rows()).unwrap();
        prop_assert_eq!(SparseMatrix::from_rows(rows), s.multiply::<MinPlus>(&t));
    }

    #[test]
    fn filtered_multiply_matches_filtered_reference(
        s in arb_matrix(10, 60),
        t in arb_matrix(10, 60),
        rho in 1usize..5,
    ) {
        let mut clique = Clique::new(10);
        let t_cols = t.transpose();
        let rows =
            filtered_multiply::<MinPlus>(&mut clique, s.rows(), t_cols.rows(), rho).unwrap();
        let expected = s.multiply::<MinPlus>(&t).filtered(rho);
        prop_assert_eq!(SparseMatrix::from_rows(rows), expected);
    }

    #[test]
    fn k_nearest_matches_dijkstra_prefix(g in arb_graph(14), k in 1usize..8) {
        assert_k_nearest_matches_reference(&g, k);
    }

    #[test]
    fn huge_weights_overflow_to_no_path_in_the_clique_and_both_builders(
        g in arb_graph_weighted(12, HUGE),
        k in 1usize..13,
    ) {
        assert_k_nearest_matches_reference(&g, 12);
        let built = OracleBuilder::new().k(k).build(&mut Clique::new(12), &g).unwrap();
        testkit::assert_same_artifact(&DirectBuilder::new().k(k).build(&g).unwrap(), &built);
    }

    #[test]
    fn huge_weights_overflow_to_no_path_in_the_exact_algorithms(
        g in arb_graph_weighted(12, HUGE),
        source in 0usize..12,
        u in 0usize..12,
        v in 0usize..12,
    ) {
        // The ∞ sentinel itself is no weight: refused, the graph unchanged.
        let mut offered = g.clone();
        if u != v {
            prop_assert_eq!(
                offered.add_edge(u, v, u64::MAX),
                Err(GraphError::InfiniteWeight { u, v })
            );
            prop_assert_eq!(offered.m(), g.m());
        }
        let exact = reference::all_pairs(&g);
        let squaring = baselines::exact_apsp_squaring(&mut Clique::new(12), &g).unwrap();
        let tables = paths::exact_apsp_paths(&mut Clique::new(12), &g).unwrap();
        let bf = sssp::bellman_ford(&mut Clique::new(12), &g, source, None).unwrap();
        let fast = sssp::exact_sssp(&mut Clique::new(12), &g, source).unwrap();
        for u in 0..12 {
            for v in 0..12 {
                prop_assert_eq!(squaring.dist[u][v].value(), exact[u][v]);
                prop_assert_eq!(tables.distance(u, v), exact[u][v]);
            }
        }
        for v in 0..12 {
            prop_assert_eq!(bf.dist[v].value(), exact[source][v]);
            prop_assert_eq!(fast.dist[v].value(), exact[source][v]);
        }
    }

    #[test]
    fn exact_sssp_matches_dijkstra(g in arb_graph(16), source in 0usize..16) {
        let mut clique = Clique::new(16);
        let run = sssp::exact_sssp(&mut clique, &g, source).unwrap();
        let exact = reference::dijkstra(&g, source);
        for v in 0..16 {
            prop_assert_eq!(run.dist[v].value(), exact[v]);
        }
    }

    #[test]
    fn mssp_never_underestimates_and_meets_stretch(g in arb_graph(16)) {
        let mut clique = Clique::new(16);
        let run = mssp::mssp(&mut clique, &g, &[0, 8], 0.5).unwrap();
        for (i, &s) in [0usize, 8].iter().enumerate() {
            let exact = reference::dijkstra(&g, s);
            for v in 0..16 {
                let d = exact[v].expect("spine keeps the graph connected");
                let e = run.dist[v][i].value().expect("connected");
                prop_assert!(e >= d);
                prop_assert!(e as f64 <= 1.5 * d as f64 + 1e-9);
            }
        }
    }
}
