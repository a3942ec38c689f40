//! The §3 distance tools on *directed* graphs — the paper states they work
//! for directed weighted graphs even though the headline algorithms are
//! undirected; these tests hold the tools, which take arcs, to the
//! sequential references, which take arcs too.

// Node-indexed loops over parallel per-node vectors are the domain idiom.
#![allow(clippy::needless_range_loop)]

use congested_clique::clique::Clique;
use congested_clique::distance::{k_nearest, source_detection_all, source_detection_k};
use congested_clique::graph::reference::{dijkstra_with_hops, hop_bounded};
use congested_clique::graph::{generators, gnp_directed, DiGraph};
use congested_clique::matrix::{AugDist, SparseRow};

#[test]
fn directed_k_nearest_matches_directed_dijkstra() {
    let g = gnp_directed(24, 0.08, 20, 5).unwrap();
    for k in [1usize, 3, 8] {
        let mut clique = Clique::new(24);
        let near = k_nearest(&mut clique, &g, k).unwrap();
        for v in 0..24 {
            let mut expected: Vec<(u64, u32, usize)> = dijkstra_with_hops(&g, v)
                .into_iter()
                .enumerate()
                .filter_map(|(u, o)| o.map(|(d, h)| (d, h, u)))
                .collect();
            expected.sort_unstable();
            expected.truncate(k);
            let mut got: Vec<(u64, u32, usize)> =
                near[v].iter().map(|(c, a)| (a.dist, a.hops, c as usize)).collect();
            got.sort_unstable();
            assert_eq!(got, expected, "node {v}, k={k}");
        }
    }
}

#[test]
fn directed_source_detection_respects_orientation() {
    // One-way path: only upstream nodes reach the source.
    let g = DiGraph::from_arcs(8, (0..7).map(|v| (v, v + 1, 2))).unwrap();
    let mut clique = Clique::new(8);
    let rows = source_detection_all(&mut clique, &g, &[3], 8).unwrap();
    for v in 0..8 {
        // rows[v] holds distances FROM v TO the sources along arcs.
        let expected = dijkstra_with_hops(&g, v)[3].map(|(d, _)| d);
        assert_eq!(rows[v].get(3).map(|a| a.dist), expected, "node {v}");
    }
}

#[test]
fn directed_source_detection_hop_budget() {
    let g = gnp_directed(20, 0.06, 9, 7).unwrap();
    for d in [1usize, 2, 4] {
        let mut clique = Clique::new(20);
        let rows = source_detection_all(&mut clique, &g, &[0, 5], d).unwrap();
        for v in (0..20).step_by(3) {
            // rows[v] holds d(v -> s) within d hops: hop-bounded from v.
            let from_v = hop_bounded(&g, v, d);
            for s in [0usize, 5] {
                assert_eq!(rows[v].get(s as u32).map(|a| a.dist), from_v[s], "v={v}, s={s}, d={d}");
            }
        }
    }
}

#[test]
fn directed_k_source_selection() {
    let g = gnp_directed(16, 0.1, 9, 9).unwrap();
    let sources = vec![1, 5, 9, 13];
    let mut clique = Clique::new(16);
    let rows = source_detection_k(&mut clique, &g, &sources, 16, 2).unwrap();
    for v in 0..16 {
        assert!(rows[v].nnz() <= 2);
        // Selected sources must be the nearest by (dist, hops, id).
        let from_v = dijkstra_with_hops(&g, v);
        let mut all: Vec<(u64, u32, usize)> =
            sources.iter().filter_map(|&s| from_v[s].map(|(d, h)| (d, h, s))).collect();
        all.sort_unstable();
        let expected: Vec<usize> = all.into_iter().take(2).map(|(_, _, s)| s).collect();
        let mut got: Vec<usize> = rows[v].iter().map(|(c, _)| c as usize).collect();
        got.sort_by_key(|&s| {
            let (d, h) = from_v[s].expect("selected source reachable");
            (d, h, s)
        });
        assert_eq!(got, expected, "node {v}");
    }
}

#[test]
fn a_graph_runs_the_tools_exactly_as_its_arcs_do() {
    let g = generators::gnp_weighted(24, 0.15, 30, 4).unwrap();
    assert_eq!(g.arcs().count(), 2 * g.m(), "m counts edges, arcs come two per edge");
    let arcs = DiGraph::clone(&g);
    let both_ways = g.edges().flat_map(|(u, v, w)| [(u, v, w), (v, u, w)]);
    assert_eq!(arcs, DiGraph::from_arcs(24, both_ways).unwrap());

    type Rows = Vec<SparseRow<AugDist>>;
    let same = |tool: &str,
                on_graph: &dyn Fn(&mut Clique) -> Rows,
                on_arcs: &dyn Fn(&mut Clique) -> Rows| {
        let (mut c_graph, mut c_arcs) = (Clique::new(24), Clique::new(24));
        assert_eq!(on_graph(&mut c_graph), on_arcs(&mut c_arcs), "{tool}: rows differ");
        assert_eq!(c_graph.report(), c_arcs.report(), "{tool}: round reports differ");
        assert!(c_graph.rounds() > 0, "{tool}: ran no product");
    };
    let sources = [1, 9, 17];
    same("k_nearest", &|c| k_nearest(c, &g, 5).unwrap(), &|c| k_nearest(c, &arcs, 5).unwrap());
    same("source_detection_k", &|c| source_detection_k(c, &g, &sources, 4, 2).unwrap(), &|c| {
        source_detection_k(c, &arcs, &sources, 4, 2).unwrap()
    });
    same("source_detection_all", &|c| source_detection_all(c, &g, &sources, 4).unwrap(), &|c| {
        source_detection_all(c, &arcs, &sources, 4).unwrap()
    });
}
