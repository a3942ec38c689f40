//! Sequential ground-truth algorithms.
//!
//! Every distributed computation in this workspace is differentially tested
//! against these references. They are deliberately simple — correctness over
//! speed — and cover exactly the quantities the paper's algorithms output:
//! distances, hop-consistent `(distance, hops)` pairs, hop-bounded distances
//! (for hopset verification), diameter, and shortest-path diameter (for the
//! Bellman-Ford baseline's round bound).
//!
//! Every function takes a [`DiGraph`] and follows arcs. An undirected
//! [`crate::Graph`] derefs to its symmetric digraph, so `&graph` is accepted
//! as is and the answers are the undirected ones.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::DiGraph;

/// Single-source shortest path distances by Dijkstra; `None` = unreachable.
///
/// # Panics
///
/// Panics if `src >= g.n()`.
pub fn dijkstra(g: &DiGraph, src: usize) -> Vec<Option<u64>> {
    dijkstra_with_hops(g, src).into_iter().map(|o| o.map(|(d, _)| d)).collect()
}

/// Dijkstra over the augmented order: returns, per node, the pair
/// `(d(src,·), minimal hop count among shortest paths)` — exactly the value
/// the augmented min-plus semiring computes (§3.1).
///
/// # Panics
///
/// Panics if `src >= g.n()`.
pub fn dijkstra_with_hops(g: &DiGraph, src: usize) -> Vec<Option<(u64, u32)>> {
    assert!(src < g.n(), "source out of range");
    let mut best: Vec<Option<(u64, u32)>> = vec![None; g.n()];
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0u64, 0u32, src)));
    while let Some(Reverse((d, h, v))) = heap.pop() {
        match best[v] {
            Some(b) if b <= (d, h) => continue,
            _ => {}
        }
        best[v] = Some((d, h));
        for &(u, w) in g.neighbors(v) {
            let cand = (d + w, h + 1);
            if best[u].is_none_or(|b| cand < b) {
                heap.push(Reverse((cand.0, cand.1, u)));
            }
        }
    }
    best
}

/// Unweighted single-source hop distances by BFS; `None` = unreachable.
///
/// # Panics
///
/// Panics if `src >= g.n()`.
pub fn bfs(g: &DiGraph, src: usize) -> Vec<Option<u64>> {
    assert!(src < g.n(), "source out of range");
    let mut dist = vec![None; g.n()];
    dist[src] = Some(0);
    let mut queue = std::collections::VecDeque::from([src]);
    while let Some(v) = queue.pop_front() {
        let d = dist[v].expect("queued nodes have distances");
        for &(u, _) in g.neighbors(v) {
            if dist[u].is_none() {
                dist[u] = Some(d + 1);
                queue.push_back(u);
            }
        }
    }
    dist
}

/// All-pairs shortest path distances (repeated Dijkstra).
pub fn all_pairs(g: &DiGraph) -> Vec<Vec<Option<u64>>> {
    (0..g.n()).map(|v| dijkstra(g, v)).collect()
}

/// Hop-bounded distance `d^β(src, ·)`: the weight of the lightest path using
/// at most `beta` edges (Bellman-Ford dynamic program).
///
/// # Panics
///
/// Panics if `src >= g.n()`.
pub fn hop_bounded(g: &DiGraph, src: usize, beta: usize) -> Vec<Option<u64>> {
    assert!(src < g.n(), "source out of range");
    let mut cur: Vec<Option<u64>> = vec![None; g.n()];
    cur[src] = Some(0);
    for _ in 0..beta {
        let mut next = cur.clone();
        for v in 0..g.n() {
            if let Some(d) = cur[v] {
                for &(u, w) in g.neighbors(v) {
                    let cand = d + w;
                    if next[u].is_none_or(|b| cand < b) {
                        next[u] = Some(cand);
                    }
                }
            }
        }
        cur = next;
    }
    cur
}

/// The `k` nearest nodes to `v` (including `v` itself), with their
/// `(distance, hops)` pairs, ordered by the augmented order
/// `(distance, hops, id)` — the same consistent tie-breaking the distributed
/// `k`-nearest tool uses (§3.2).
///
/// # Panics
///
/// Panics if `v >= g.n()`.
pub fn k_nearest(g: &DiGraph, v: usize, k: usize) -> Vec<(usize, u64, u32)> {
    let best = dijkstra_with_hops(g, v);
    let mut reachable: Vec<(u64, u32, usize)> =
        best.iter().enumerate().filter_map(|(u, o)| o.map(|(d, h)| (d, h, u))).collect();
    reachable.sort_unstable();
    reachable.truncate(k);
    reachable.into_iter().map(|(d, h, u)| (u, d, h)).collect()
}

/// Exact diameter: the largest finite pairwise distance. `None` for graphs
/// with no arcs.
pub fn diameter(g: &DiGraph) -> Option<u64> {
    all_pairs(g).iter().flat_map(|row| row.iter().flatten()).copied().max().filter(|&d| d > 0)
}

/// Shortest-path diameter: the maximum over connected pairs of the minimal
/// hop count among shortest paths — the quantity that bounds distributed
/// Bellman-Ford's round count (§7.1, Lemma 32).
pub fn shortest_path_diameter(g: &DiGraph) -> usize {
    let mut spd = 0usize;
    for v in 0..g.n() {
        for entry in dijkstra_with_hops(g, v).into_iter().flatten() {
            spd = spd.max(entry.1 as usize);
        }
    }
    spd
}

/// Maximum finite distance from `v` (its eccentricity); `None` if `v` is
/// isolated.
///
/// # Panics
///
/// Panics if `v >= g.n()`.
pub fn eccentricity(g: &DiGraph, v: usize) -> Option<u64> {
    dijkstra(g, v).into_iter().flatten().max().filter(|&d| d > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, Graph};

    #[test]
    fn dijkstra_on_weighted_path() {
        let g = Graph::from_edges(4, [(0, 1, 2), (1, 2, 3), (2, 3, 4)]).unwrap();
        assert_eq!(dijkstra(&g, 0), vec![Some(0), Some(2), Some(5), Some(9)]);
        assert_eq!(dijkstra(&g, 3), vec![Some(9), Some(7), Some(4), Some(0)]);
    }

    #[test]
    fn dijkstra_prefers_fewer_hops_on_ties() {
        // Two shortest paths 0->3 of weight 4: 0-1-2-3 (3 hops) and 0-3? no,
        // construct 0-1 (2), 1-3 (2) vs 0-2 (1), 2-4?(..) use explicit tie.
        let g = Graph::from_edges(4, [(0, 1, 2), (1, 3, 2), (0, 2, 1), (2, 3, 3)]).unwrap();
        let best = dijkstra_with_hops(&g, 0);
        assert_eq!(best[3], Some((4, 2))); // both paths weigh 4, min hops = 2
    }

    #[test]
    fn dijkstra_handles_disconnection() {
        let g = Graph::from_edges(4, [(0, 1, 1)]).unwrap();
        let d = dijkstra(&g, 0);
        assert_eq!(d[1], Some(1));
        assert_eq!(d[2], None);
    }

    #[test]
    fn bfs_matches_dijkstra_on_unweighted() {
        let g = generators::gnp(24, 0.15, 5).unwrap();
        for v in 0..4 {
            assert_eq!(bfs(&g, v), dijkstra(&g, v));
        }
    }

    #[test]
    fn hop_bounded_converges_to_true_distance() {
        let g = generators::path(6).unwrap();
        assert_eq!(hop_bounded(&g, 0, 2)[3], None);
        assert_eq!(hop_bounded(&g, 0, 3)[3], Some(3));
        assert_eq!(hop_bounded(&g, 0, 100), dijkstra(&g, 0));
    }

    #[test]
    fn hop_bounded_can_exceed_true_distance() {
        // 0-2 direct weight 5, or 0-1-2 weight 2: with beta=1 only direct.
        let g = Graph::from_edges(3, [(0, 2, 5), (0, 1, 1), (1, 2, 1)]).unwrap();
        assert_eq!(hop_bounded(&g, 0, 1)[2], Some(5));
        assert_eq!(hop_bounded(&g, 0, 2)[2], Some(2));
    }

    #[test]
    fn k_nearest_orders_by_distance_then_hops_then_id() {
        let g = generators::star(6).unwrap();
        // From leaf 1: itself (0), centre 0 (1), then leaves at distance 2.
        let near = k_nearest(&g, 1, 4);
        assert_eq!(near[0], (1, 0, 0));
        assert_eq!(near[1], (0, 1, 1));
        assert_eq!(near[2], (2, 2, 2));
        assert_eq!(near[3], (3, 2, 2));
    }

    #[test]
    fn diameter_of_known_families() {
        assert_eq!(diameter(&generators::path(10).unwrap()), Some(9));
        assert_eq!(diameter(&generators::cycle(10).unwrap()), Some(5));
        assert_eq!(diameter(&generators::star(10).unwrap()), Some(2));
        assert_eq!(diameter(&generators::grid(4, 4).unwrap()), Some(6));
    }

    #[test]
    fn spd_of_weighted_clique_chain() {
        // Weighted so that shortest paths hug the bridges.
        let g = generators::cliques_with_bridges(4, 4, 1).unwrap();
        let spd = shortest_path_diameter(&g);
        assert!(spd >= 6, "chained cliques have long shortest paths, got {spd}");
        assert_eq!(shortest_path_diameter(&generators::complete(8).unwrap()), 1);
    }

    #[test]
    fn eccentricity_on_path() {
        let g = generators::path(5).unwrap();
        assert_eq!(eccentricity(&g, 0), Some(4));
        assert_eq!(eccentricity(&g, 2), Some(2));
    }
}
