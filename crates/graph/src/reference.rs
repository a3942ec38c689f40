//! Sequential ground truth, and the workspace's one sequential search.
//!
//! Every distributed computation in this workspace is differentially tested
//! against these functions, and `cc-oracle`'s direct builder runs them to
//! build its artifacts: one search serves as the reference and as the fast
//! path. They cover exactly the quantities the paper's algorithms output:
//! distances, hop-consistent `(distance, hops)` pairs, `k`-nearest balls,
//! hop-bounded distances (for hopset verification and the direct builder's
//! columns), diameter, and shortest-path diameter (for the Bellman-Ford
//! baseline's round bound). The greedy spanner of
//! `cc_core::baselines::spanner_apsp` asks a [`Search`] for the distances
//! it keeps each edge by.
//!
//! Lengths are those of the augmented min-plus semiring (§3.1): every
//! relaxation extends a path with [`AugDist::combine`], so a path whose
//! length overflows `u64`, or reaches its `u64::MAX` ∞ sentinel, is no
//! path. The clique tools give the same answer.
//!
//! A [`Search`] holds what one search needs: a label per node, reset
//! through the list of nodes the last search touched, and one heap. A
//! thread that searches from many sources keeps one and pays for what each
//! search reaches, not `O(n)` per source. The free functions make a fresh
//! one per call.
//!
//! Every function takes a [`DiGraph`] and follows arcs. An undirected
//! [`crate::Graph`] derefs to its symmetric digraph, so `&graph` is accepted
//! as is and the answers are the undirected ones.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cc_matrix::{AugDist, SparseRow};

use crate::DiGraph;

/// A heap key is `(distance, hops << NODE_BITS | node)`: two words that pop
/// in the augmented order `(distance, hops, id)`.
const NODE_BITS: u32 = 32;

/// Reusable state for sequential searches from many sources: keep one per
/// thread. Every method resets it before it searches, so a result never
/// depends on what the state searched before.
///
/// Node ids and hop counts share one heap word, so a graph may have at most
/// `u32::MAX` nodes.
///
/// # Example
///
/// ```
/// use cc_graph::{generators, reference::Search};
///
/// # fn main() -> Result<(), cc_graph::GraphError> {
/// let g = generators::path(6)?;
/// let mut search = Search::new();
/// // Node 2's three nearest: itself, then its two neighbours by id.
/// let ball: Vec<usize> = search.k_nearest(&g, 2, 3).iter().map(|&(u, _, _)| u).collect();
/// assert_eq!(ball, vec![2, 1, 3]);
/// assert_eq!(search.dijkstra(&g, 0)[5], Some(5));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Search {
    /// The best `(distance, hops)` found so far per node; `AugDist::INF`
    /// means not reached.
    labels: Vec<AugDist>,
    /// The nodes with a finite label, so a reset costs what was reached.
    touched: Vec<usize>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
}

impl Search {
    /// An empty state; it sizes itself to the graphs it searches.
    pub fn new() -> Self {
        Self::default()
    }

    /// Single-source shortest path distances by Dijkstra; `None` =
    /// unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `src >= g.n()`.
    pub fn dijkstra(&mut self, g: &DiGraph, src: usize) -> Vec<Option<u64>> {
        let mut dist = vec![None; g.n()];
        self.settle(g, src, usize::MAX, |v, at| dist[v] = Some(at.dist));
        dist
    }

    /// Dijkstra over the augmented order: per node, the pair
    /// `(d(src,·), minimal hop count among shortest paths)` — exactly the
    /// value the augmented min-plus semiring computes (§3.1).
    ///
    /// # Panics
    ///
    /// Panics if `src >= g.n()`.
    pub fn dijkstra_with_hops(&mut self, g: &DiGraph, src: usize) -> Vec<Option<(u64, u32)>> {
        let mut best = vec![None; g.n()];
        self.settle(g, src, usize::MAX, |v, at| best[v] = Some((at.dist, at.hops)));
        best
    }

    /// The `k` nearest nodes to `v` (itself included) with their
    /// `(distance, hops)` pairs, in the augmented order `(distance, hops,
    /// id)` — the consistent tie-breaking of the distributed `k`-nearest
    /// tool (§3.2). The search stops after `k` settles: its settling order
    /// is that order.
    ///
    /// # Panics
    ///
    /// Panics if `v >= g.n()`.
    pub fn k_nearest(&mut self, g: &DiGraph, v: usize, k: usize) -> Vec<(usize, u64, u32)> {
        let mut near = Vec::with_capacity(k.min(g.n()));
        self.settle(g, v, k, |u, at| near.push((u, at.dist, at.hops)));
        near
    }

    /// [`k_nearest`](Self::k_nearest) in the shape the distributed tool
    /// (`cc_distance::k_nearest`) returns: one sparse augmented row, entries
    /// in id order.
    ///
    /// # Panics
    ///
    /// Panics if `v >= g.n()`.
    pub fn k_nearest_row(&mut self, g: &DiGraph, v: usize, k: usize) -> SparseRow<AugDist> {
        let mut near = Vec::with_capacity(k.min(g.n()));
        self.settle(g, v, k, |u, at| near.push((u as u32, at)));
        near.sort_unstable_by_key(|&(u, _)| u);
        SparseRow::from_sorted(near)
    }

    /// Hop-bounded distance `d^β(src, ·)`: the weight of the lightest path
    /// using at most `beta` arcs.
    ///
    /// Once `beta ≥ n − 1` the bound admits every simple path and this is
    /// [`dijkstra`](Self::dijkstra). Otherwise it runs Bellman–Ford rounds
    /// and stops at the first round that changes nothing: every later round
    /// would repeat it, so the stop is exact.
    ///
    /// # Panics
    ///
    /// Panics if `src >= g.n()`.
    pub fn hop_bounded(&mut self, g: &DiGraph, src: usize, beta: usize) -> Vec<Option<u64>> {
        if beta >= g.n().saturating_sub(1) {
            return self.dijkstra(g, src);
        }
        assert!(src < g.n(), "source out of range");
        let mut cur = vec![AugDist::INF; g.n()];
        cur[src] = AugDist::ZERO;
        let mut next = cur.clone();
        for _ in 0..beta {
            let mut changed = false;
            for (v, &at) in cur.iter().enumerate() {
                if !at.is_finite() {
                    continue;
                }
                for &(u, w) in g.neighbors(v) {
                    let cand = at.combine(arc(w));
                    if cand < next[u] {
                        next[u] = cand;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
            cur.clone_from(&next);
        }
        cur.into_iter().map(|at| at.is_finite().then_some(at.dist)).collect()
    }

    /// The one heap loop: settles the nodes `src` reaches in the augmented
    /// order `(distance, hops, id)`, handing each to `visit` with its final
    /// label, until `limit` are settled or none is left.
    fn settle(
        &mut self,
        g: &DiGraph,
        src: usize,
        limit: usize,
        mut visit: impl FnMut(usize, AugDist),
    ) {
        assert!(src < g.n(), "source out of range");
        assert!(u32::try_from(g.n()).is_ok(), "node ids must fit a heap key's low 32 bits");
        for &v in &self.touched {
            self.labels[v] = AugDist::INF;
        }
        self.touched.clear();
        self.heap.clear();
        if self.labels.len() < g.n() {
            self.labels.resize(g.n(), AugDist::INF);
        }
        self.label(src, AugDist::ZERO);
        let mut settled = 0;
        while settled < limit {
            let Some(Reverse((dist, key))) = self.heap.pop() else { break };
            let (v, at) = (key as u32 as usize, AugDist { dist, hops: (key >> NODE_BITS) as u32 });
            if at != self.labels[v] {
                continue; // superseded by a lighter label pushed later
            }
            visit(v, at);
            settled += 1;
            for &(u, w) in g.neighbors(v) {
                let cand = at.combine(arc(w));
                if cand < self.labels[u] {
                    self.label(u, cand);
                }
            }
        }
    }

    /// Records `at` as `v`'s best label and queues `v` under it.
    fn label(&mut self, v: usize, at: AugDist) {
        if !self.labels[v].is_finite() {
            self.touched.push(v);
        }
        self.labels[v] = at;
        self.heap.push(Reverse((at.dist, (u64::from(at.hops) << NODE_BITS) | v as u64)));
    }
}

/// One arc of weight `w` as a semiring element. A graph refuses an arc
/// weighing the `u64::MAX` sentinel, so every arc is finite.
fn arc(w: u64) -> AugDist {
    AugDist { dist: w, hops: 1 }
}

/// Single-source shortest path distances by Dijkstra; `None` = unreachable.
///
/// # Panics
///
/// Panics if `src >= g.n()`.
pub fn dijkstra(g: &DiGraph, src: usize) -> Vec<Option<u64>> {
    Search::new().dijkstra(g, src)
}

/// Dijkstra over the augmented order: see [`Search::dijkstra_with_hops`].
///
/// # Panics
///
/// Panics if `src >= g.n()`.
pub fn dijkstra_with_hops(g: &DiGraph, src: usize) -> Vec<Option<(u64, u32)>> {
    Search::new().dijkstra_with_hops(g, src)
}

/// Unweighted single-source hop distances by BFS; `None` = unreachable.
///
/// # Panics
///
/// Panics if `src >= g.n()`.
pub fn bfs(g: &DiGraph, src: usize) -> Vec<Option<u64>> {
    assert!(src < g.n(), "source out of range");
    let mut hops = vec![None; g.n()];
    hops[src] = Some(0);
    let mut queue = std::collections::VecDeque::from([src]);
    while let Some(v) = queue.pop_front() {
        let h = hops[v].expect("queued nodes have hop counts");
        for &(u, _) in g.neighbors(v) {
            if hops[u].is_none() {
                hops[u] = Some(h + 1);
                queue.push_back(u);
            }
        }
    }
    hops
}

/// All-pairs shortest path distances (repeated Dijkstra, one search state).
pub fn all_pairs(g: &DiGraph) -> Vec<Vec<Option<u64>>> {
    let mut search = Search::new();
    (0..g.n()).map(|v| search.dijkstra(g, v)).collect()
}

/// Hop-bounded distance `d^β(src, ·)`: see [`Search::hop_bounded`].
///
/// # Panics
///
/// Panics if `src >= g.n()`.
pub fn hop_bounded(g: &DiGraph, src: usize, beta: usize) -> Vec<Option<u64>> {
    Search::new().hop_bounded(g, src, beta)
}

/// The `k` nearest nodes to `v`: see [`Search::k_nearest`].
///
/// # Panics
///
/// Panics if `v >= g.n()`.
pub fn k_nearest(g: &DiGraph, v: usize, k: usize) -> Vec<(usize, u64, u32)> {
    Search::new().k_nearest(g, v, k)
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
    let mut search = Search::new();
    let mut spd = 0usize;
    for v in 0..g.n() {
        for entry in search.dijkstra_with_hops(g, v).into_iter().flatten() {
            spd = spd.max(entry.1 as usize);
        }
    }
    spd
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
    fn an_overflowing_path_is_no_path() {
        // 0–1–2–3 with weights 2⁶³, 2⁶³, 1: the path 0–1–2 weighs 2⁶⁴.
        let half = 1u64 << 63;
        let g = Graph::from_edges(4, [(0, 1, half), (1, 2, half), (2, 3, 1)]).unwrap();
        assert_eq!(dijkstra(&g, 0), vec![Some(0), Some(half), None, None]);
        assert_eq!(dijkstra(&g, 3), vec![None, Some(half + 1), Some(1), Some(0)]);
        assert_eq!(k_nearest(&g, 0, 4), vec![(0, 0, 0), (1, half, 1)]);
        for beta in 0..5 {
            assert_eq!(hop_bounded(&g, 0, beta)[2..], [None, None], "beta={beta}");
        }
        // A sum landing exactly on the ∞ sentinel is no path; an arc of that
        // weight is refused when the graph is built.
        let g = Graph::from_edges(3, [(0, 1, u64::MAX / 2), (1, 2, u64::MAX / 2 + 1)]).unwrap();
        assert_eq!(dijkstra(&g, 0), vec![Some(0), Some(u64::MAX / 2), None]);
        let refused = Graph::from_edges(2, [(0, 1, u64::MAX)]).unwrap_err();
        assert_eq!(refused, crate::GraphError::InfiniteWeight { u: 0, v: 1 });
    }

    #[test]
    fn one_search_state_reused_across_sources_equals_fresh_results() {
        let g = generators::gnp_weighted(48, 0.12, 30, 11).unwrap();
        // One state across every call, partial (k-nearest) and full
        // searches interleaved: a label one search leaves behind must never
        // leak into the next, so the touched-list reset is load-bearing.
        let mut search = Search::new();
        for v in 0..48 {
            let full = dijkstra_with_hops(&g, v);
            // The augmented order by sorting every label, which the heap's
            // settling order must equal.
            let mut sorted: Vec<(u64, u32, usize)> = full
                .iter()
                .enumerate()
                .filter_map(|(u, label)| label.map(|(d, h)| (d, h, u)))
                .collect();
            sorted.sort_unstable();
            for k in [1, 3, 7, 48] {
                let expect: Vec<(usize, u64, u32)> =
                    sorted.iter().take(k).map(|&(d, h, u)| (u, d, h)).collect();
                assert_eq!(search.k_nearest(&g, v, k), expect, "v={v} k={k}");
                let mut by_id = expect;
                by_id.sort_unstable();
                let row: Vec<(usize, u64, u32)> = search
                    .k_nearest_row(&g, v, k)
                    .iter()
                    .map(|(u, a)| (u as usize, a.dist, a.hops))
                    .collect();
                assert_eq!(row, by_id, "v={v} k={k}");
            }
            assert_eq!(search.dijkstra_with_hops(&g, v), full, "v={v}");
            assert_eq!(search.hop_bounded(&g, v, 3), hop_bounded(&g, v, 3), "v={v}");
        }
        // A state sized by a larger graph serves a smaller one.
        let path = generators::path(5).unwrap();
        assert_eq!(search.dijkstra(&path, 4), dijkstra(&path, 4));
    }

    /// Bellman–Ford for exactly `beta` rounds, with neither the fixpoint
    /// stop nor the Dijkstra shortcut: the definition of `d^β`.
    fn fixed_count_hop_bounded(g: &DiGraph, src: usize, beta: usize) -> Vec<Option<u64>> {
        let mut cur: Vec<Option<u64>> = vec![None; g.n()];
        cur[src] = Some(0);
        for _ in 0..beta {
            let mut next = cur.clone();
            for v in 0..g.n() {
                let Some(d) = cur[v] else { continue };
                for &(u, w) in g.neighbors(v) {
                    let cand = d + w;
                    if next[u].is_none_or(|b| cand < b) {
                        next[u] = Some(cand);
                    }
                }
            }
            cur = next;
        }
        cur
    }

    #[test]
    fn hop_bounded_stops_exactly_at_its_fixpoint_and_shortcuts_to_dijkstra() {
        // n = 30: beta ≤ 28 runs Bellman–Ford, which stops at its fixpoint
        // once beta passes the hop diameter; beta ≥ 29 is Dijkstra.
        let g = generators::grid_weighted(5, 6, 20, 2).unwrap();
        for src in [0, 7, 29] {
            for beta in [0, 1, 2, 5, 12, 28, 29, 30, 64] {
                assert_eq!(
                    hop_bounded(&g, src, beta),
                    fixed_count_hop_bounded(&g, src, beta),
                    "src={src} beta={beta}"
                );
            }
        }
    }
}
