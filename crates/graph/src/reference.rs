//! Sequential ground truth, and the workspace's sequential searches.
//!
//! Every distributed computation in this workspace is differentially tested
//! against these functions, and `cc-oracle`'s direct builder runs them to
//! build its artifacts: one search state serves as the reference and as the
//! fast path. They cover exactly the quantities the paper's algorithms output:
//! distances, hop-consistent `(distance, hops)` pairs, `k`-nearest balls,
//! hop-bounded distances (for hopset verification and the direct builder's
//! columns), diameter, and shortest-path diameter (for the Bellman-Ford
//! baseline's round bound). The greedy spanner of
//! `cc_core::baselines::spanner_apsp` asks a [`Search`] for the distances
//! it keeps each edge by.
//!
//! Lengths are those of the min-plus semirings (§3.1): every relaxation
//! extends a path under the one length rule ([`Dist::checked_add`], or
//! [`AugDist::combine`] where hops are counted too), so a path whose length
//! overflows `u64`, or reaches its `u64::MAX` ∞ sentinel, is no path. The
//! clique tools give the same answer.
//!
//! A [`Search`] holds the state of two loops, and one is kept per thread so
//! a search from many sources pays for its buffers once.
//!
//! * **The distance loop**, [`Search::distances`], computes distances only.
//!   Its labels are one `u64` per node, with ∞ spelled `Dist::INF.raw()`:
//!   the encoding of the oracle's column matrix, so the direct builder
//!   copies a row as it is. Its queue is a radix heap, a priority queue for
//!   keys that never decrease, which Dijkstra's popped distances are.
//!   [`dijkstra`](Search::dijkstra) maps its buffer, so every caller of it
//!   runs this loop: [`all_pairs`], the capped builder's exact columns and
//!   the greedy spanner. The loop returns a row of all `n` nodes, so it
//!   resets its buffer by one fill. Its hop-bounded sibling,
//!   [`Search::hop_bounded`], keeps the same labels and relaxation but
//!   replaces the heap by semi-naive Bellman–Ford rounds; at `β ≥ n − 1` it
//!   is this loop. It fills the faithful builder's columns and hopset
//!   levels, and the free [`hop_bounded`] maps its row.
//! * **The augmented loop** settles nodes in the order `(distance, hops,
//!   id)` on a binary heap. [`dijkstra_with_hops`](Search::dijkstra_with_hops),
//!   [`k_nearest`](Search::k_nearest) and
//!   [`k_nearest_row`](Search::k_nearest_row) run it: its settling order is
//!   their output (a ball is the first `k` settles), and it is the order the
//!   distributed `k`-nearest tool is pinned to. It resets its labels through
//!   the list of nodes the last search touched, so a `k`-nearest search pays
//!   for what it reaches, not `O(n)`.
//!
//! Why two loops. The distance loop is the faster one, and by more where
//! weights are small: a radix heap moves an item at most once per bit of
//! the key range it crosses. From 200 sources each (one core,
//! `cargo test --release -p cc-graph -- --ignored --nocapture` prints it),
//! `road_like(100, 100)` took 140–153 ms in the distance loop against
//! 331–362 ms in the augmented one, and `grid_weighted(100, 100)` with
//! weights up to 1 000 took 190–216 ms against 248–280 ms. Two ways to keep
//! a single loop were measured on `road_like(50, 50)` and not taken: a
//! `u128` radix key `(distance, hops, id)` ran 32 searches in 10.7 ms
//! against the binary heap's 11.1, because the low bits force a bucket
//! redistribution on nearly every pop; a radix heap on the distance with a
//! binary heap for the ties was only 1.1× faster at `n = 2 500` (1.8× at
//! `10⁵`).
//!
//! Every function takes a [`DiGraph`] and follows arcs. An undirected
//! [`crate::Graph`] derefs to its symmetric digraph, so `&graph` is accepted
//! as is and the answers are the undirected ones.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cc_matrix::{AugDist, Dist, SparseRow};

use crate::DiGraph;

/// An augmented heap key is `(distance, hops << NODE_BITS | node)`: two
/// words that pop in the augmented order `(distance, hops, id)`.
const NODE_BITS: u32 = 32;

/// A radix heap's buckets: bucket 0 holds the keys equal to the last key
/// popped, bucket `b ≥ 1` the keys whose highest bit differing from it is
/// bit `b − 1`.
const BUCKETS: usize = 65;

/// Reusable state for sequential searches from many sources: keep one per
/// thread. Every method resets it before it searches, so a result never
/// depends on what the state searched before.
///
/// Node ids and hop counts share one heap word, and the radix heap keeps a
/// node id in 32 bits, so a graph may have at most `u32::MAX` nodes.
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
/// // The same distances in the column encoding, ∞ = `Dist::INF.raw()`.
/// assert_eq!(search.distances(&g, 0), [0, 1, 2, 3, 4, 5]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Search {
    /// The augmented loop's best `(distance, hops)` so far per node;
    /// `AugDist::INF` means not reached.
    labels: Vec<AugDist>,
    /// The nodes with a finite augmented label, so a reset costs what was
    /// reached.
    touched: Vec<usize>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    /// The distance loop's best distance so far per node of the last graph
    /// it searched; `Dist::INF.raw()` means not reached. `hop_bounded`
    /// keeps the last finished round here.
    dist: Vec<u64>,
    /// `hop_bounded`'s round in progress, and the nodes the last round and
    /// this one changed.
    next: Vec<u64>,
    frontier: Vec<usize>,
    changed: Vec<usize>,
    radix: RadixHeap,
}

impl Search {
    /// An empty state; it sizes itself to the graphs it searches.
    pub fn new() -> Self {
        Self::default()
    }

    /// Single-source shortest path distances by Dijkstra; `None` =
    /// unreachable. The [`distances`](Self::distances) row, mapped.
    ///
    /// # Panics
    ///
    /// Panics if `src >= g.n()`.
    pub fn dijkstra(&mut self, g: &DiGraph, src: usize) -> Vec<Option<u64>> {
        self.distances(g, src).iter().map(|&d| Dist::from_raw(d).value()).collect()
    }

    /// Single-source shortest path distances by Dijkstra, one `u64` per
    /// node of `g` in the encoding of the oracle's column matrix:
    /// `Dist::INF.raw()` for a node `src` does not reach. The row is this
    /// state's own buffer, valid until its next search.
    ///
    /// # Panics
    ///
    /// Panics if `src >= g.n()`.
    pub fn distances(&mut self, g: &DiGraph, src: usize) -> &[u64] {
        assert!(src < g.n(), "source out of range");
        assert!(u32::try_from(g.n()).is_ok(), "node ids must fit a radix heap item's 32 bits");
        self.dist.clear();
        self.dist.resize(g.n(), Dist::INF.raw());
        self.radix.clear();
        self.dist[src] = 0;
        self.radix.push(0, src as u32);
        while let Some((at, v)) = self.radix.pop() {
            let v = v as usize;
            if at != self.dist[v] {
                continue; // superseded by a lighter label pushed later
            }
            for &(u, w) in g.neighbors(v) {
                let cand = Dist::from_raw(at).checked_add(Dist::from_raw(w)).raw();
                if cand < self.dist[u] {
                    self.dist[u] = cand;
                    self.radix.push(cand, u as u32);
                }
            }
        }
        &self.dist
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
    /// using at most `beta` arcs, one `u64` per node in the encoding of
    /// [`distances`](Self::distances). The row is this state's own buffer,
    /// valid until its next search.
    ///
    /// Once `beta ≥ n − 1` the bound admits every simple path and this is
    /// [`distances`](Self::distances). Otherwise it runs Bellman–Ford rounds
    /// semi-naively: round `i` relaxes only from the nodes round `i − 1`
    /// changed, reading their labels as round `i − 1` left them, so the row
    /// after `i` rounds is exactly `d^i`. A node no round changed has
    /// already relaxed its arcs at its current label. The loop stops at the
    /// first round that changes nothing: every later round would repeat it.
    ///
    /// # Panics
    ///
    /// Panics if `src >= g.n()`.
    pub fn hop_bounded(&mut self, g: &DiGraph, src: usize, beta: usize) -> &[u64] {
        if beta >= g.n().saturating_sub(1) {
            return self.distances(g, src);
        }
        assert!(src < g.n(), "source out of range");
        let Search { dist, next, frontier, changed, .. } = self;
        dist.clear();
        dist.resize(g.n(), Dist::INF.raw());
        dist[src] = 0;
        next.clone_from(dist);
        frontier.clear();
        frontier.push(src);
        for _ in 0..beta {
            // `next` equals `dist` here; round i writes only `next`.
            for &v in frontier.iter() {
                let at = Dist::from_raw(dist[v]);
                for &(u, w) in g.neighbors(v) {
                    let cand = at.checked_add(Dist::from_raw(w)).raw();
                    if cand < next[u] {
                        if next[u] == dist[u] {
                            changed.push(u);
                        }
                        next[u] = cand;
                    }
                }
            }
            if changed.is_empty() {
                break;
            }
            for &u in changed.iter() {
                dist[u] = next[u];
            }
            std::mem::swap(frontier, changed);
            changed.clear();
        }
        dist
    }

    /// The augmented loop: settles the nodes `src` reaches in the order
    /// `(distance, hops, id)`, handing each to `visit` with its final label,
    /// until `limit` are settled or none is left.
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

/// A priority queue of `(key, node)` items for keys that never fall below
/// the last key popped, as Dijkstra's distances never do. An item sits in
/// the bucket of the highest bit where its key differs from that last key
/// ([`BUCKETS`]). A pop takes from bucket 0; when it is empty, the lowest
/// occupied bucket's smallest key becomes the last key and the bucket's
/// items spread into lower buckets, the smallest into bucket 0. An item
/// moves at most 64 times, and nothing is compared but keys.
#[derive(Debug, Clone)]
struct RadixHeap {
    buckets: [Vec<(u64, u32)>; BUCKETS],
    /// Bit `b` is set iff bucket `b` holds an item, so a pop finds the
    /// lowest occupied bucket in one instruction and a reset clears only
    /// the buckets that were used.
    occupied: u128,
    last: u64,
}

impl Default for RadixHeap {
    fn default() -> Self {
        RadixHeap { buckets: std::array::from_fn(|_| Vec::new()), occupied: 0, last: 0 }
    }
}

impl RadixHeap {
    /// The bucket `key` belongs in while `last` is the last key popped.
    fn bucket(&self, key: u64) -> usize {
        (u64::BITS - (key ^ self.last).leading_zeros()) as usize
    }

    /// Queues `node` under `key`, which must not be below the last key
    /// popped.
    fn push(&mut self, key: u64, node: u32) {
        debug_assert!(key >= self.last, "a radix heap's keys never decrease");
        let b = self.bucket(key);
        self.buckets[b].push((key, node));
        self.occupied |= 1 << b;
    }

    /// An item of the smallest key, or `None` once the heap is empty.
    fn pop(&mut self) -> Option<(u64, u32)> {
        if self.occupied & 1 == 0 {
            if self.occupied == 0 {
                return None;
            }
            let from = self.occupied.trailing_zeros() as usize;
            let mut spill = std::mem::take(&mut self.buckets[from]);
            self.occupied &= !(1 << from);
            self.last = spill.iter().map(|&(key, _)| key).min()?;
            for &(key, node) in &spill {
                let b = self.bucket(key);
                self.buckets[b].push((key, node));
                self.occupied |= 1 << b;
            }
            // Hand the bucket its allocation back.
            spill.clear();
            self.buckets[from] = spill;
        }
        let top = self.buckets[0].pop();
        if self.buckets[0].is_empty() {
            self.occupied &= !1;
        }
        top
    }

    /// Empties the heap, clearing only the occupied buckets, and forgets
    /// the last key.
    fn clear(&mut self) {
        while self.occupied != 0 {
            self.buckets[self.occupied.trailing_zeros() as usize].clear();
            self.occupied &= self.occupied - 1;
        }
        self.last = 0;
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
    Search::new().hop_bounded(g, src, beta).iter().map(|&d| Dist::from_raw(d).value()).collect()
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
    use std::time::{Duration, Instant};

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

    /// A row in the column encoding as `Option`s: `None` = unreachable.
    fn options(row: &[u64]) -> Vec<Option<u64>> {
        row.iter().map(|&d| Dist::from_raw(d).value()).collect()
    }

    #[test]
    fn one_search_state_reused_across_sources_equals_fresh_results() {
        // One state across every call, partial (k-nearest), hop-bounded and
        // full searches interleaved, on two graphs of different sizes: a
        // label one search leaves behind must never leak into the next, so
        // the touched-list reset and the row resets are load-bearing.
        let large = generators::gnp_weighted(48, 0.12, 30, 11).unwrap();
        let small = generators::grid_weighted(4, 5, 20, 3).unwrap();
        let mut search = Search::new();
        for i in 0..48 {
            for g in [&large, &small] {
                let (n, v) = (g.n(), i % g.n());
                let full = dijkstra_with_hops(g, v);
                // The augmented order by sorting every label, which the
                // heap's settling order must equal.
                let mut sorted: Vec<(u64, u32, usize)> = full
                    .iter()
                    .enumerate()
                    .filter_map(|(u, label)| label.map(|(d, h)| (d, h, u)))
                    .collect();
                sorted.sort_unstable();
                for (k, beta) in [(1, 0), (3, 1), (7, 3), (n, n / 2), (n, n - 1)] {
                    let expect: Vec<(usize, u64, u32)> =
                        sorted.iter().take(k).map(|&(d, h, u)| (u, d, h)).collect();
                    assert_eq!(search.k_nearest(g, v, k), expect, "n={n} v={v} k={k}");
                    let hop_row = options(search.hop_bounded(g, v, beta));
                    assert_eq!(hop_row, hop_bounded(g, v, beta), "n={n} v={v} beta={beta}");
                    let mut by_id = expect;
                    by_id.sort_unstable();
                    let row: Vec<(usize, u64, u32)> = search
                        .k_nearest_row(g, v, k)
                        .iter()
                        .map(|(u, a)| (u as usize, a.dist, a.hops))
                        .collect();
                    assert_eq!(row, by_id, "n={n} v={v} k={k}");
                    assert_eq!(options(search.distances(g, v)), dijkstra(g, v), "n={n} v={v}");
                }
                assert_eq!(search.dijkstra_with_hops(g, v), full, "n={n} v={v}");
            }
        }
    }

    /// The distances of the augmented loop, which `dijkstra_with_hops`
    /// runs untouched: the reference the distance loop must equal.
    fn augmented_distances(g: &DiGraph, src: usize) -> Vec<Option<u64>> {
        dijkstra_with_hops(g, src).into_iter().map(|best| best.map(|(d, _)| d)).collect()
    }

    /// `dijkstra` (the distance loop) against the augmented loop from every
    /// source of `g`, through one reused state.
    fn assert_loops_agree(search: &mut Search, name: &str, g: &DiGraph) {
        for src in 0..g.n() {
            assert_eq!(search.dijkstra(g, src), augmented_distances(g, src), "{name} src={src}");
        }
    }

    #[test]
    fn the_distance_loop_equals_the_augmented_loop() {
        let mut search = Search::new();
        for seed in [1, 2, 3, 4] {
            for (name, g) in generators::standard_suite(40, seed).unwrap() {
                assert_loops_agree(&mut search, &name, &g);
            }
            // Weights near u64::MAX / 3: paths of three arcs or more overflow
            // or land on the sentinel, and are no path in both loops.
            let heavy = generators::gnp_weighted(40, 0.1, u64::MAX / 3, seed).unwrap();
            assert_loops_agree(&mut search, "heavy gnp_weighted", &heavy);
            // Dropping every node of degree ≥ 3 leaves small components and
            // isolated nodes: most pairs are unreachable.
            let split =
                generators::gnp_weighted(40, 0.05, 30, seed).unwrap().low_degree_subgraph(3);
            assert_loops_agree(&mut search, "disconnected gnp_weighted", &split);
            let directed = crate::gnp_directed(40, 0.08, 50, seed).unwrap();
            assert_loops_agree(&mut search, "gnp_directed", &directed);
        }
    }

    /// Pops every item of `heap`, checking that keys never decrease.
    fn drain(heap: &mut RadixHeap) -> Vec<(u64, u32)> {
        let mut out: Vec<(u64, u32)> = Vec::new();
        while let Some(item) = heap.pop() {
            if let Some(&(prev, _)) = out.last() {
                assert!(item.0 >= prev, "popped {} after {prev}", item.0);
            }
            out.push(item);
        }
        out
    }

    #[test]
    fn a_radix_heap_pops_equal_keys_all() {
        let mut heap = RadixHeap::default();
        for node in 0..5 {
            heap.push(7, node);
        }
        let mut out = drain(&mut heap);
        out.sort_unstable();
        assert_eq!(out, (0..5).map(|node| (7, node)).collect::<Vec<_>>());
        assert_eq!(heap.occupied, 0);
    }

    #[test]
    fn a_radix_heap_sorts_keys_across_the_whole_word() {
        let mut keys = vec![0, 1, 2, 3, 1 << 31, 1 << 32, (1 << 63) - 1, 1 << 63, u64::MAX - 1];
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            keys.push(x >> (x % 64));
        }
        keys.retain(|&k| k < u64::MAX - 1);
        keys.push(u64::MAX - 1);
        let mut heap = RadixHeap::default();
        for (node, &key) in keys.iter().enumerate() {
            heap.push(key, node as u32);
        }
        let popped: Vec<u64> = drain(&mut heap).into_iter().map(|(key, _)| key).collect();
        keys.sort_unstable();
        assert_eq!(popped, keys);
    }

    #[test]
    fn a_radix_heap_pops_in_order_while_keys_are_pushed_above_the_last_pop() {
        // Dijkstra's pattern: each pop pushes keys at or above it. The model
        // is a binary heap over the same items.
        let mut heap = RadixHeap::default();
        let mut model = BinaryHeap::new();
        let mut x = 12_345_u64;
        heap.push(0, 0);
        model.push(Reverse((0, 0)));
        let mut pops = 0;
        while let Some(item) = heap.pop() {
            let Reverse(expect) = model.pop().expect("the model holds as many items");
            assert_eq!(item.0, expect.0, "pop {pops}");
            pops += 1;
            for _ in 0..(if pops < 2_000 { 3 } else { 0 }) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let key = item.0.checked_add(x % 1_000).expect("keys stay small");
                heap.push(key, pops);
                model.push(Reverse((key, pops)));
            }
        }
        assert!(model.is_empty());
        assert_eq!(pops, 6_000 - 2);
    }

    #[test]
    fn a_cleared_radix_heap_keeps_nothing_and_takes_smaller_keys() {
        let mut heap = RadixHeap::default();
        for (node, key) in [(0, 5), (1, 900), (2, 1 << 40), (3, 6)] {
            heap.push(key, node);
        }
        assert_eq!(heap.pop(), Some((5, 0)));
        heap.clear();
        assert_eq!(heap.occupied, 0);
        assert!(heap.buckets.iter().all(Vec::is_empty), "a bucket kept an item");
        assert_eq!(heap.pop(), None);
        // The last key is forgotten: keys below the old one are accepted.
        for (node, key) in [(4, 3), (5, 1), (6, 2)] {
            heap.push(key, node);
        }
        assert_eq!(drain(&mut heap), vec![(1, 5), (2, 6), (3, 4)]);
    }

    /// Opt-in: the two loops from 200 sources each of two 10⁴-node
    /// families, with the time each loop took.
    #[test]
    #[ignore = "about 1 s in release, longer in debug; run with --ignored"]
    fn the_loops_agree_at_ten_thousand_nodes() {
        let families = [
            ("road_like(100, 100)", generators::road_like(100, 100, 30, 7).unwrap()),
            ("grid_weighted(100, 100)", generators::grid_weighted(100, 100, 1_000, 3).unwrap()),
        ];
        let mut search = Search::new();
        for (name, g) in &families {
            let sources: Vec<usize> = (0..g.n()).step_by(g.n() / 200).collect();
            let (mut fast, mut augmented) = (Duration::ZERO, Duration::ZERO);
            for &src in &sources {
                let started = Instant::now();
                let got = search.dijkstra(g, src);
                fast += started.elapsed();
                let started = Instant::now();
                let expect = augmented_distances(g, src);
                augmented += started.elapsed();
                assert_eq!(got, expect, "{name} src={src}");
            }
            println!(
                "{name}: {} sources, distance loop {fast:?}, augmented loop {augmented:?}",
                sources.len()
            );
        }
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
        // Below beta = n − 1 the semi-naive rounds run, and stop at their
        // fixpoint once beta passes the hop diameter; from n − 1 on it is
        // Dijkstra. A grid (n = 30), a directed graph and a disconnected
        // one, whose unreached nodes must stay ∞ at every beta.
        let graphs: [(&str, DiGraph); 3] = [
            ("grid_weighted", DiGraph::clone(&generators::grid_weighted(5, 6, 20, 2).unwrap())),
            ("gnp_directed", crate::gnp_directed(36, 0.06, 50, 4).unwrap()),
            (
                "disconnected",
                DiGraph::clone(
                    &generators::gnp_weighted(40, 0.05, 30, 2).unwrap().low_degree_subgraph(3),
                ),
            ),
        ];
        for (name, g) in &graphs {
            let n = g.n();
            for src in [0, 7, n - 1] {
                for beta in [0, 1, 2, 5, 12, n / 2, n - 2, n - 1, n, 64] {
                    assert_eq!(
                        hop_bounded(g, src, beta),
                        fixed_count_hop_bounded(g, src, beta),
                        "{name} src={src} beta={beta}"
                    );
                }
            }
        }
    }
}
