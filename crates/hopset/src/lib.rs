//! # `cc-hopset`: deterministic hopsets in the Congested Clique — Theorem 25
//!
//! A **(β, ε)-hopset** `H` of a weighted graph `G` is an edge set such that
//! `β`-hop distances in `G ∪ H` approximate true distances within `1 + ε`:
//!
//! ```text
//! d_G(u,v) ≤ d^β_{G∪H}(u,v) ≤ (1+ε)·d_G(u,v)
//! ```
//!
//! Hopsets turn the hop-bounded source detection of
//! [`cc_distance::source_detection_all`] into a *global* distance tool: run
//! it for `d = β` hops on `G ∪ H` and get `(1+ε)`-approximate distances.
//!
//! This crate implements the paper's variant (§4) of the Elkin–Neiman
//! construction \[24\] (itself based on the Thorup–Zwick emulators):
//!
//! 1. every node computes its `k = Θ(√(n log n))` nearest nodes
//!    (**Theorem 18**) and a hitting set `A₁` of the `N_k(v)` with
//!    `|A₁| = O(√n)` (**Lemma 4**);
//! 2. every `v ∉ A₁` adds its **bunch** `B(v) = {u ∈ N_k(v) :
//!    d(v,u) < d(v, A₁)} ∪ {p(v)}` with exact weights — the edge set `H⁰`,
//!    `O(n^{3/2} log n)` edges in total (Claim 21);
//! 3. for `ℓ = 1..log n`, nodes of `A₁` learn their `4β`-hop distances to
//!    `A₁` in `G ∪ H^{ℓ-1}` (**Theorem 19**) and add the corresponding
//!    `A₁ × A₁` edges, yielding a `(β, ε·ℓ, 2^ℓ)`-hopset `H^ℓ` (Lemma 24).
//!
//! Unlike prior constructions whose round complexity grows with the hopset
//! *size*, everything here runs in `O(log² n / ε)` rounds (Claim 22): the
//! paper's headline structural insight.
//!
//! The recipe is written down once. [`HopsetConfig`] holds only `ε`, and
//! its [`schedule`](HopsetConfig::schedule) is a closed form of `(n, ε)`.
//! [`Growth`] is steps 2 and 3's rule for growing `G ∪ H`: [`build_hopset`]
//! feeds it the clique's distances, and `cc-oracle`'s direct builder feeds
//! it those of sequential searches, so the two grow the same union arc for
//! arc.
//!
//! Unsafe code is forbidden (`#![forbid(unsafe_code)]`), as across the
//! whole workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Distributed algorithms index many parallel per-node vectors by NodeId;
// iterator zips would obscure which node each access belongs to.
#![allow(clippy::needless_range_loop)]

use cc_clique::Clique;
use cc_distance::fixpoint::iterate_to_fixpoint;
use cc_distance::{
    check_epsilon, check_size, hitting_set_of, k_nearest, source_detection_all, DistanceError,
    HittingSet,
};
use cc_graph::Graph;
use cc_matrix::{AugDist, Dist, SparseRow};

/// Seed of the Lemma 4 hitting set `A1` that every hopset construction
/// draws: [`build_hopset`] and `cc-oracle`'s direct builder read it, so the
/// two pick the same set.
pub const HITTING_SET_SEED: u64 = 0x5eed;

/// The hopset's one parameter: the target stretch `ε`. Everything else —
/// ball size, hop bound, exploration radius and level count — follows from
/// `ε` and `n` ([`HopsetConfig::schedule`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopsetConfig {
    /// Target stretch `ε` (`0 < ε`); the hopset guarantees `(1+ε)`.
    pub epsilon: f64,
}

impl HopsetConfig {
    /// The configuration for a given `ε`.
    pub fn new(epsilon: f64) -> Self {
        HopsetConfig { epsilon }
    }

    /// Resolves the schedule for a graph of `n ≥ 1` nodes: the ball size
    /// `k = ⌈√n·log₂ n⌉` of step 1, the hop bound `β = ⌈3·log₂ n / ε⌉`
    /// (at least 2, at most `n`), and `⌈log₂ n⌉` levels of `4β`-hop
    /// explorations.
    ///
    /// The iterative schedule costs at most `levels·4β` hop-steps (levels
    /// and hop loops both end early at a fixpoint). Where that budget
    /// reaches `n`, a *single* level with exploration `n` is both cheaper
    /// and stronger (it learns the exact `A₁`-to-`A₁` distances), so the
    /// schedule collapses to it; the theory schedule runs only once
    /// `n > 4β·⌈log₂ n⌉`.
    ///
    /// This is the **single source of truth** for the schedule — both the
    /// clique construction ([`build_hopset`]) and `cc-oracle`'s direct
    /// builder resolve their parameters here, so the two paths cannot
    /// drift.
    pub fn schedule(&self, n: usize) -> HopsetSchedule {
        let log_n = (n.max(2) as f64).log2();
        let k = (((n as f64).sqrt() * log_n).ceil() as usize).clamp(1, n);
        let beta = ((3.0 * log_n / self.epsilon).ceil() as usize).max(2).min(n);
        let levels = (log_n.ceil() as usize).max(1);
        let (exploration, levels) =
            if levels.saturating_mul(4 * beta) >= n { (n, 1) } else { (4 * beta, levels) };
        HopsetSchedule { k, beta, exploration, levels }
    }
}

/// A [`HopsetConfig`] resolved against a concrete `n`: the actual
/// parameters a construction will run with (see [`HopsetConfig::schedule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopsetSchedule {
    /// Ball size for step 1's `k`-nearest computation.
    pub k: usize,
    /// The hop bound `β` for which the `(1+ε)` guarantee is claimed.
    pub beta: usize,
    /// Per-level exploration radius, in hops.
    pub exploration: usize,
    /// Number of iterative levels.
    pub levels: usize,
}

/// A constructed `(β, ε)`-hopset.
#[derive(Debug, Clone)]
pub struct Hopset {
    /// The hopset edges `(u, v, w)`, in the order they landed.
    pub edges: Vec<(usize, usize, u64)>,
    /// The hop bound `β` for which the `(1+ε)` guarantee is claimed.
    pub beta: usize,
}

impl Hopset {
    /// `G ∪ H`: the input graph with the hopset edges added (lighter weight
    /// wins on duplicates).
    ///
    /// # Panics
    ///
    /// Panics if the hopset references nodes outside the graph (impossible
    /// for a hopset built on the same graph).
    pub fn union_with(&self, graph: &Graph) -> Graph {
        graph
            .union_edges(self.edges.iter().copied())
            .expect("hopset edges are valid for the graph they were built on")
    }

    /// Sequentially measures the worst-case stretch
    /// `max_{u,v} d^β_{G∪H}(u,v) / d_G(u,v)` over connected pairs — the
    /// quantity Theorem 25 bounds by `1 + ε`. Used by tests and E7.
    pub fn measure_stretch(&self, graph: &Graph) -> f64 {
        let union = self.union_with(graph);
        let mut worst: f64 = 1.0;
        for v in 0..graph.n() {
            let exact = cc_graph::reference::dijkstra(graph, v);
            let hop = cc_graph::reference::hop_bounded(&union, v, self.beta);
            for u in 0..graph.n() {
                if let (Some(d), Some(h)) = (exact[u], hop[u]) {
                    if d > 0 {
                        worst = worst.max(h as f64 / d as f64);
                    }
                } else if exact[u].is_some() && u != v {
                    // Reachable in G but not within β hops in G ∪ H:
                    // infinite stretch.
                    return f64::INFINITY;
                }
            }
        }
        worst
    }
}

/// `G ∪ H` as Theorem 25 grows it: the bunches of step 2, then one batch
/// of `A₁ × A₁` edges per level of step 3. An edge lands only where it is
/// lighter than what the union already holds — the one rule both
/// constructions apply: [`build_hopset`] on the clique, and `cc-oracle`'s
/// direct builder on sequential searches. Each supplies only the distances
/// its own substrate computes.
#[derive(Debug, Clone)]
pub struct Growth {
    /// `G` with every edge of `edges` landed on it.
    union: Graph,
    /// The edges that landed, in order: the hopset `H`.
    edges: Vec<(usize, usize, u64)>,
}

impl Growth {
    /// Starts from `G` with no hopset edge.
    pub fn new(graph: &Graph) -> Self {
        Growth { union: graph.clone(), edges: Vec::new() }
    }

    /// `G ∪ H` so far.
    pub fn union(&self) -> &Graph {
        &self.union
    }

    /// `G ∪ H` and the edges of `H`, in the order they landed.
    pub fn into_parts(self) -> (Graph, Vec<(usize, usize, u64)>) {
        (self.union, self.edges)
    }

    /// Lands `{u, v}` with weight `w` if it is lighter than the union's
    /// edge (or there is none); returns whether it landed.
    fn land(&mut self, u: usize, v: usize, w: u64) -> bool {
        let lighter = u != v && w < self.union.weight(u, v).unwrap_or(Dist::INF.raw());
        if lighter {
            self.union.add_edge(u, v, w).expect("hopset edges join nodes of the graph");
            self.edges.push((u, v, w));
        }
        lighter
    }

    /// Step 2: every `v ∉ A₁` adds its bunch `B(v) = {u ∈ N_k(v) : d(v,u)
    /// < d(v, A₁)} ∪ {p(v)}` with exact weights, where `near[v]` is `N_k(v)`
    /// as [`cc_distance::k_nearest`] returns it and `p(v)` its closest `A₁`
    /// member. A ball that holds no `A₁` member (an isolated node) adds
    /// nothing.
    pub fn add_bunches(&mut self, a1: &HittingSet, near: &[SparseRow<AugDist>]) {
        for (v, ball) in near.iter().enumerate() {
            let hub = if a1.contains(v) { None } else { a1.closest_in_row(ball) };
            let Some((p, pd)) = hub else { continue };
            for (u, a) in ball.iter() {
                if *a < pd || u as usize == p {
                    self.land(v, u as usize, a.dist);
                }
            }
        }
    }

    /// One level of step 3: `rows` yields, for each member `v` of `A₁` in
    /// order, the pairs `(u, d(v, u))` that level's exploration found, and
    /// every `A₁ × A₁` pair among them lands by the one rule. Returns how
    /// many edges landed at each node; a level where none did leaves the
    /// union as it found it, so every later level would repeat it.
    pub fn add_level<R: IntoIterator<Item = (usize, u64)>>(
        &mut self,
        a1: &HittingSet,
        rows: impl IntoIterator<Item = R>,
    ) -> Vec<usize> {
        let mut landed = vec![0; self.union.n()];
        for (&v, row) in a1.members.iter().zip(rows) {
            for (u, w) in row {
                if a1.contains(u) && self.land(v, u, w) {
                    landed[v] += 1;
                }
            }
        }
        landed
    }
}

/// **Theorem 25**: builds a `(β, ε)`-hopset with `O(n^{3/2} log n)` edges
/// and `β = O(log n / ε)` in `O(log² n / ε)` rounds.
///
/// # Errors
///
/// * [`DistanceError::InvalidParameter`] for a non-finite or non-positive
///   `ε` or if graph/clique sizes mismatch;
/// * [`DistanceError::Matmul`] if a multiplication subroutine fails.
///
/// # Example
///
/// ```
/// use cc_clique::Clique;
/// use cc_graph::generators;
/// use cc_hopset::{build_hopset, HopsetConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::gnp_weighted(32, 0.1, 20, 1)?;
/// let mut clique = Clique::new(32);
/// let hopset = build_hopset(&mut clique, &g, HopsetConfig::new(0.5))?;
/// assert!(hopset.measure_stretch(&g) <= 1.5);
/// # Ok(())
/// # }
/// ```
pub fn build_hopset(
    clique: &mut Clique,
    graph: &Graph,
    config: HopsetConfig,
) -> Result<Hopset, DistanceError> {
    let n = clique.n();
    check_size(clique, graph.n())?;
    check_epsilon(config.epsilon)?;
    let HopsetSchedule { k, beta, exploration, levels } = config.schedule(n);

    clique.with_phase("hopset", |clique| {
        // Step 1: k-nearest + hitting set A1.
        let near = k_nearest(clique, graph, k)?;
        let ids = |v: usize| near[v].iter().map(|(c, _)| c as usize);
        let a1 = hitting_set_of(clique, ids, k, HITTING_SET_SEED)?;

        // Step 2: bunches B(v), known locally from the k-nearest output.
        let mut growth = Growth::new(graph);
        growth.add_bunches(&a1, &near);

        // Step 3: iterative levels — A1-to-A1 edges from bounded
        // explorations in G ∪ H^{l-1}. The iterate is each node's count of
        // edges landed so far, so the loop stops after the first level that
        // lands none.
        let mut level = 0;
        iterate_to_fixpoint(clique, vec![0usize; n], levels, |clique, held| {
            let rows = clique.with_phase(&format!("level{level}"), |clique| {
                source_detection_all(clique, growth.union(), &a1.members, exploration)
            })?;
            level += 1;
            let rows =
                a1.members.iter().map(|&v| rows[v].iter().map(|(u, a)| (u as usize, a.dist)));
            let landed = growth.add_level(&a1, rows);
            Ok::<_, DistanceError>(held.iter().zip(landed).map(|(h, l)| h + l).collect())
        })?;

        Ok(Hopset { edges: growth.into_parts().1, beta })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators;

    fn check_graph(g: &Graph, epsilon: f64) -> Hopset {
        let mut clique = Clique::new(g.n());
        let h = build_hopset(&mut clique, g, HopsetConfig::new(epsilon)).unwrap();
        let stretch = h.measure_stretch(g);
        assert!(
            stretch <= 1.0 + epsilon + 1e-9,
            "stretch {stretch} exceeds 1+{epsilon} on {} nodes",
            g.n()
        );
        h
    }

    #[test]
    fn path_graph_hopset_shortcuts_long_paths() {
        let g = generators::path(32).unwrap();
        let h = check_graph(&g, 0.5);
        // A path has diameter 31 >> beta, so real shortcuts are required.
        assert!(!h.edges.is_empty());
    }

    #[test]
    fn weighted_gnp_hopset_meets_stretch() {
        let g = generators::gnp_weighted(32, 0.1, 50, 3).unwrap();
        check_graph(&g, 0.5);
    }

    #[test]
    fn weighted_grid_hopset_meets_stretch() {
        let g = generators::grid_weighted(6, 5, 20, 4).unwrap();
        check_graph(&g, 0.3);
    }

    #[test]
    fn cliques_with_bridges_hopset_meets_stretch() {
        let g = generators::cliques_with_bridges(6, 5, 9).unwrap();
        check_graph(&g, 0.5);
    }

    #[test]
    fn hopset_size_within_claim21_bound() {
        let g = generators::gnp_weighted(64, 0.08, 30, 5).unwrap();
        let mut clique = Clique::new(64);
        let h = build_hopset(&mut clique, &g, HopsetConfig::new(0.5)).unwrap();
        // Claim 21: O(n^{3/2} log n) edges; check with a generous constant.
        let n = 64f64;
        let bound = (4.0 * n.powf(1.5) * n.log2()) as usize;
        assert!(h.edges.len() <= bound, "{} edges > bound {bound}", h.edges.len());
    }

    #[test]
    fn disconnected_graphs_are_handled() {
        let g = Graph::from_edges(16, (0..7).map(|v| (v, v + 1, 2))).unwrap();
        let mut clique = Clique::new(16);
        let h = build_hopset(&mut clique, &g, HopsetConfig::new(0.5)).unwrap();
        assert!(h.measure_stretch(&g).is_finite());
    }

    #[test]
    fn rejects_bad_parameters() {
        let g = generators::path(8).unwrap();
        let mut clique = Clique::new(8);
        assert!(build_hopset(&mut clique, &g, HopsetConfig::new(0.0)).is_err());
        let mut clique = Clique::new(16);
        assert!(build_hopset(&mut clique, &g, HopsetConfig::new(0.5)).is_err());
    }

    #[test]
    fn schedule_collapses_to_one_exact_level_at_small_n() {
        // At every benchmarkable n the level budget covers the graph, so
        // the schedule collapses to a single exploration-n level...
        let s = HopsetConfig::new(0.25).schedule(512);
        assert_eq!((s.levels, s.exploration, s.beta), (1, 512, 108));
        // ...while the asymptotic regime keeps the theory schedule.
        let big = HopsetConfig::new(0.25).schedule(100_000);
        assert!(big.levels > 1, "large n should use the iterative schedule");
        assert_eq!(big.exploration, 4 * big.beta);
    }

    #[test]
    fn schedule_is_the_closed_form_on_both_sides_of_the_collapse() {
        // `[k, β, exploration, levels]` per n, as the schedule resolved
        // when it still took override knobs (all unset).
        let ns = [1, 2, 3, 64, 512, 10_000, 100_000, 1_000_000];
        let pinned: [(f64, [[usize; 4]; 8]); 4] = [
            (
                0.25,
                [
                    [1, 1, 1, 1],
                    [2, 2, 2, 1],
                    [3, 3, 3, 1],
                    [48, 64, 64, 1],
                    [204, 108, 512, 1],
                    [1329, 160, 640, 14],
                    [5253, 200, 800, 17],
                    [19932, 240, 960, 20],
                ],
            ),
            (
                0.5,
                [
                    [1, 1, 1, 1],
                    [2, 2, 2, 1],
                    [3, 3, 3, 1],
                    [48, 36, 64, 1],
                    [204, 54, 512, 1],
                    [1329, 80, 320, 14],
                    [5253, 100, 400, 17],
                    [19932, 120, 480, 20],
                ],
            ),
            (
                1.0,
                [
                    [1, 1, 1, 1],
                    [2, 2, 2, 1],
                    [3, 3, 3, 1],
                    [48, 18, 64, 1],
                    [204, 27, 512, 1],
                    [1329, 40, 160, 14],
                    [5253, 50, 200, 17],
                    [19932, 60, 240, 20],
                ],
            ),
            (
                4.0,
                [
                    [1, 1, 1, 1],
                    [2, 2, 2, 1],
                    [3, 2, 3, 1],
                    [48, 5, 64, 1],
                    [204, 7, 28, 9],
                    [1329, 10, 40, 14],
                    [5253, 13, 52, 17],
                    [19932, 15, 60, 20],
                ],
            ),
        ];
        let (mut collapsed, mut iterative) = (0, 0);
        for (epsilon, rows) in pinned {
            for (n, [k, beta, exploration, levels]) in ns.into_iter().zip(rows) {
                let s = HopsetConfig::new(epsilon).schedule(n);
                let want = HopsetSchedule { k, beta, exploration, levels };
                assert_eq!(s, want, "n = {n}, ε = {epsilon}");
                // The collapse rule: one exploration-n level exactly where
                // the theory budget ⌈log₂ n⌉·4β reaches n.
                let theory_levels = ((n.max(2) as f64).log2().ceil() as usize).max(1);
                if theory_levels * 4 * beta >= n {
                    assert_eq!((exploration, levels), (n, 1), "n = {n}, ε = {epsilon}");
                    collapsed += 1;
                } else {
                    assert_eq!((exploration, levels), (4 * beta, theory_levels));
                    iterative += 1;
                }
            }
        }
        assert!(collapsed > 0 && iterative > 0, "{collapsed} collapsed, {iterative} iterative");
    }

    #[test]
    fn the_growth_rule_lands_only_lighter_edges() {
        let g = Graph::from_edges(4, [(0, 1, 5), (1, 2, 3)]).unwrap();
        let a1 = HittingSet { members: vec![0, 1, 2], in_set: vec![true, true, true, false] };
        let mut growth = Growth::new(&g);
        // Row of 0: a heavier 0–1, a new 0–2 and a 0–3 to a non-member;
        // row of 1: a lighter 1–0 and itself; row of 2: the 2–0 just added.
        let rows = vec![vec![(1, 6), (2, 8), (3, 1)], vec![(0, 4), (1, 0)], vec![(0, 8)]];
        assert_eq!(growth.add_level(&a1, rows), vec![1, 1, 0, 0]);
        assert_eq!(growth.edges, vec![(0, 2, 8), (1, 0, 4)]);
        assert_eq!((growth.union.weight(0, 1), growth.union.weight(0, 3)), (Some(4), None));
        // The same level again lands nothing.
        let rows = vec![vec![(1, 4), (2, 8)], vec![(0, 4)], vec![(0, 8)]];
        assert_eq!(growth.add_level(&a1, rows), vec![0; 4]);
    }
}
