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
    check_epsilon, check_size, hitting_set, k_nearest, source_detection_all, DistanceError,
    HittingSet,
};
use cc_graph::Graph;
use cc_matrix::{AugDist, SparseRow};

/// Seed of the Lemma 4 hitting set `A1` that every hopset construction
/// draws: [`build_hopset`] and `cc-oracle`'s direct builder read it, so the
/// two pick the same set.
pub const HITTING_SET_SEED: u64 = 0x5eed;

/// Tuning knobs for the hopset construction.
///
/// The defaults follow the paper's parameters (`β = Θ(log n/ε)`,
/// `exploration = 4β` hops, `log n` levels). The overrides exist for the
/// ablation experiments: theory constants are astronomically conservative
/// at benchmarkable `n`, and the experiments quantify how far `β` and the
/// exploration radius can be cut while the measured stretch stays within
/// `1 + ε` (experiment E7 in the output of
/// `cargo run -p cc-bench --bin experiments`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopsetConfig {
    /// Target stretch `ε` (`0 < ε`); the hopset guarantees `(1+ε)`.
    pub epsilon: f64,
    /// Override for the hop bound `β` (default `⌈3·log₂ n / ε⌉`, capped at
    /// `n`).
    pub beta: Option<usize>,
    /// Override for the per-level exploration radius (default
    /// `min(4β, n)` hops).
    pub exploration_hops: Option<usize>,
    /// Override for the number of levels (default `⌈log₂ n⌉`).
    pub levels: Option<usize>,
}

impl HopsetConfig {
    /// Paper-faithful defaults for a given `ε`.
    pub fn new(epsilon: f64) -> Self {
        HopsetConfig { epsilon, beta: None, exploration_hops: None, levels: None }
    }

    /// Resolves the config against a concrete graph size: the ball size of
    /// step 1, the hop bound `β`, the per-level exploration radius, and the
    /// level count, with every default/override/collapse rule applied.
    ///
    /// This is the **single source of truth** for the schedule — both the
    /// clique construction ([`build_hopset`]) and `cc-oracle`'s direct
    /// builder resolve their parameters here, so the two paths cannot
    /// drift.
    pub fn schedule(&self, n: usize) -> HopsetSchedule {
        let log_n = (n.max(2) as f64).log2();
        let k = (((n as f64).sqrt() * log_n).ceil() as usize).clamp(1, n);
        let beta = self
            .beta
            .unwrap_or(((3.0 * log_n / self.epsilon).ceil() as usize).max(2))
            .min(n)
            .max(2.min(n));
        let mut exploration = self.exploration_hops.unwrap_or((4 * beta).min(n)).clamp(1, n);
        // The iterative schedule costs at most (log n)·4β hop-steps (levels
        // and hop loops both end early at a fixpoint). Whenever that budget
        // reaches n, a *single* level with exploration n is both
        // cheaper and stronger (it learns the exact A1-to-A1 distances); the
        // theory schedule only pays off once n ≫ 4β·log n — the asymptotic
        // regime.
        let theory_levels = (log_n.ceil() as usize).max(1);
        let default_levels = if theory_levels.saturating_mul(exploration) >= n {
            if self.exploration_hops.is_none() {
                exploration = n;
            }
            1
        } else {
            theory_levels
        };
        let levels = self.levels.unwrap_or(default_levels).max(1);
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

/// A constructed `(β, ε)`-hopset, together with the artefacts the
/// shortest-path algorithms reuse.
#[derive(Debug, Clone)]
pub struct Hopset {
    /// The hopset edges `(u, v, w)`.
    pub edges: Vec<(usize, usize, u64)>,
    /// The hop bound `β` for which the `(1+ε)` guarantee is claimed.
    pub beta: usize,
    /// The stretch parameter `ε`.
    pub epsilon: f64,
    /// The hitting set `A₁` (reused by MSSP/APSP as a landmark set).
    pub a1: HittingSet,
    /// Number of bunch edges (`H⁰`) among [`Hopset::edges`].
    pub bunch_edges: usize,
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

/// Step 2's bunch of node `v`, `B(v) = {u ∈ N_k(v) : d(v,u) < d(v, A₁)} ∪
/// {p(v)}`, as `(u, d(v, u))` edges leaving `v` (itself excluded). `ball`
/// is `N_k(v)` as [`cc_distance::k_nearest`] returns it and `p(v)` is its
/// closest `A₁` member. Empty when `v ∈ A₁`, and when the ball holds no
/// `A₁` member (an isolated node).
///
/// The one bunch rule: [`build_hopset`] adds these edges, and so does
/// `cc-oracle`'s direct builder when it re-runs the construction.
pub fn bunch<'a>(
    a1: &'a HittingSet,
    v: usize,
    ball: &'a SparseRow<AugDist>,
) -> impl Iterator<Item = (usize, u64)> + 'a {
    let hub = if a1.contains(v) { None } else { a1.closest_in_row(ball) };
    hub.into_iter().flat_map(move |(p, pd)| {
        ball.iter()
            .filter(move |&(u, a)| (*a < pd || u as usize == p) && u as usize != v)
            .map(|(u, a)| (u as usize, a.dist))
    })
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
        let sets: Vec<Vec<usize>> =
            near.iter().map(|row| row.iter().map(|(c, _)| c as usize).collect()).collect();
        let a1 = hitting_set(clique, &sets, k, HITTING_SET_SEED)?;

        // Step 2: bunches B(v) with exact weights (already known locally
        // from the k-nearest output) — the edge set H0.
        let mut union = graph.clone();
        let mut edges: Vec<(usize, usize, u64)> = Vec::new();
        let add_edge = |union: &mut Graph, edges: &mut Vec<_>, u: usize, v: usize, w: u64| {
            if u != v {
                let better = union.weight(u, v).is_none_or(|old| w < old);
                if better {
                    union.add_edge(u, v, w).expect("valid nodes");
                    edges.push((u, v, w));
                }
            }
        };
        for v in 0..n {
            for (u, w) in bunch(&a1, v, &near[v]) {
                add_edge(&mut union, &mut edges, v, u, w);
            }
        }
        let bunch_edges = edges.len();

        // Step 3: iterative levels — A1-to-A1 edges from bounded
        // explorations in G ∪ H^{l-1}. A level that adds no edge leaves the
        // union as it found it, so every later level would repeat it: the
        // iterate is each node's count of edges added so far.
        let mut level = 0;
        iterate_to_fixpoint(clique, vec![0usize; n], levels, |clique, added| {
            let rows = clique.with_phase(&format!("level{level}"), |clique| {
                source_detection_all(clique, &union, &a1.members, exploration)
            })?;
            level += 1;
            let mut added = added.to_vec();
            for &v in &a1.members {
                let before = edges.len();
                for (u, a) in rows[v].iter() {
                    let u = u as usize;
                    if a1.contains(u) && u != v {
                        add_edge(&mut union, &mut edges, v, u, a.dist);
                    }
                }
                added[v] += edges.len() - before;
            }
            Ok::<_, DistanceError>(added)
        })?;

        Ok(Hopset { edges, beta, epsilon: config.epsilon, a1, bunch_edges })
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
        assert!(h.bunch_edges <= h.edges.len());
    }

    #[test]
    fn disconnected_graphs_are_handled() {
        let g = Graph::from_edges(16, (0..7).map(|v| (v, v + 1, 2))).unwrap();
        let mut clique = Clique::new(16);
        let h = build_hopset(&mut clique, &g, HopsetConfig::new(0.5)).unwrap();
        assert!(h.measure_stretch(&g).is_finite());
    }

    #[test]
    fn beta_override_trades_stretch_for_rounds() {
        let g = generators::path(32).unwrap();
        let mut c_small = Clique::new(32);
        let mut cfg = HopsetConfig::new(0.5);
        cfg.beta = Some(4);
        cfg.exploration_hops = Some(8);
        cfg.levels = Some(1);
        let h_small = build_hopset(&mut c_small, &g, cfg).unwrap();
        let mut c_big = Clique::new(32);
        let h_big = build_hopset(&mut c_big, &g, HopsetConfig::new(0.5)).unwrap();
        assert!(c_small.rounds() < c_big.rounds());
        // The small config claims beta=4; its stretch may be worse but must
        // still be finite if exploration found the shortcuts.
        let _ = h_small.measure_stretch(&g);
        assert!(h_big.measure_stretch(&g) <= 1.5 + 1e-9);
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
        assert!(big.exploration < 100_000);
        // Overrides pass through untouched (modulo clamping).
        let mut cfg = HopsetConfig::new(0.5);
        cfg.beta = Some(4);
        cfg.exploration_hops = Some(8);
        cfg.levels = Some(3);
        let s = cfg.schedule(64);
        assert_eq!((s.beta, s.exploration, s.levels), (4, 8, 3));
    }
}
