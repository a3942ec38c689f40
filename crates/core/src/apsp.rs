//! All-pairs shortest path approximations — §6 of the paper.
//!
//! Three deterministic algorithms, all polylogarithmic:
//!
//! * [`weighted_3eps`] — §6.1: `(3+ε)` for weighted graphs. Every node
//!   learns exact distances to its `√n` nearest, a hitting set `A` of the
//!   `N_k` balls becomes a landmark set, MSSP provides `(1+ε)` distances to
//!   `A`, and the estimate routes through the closest landmark `p(u)`.
//! * [`weighted_2eps`] — **Theorem 28**: `(2+ε, (1+ε)W)` for weighted
//!   graphs, where the additive term is the heaviest edge on a shortest
//!   path. Adds the distance-through-sets combination over the `N_k` balls,
//!   which catches shortest paths whose midpoint lies in both balls.
//! * [`unweighted_2eps`] — **Theorem 2/31**: `(2+ε)` for unweighted graphs.
//!   Splits into paths containing a high-degree node (covered by a
//!   hitting set of the big neighbourhoods + MSSP) and paths within the
//!   low-degree subgraph `G'` (covered by `n^{1/4}`-balls, a second
//!   sparser-graph MSSP from `Õ(n^{3/4})` sources — affordable precisely
//!   because `G'` is sparse — and a 3-hop matrix product for the
//!   ball–edge–ball case).

use cc_clique::{Clique, Envelope};
use cc_distance::{
    check_epsilon, check_size, distance_through_sets, hitting_set, k_nearest, DistanceError,
    HittingSet,
};
use cc_graph::Graph;
use cc_matrix::{AugDist, Dist, MinPlus, SparseRow};

use crate::mssp::mssp;
use crate::run::Stopwatch;
use crate::{ApspRun, MsspRun};

/// Dense estimate matrix: `est[u][v]`, `INF` = unknown.
struct Estimates {
    d: Vec<Vec<Dist>>,
}

impl Estimates {
    fn from_graph(graph: &Graph) -> Self {
        let n = graph.n();
        let mut d = vec![vec![Dist::INF; n]; n];
        for (v, row) in d.iter_mut().enumerate() {
            row[v] = Dist::ZERO;
        }
        for (u, v, w) in graph.edges() {
            d[u][v] = Dist::fin(w);
            d[v][u] = Dist::fin(w);
        }
        Estimates { d }
    }

    /// Symmetric min-update.
    fn improve(&mut self, u: usize, v: usize, cand: Dist) {
        if cand < self.d[u][v] {
            self.d[u][v] = cand;
            self.d[v][u] = cand;
        }
    }
}

/// Exact-ball phase shared by all APSP variants: `k`-nearest distances,
/// counterpart notification (each `v` tells `u ∈ N_k(v)` the exact
/// distance, one routing step), and the per-node ball sets.
fn ball_phase(
    clique: &mut Clique,
    graph: &Graph,
    k: usize,
    est: &mut Estimates,
) -> Result<Vec<SparseRow<AugDist>>, DistanceError> {
    let near = k_nearest(clique, graph, k)?;
    let mut msgs = Vec::new();
    for (v, row) in near.iter().enumerate() {
        for (u, a) in row.iter() {
            est.improve(v, u as usize, a.to_dist());
            if u as usize != v {
                msgs.push(Envelope::new(v, u as usize, a.dist));
            }
        }
    }
    clique.with_phase("ball_notify", |cl| cl.route(msgs))?;
    Ok(near)
}

/// The exact ball distances as per-node `(member, distance)` sets.
fn ball_sets(near: &[SparseRow<AugDist>]) -> Vec<Vec<(usize, Dist)>> {
    near.iter().map(|row| row.iter().map(|(c, a)| (c as usize, a.to_dist())).collect()).collect()
}

/// Through-sets phase: combine per-node sets of known distances into
/// `min_{w ∈ S(u) ∩ S(v)} d(u,w)+d(w,v)` estimates (Theorem 20).
fn through_sets(
    clique: &mut Clique,
    sets: &[Vec<(usize, Dist)>],
    est: &mut Estimates,
) -> Result<(), DistanceError> {
    for (v, row) in distance_through_sets(clique, sets)?.iter().enumerate() {
        for (u, d) in row.iter() {
            est.improve(v, u as usize, *d);
        }
    }
    Ok(())
}

/// Landmark phase: `(1+ε)` MSSP from the hitting set, broadcast of
/// `(p(v), d(v, p(v)))`, and the two-sided landmark combination
/// `δ(u,v) ← min(d(u,p(u)) + d̃(p(u),v), d(v,p(v)) + d̃(p(v),u))`.
///
/// Where every node is a landmark (Lemma 4's `k ≤ 2·ln n`), `p(v) = v` at
/// distance 0 for every `v`, and every node knows that from `|A| = n`
/// (Lemma 4's output is global), so nothing is broadcast.
fn landmark_phase(
    clique: &mut Clique,
    graph: &Graph,
    near: &[SparseRow<AugDist>],
    landmarks: &HittingSet,
    epsilon: f64,
    est: &mut Estimates,
) -> Result<(), DistanceError> {
    let n = graph.n();
    if landmarks.is_empty() {
        return Ok(());
    }
    let run = mssp(clique, graph, &landmarks.members, epsilon)?;
    let pinfo = if landmarks.len() == n {
        let own: Vec<(u64, u64)> = (0..n as u64).map(|v| (v, 0)).collect();
        debug_assert_eq!(own, closest_landmarks(near, landmarks));
        own
    } else {
        // 2 words per node, one all-broadcast.
        let pinfo = closest_landmarks(near, landmarks);
        clique.with_phase("landmark_bcast", |cl| cl.all_broadcast(pinfo))?
    };
    through_landmarks(&run, &pinfo, est);
    Ok(())
}

/// A node with no landmark in its row has `p(v) = NO_LANDMARK` (landmark ids
/// are `< n`, so the marker cannot collide).
const NO_LANDMARK: u64 = u64::MAX;

/// Each node's `(p(v), d(v, p(v)))` from its own `k`-nearest row.
fn closest_landmarks(near: &[SparseRow<AugDist>], landmarks: &HittingSet) -> Vec<(u64, u64)> {
    near.iter()
        .map(|row| match landmarks.closest_in_row(row) {
            Some((p, a)) => (p as u64, a.dist),
            None => (NO_LANDMARK, NO_LANDMARK),
        })
        .collect()
}

/// The MSSP distances to the landmarks, and every pair through `p(v)`.
fn through_landmarks(run: &MsspRun, pinfo: &[(u64, u64)], est: &mut Estimates) {
    let n = pinfo.len();
    for v in 0..n {
        for (i, &a) in run.sources.iter().enumerate() {
            est.improve(v, a, run.dist[v][i]);
        }
    }
    let src_index = |a: usize| run.sources.iter().position(|&s| s == a);
    for v in 0..n {
        let (p, dp) = pinfo[v];
        if p == NO_LANDMARK {
            continue;
        }
        let Some(pi) = src_index(p as usize) else { continue };
        for u in 0..n {
            let via = run.dist[u][pi].checked_add(Dist::fin(dp));
            est.improve(u, v, via);
        }
    }
}

fn validate(clique: &Clique, graph: &Graph, epsilon: f64) -> Result<(), DistanceError> {
    check_size(clique, graph.n())?;
    check_epsilon(epsilon)
}

/// §6.1: deterministic `(3+ε)`-approximate weighted APSP in
/// `O(log² n/ε)` rounds.
///
/// # Errors
///
/// [`DistanceError::InvalidParameter`] for bad `ε` or size mismatch;
/// [`DistanceError::Matmul`] if a subroutine fails.
pub fn weighted_3eps(
    clique: &mut Clique,
    graph: &Graph,
    epsilon: f64,
) -> Result<ApspRun, DistanceError> {
    weighted(clique, graph, epsilon, "apsp3", 0xA5, false)
}

/// **Theorem 28**: deterministic `(2+ε, (1+ε)W)`-approximate weighted APSP
/// in `O(log² n/ε)` rounds — for every pair, the estimate is at most
/// `(2+ε)·d(u,v) + (1+ε)·W` where `W` is the heaviest edge on a shortest
/// `u–v` path (always at least as good as a `(3+2ε)` approximation).
///
/// # Errors
///
/// Same as [`weighted_3eps`].
///
/// # Example
///
/// ```
/// use cc_clique::Clique;
/// use cc_core::apsp::weighted_2eps;
/// use cc_graph::{generators, reference};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::gnp_weighted(24, 0.2, 10, 1)?;
/// let mut clique = Clique::new(24);
/// let run = weighted_2eps(&mut clique, &g, 0.5)?;
/// let exact = reference::dijkstra(&g, 0)[9].unwrap();
/// let est = run.dist[0][9].value().unwrap();
/// assert!(est >= exact && est as f64 <= 3.0 * exact as f64 + 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn weighted_2eps(
    clique: &mut Clique,
    graph: &Graph,
    epsilon: f64,
) -> Result<ApspRun, DistanceError> {
    weighted(clique, graph, epsilon, "apsp2w", 0xB7, true)
}

/// Both weighted variants, under phase `label`: `√n`-balls, through-balls
/// if `through_balls` (Theorem 28), landmarks hitting the balls with `seed`.
fn weighted(
    clique: &mut Clique,
    graph: &Graph,
    epsilon: f64,
    label: &str,
    seed: u64,
    through_balls: bool,
) -> Result<ApspRun, DistanceError> {
    validate(clique, graph, epsilon)?;
    let watch = Stopwatch::start(clique);
    let k = (graph.n() as f64).sqrt().ceil() as usize;
    let mut est = Estimates::from_graph(graph);
    clique.with_phase(label, |clique| {
        let near = ball_phase(clique, graph, k, &mut est)?;
        if through_balls {
            through_sets(clique, &ball_sets(&near), &mut est)?;
        }
        let sets: Vec<Vec<usize>> =
            near.iter().map(|r| r.iter().map(|(c, _)| c as usize).collect()).collect();
        let landmarks = hitting_set(clique, &sets, k, seed)?;
        landmark_phase(clique, graph, &near, &landmarks, epsilon / 2.0, &mut est)
    })?;
    let (rounds, report) = watch.stop(clique);
    Ok(ApspRun { dist: est.d, rounds, report })
}

/// **Theorem 2/31**: deterministic `(2+ε)`-approximate APSP for unweighted
/// graphs in `O(log² n/ε)` rounds.
///
/// # Errors
///
/// As [`weighted_3eps`], plus [`DistanceError::InvalidParameter`] if the
/// graph is weighted.
pub fn unweighted_2eps(
    clique: &mut Clique,
    graph: &Graph,
    epsilon: f64,
) -> Result<ApspRun, DistanceError> {
    validate(clique, graph, epsilon)?;
    if !graph.is_unweighted() {
        return Err(DistanceError::InvalidParameter {
            what: "unweighted_2eps requires an unweighted graph".to_owned(),
        });
    }
    let watch = Stopwatch::start(clique);
    let n = graph.n();
    let k = (n as f64).sqrt().ceil() as usize;
    let eps_in = epsilon / 2.0;
    let mut est = Estimates::from_graph(graph);

    clique.with_phase("apsp2u", |clique| {
        // ---- Phase 1: shortest paths through a high-degree node. ----
        let high_landmarks = HittingSet::for_high_degree(clique, graph, k, 0xC1)?;
        if !high_landmarks.is_empty() {
            let run = mssp(clique, graph, &high_landmarks.members, eps_in)?;
            for v in 0..n {
                for (i, &a) in run.sources.iter().enumerate() {
                    est.improve(v, a, run.dist[v][i]);
                }
            }
            // Distance through A for every pair (Theorem 20 with ρ = |A|).
            let sets: Vec<Vec<(usize, Dist)>> = (0..n)
                .map(|v| {
                    run.sources
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| run.dist[v][*i].is_finite())
                        .map(|(i, &a)| (a, run.dist[v][i]))
                        .collect()
                })
                .collect();
            through_sets(clique, &sets, &mut est)?;
        }

        // ---- Phase 2: shortest paths entirely inside the low-degree
        // subgraph G'. ----
        let gp = graph.low_degree_subgraph(k);
        let kp = (n as f64).powf(0.25).ceil() as usize;
        let near = ball_phase(clique, &gp, kp, &mut est)?;
        through_sets(clique, &ball_sets(&near), &mut est)?;

        // Hitting set A' over the G' balls only (dropped nodes are covered
        // by phase 1 and contribute empty sets).
        let sets: Vec<Vec<usize>> = (0..n)
            .map(|v| {
                if gp.degree(v) > 0 {
                    near[v].iter().map(|(c, _)| c as usize).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let low_landmarks = hitting_set(clique, &sets, kp, 0xD3)?;
        landmark_phase(clique, &gp, &near, &low_landmarks, eps_in, &mut est)?;

        // ---- Phase 3: the ball–edge–ball product M1 · M2 · M3 (line 11):
        // δ'(u,v) = min { d(u,u') + 1 + d(v',v) : u' ∈ N_{k'}(u),
        //                 v' ∈ N_{k'}(v), {u',v'} ∈ E' }. ----
        let m1_rows: Vec<SparseRow<Dist>> = near
            .iter()
            .map(|row| {
                SparseRow::from_entries::<MinPlus>(
                    row.iter().map(|(c, a)| (c, a.to_dist())).collect(),
                )
            })
            .collect();
        let m2 = {
            // G' adjacency without the diagonal: strict edges only.
            let mut m = cc_matrix::SparseMatrix::zeros(n);
            for (u, v, w) in gp.edges() {
                m.set_in::<MinPlus>(u, v, Dist::fin(w));
                m.set_in::<MinPlus>(v, u, Dist::fin(w));
            }
            m
        };
        let x_hint = (kp * k).clamp(1, n);
        // Columns of M2 are its rows (symmetric adjacency).
        let x = cc_matmul::sparse_multiply::<MinPlus>(clique, &m1_rows, m2.rows(), x_hint)?;
        // M3 = M1ᵀ, so column u of M3 is row u of M1: no transpose needed.
        let y = cc_matmul::sparse_multiply::<MinPlus>(clique, &x, &m1_rows, n)?;
        for (u, row) in y.iter().enumerate() {
            for (v, d) in row.iter() {
                est.improve(u, v as usize, *d);
            }
        }
        Ok::<(), DistanceError>(())
    })?;

    let (rounds, report) = watch.stop(clique);
    Ok(ApspRun { dist: est.d, rounds, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stretch;
    use cc_graph::{generators, reference};

    fn check_weighted(g: &Graph, epsilon: f64, bound: f64) -> ApspRun {
        let mut clique = Clique::new(g.n());
        let run = weighted_2eps(&mut clique, g, epsilon).unwrap();
        let exact = reference::all_pairs(g);
        stretch::assert_sound(&run.dist, &exact);
        let worst = stretch::max_stretch(&run.dist, &exact);
        assert!(worst <= bound + 1e-9, "stretch {worst} > {bound} on {} nodes", g.n());
        run
    }

    #[test]
    fn weighted_2eps_on_gnp() {
        let g = generators::gnp_weighted(24, 0.15, 30, 2).unwrap();
        // Guarantee: (2+eps)d + (1+eps)W <= (3+2eps)d always.
        check_weighted(&g, 0.5, 4.0);
    }

    #[test]
    fn weighted_2eps_on_grid() {
        let g = generators::grid_weighted(5, 5, 10, 3).unwrap();
        check_weighted(&g, 0.5, 4.0);
    }

    #[test]
    fn weighted_2eps_additive_term_respects_heaviest_edge() {
        // Clique chain with heavy bridges: the additive (1+eps)W term.
        let g = generators::cliques_with_bridges(4, 6, 12).unwrap();
        let mut clique = Clique::new(g.n());
        let run = weighted_2eps(&mut clique, &g, 0.5).unwrap();
        let exact = reference::all_pairs(&g);
        let heaviest = g.max_weight();
        for u in 0..g.n() {
            for v in 0..g.n() {
                if let Some(d) = exact[u][v] {
                    let e = run.dist[u][v].value().expect("reachable");
                    assert!(e >= d);
                    let bound = 2.5 * d as f64 + 1.5 * heaviest as f64;
                    assert!((e as f64) <= bound + 1e-9, "pair ({u},{v}): {e} > {bound} (d={d})");
                }
            }
        }
    }

    #[test]
    fn weighted_3eps_on_gnp() {
        let g = generators::gnp_weighted(24, 0.2, 20, 5).unwrap();
        let mut clique = Clique::new(24);
        let run = weighted_3eps(&mut clique, &g, 0.5).unwrap();
        let exact = reference::all_pairs(&g);
        stretch::assert_sound(&run.dist, &exact);
        let worst = stretch::max_stretch(&run.dist, &exact);
        assert!(worst <= 3.5 + 1e-9, "stretch {worst}");
    }

    #[test]
    fn weighted_3eps_estimates_are_never_below_2eps_quality() {
        // Sanity: the 2eps algorithm is at least as accurate on average.
        let g = generators::gnp_weighted(24, 0.15, 25, 7).unwrap();
        let mut c3 = Clique::new(24);
        let r3 = weighted_3eps(&mut c3, &g, 0.5).unwrap();
        let mut c2 = Clique::new(24);
        let r2 = weighted_2eps(&mut c2, &g, 0.5).unwrap();
        let exact = reference::all_pairs(&g);
        let m3 = stretch::mean_stretch(&r3.dist, &exact);
        let m2 = stretch::mean_stretch(&r2.dist, &exact);
        assert!(m2 <= m3 + 1e-9, "2eps mean {m2} worse than 3eps mean {m3}");
    }

    #[test]
    fn unweighted_2eps_on_gnp() {
        let g = generators::gnp(24, 0.15, 11).unwrap();
        let mut clique = Clique::new(24);
        let run = unweighted_2eps(&mut clique, &g, 0.5).unwrap();
        let exact = reference::all_pairs(&g);
        stretch::assert_sound(&run.dist, &exact);
        let worst = stretch::max_stretch(&run.dist, &exact);
        assert!(worst <= 2.5 + 1e-9, "stretch {worst}");
    }

    #[test]
    fn unweighted_2eps_on_hub_graph() {
        // Barabási–Albert: hubs force the high-degree phase to matter.
        let g = generators::barabasi_albert(32, 2, 13).unwrap();
        let mut clique = Clique::new(32);
        let run = unweighted_2eps(&mut clique, &g, 0.5).unwrap();
        let exact = reference::all_pairs(&g);
        stretch::assert_sound(&run.dist, &exact);
        assert!(stretch::max_stretch(&run.dist, &exact) <= 2.5 + 1e-9);
    }

    #[test]
    fn unweighted_2eps_on_low_degree_graph() {
        // Grid: no node reaches degree sqrt(n); the G' phase does the work.
        let g = generators::grid(6, 5).unwrap();
        let mut clique = Clique::new(30);
        let run = unweighted_2eps(&mut clique, &g, 0.5).unwrap();
        let exact = reference::all_pairs(&g);
        stretch::assert_sound(&run.dist, &exact);
        assert!(stretch::max_stretch(&run.dist, &exact) <= 2.5 + 1e-9);
    }

    #[test]
    fn unweighted_rejects_weighted_input() {
        let g = generators::gnp_weighted(16, 0.2, 9, 1).unwrap();
        let mut clique = Clique::new(16);
        assert!(unweighted_2eps(&mut clique, &g, 0.5).is_err());
    }

    #[test]
    fn small_distances_are_exact() {
        // Distance-1 pairs are edges (line 1); distance-2 pairs through a
        // common ball/neighbour often come out exact. At minimum, edges.
        let g = generators::gnp(20, 0.2, 21).unwrap();
        let mut clique = Clique::new(20);
        let run = unweighted_2eps(&mut clique, &g, 0.5).unwrap();
        for (u, v, w) in g.edges() {
            assert_eq!(run.dist[u][v].value(), Some(w));
        }
        for v in 0..20 {
            assert_eq!(run.dist[v][v], Dist::ZERO);
        }
    }

    /// `weighted_3eps`'s phases with `(p(v), d(v, p(v)))` broadcast whatever
    /// `|A|` is.
    fn broadcasting_3eps(g: &Graph, epsilon: f64) -> Vec<Vec<Dist>> {
        let mut clique = Clique::new(g.n());
        let k = (g.n() as f64).sqrt().ceil() as usize;
        let mut est = Estimates::from_graph(g);
        let near = ball_phase(&mut clique, g, k, &mut est).unwrap();
        let sets: Vec<Vec<usize>> =
            near.iter().map(|r| r.iter().map(|(c, _)| c as usize).collect()).collect();
        let landmarks = hitting_set(&mut clique, &sets, k, 0xA5).unwrap();
        let run = mssp(&mut clique, g, &landmarks.members, epsilon / 2.0).unwrap();
        let pinfo = clique.all_broadcast(closest_landmarks(&near, &landmarks)).unwrap();
        through_landmarks(&run, &pinfo, &mut est);
        est.d
    }

    #[test]
    fn every_node_a_landmark_skips_the_landmark_broadcast() {
        // k = 6 ≤ 2 ln 32 = 6.9: A = V; k = 12 > 2 ln 128 = 9.7: A ≠ V.
        for (n, skips) in [(32usize, true), (128, false)] {
            let g = generators::gnp_weighted(n, 4.0 / n as f64, 20, 3).unwrap();
            let mut clique = Clique::new(n);
            let run = weighted_3eps(&mut clique, &g, 0.5).unwrap();
            let broadcast = run.report.phases.keys().any(|l| l.contains("landmark_bcast"));
            assert_eq!(broadcast, !skips, "n = {n}");
            assert_eq!(run.dist, broadcasting_3eps(&g, 0.5), "n = {n}");
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        let g = generators::path(8).unwrap();
        let mut clique = Clique::new(8);
        assert!(weighted_2eps(&mut clique, &g, 0.0).is_err());
        let mut clique = Clique::new(16);
        assert!(weighted_2eps(&mut clique, &g, 0.5).is_err());
    }
}
