//! Exact single-source shortest paths — **Theorem 33** — plus the
//! distributed Bellman-Ford it accelerates.
//!
//! The `Õ(n^{1/6})`-round algorithm (§7.1): compute the `k = n^{5/6}`
//! nearest nodes of every node (Theorem 18, `Õ(k/n^{2/3}) = Õ(n^{1/6})`
//! rounds), add the **k-shortcut edges** `{(v,u,d(v,u)) : u ∈ N_k(v)}`, and
//! run Bellman-Ford on the shortcut graph. By Lemma 32 (\[48\], Theorem 3.10)
//! the shortcut graph's shortest-path diameter is below `4n/k = 4n^{1/6}`,
//! so Bellman-Ford converges in `O(n^{1/6})` rounds — improving the
//! previous `Õ(n^{1/3})` bound.

use cc_clique::Clique;
use cc_distance::{check_size, k_nearest, DistanceError};
use cc_graph::Graph;
use cc_matrix::Dist;

use crate::run::Stopwatch;
use crate::SsspRun;

fn validate(clique: &Clique, graph: &Graph, source: usize) -> Result<(), DistanceError> {
    check_size(clique, graph.n())?;
    if source >= graph.n() {
        return Err(DistanceError::InvalidParameter {
            what: format!("source {source} outside 0..{}", graph.n()),
        });
    }
    Ok(())
}

/// Distributed Bellman-Ford: exact SSSP in `O(SPD)` rounds (one broadcast
/// round per iteration, where `SPD` is the shortest-path diameter). The
/// baseline Theorem 33 improves on for high-`SPD` graphs.
///
/// `max_iterations` caps the loop (`None` = the trivial bound `n`).
///
/// # Errors
///
/// [`DistanceError::InvalidParameter`] for a bad source or size mismatch;
/// [`DistanceError::Clique`] on malformed communication.
pub fn bellman_ford(
    clique: &mut Clique,
    graph: &Graph,
    source: usize,
    max_iterations: Option<usize>,
) -> Result<SsspRun, DistanceError> {
    validate(clique, graph, source)?;
    let watch = Stopwatch::start(clique);
    let dist = clique.with_phase("bellman_ford", |clique| {
        bf_loop(clique, graph, source, max_iterations.unwrap_or(graph.n()))
    })?;
    let (rounds, report) = watch.stop(clique);
    Ok(SsspRun { source, dist, rounds, report })
}

/// The Bellman-Ford loop on an explicit graph: every iteration, all nodes
/// broadcast their tentative distance (one word, one round) and relax over
/// their incident edges. Stops after `max_iterations`, or at convergence as
/// the nodes can see it: the snapshot just broadcast equals the previous
/// one, so relaxing over it again changes nothing.
fn bf_loop(
    clique: &mut Clique,
    graph: &Graph,
    source: usize,
    max_iterations: usize,
) -> Result<Vec<Dist>, DistanceError> {
    let n = graph.n();
    let mut dist = vec![Dist::INF; n];
    dist[source] = Dist::ZERO;
    let mut previous: Option<Vec<u64>> = None;
    for _ in 0..max_iterations {
        let snapshot: Vec<u64> = dist.iter().map(|d| d.raw()).collect();
        let snapshot = clique.all_broadcast(snapshot)?;
        if previous.as_ref() == Some(&snapshot) {
            break;
        }
        for v in 0..n {
            for &(u, w) in graph.neighbors(v) {
                // The snapshot carries raw dist words; decode via from_raw
                // so the ∞ encoding lives in one place.
                if Dist::from_raw(snapshot[u]).is_finite() {
                    let cand = Dist::fin(snapshot[u]).checked_add(Dist::fin(w));
                    if cand < dist[v] {
                        dist[v] = cand;
                    }
                }
            }
        }
        previous = Some(snapshot);
    }
    Ok(dist)
}

/// **Theorem 33**: exact weighted SSSP in `Õ(n^{1/6})` rounds via the
/// `n^{5/6}`-shortcut graph.
///
/// # Errors
///
/// Same as [`bellman_ford`], plus [`DistanceError::Matmul`] from the
/// `k`-nearest subroutine.
///
/// # Example
///
/// ```
/// use cc_clique::Clique;
/// use cc_core::sssp::exact_sssp;
/// use cc_graph::{generators, reference};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::gnp_weighted(32, 0.1, 25, 1)?;
/// let mut clique = Clique::new(32);
/// let run = exact_sssp(&mut clique, &g, 0)?;
/// let exact = reference::dijkstra(&g, 0);
/// for v in 0..32 {
///     assert_eq!(run.dist[v].value(), exact[v]);
/// }
/// # Ok(())
/// # }
/// ```
pub fn exact_sssp(
    clique: &mut Clique,
    graph: &Graph,
    source: usize,
) -> Result<SsspRun, DistanceError> {
    let n = graph.n().max(1);
    let k = ((n as f64).powf(5.0 / 6.0).ceil() as usize).clamp(1, n);
    exact_sssp_with_k(clique, graph, source, k)
}

/// [`exact_sssp`] with an explicit shortcut parameter `k` (the ball size).
///
/// The paper balances the `Õ(k/n^{2/3})`-round ball computation against the
/// `O(n/k)`-round Bellman-Ford tail and lands on `k = n^{5/6}`; this entry
/// point exists for the ablation experiment that sweeps the exponent.
///
/// # Errors
///
/// Same as [`exact_sssp`].
pub fn exact_sssp_with_k(
    clique: &mut Clique,
    graph: &Graph,
    source: usize,
    k: usize,
) -> Result<SsspRun, DistanceError> {
    validate(clique, graph, source)?;
    let watch = Stopwatch::start(clique);
    let n = graph.n();
    let k = k.clamp(1, n);
    let dist = clique.with_phase("exact_sssp", |clique| {
        // k-shortcut graph: exact ball edges contract every shortest path
        // to at most 4n/k shortcut hops (Lemma 32).
        let near = k_nearest(clique, graph, k)?;
        let mut shortcut = graph.clone();
        for (v, row) in near.iter().enumerate() {
            for (u, a) in row.iter() {
                if u as usize != v {
                    shortcut
                        .add_edge(v, u as usize, a.dist)
                        .expect("k-nearest output references valid nodes");
                }
            }
        }
        let spd_bound = (4 * n).div_ceil(k) + 1;
        bf_loop(clique, &shortcut, source, spd_bound.min(n))
    })?;
    let (rounds, report) = watch.stop(clique);
    Ok(SsspRun { source, dist, rounds, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{generators, reference};

    fn check_exact(g: &Graph, source: usize) -> (u64, u64) {
        let exact = reference::dijkstra(g, source);
        let mut c1 = Clique::new(g.n());
        let bf = bellman_ford(&mut c1, g, source, None).unwrap();
        let mut c2 = Clique::new(g.n());
        let fast = exact_sssp(&mut c2, g, source).unwrap();
        for v in 0..g.n() {
            assert_eq!(bf.dist[v].value(), exact[v], "bellman-ford node {v}");
            assert_eq!(fast.dist[v].value(), exact[v], "exact sssp node {v}");
        }
        (bf.rounds, fast.rounds)
    }

    #[test]
    fn exact_on_weighted_gnp() {
        let g = generators::gnp_weighted(32, 0.15, 40, 6).unwrap();
        check_exact(&g, 0);
    }

    #[test]
    fn exact_on_weighted_grid() {
        let g = generators::grid_weighted(6, 6, 25, 7).unwrap();
        check_exact(&g, 35);
    }

    #[test]
    fn exact_on_path_grows_sublinearly_unlike_bellman_ford() {
        // Path: SPD = n-1, so plain BF needs ~n rounds. The shortcut
        // algorithm pays a large polylog constant (k-nearest's squarings,
        // with a log W search each where 2k < n) but grows like n^{1/6}: its
        // round *growth* between two sizes must be a small fraction of BF's.
        // (The absolute crossover happens at larger n and is measured in
        // the E11 experiment.)
        let g_small = generators::path(48).unwrap();
        let g_large = generators::path(96).unwrap();
        let (bf_small, fast_small) = check_exact(&g_small, 0);
        let (bf_large, fast_large) = check_exact(&g_large, 0);
        let bf_growth = bf_large - bf_small;
        let fast_growth = fast_large.saturating_sub(fast_small);
        assert!(bf_growth >= 40, "BF growth should track n, got {bf_growth}");
        assert!(
            fast_growth < 4 * bf_growth,
            "shortcut SSSP growth {fast_growth} should be far below linear (BF grew {bf_growth})"
        );
    }

    #[test]
    fn exact_on_heavy_bridge_chain() {
        let g = generators::cliques_with_bridges(5, 6, 13).unwrap();
        check_exact(&g, 0);
    }

    #[test]
    fn handles_disconnected_graphs() {
        let g = Graph::from_edges(12, (0..5).map(|v| (v, v + 1, 3))).unwrap();
        let mut clique = Clique::new(12);
        let run = exact_sssp(&mut clique, &g, 2).unwrap();
        assert_eq!(run.dist[5].value(), Some(9));
        assert_eq!(run.dist[11], Dist::INF);
    }

    #[test]
    fn bf_iteration_cap_limits_rounds() {
        let g = generators::path(32).unwrap();
        let mut clique = Clique::new(32);
        let run = bellman_ford(&mut clique, &g, 0, Some(5)).unwrap();
        assert!(run.rounds <= 5);
        // Partial results: nodes beyond 5 hops still unreached.
        assert_eq!(run.dist[3].value(), Some(3));
        assert_eq!(run.dist[20], Dist::INF);
    }

    #[test]
    fn rejects_bad_parameters() {
        let g = generators::path(8).unwrap();
        let mut clique = Clique::new(8);
        assert!(exact_sssp(&mut clique, &g, 99).is_err());
        let mut clique = Clique::new(4);
        assert!(bellman_ford(&mut clique, &g, 0, None).is_err());
    }
}
