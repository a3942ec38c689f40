//! Baselines the paper measures itself against conceptually:
//!
//! * [`exact_apsp_squaring`] — exact APSP by iterated distance-product
//!   squaring with the dense 3D algorithm: `Õ(n^{1/3})` rounds, the
//!   state-of-the-art semiring approach of \[13\] that Theorem 2 undercuts
//!   for approximate answers;
//! * [`spanner_apsp`] — the prior approximation route (§1.1): build a
//!   `(2k-1)`-spanner, have every node learn it entirely, and answer all
//!   queries locally — `Õ(n^{1/k})` rounds, still polynomial for every
//!   constant `k` (which is exactly the gap Theorem 2 closes);
//! * distributed Bellman-Ford lives in
//!   [`crate::sssp::bellman_ford`] (`O(SPD)` rounds).

use cc_clique::{Clique, Envelope};
use cc_distance::fixpoint::iterate_to_fixpoint;
use cc_distance::{check_size, DistanceError};
use cc_graph::reference::Search;
use cc_graph::Graph;
use cc_matrix::{Dist, MinPlus};

use crate::run::Stopwatch;
use crate::ApspRun;

/// Exact APSP by at most `⌈log₂ n⌉` dense distance-product squarings (the
/// loop ends once a squaring changes no row) —
/// `Õ(n^{1/3})` rounds (\[13\]). Polynomial but exact; the experiments
/// compare its round growth against the polylogarithmic `(2+ε)`
/// approximation (E9/E10).
///
/// # Errors
///
/// [`DistanceError::InvalidParameter`] on size mismatch;
/// [`DistanceError::Matmul`] if a multiplication fails.
///
/// # Example
///
/// ```
/// use cc_clique::Clique;
/// use cc_core::baselines::exact_apsp_squaring;
/// use cc_graph::{generators, reference};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::gnp_weighted(16, 0.2, 9, 4)?;
/// let mut clique = Clique::new(16);
/// let run = exact_apsp_squaring(&mut clique, &g)?;
/// let exact = reference::all_pairs(&g);
/// assert_eq!(run.dist[0][5].value(), exact[0][5]);
/// # Ok(())
/// # }
/// ```
pub fn exact_apsp_squaring(clique: &mut Clique, graph: &Graph) -> Result<ApspRun, DistanceError> {
    let n = clique.n();
    check_size(clique, graph.n())?;
    let watch = Stopwatch::start(clique);
    let dist = clique.with_phase("apsp_squaring", |clique| {
        let start = graph.weight_matrix().rows().to_vec();
        let squarings = (n.max(2) as f64).log2().ceil() as usize;
        let x = iterate_to_fixpoint(clique, start, squarings, |clique, rows| {
            // Undirected distance matrices are symmetric: columns = rows,
            // so the right operand needs no transpose exchange.
            Ok::<_, DistanceError>(cc_matmul::dense_multiply::<MinPlus>(clique, rows, rows)?)
        })?;
        let mut dist = vec![vec![Dist::INF; n]; n];
        for (row, held) in dist.iter_mut().zip(&x) {
            for (u, val) in held.iter() {
                row[u as usize] = *val;
            }
        }
        Ok::<_, DistanceError>(dist)
    })?;
    let (rounds, report) = watch.stop(clique);
    Ok(ApspRun { dist, rounds, report })
}

/// The classical greedy `(2k-1)`-spanner: process edges by increasing
/// weight, keep an edge iff the spanner so far cannot match it within
/// stretch `2k-1`. Guarantees stretch `≤ 2k-1` and `O(n^{1+1/k})` edges.
fn greedy_spanner(graph: &Graph, k: usize) -> Graph {
    let stretch = (2 * k - 1) as u64;
    let mut edges: Vec<(u64, usize, usize)> = graph.edges().map(|(u, v, w)| (w, u, v)).collect();
    edges.sort_unstable();
    let mut spanner = Graph::empty(graph.n());
    let mut search = Search::new();
    for (w, u, v) in edges {
        let within = Dist::from_raw(search.distances(&spanner, u)[v]).value();
        if within.is_none_or(|d| d > stretch.saturating_mul(w)) {
            spanner.add_edge(u, v, w).expect("edges of a valid graph remain valid");
        }
    }
    spanner
}

/// The spanner route to approximate APSP (§1.1): a `(2k-1)`-spanner is
/// built (substitution: the deterministic Congested Clique construction of
/// \[52\] is replaced by the classical greedy spanner with the same
/// stretch/size interface and charged `⌈log₂ n⌉²` rounds for the cited
/// polylog construction — the substitution [`cc_distance::hitting_set`]
/// makes for the same paper), its `O(n^{1+1/k})` edges are broadcast so
/// every node knows the whole spanner (`Õ(n^{1/k})` rounds — the dominant
/// term), and every node answers all queries locally.
///
/// # Errors
///
/// [`DistanceError::InvalidParameter`] for `k == 0` or size mismatch;
/// [`DistanceError::Clique`] on malformed communication.
///
/// # Example
///
/// ```
/// use cc_clique::Clique;
/// use cc_core::baselines::spanner_apsp;
/// use cc_graph::{generators, reference};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::gnp(32, 0.2, 3)?;
/// let mut clique = Clique::new(32);
/// let run = spanner_apsp(&mut clique, &g, 2)?; // (2k-1) = 3-approximation
/// let exact = reference::all_pairs(&g);
/// let d = exact[0][9].unwrap();
/// assert!(run.dist[0][9].value().unwrap() <= 3 * d);
/// # Ok(())
/// # }
/// ```
pub fn spanner_apsp(
    clique: &mut Clique,
    graph: &Graph,
    k: usize,
) -> Result<ApspRun, DistanceError> {
    let n = clique.n();
    check_size(clique, graph.n())?;
    if k == 0 {
        return Err(DistanceError::InvalidParameter {
            what: "spanner stretch parameter k must be at least 1".to_owned(),
        });
    }
    let watch = Stopwatch::start(clique);
    let dist = clique.with_phase("spanner_apsp", |clique| {
        // Construction: charge the cited deterministic construction's
        // polylog round cost; the edge set itself comes from the greedy
        // spanner (same stretch/size interface).
        let log_n = (n.max(2) as f64).log2().ceil() as u64;
        clique.charge("construct", log_n * log_n);
        let spanner = greedy_spanner(graph, k);

        // Dissemination: balance the edges across nodes (one routing step),
        // announce how many each node holds (one round: no node knows the
        // others' counts), then broadcast batch by batch until everyone
        // knows the spanner.
        let edges: Vec<(usize, usize, u64)> = spanner.edges().collect();
        let balance: Vec<Envelope<(u64, u64, u64)>> = edges
            .iter()
            .enumerate()
            .map(|(i, &(u, v, w))| Envelope::new(u, i % n, (u as u64, v as u64, w)))
            .collect();
        let held = clique.route(balance)?;
        let lengths = clique.all_broadcast(held.iter().map(|h| h.len() as u64).collect())?;
        let batches = lengths.into_iter().max().unwrap_or(0) as usize;
        for b in 0..batches {
            let payload: Vec<(u64, u64, u64)> = (0..n)
                .map(|v| held[v].get(b).map_or((u64::MAX, u64::MAX, u64::MAX), |e| e.payload))
                .collect();
            clique.all_broadcast(payload)?;
        }

        // Local queries: every node solves APSP on the spanner it now knows.
        let exact = cc_graph::reference::all_pairs(&spanner);
        let mut dist = vec![vec![Dist::INF; n]; n];
        for u in 0..n {
            for v in 0..n {
                if let Some(d) = exact[u][v] {
                    dist[u][v] = Dist::fin(d);
                }
            }
        }
        Ok::<_, DistanceError>(dist)
    })?;
    let (rounds, report) = watch.stop(clique);
    Ok(ApspRun { dist, rounds, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{generators, reference};

    fn check_exact(g: &Graph) -> u64 {
        let mut clique = Clique::new(g.n());
        let run = exact_apsp_squaring(&mut clique, g).unwrap();
        let exact = reference::all_pairs(g);
        for u in 0..g.n() {
            for v in 0..g.n() {
                assert_eq!(run.dist[u][v].value(), exact[u][v], "pair ({u},{v})");
            }
        }
        run.rounds
    }

    #[test]
    fn exact_on_weighted_gnp() {
        let g = generators::gnp_weighted(24, 0.2, 15, 8).unwrap();
        check_exact(&g);
    }

    #[test]
    fn exact_on_path() {
        // Path needs the full log n squarings to converge.
        let g = generators::path(17).unwrap();
        check_exact(&g);
    }

    #[test]
    fn exact_on_disconnected() {
        let g = Graph::from_edges(12, [(0, 1, 5), (2, 3, 1), (3, 4, 1)]).unwrap();
        check_exact(&g);
    }

    #[test]
    fn rounds_grow_polynomially_with_n() {
        let r16 = check_exact(&generators::gnp(16, 0.4, 1).unwrap());
        let r48 = check_exact(&generators::gnp(48, 0.4, 1).unwrap());
        assert!(r48 > r16, "dense squaring rounds must grow with n: {r16} vs {r48}");
    }

    #[test]
    fn spanner_apsp_meets_stretch_bound() {
        for k in [1usize, 2, 3] {
            let g = generators::gnp_weighted(32, 0.2, 20, 9).unwrap();
            let mut clique = Clique::new(32);
            let run = spanner_apsp(&mut clique, &g, k).unwrap();
            let exact = reference::all_pairs(&g);
            crate::stretch::assert_sound(&run.dist, &exact);
            let worst = crate::stretch::max_stretch(&run.dist, &exact);
            assert!(
                worst <= (2 * k - 1) as f64 + 1e-9,
                "k={k}: stretch {worst} exceeds {}",
                2 * k - 1
            );
        }
    }

    #[test]
    fn spanner_with_k1_is_exact_and_expensive() {
        // k=1: stretch 1 forces the spanner to keep essentially all edges.
        let g = generators::gnp(24, 0.3, 10).unwrap();
        let mut clique = Clique::new(24);
        let run = spanner_apsp(&mut clique, &g, 1).unwrap();
        let exact = reference::all_pairs(&g);
        for u in 0..24 {
            for v in 0..24 {
                assert_eq!(run.dist[u][v].value(), exact[u][v]);
            }
        }
    }

    #[test]
    fn spanner_sparsification_cuts_dissemination_rounds() {
        // Dense graph: a k=3 spanner has far fewer edges than the graph, so
        // learning it is far cheaper than learning the graph (k=1 spanner).
        let g = generators::gnp(48, 0.5, 11).unwrap();
        let mut c1 = Clique::new(48);
        let r1 = spanner_apsp(&mut c1, &g, 1).unwrap();
        let mut c3 = Clique::new(48);
        let r3 = spanner_apsp(&mut c3, &g, 3).unwrap();
        assert!(
            r3.rounds < r1.rounds,
            "5-spanner ({}) should be cheaper to learn than the full graph ({})",
            r3.rounds,
            r1.rounds
        );
    }

    #[test]
    fn spanner_broadcast_loop_is_bounded_by_the_announced_lengths() {
        // The loop bound is the max of the lengths every node broadcast
        // first, so `all_broadcast` runs once for them plus once per batch.
        let g = generators::gnp_weighted(32, 0.3, 20, 5).unwrap();
        let mut clique = Clique::new(32);
        let run = spanner_apsp(&mut clique, &g, 2).unwrap();
        let edges = greedy_spanner(&g, 2).m();
        let batches = edges.div_ceil(32) as u64;
        assert!(batches > 1, "fixture must need several batches: {edges} edges");
        let phase = &run.report.phases["spanner_apsp/all_broadcast"];
        assert_eq!(phase.invocations, batches + 1);
    }

    #[test]
    fn spanner_rejects_bad_parameters() {
        let g = generators::path(8).unwrap();
        let mut clique = Clique::new(8);
        assert!(spanner_apsp(&mut clique, &g, 0).is_err());
        let mut clique = Clique::new(16);
        assert!(spanner_apsp(&mut clique, &g, 2).is_err());
    }
}
