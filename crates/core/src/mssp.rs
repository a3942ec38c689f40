//! Multi-source shortest paths — **Theorem 3**.
//!
//! `(1+ε)`-approximate distances from every node to a source set `S`, in
//! `O((|S|^{2/3}/n^{1/3} + log n) · log n/ε)` rounds: build a `(β, ε)`
//! hopset (Theorem 25), then run hop-`β` source detection (Theorem 19) on
//! `G ∪ H`. Polylogarithmic whenever `|S| = Õ(√n)` — the first
//! sub-polynomial algorithm for polynomially many sources.

use cc_clique::Clique;
use cc_distance::{source_detection_all, DistanceError};
use cc_graph::Graph;
use cc_hopset::{build_hopset, Hopset, HopsetConfig};
use cc_matrix::Dist;

use crate::run::Stopwatch;
use crate::MsspRun;

/// **Theorem 3**: `(1+ε)`-approximate distances from all nodes to `sources`.
///
/// # Errors
///
/// * [`DistanceError::InvalidParameter`] for empty/out-of-range sources,
///   a non-finite or non-positive `ε`, or graph/clique size mismatch;
/// * [`DistanceError::Matmul`] if a subroutine fails.
///
/// # Example
///
/// ```
/// use cc_clique::Clique;
/// use cc_core::mssp::mssp;
/// use cc_graph::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::gnp_weighted(32, 0.15, 10, 1)?;
/// let mut clique = Clique::new(32);
/// let run = mssp(&mut clique, &g, &[0, 5, 9], 0.25)?;
/// let exact = cc_graph::reference::dijkstra(&g, 0)[7].unwrap();
/// let approx = run.distance(7, 0).unwrap().value().unwrap();
/// assert!(approx as f64 <= 1.25 * exact as f64 && approx >= exact);
/// # Ok(())
/// # }
/// ```
pub fn mssp(
    clique: &mut Clique,
    graph: &Graph,
    sources: &[usize],
    epsilon: f64,
) -> Result<MsspRun, DistanceError> {
    let watch = Stopwatch::start(clique);
    let hopset =
        clique.with_phase("mssp", |cl| build_hopset(cl, graph, HopsetConfig::new(epsilon)))?;
    mssp_finish(clique, graph, sources, &hopset, watch)
}

/// MSSP on a pre-built hopset: the source-detection half of Theorem 3.
/// Useful when one hopset serves several queries (the APSP algorithms do
/// this implicitly via their own structure).
///
/// # Errors
///
/// Same as [`mssp`].
pub fn mssp_with_hopset(
    clique: &mut Clique,
    graph: &Graph,
    sources: &[usize],
    hopset: &Hopset,
) -> Result<MsspRun, DistanceError> {
    let watch = Stopwatch::start(clique);
    mssp_finish(clique, graph, sources, hopset, watch)
}

fn mssp_finish(
    clique: &mut Clique,
    graph: &Graph,
    sources: &[usize],
    hopset: &Hopset,
    watch: Stopwatch,
) -> Result<MsspRun, DistanceError> {
    let union = hopset.union_with(graph);
    let rows =
        clique.with_phase("mssp", |cl| source_detection_all(cl, &union, sources, hopset.beta))?;
    let dist: Vec<Vec<Dist>> = rows
        .iter()
        .map(|row| {
            sources.iter().map(|&s| row.get(s as u32).map_or(Dist::INF, |a| a.to_dist())).collect()
        })
        .collect();
    let (rounds, report) = watch.stop(clique);
    Ok(MsspRun::new(sources.to_vec(), dist, rounds, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{generators, reference};

    fn check_stretch(g: &Graph, sources: &[usize], epsilon: f64) -> u64 {
        let mut clique = Clique::new(g.n());
        let run = mssp(&mut clique, g, sources, epsilon).unwrap();
        for (i, &s) in sources.iter().enumerate() {
            let exact = reference::dijkstra(g, s);
            for v in 0..g.n() {
                match (exact[v], run.dist[v][i].value()) {
                    (Some(d), Some(est)) => {
                        assert!(est >= d, "underestimate {est} < {d} for ({v},{s})");
                        assert!(
                            est as f64 <= (1.0 + epsilon) * d as f64 + 1e-9,
                            "stretch violated: {est} > (1+{epsilon})*{d} for ({v},{s})"
                        );
                    }
                    (None, None) => {}
                    (d, est) => panic!("reachability mismatch for ({v},{s}): {d:?} vs {est:?}"),
                }
            }
        }
        run.rounds
    }

    #[test]
    fn single_source_on_weighted_gnp() {
        let g = generators::gnp_weighted(32, 0.12, 40, 2).unwrap();
        check_stretch(&g, &[0], 0.5);
    }

    #[test]
    fn many_sources_on_weighted_gnp() {
        let g = generators::gnp_weighted(32, 0.12, 40, 3).unwrap();
        let sources: Vec<usize> = (0..8).collect();
        check_stretch(&g, &sources, 0.25);
    }

    #[test]
    fn high_diameter_weighted_grid() {
        let g = generators::grid_weighted(6, 5, 30, 4).unwrap();
        check_stretch(&g, &[0, 29], 0.5);
    }

    #[test]
    fn path_needs_real_hopset_shortcuts() {
        let g = generators::path(48).unwrap();
        check_stretch(&g, &[0], 0.5);
    }

    #[test]
    fn disconnected_sources_report_infinity() {
        let g = Graph::from_edges(8, [(0, 1, 1), (2, 3, 1)]).unwrap();
        let mut clique = Clique::new(8);
        let run = mssp(&mut clique, &g, &[0], 0.5).unwrap();
        assert_eq!(run.dist[1][0].value(), Some(1));
        assert_eq!(run.dist[2][0], Dist::INF);
    }

    #[test]
    fn reusing_a_hopset_is_cheaper() {
        let g = generators::gnp_weighted(32, 0.15, 20, 5).unwrap();
        let mut clique = Clique::new(32);
        let hopset = cc_hopset::build_hopset(&mut clique, &g, HopsetConfig::new(0.5)).unwrap();
        let build_rounds = clique.rounds();
        let run = mssp_with_hopset(&mut clique, &g, &[1, 2], &hopset).unwrap();
        assert!(run.rounds < build_rounds, "query should be cheaper than build");
    }

    #[test]
    fn rejects_bad_parameters() {
        let g = generators::path(8).unwrap();
        let mut clique = Clique::new(8);
        assert!(mssp(&mut clique, &g, &[], 0.5).is_err());
        assert!(mssp(&mut clique, &g, &[9], 0.5).is_err());
        assert!(mssp(&mut clique, &g, &[0], 0.0).is_err());
    }
}
