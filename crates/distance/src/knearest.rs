//! The `k`-nearest problem — **Theorem 18**.
//!
//! Every node `v` computes the set `N_k(v)` of the `k` nodes nearest to it
//! (itself included), with exact distances and minimal hop counts, ties
//! broken by the augmented order and then by node id.
//!
//! Algorithm: filter the augmented weight matrix to the `k` lightest entries
//! per row, then square with ρ-filtered multiplication `⌈log₂ k⌉` times —
//! `W̄, W̄², W̄⁴, …` Lemma 17's hop consistency guarantees the `k` smallest
//! entries of each filtered power are exact, and nodes in `N_k(v)` are at
//! most `k` hops away, so `2^{⌈log₂ k⌉} ≥ k` hops suffice — at most that
//! many squarings, fewer when a squaring changes no row
//! ([`crate::fixpoint`]).
//!
//! Each squaring is `X ⋆ X` on both operands of one
//! [`Operand::prepare_square`]: one transpose and one counts broadcast of
//! the columns give both operands both layouts and their counts.

use cc_clique::Clique;
use cc_graph::DiGraph;
use cc_matmul::{filtered_multiply_prepared, Operand};
use cc_matrix::{AugDist, AugMinPlus, SparseRow};

use crate::error::{check_size, invalid};
use crate::fixpoint::iterate_to_fixpoint;
use crate::DistanceError;

/// **Theorem 18**: the `k` nearest nodes of every node, with exact
/// `(distance, hops)` values, in `O((k/n^{2/3} + log n)·log k)` rounds.
///
/// Returns one sparse augmented row per node: the entries are `N_k(v)` (at
/// most `k`, fewer if fewer nodes are reachable from `v`), including `v`
/// itself at `(0, 0)`. Distances run along arcs, so on a [`DiGraph`] row
/// `v` lists the nodes nearest to `v` along *outgoing* paths; an undirected
/// [`cc_graph::Graph`] derefs to its symmetric arcs.
///
/// # Errors
///
/// * [`DistanceError::InvalidParameter`] if `k == 0` or the graph size does
///   not match the clique;
/// * [`DistanceError::Matmul`] if a multiplication subroutine fails.
///
/// # Example
///
/// ```
/// use cc_clique::Clique;
/// use cc_distance::k_nearest;
/// use cc_graph::{generators, DiGraph};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::path(8)?;
/// let near = k_nearest(&mut Clique::new(8), &g, 3)?;
/// // Node 0's 3 nearest on a path: itself, 1 and 2.
/// let ids: Vec<u32> = near[0].iter().map(|(c, _)| c).collect();
/// assert_eq!(ids, vec![0, 1, 2]);
///
/// // One-way path 0 -> 1 -> 2 -> 3: the sink only knows itself.
/// let g = DiGraph::from_arcs(4, (0..3).map(|v| (v, v + 1, 1)))?;
/// let near = k_nearest(&mut Clique::new(4), &g, 2)?;
/// assert_eq!(near[0].iter().map(|(c, _)| c).collect::<Vec<_>>(), vec![0, 1]);
/// assert_eq!(near[3].nnz(), 1);
/// # Ok(())
/// # }
/// ```
pub fn k_nearest(
    clique: &mut Clique,
    graph: &DiGraph,
    k: usize,
) -> Result<Vec<SparseRow<AugDist>>, DistanceError> {
    check_size(clique, graph.n())?;
    if k == 0 {
        return Err(invalid("k-nearest needs k >= 1"));
    }
    let k = k.min(clique.n());
    let w = graph.augmented_weight_matrix();
    clique.with_phase("knearest", |clique| {
        // Local input: node v knows its outgoing arcs, i.e. row v of W.
        let start = w.filtered(k).rows().to_vec();
        let squarings = (usize::BITS - (k - 1).leading_zeros()) as usize; // ceil(log2 k)
        iterate_to_fixpoint(clique, start, squarings, |clique, rows| {
            let (mut left, mut right) = Operand::prepare_square::<AugMinPlus>(clique, rows)?;
            Ok(filtered_multiply_prepared::<AugMinPlus>(clique, &mut left, &mut right, k)?)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{generators, reference, Graph};

    fn check_against_reference(g: &Graph, k: usize) {
        let mut clique = Clique::new(g.n());
        let got = k_nearest(&mut clique, g, k).unwrap();
        for v in 0..g.n() {
            let expected = reference::k_nearest(g, v, k);
            let got_v: Vec<(usize, u64, u32)> = {
                let mut items: Vec<(u64, u32, usize)> =
                    got[v].iter().map(|(c, a)| (a.dist, a.hops, c as usize)).collect();
                items.sort_unstable();
                items.into_iter().map(|(d, h, u)| (u, d, h)).collect()
            };
            assert_eq!(got_v, expected, "node {v} of {}-node graph, k={k}", g.n());
        }
    }

    #[test]
    fn path_graph_exact() {
        check_against_reference(&generators::path(12).unwrap(), 4);
    }

    #[test]
    fn star_graph_exact() {
        // High-degree centre: sparse input, dense square.
        check_against_reference(&generators::star(12).unwrap(), 5);
    }

    #[test]
    fn weighted_gnp_exact() {
        let g = generators::gnp_weighted(24, 0.15, 50, 3).unwrap();
        for k in [1, 2, 5, 24] {
            check_against_reference(&g, k);
        }
    }

    #[test]
    fn grid_exact() {
        check_against_reference(&generators::grid(5, 5).unwrap(), 6);
    }

    #[test]
    fn cliques_with_bridges_exact() {
        check_against_reference(&generators::cliques_with_bridges(3, 5, 7).unwrap(), 8);
    }

    #[test]
    fn k_larger_than_component() {
        // Disconnected graph: rows contain only the component.
        let g = Graph::from_edges(6, [(0, 1, 1), (2, 3, 1)]).unwrap();
        let mut clique = Clique::new(6);
        let got = k_nearest(&mut clique, &g, 5).unwrap();
        assert_eq!(got[0].nnz(), 2); // {0, 1}
        assert_eq!(got[4].nnz(), 1); // {4}
    }

    #[test]
    fn rejects_bad_parameters() {
        let g = generators::path(4).unwrap();
        let mut clique = Clique::new(4);
        assert!(matches!(
            k_nearest(&mut clique, &g, 0),
            Err(DistanceError::InvalidParameter { .. })
        ));
        let mut clique = Clique::new(8);
        assert!(matches!(
            k_nearest(&mut clique, &g, 2),
            Err(DistanceError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn round_cost_polylog_for_small_k() {
        let g = generators::gnp(64, 0.2, 9).unwrap();
        let mut clique = Clique::new(64);
        k_nearest(&mut clique, &g, 8).unwrap();
        // 3 filtered squarings, each O(log W): comfortably sub-1000 under
        // the unit cost model, vs Θ(n) for naive gossip.
        assert!(clique.rounds() < 700, "got {}", clique.rounds());
    }
}
