use std::ops::Deref;

use crate::{DiGraph, GraphError};

/// An undirected graph with non-negative integer edge weights — the input
/// class of the paper (§1.5: weights are non-negative integers in `poly(n)`).
///
/// Stored as the symmetric [`DiGraph`] holding each edge `{u, v}` as the
/// arcs `u → v` and `v → u` of one weight, to which a `Graph` derefs for
/// `n`, `weight`, `neighbors`, `arcs` and both weight matrices — so it is
/// accepted wherever a `&DiGraph` is: the §3 distance tools and every
/// [`crate::reference`] function. It adds only what is undirected: edge
/// insertion, the edge count, degrees and edges with `u < v`. Parallel
/// edges collapse to the lightest weight, self-loops are rejected.
/// Unweighted graphs are the special case of all weights `1`.
///
/// # Example
///
/// ```
/// use cc_graph::Graph;
///
/// # fn main() -> Result<(), cc_graph::GraphError> {
/// let g = Graph::from_edges(4, [(0, 1, 3), (1, 2, 1), (2, 3, 2)])?;
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 3);
/// assert_eq!(g.arcs().count(), 6); // two arcs per edge
/// assert_eq!(g.weight(1, 2), Some(1));
/// assert_eq!(g.degree(1), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    digraph: DiGraph,
    m: usize,
}

impl Deref for Graph {
    type Target = DiGraph;

    fn deref(&self) -> &DiGraph {
        &self.digraph
    }
}

impl Graph {
    /// An edgeless graph on `n` nodes.
    pub fn empty(n: usize) -> Self {
        Graph { digraph: DiGraph::empty(n), m: 0 }
    }

    /// Builds a graph from weighted edges `(u, v, w)`.
    ///
    /// Parallel edges keep the smallest weight.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`] for
    /// malformed edges, and [`GraphError::InfiniteWeight`] for a weight of
    /// `u64::MAX`.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (usize, usize, u64)>,
    ) -> Result<Self, GraphError> {
        let mut g = Graph::empty(n);
        for (u, v, w) in edges {
            g.add_edge(u, v, w)?;
        }
        Ok(g)
    }

    /// Builds an unweighted graph (all weights `1`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Graph::from_edges`].
    pub fn from_unweighted_edges(
        n: usize,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<Self, GraphError> {
        Self::from_edges(n, edges.into_iter().map(|(u, v)| (u, v, 1)))
    }

    /// Inserts edge `{u, v}` with weight `w` as its two arcs (keeping the
    /// lighter weight if the edge exists).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Graph::from_edges`].
    pub fn add_edge(&mut self, u: usize, v: usize, w: u64) -> Result<(), GraphError> {
        if self.digraph.add_arc(u, v, w)? {
            self.m += 1;
        }
        self.digraph.add_arc(v, u, w)?;
        Ok(())
    }

    /// Number of edges (half the number of arcs).
    pub fn m(&self) -> usize {
        self.m
    }

    /// The heaviest edge the graph holds (0 for an edgeless graph): a
    /// parallel edge that lost to a lighter one does not count. One pass
    /// over the arcs.
    pub fn max_weight(&self) -> u64 {
        self.arcs().map(|(_, _, w)| w).max().unwrap_or(0)
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn degree(&self, v: usize) -> usize {
        self.neighbors(v).len()
    }

    /// Whether edge `{u, v}` is present.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.weight(u, v).is_some()
    }

    /// Iterates over each undirected edge once, as `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        self.arcs().filter(|&(u, v, _)| u < v)
    }

    /// Whether every weight is `1` (the paper's unweighted case).
    pub fn is_unweighted(&self) -> bool {
        self.edges().all(|(_, _, w)| w == 1)
    }

    /// The subgraph induced by dropping every node of degree `>= threshold`
    /// (used by the unweighted APSP algorithm, §6.3). Node ids are preserved;
    /// removed nodes become isolated.
    pub fn low_degree_subgraph(&self, threshold: usize) -> Graph {
        let keep: Vec<bool> = (0..self.n()).map(|v| self.degree(v) < threshold).collect();
        let mut g = Graph::empty(self.n());
        for (u, v, w) in self.edges() {
            if keep[u] && keep[v] {
                g.add_edge(u, v, w).expect("edges of a valid graph remain valid");
            }
        }
        g
    }

    /// Merges another edge set into this graph (e.g. `G ∪ H` for a hopset
    /// `H`), keeping the lighter weight on common edges.
    ///
    /// # Errors
    ///
    /// Returns an error if `edges` contains malformed pairs.
    pub fn union_edges(
        &self,
        edges: impl IntoIterator<Item = (usize, usize, u64)>,
    ) -> Result<Graph, GraphError> {
        let mut g = self.clone();
        for (u, v, w) in edges {
            g.add_edge(u, v, w)?;
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_matrix::{AugDist, Dist};

    #[test]
    fn build_and_query() {
        let g = Graph::from_edges(4, [(0, 1, 3), (1, 2, 1), (0, 1, 2)]).unwrap();
        assert_eq!(g.m(), 2);
        assert_eq!(g.weight(0, 1), Some(2)); // parallel edge keeps min
        assert_eq!(g.weight(1, 0), Some(2));
        assert_eq!(g.weight(0, 3), None);
        assert_eq!(g.max_weight(), 2); // the weight-3 duplicate is not held
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.neighbors(1), &[(0, 2), (2, 1)]);
    }

    #[test]
    fn max_weight_is_the_heaviest_edge_held() {
        let mut g = Graph::from_edges(3, [(0, 1, 5)]).unwrap();
        g.add_edge(0, 1, 9).unwrap();
        assert_eq!((g.weight(0, 1), g.max_weight()), (Some(5), 5));
        g.add_edge(1, 2, 7).unwrap();
        g.add_edge(1, 2, 2).unwrap();
        assert_eq!((g.weight(1, 2), g.max_weight()), (Some(2), 5));
        assert_eq!(Graph::empty(2).max_weight(), 0);
    }

    #[test]
    fn rejects_malformed_edges() {
        assert_eq!(
            Graph::from_edges(2, [(0, 5, 1)]).unwrap_err(),
            GraphError::NodeOutOfRange { node: 5, n: 2 }
        );
        assert_eq!(
            Graph::from_edges(2, [(1, 1, 1)]).unwrap_err(),
            GraphError::SelfLoop { node: 1 }
        );
    }

    #[test]
    fn edges_iterates_once_per_edge() {
        let g = Graph::from_unweighted_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1, 1), (0, 2, 1), (1, 2, 1)]);
        assert!(g.is_unweighted());
    }

    #[test]
    fn weight_matrices_have_diagonal_and_edges() {
        let g = Graph::from_edges(3, [(0, 1, 7)]).unwrap();
        let w = g.weight_matrix();
        assert_eq!(w.get(0, 0), Some(&Dist::ZERO));
        assert_eq!(w.get(0, 1), Some(&Dist::fin(7)));
        assert_eq!(w.get(1, 2), None);
        let aw = g.augmented_weight_matrix();
        assert_eq!(aw.get(1, 0), Some(&AugDist::fin(7, 1)));
        assert_eq!(aw.get(2, 2), Some(&AugDist::ZERO));
    }

    #[test]
    fn low_degree_subgraph_drops_hubs() {
        // Star with centre 0 plus an edge 1-2.
        let g = Graph::from_unweighted_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]).unwrap();
        let low = g.low_degree_subgraph(3);
        assert_eq!(low.degree(0), 0); // centre removed
        assert!(low.has_edge(1, 2));
        assert_eq!(low.m(), 1);
    }

    #[test]
    fn union_edges_takes_min_weight() {
        let g = Graph::from_edges(3, [(0, 1, 9)]).unwrap();
        let h = g.union_edges([(0, 1, 4), (1, 2, 2)]).unwrap();
        assert_eq!(h.weight(0, 1), Some(4));
        assert_eq!(h.weight(1, 2), Some(2));
        assert_eq!(g.weight(0, 1), Some(9)); // original untouched
    }
}
