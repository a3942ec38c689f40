//! Directed graphs — the workspace's one adjacency store.
//!
//! The paper's distance *tools* (§3: k-nearest, source detection, distance
//! through sets) work on directed graphs — only the hopset-based headline
//! algorithms require undirectedness (and §8 explains why directed
//! sub-polynomial APSP would imply faster matrix multiplication). So the
//! tools in `cc-distance` and every sequential reference in
//! [`crate::reference`] take a [`DiGraph`]. An undirected [`crate::Graph`]
//! is the symmetric case: it holds a `DiGraph` with two arcs of one weight
//! per edge and derefs to it, so a `&Graph` is accepted wherever a
//! `&DiGraph` is.

use cc_matrix::{AugDist, AugMinPlus, Dist, MinPlus, SparseMatrix};

use crate::GraphError;

/// A directed graph with non-negative integer arc weights, stored as
/// out-adjacency lists sorted by head. Parallel arcs collapse to the
/// lightest; self-loops are rejected.
///
/// # Example
///
/// ```
/// use cc_graph::DiGraph;
///
/// # fn main() -> Result<(), cc_graph::GraphError> {
/// let g = DiGraph::from_arcs(3, [(0, 1, 4), (1, 2, 1)])?;
/// assert_eq!(g.weight(0, 1), Some(4));
/// assert_eq!(g.weight(1, 0), None); // one-way
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph {
    out: Vec<Vec<(usize, u64)>>,
}

impl DiGraph {
    /// An arcless digraph on `n` nodes.
    pub fn empty(n: usize) -> Self {
        DiGraph { out: vec![Vec::new(); n] }
    }

    /// Builds a digraph from arcs `(u, v, w)` meaning `u → v`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DiGraph::add_arc`].
    pub fn from_arcs(
        n: usize,
        arcs: impl IntoIterator<Item = (usize, usize, u64)>,
    ) -> Result<Self, GraphError> {
        let mut g = DiGraph::empty(n);
        for (u, v, w) in arcs {
            g.add_arc(u, v, w)?;
        }
        Ok(g)
    }

    /// Inserts arc `u → v` with weight `w` (lighter weight wins on
    /// duplicates). Returns whether the arc is new.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`], [`GraphError::SelfLoop`], or
    /// [`GraphError::InfiniteWeight`] for `w == u64::MAX`.
    pub fn add_arc(&mut self, u: usize, v: usize, w: u64) -> Result<bool, GraphError> {
        let n = self.n();
        if let Some(node) = [u, v].into_iter().find(|&x| x >= n) {
            return Err(GraphError::NodeOutOfRange { node, n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if w == Dist::INF.raw() {
            return Err(GraphError::InfiniteWeight { u, v });
        }
        let list = &mut self.out[u];
        match list.binary_search_by_key(&v, |&(x, _)| x) {
            Ok(i) => {
                list[i].1 = list[i].1.min(w);
                Ok(false)
            }
            Err(i) => {
                list.insert(i, (v, w));
                Ok(true)
            }
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.out.len()
    }

    /// Outgoing arcs of `v` with their weights, sorted by head.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: usize) -> &[(usize, u64)] {
        &self.out[v]
    }

    /// Weight of arc `u → v`, if present.
    pub fn weight(&self, u: usize, v: usize) -> Option<u64> {
        self.out[u].binary_search_by_key(&v, |&(x, _)| x).ok().map(|i| self.out[u][i].1)
    }

    /// Iterates over all arcs as `(u, v, w)`, by tail and then by head.
    pub fn arcs(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        self.out.iter().enumerate().flat_map(|(u, list)| list.iter().map(move |&(v, w)| (u, v, w)))
    }

    /// The weight matrix over min-plus: `0` on the diagonal, `w(u,v)` on
    /// arcs, `∞` (implicit) elsewhere.
    pub fn weight_matrix(&self) -> SparseMatrix<Dist> {
        let mut m = SparseMatrix::identity::<MinPlus>(self.n());
        for (u, v, w) in self.arcs() {
            m.set_in::<MinPlus>(u, v, Dist::fin(w));
        }
        m
    }

    /// The augmented weight matrix `W` of §3.1: `(0,0)` on the diagonal,
    /// `(w(u,v), 1)` on arcs, `(∞,∞)` (implicit) elsewhere — the input of
    /// the distance tools.
    pub fn augmented_weight_matrix(&self) -> SparseMatrix<AugDist> {
        let mut m = SparseMatrix::identity::<AugMinPlus>(self.n());
        for (u, v, w) in self.arcs() {
            m.set_in::<AugMinPlus>(u, v, AugDist::fin(w, 1));
        }
        m
    }
}

/// A random digraph: every ordered pair becomes an arc with probability
/// `p`, weights uniform in `1..=max_weight`, plus a directed Hamiltonian
/// cycle so every node reaches every other.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] unless `n ≥ 2`, `0 ≤ p ≤ 1` and
/// `max_weight ≥ 1`.
pub fn gnp_directed(n: usize, p: f64, max_weight: u64, seed: u64) -> Result<DiGraph, GraphError> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    if n < 2 || !(0.0..=1.0).contains(&p) || max_weight < 1 {
        return Err(GraphError::InvalidParameter {
            what: "gnp_directed needs n >= 2, 0 <= p <= 1, max_weight >= 1".to_owned(),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::empty(n);
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.gen_bool(p) {
                g.add_arc(u, v, rng.gen_range(1..=max_weight))?;
            }
        }
    }
    for v in 0..n {
        let u = (v + 1) % n;
        if g.weight(v, u).is_none() {
            g.add_arc(v, u, rng.gen_range(1..=max_weight))?;
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{dijkstra_with_hops, hop_bounded};

    #[test]
    fn arcs_are_one_way() {
        let mut g = DiGraph::from_arcs(3, [(0, 1, 2), (1, 2, 3)]).unwrap();
        assert!(!g.add_arc(0, 1, 1).unwrap()); // parallel arc keeps min
        assert_eq!(g.arcs().count(), 2);
        assert_eq!(g.weight(0, 1), Some(1));
        assert_eq!(g.weight(1, 0), None);
        assert_eq!(g.neighbors(0), &[(1, 1)]);
    }

    #[test]
    fn rejects_malformed_arcs() {
        assert_eq!(
            DiGraph::from_arcs(2, [(0, 5, 1)]).unwrap_err(),
            GraphError::NodeOutOfRange { node: 5, n: 2 }
        );
        assert_eq!(
            DiGraph::from_arcs(2, [(1, 1, 1)]).unwrap_err(),
            GraphError::SelfLoop { node: 1 }
        );
    }

    #[test]
    fn directed_dijkstra_respects_orientation() {
        let g = DiGraph::from_arcs(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]).unwrap();
        let from0 = dijkstra_with_hops(&g, 0);
        assert_eq!(from0[3], Some((3, 3)));
        let from3 = dijkstra_with_hops(&g, 3);
        assert_eq!(from3[0], None); // no way back
    }

    #[test]
    fn hop_bounded_limits_hops_along_arcs() {
        let g = DiGraph::from_arcs(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]).unwrap();
        assert_eq!(hop_bounded(&g, 0, 2)[3], None);
        assert_eq!(hop_bounded(&g, 0, 3)[3], Some(3));
        assert_eq!(hop_bounded(&g, 3, 3)[0], None);
    }

    #[test]
    fn weight_matrices_are_asymmetric() {
        let g = DiGraph::from_arcs(3, [(0, 1, 7)]).unwrap();
        let w = g.augmented_weight_matrix();
        assert!(w.get(0, 1).is_some());
        assert!(w.get(1, 0).is_none());
        assert_eq!(w.get(2, 2), Some(&AugDist::ZERO));
    }

    #[test]
    fn gnp_directed_is_strongly_connected() {
        let g = gnp_directed(24, 0.05, 9, 3).unwrap();
        for v in [0, 7, 23] {
            assert!(dijkstra_with_hops(&g, v).iter().all(Option::is_some));
        }
        assert!(gnp_directed(1, 0.5, 1, 0).is_err());
    }
}
