//! Shortest *paths* (not just distances) via witnessed squaring — the
//! "Recovering paths" extension of §3.1.
//!
//! Iterated squaring over the witness-tracking semiring records, for every
//! pair and every power `W^{2^ℓ}`, a **midpoint** of an optimal
//! hop-bounded path. Recursing on midpoints reconstructs a full shortest
//! path with *local* computation only — the distributed part is the same
//! at most `⌈log₂ n⌉` squarings as the exact-APSP baseline.

use cc_clique::Clique;
use cc_distance::fixpoint::iterate_to_fixpoint;
use cc_distance::{check_size, product_with_witnesses, DistanceError};
use cc_graph::Graph;
use cc_matrix::{Dist, SparseRow, WitnessedDist};

use crate::run::Stopwatch;

/// The witnessed power tables `W^{2^ℓ}`, supporting distance queries and
/// shortest-path reconstruction.
#[derive(Debug, Clone)]
pub struct ApspPaths {
    levels: Vec<Vec<SparseRow<WitnessedDist>>>,
    /// Rounds charged to build the tables.
    pub rounds: u64,
}

impl ApspPaths {
    /// The exact distance from `u` to `v`, if connected.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn distance(&self, u: usize, v: usize) -> Option<u64> {
        let top = self.levels.last().expect("at least one level");
        if u == v {
            return Some(0);
        }
        top[u].get(v as u32).map(|wd| wd.dist)
    }

    /// A shortest `u`–`v` path (node sequence including both endpoints), or
    /// `None` if disconnected. Purely local computation on the tables.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn path(&self, u: usize, v: usize) -> Option<Vec<usize>> {
        if u == v {
            return Some(vec![u]);
        }
        self.distance(u, v)?;
        let mut nodes = Vec::new();
        nodes.push(u);
        self.expand(self.levels.len() - 1, u, v, &mut nodes);
        Some(nodes)
    }

    /// Appends the interior of an optimal `u`–`v` path at `level`, plus `v`.
    fn expand(&self, level: usize, u: usize, v: usize, out: &mut Vec<usize>) {
        if u == v {
            return;
        }
        let entry = self.levels[level][u]
            .get(v as u32)
            .copied()
            .expect("recursion stays within recorded reachability");
        match (level, entry.witness()) {
            (0, _) => out.push(v),    // a direct edge of W
            (_, None) => out.push(v), // value inherited from a single edge
            (_, Some(w)) if w == u || w == v => {
                // Degenerate midpoint: the value already existed one level
                // down (identity-diagonal product); recurse there directly.
                self.expand(level - 1, u, v, out);
            }
            (_, Some(w)) => {
                self.expand(level - 1, u, w, out);
                self.expand(level - 1, w, v, out);
            }
        }
    }
}

/// Builds exact all-pairs shortest **paths**: at most `⌈log₂ n⌉` witnessed
/// squarings of the weight matrix (each a Theorem 8 product over the
/// witness semiring), after which every node can answer distance *and*
/// route queries for its row locally.
///
/// # Errors
///
/// [`DistanceError::InvalidParameter`] on size mismatch;
/// [`DistanceError::Matmul`] if a product fails.
///
/// # Example
///
/// ```
/// use cc_clique::Clique;
/// use cc_core::paths::exact_apsp_paths;
/// use cc_graph::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::path(8)?;
/// let mut clique = Clique::new(8);
/// let tables = exact_apsp_paths(&mut clique, &g)?;
/// assert_eq!(tables.path(0, 3), Some(vec![0, 1, 2, 3]));
/// # Ok(())
/// # }
/// ```
pub fn exact_apsp_paths(clique: &mut Clique, graph: &Graph) -> Result<ApspPaths, DistanceError> {
    let n = clique.n();
    check_size(clique, graph.n())?;
    let watch = Stopwatch::start(clique);
    let levels = clique.with_phase("apsp_paths", |clique| {
        let w = graph.weight_matrix();
        let current: Vec<SparseRow<WitnessedDist>> = w
            .rows()
            .iter()
            .map(|row| {
                SparseRow::from_sorted(
                    row.iter()
                        .map(|(c, d)| {
                            (c, WitnessedDist { dist: d.value().expect("finite"), via: u32::MAX })
                        })
                        .collect(),
                )
            })
            .collect();
        let mut levels = vec![current.clone()];
        let squarings = (n.max(2) as f64).log2().ceil() as usize;
        // A squaring that changes no row (witnesses included) ends the loop:
        // every later table would be a copy of the top one.
        iterate_to_fixpoint(clique, current, squarings, |clique, current| {
            // Project to plain distances, square with witnesses.
            let plain: Vec<SparseRow<Dist>> = current
                .iter()
                .map(|row| {
                    SparseRow::from_sorted(row.iter().map(|(c, wd)| (c, wd.to_dist())).collect())
                })
                .collect();
            // Distance matrices of undirected graphs are symmetric, so the
            // column layout of the right operand equals the row layout.
            let next = product_with_witnesses(clique, &plain, &plain, n)?;
            levels.push(next.clone());
            Ok::<_, DistanceError>(next)
        })?;
        Ok::<_, DistanceError>(levels)
    })?;
    let (rounds, _) = watch.stop(clique);
    Ok(ApspPaths { levels, rounds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{generators, reference};

    /// Checks that `path` is a real walk in `graph` from `u` to `v` with
    /// total weight `expected`.
    fn is_shortest_path(graph: &Graph, path: &[usize], u: usize, v: usize, expected: u64) -> bool {
        if path.first() != Some(&u) || path.last() != Some(&v) {
            return false;
        }
        let mut total = 0u64;
        for pair in path.windows(2) {
            match graph.weight(pair[0], pair[1]) {
                Some(w) => total += w,
                None => return false,
            }
        }
        total == expected
    }

    fn check_all_paths(g: &Graph) {
        let mut clique = Clique::new(g.n());
        let tables = exact_apsp_paths(&mut clique, g).unwrap();
        let exact = reference::all_pairs(g);
        for u in 0..g.n() {
            for v in 0..g.n() {
                assert_eq!(tables.distance(u, v), exact[u][v], "distance ({u},{v})");
                match exact[u][v] {
                    Some(d) => {
                        let path = tables.path(u, v).expect("connected pair has a path");
                        assert!(
                            is_shortest_path(g, &path, u, v, d),
                            "invalid path {path:?} for ({u},{v}), d={d}"
                        );
                    }
                    None => assert!(tables.path(u, v).is_none()),
                }
            }
        }
    }

    #[test]
    fn paths_on_weighted_gnp() {
        check_all_paths(&generators::gnp_weighted(20, 0.15, 30, 3).unwrap());
    }

    #[test]
    fn paths_on_path_graph() {
        check_all_paths(&generators::path(17).unwrap());
    }

    #[test]
    fn paths_on_weighted_grid() {
        check_all_paths(&generators::grid_weighted(4, 5, 9, 4).unwrap());
    }

    #[test]
    fn paths_on_disconnected_graph() {
        let g = Graph::from_edges(10, [(0, 1, 2), (1, 2, 2), (4, 5, 1)]).unwrap();
        check_all_paths(&g);
    }

    #[test]
    fn paths_prefer_light_detours_over_heavy_edges() {
        // Direct heavy edge 0-3 (10) vs light detour 0-1-2-3 (3).
        let g = Graph::from_edges(4, [(0, 3, 10), (0, 1, 1), (1, 2, 1), (2, 3, 1)]).unwrap();
        let mut clique = Clique::new(4);
        let tables = exact_apsp_paths(&mut clique, &g).unwrap();
        assert_eq!(tables.path(0, 3), Some(vec![0, 1, 2, 3]));
        assert_eq!(tables.distance(0, 3), Some(3));
    }

    #[test]
    fn trivial_and_self_paths() {
        let g = generators::star(6).unwrap();
        let mut clique = Clique::new(6);
        let tables = exact_apsp_paths(&mut clique, &g).unwrap();
        assert_eq!(tables.path(2, 2), Some(vec![2]));
        assert_eq!(tables.path(1, 5), Some(vec![1, 0, 5]));
    }
}
