//! The `(S, d, k)`-source detection problem — **Theorem 19**.
//!
//! Given sources `S ⊆ V`, every node computes its distances to sources
//! using paths of at most `d` hops — either the `k` nearest such sources
//! (the filtered variant, `O((m^{1/3}k^{2/3}/n + log n)·d)` rounds) or all
//! of them (the unfiltered variant, `O((m^{1/3}|S|^{2/3}/n + 1)·d)`
//! rounds). Both iterate `W_{i+1} = W ⋆ W_i` with the augmented weight
//! matrix, exploiting that the *output* stays `|S|`-sparse per row; the
//! dependence on `d` is at most linear — each multiplication must stay
//! sparse (§1.3), so there are up to `d − 1` of them, fewer when the iterate
//! reaches its fixpoint first.
//!
//! Distances run along arcs: both variants take a [`DiGraph`], and row `v`
//! holds distances *from* `v` to the sources; an undirected
//! [`cc_graph::Graph`] derefs to its symmetric arcs.
//!
//! Each hop step is semi-naive. `W`'s diagonal is `(0, 0)`, so the iterate
//! only ever decreases, and by distributivity `W ⋆ U_i = min(U_i, W ⋆ Δ_i)`,
//! where `Δ_i` holds the entries of `U_i` that step `i − 1` changed (all of
//! `U_1` at the first step): an entry of `U_i` outside `Δ_i` is one of
//! `U_{i−1}`, and its products with `W` are bounded by `U_i = W ⋆ U_{i−1}`
//! already. So a step
//! multiplies only its frontier `Δ_i`, and each node then takes the minimum
//! with the row it holds (local, free). A node changed exactly when its row
//! of `Δ` is non-empty, so the step opens by broadcasting `Δ_i`'s row
//! counts, and the loop stops once every count is 0 — at the first fixpoint,
//! so the output is the bound-iteration output bit for bit.
//!
//! The filtered variant keeps the `k` smallest of `min(U_i, P)`, where `P` is
//! the `k`-filtered `W ⋆ Δ_i`; what `P` drops is beaten by `k` entries of
//! `P`, so it keeps `f_k(min(U_i, W ⋆ Δ_i))`. That equals Theorem 19's
//! `U_{i+1} = f_k(W ⋆ U_i)` although `U_i` is itself filtered. Write `D_i`
//! for the exact hop-`i` distances to the sources; Theorem 19 gives
//! `U_i = f_k(D_i)`. Every entry of `min(U_i, W ⋆ Δ_i)` is the length of a
//! path of at most `i + 1` hops, so it is at least `D_{i+1}`'s in its column.
//! And it holds `D_{i+1}`'s value in each of the `k` columns `f_k(D_{i+1})`
//! keeps: such a column `c` is reached through a first arc `(v, w)` with `c`
//! among `w`'s `k` nearest within `i` hops, so `D_{i+1}[v,c] = W[v,w] +
//! U_i[w,c]`. If `U_i[w,c]` changed at step `i − 1`, `W ⋆ Δ_i` is at most
//! that sum in column `c`; if not, it is `U_{i−1}[w,c]`, so `D_i[v,c] =
//! D_{i+1}[v,c]`, which makes `c` one of `v`'s `k` nearest within `i` hops
//! as well, held in `U_i[v,c]`. The `k` smallest of a row that lies above `D_{i+1}` and
//! meets it on `f_k(D_{i+1})`'s columns are those columns, so both loops
//! keep the same rows.
//!
//! `W` is the same in every product, so it is prepared once per detection
//! ([`cc_matmul::Operand::prepare`]); the frontier comes out of the local
//! minimum by rows and is handed to the product by those rows and their
//! broadcast counts ([`cc_matmul::Operand::from_opposite`]). The row owners
//! multiply by its rows alone, so only a product that runs the pipeline, or
//! cannot choose without the column counts, transposes it.

use cc_clique::Clique;
use cc_graph::DiGraph;
use cc_matmul::{layout, Operand, Side};
use cc_matrix::{AugDist, AugMinPlus, SparseMatrix, SparseRow};

use crate::error::{check_size, invalid};
use crate::DistanceError;

fn validate(
    clique: &Clique,
    graph: &DiGraph,
    sources: &[usize],
    d: usize,
) -> Result<Vec<bool>, DistanceError> {
    let n = clique.n();
    check_size(clique, graph.n())?;
    if sources.is_empty() {
        return Err(invalid("source detection needs at least one source"));
    }
    if d == 0 {
        return Err(invalid("source detection needs hop bound d >= 1"));
    }
    let mut in_s = vec![false; n];
    for &s in sources {
        if s >= n {
            return Err(invalid(format!("source {s} outside 0..{n}")));
        }
        in_s[s] = true;
    }
    Ok(in_s)
}

/// Restriction of the augmented weight matrix to source columns: the
/// matrix `U_1` (or `W_1`) of Theorem 19.
pub(crate) fn restrict_to_sources(
    w: &SparseMatrix<AugDist>,
    in_s: &[bool],
) -> SparseMatrix<AugDist> {
    let rows = w
        .rows()
        .iter()
        .map(|row| {
            SparseRow::from_entries::<AugMinPlus>(
                row.iter().filter(|(c, _)| in_s[*c as usize]).map(|(c, v)| (c, *v)).collect(),
            )
        })
        .collect();
    SparseMatrix::from_rows(rows)
}

/// The hop loop both variants share: `start` is the hop-1 iterate, and each
/// of the up to `d − 1` steps multiplies the prepared `W` by the frontier
/// with `multiply(clique, w, frontier)` and takes the minimum with the
/// iterate, keeping the `keep` smallest entries a row if given.
fn hop_loop(
    clique: &mut Clique,
    w: &SparseMatrix<AugDist>,
    start: &SparseMatrix<AugDist>,
    d: usize,
    keep: Option<usize>,
    multiply: impl Fn(
        &mut Clique,
        &mut Operand<'_, AugDist>,
        &mut Operand<'_, AugDist>,
    ) -> Result<Vec<SparseRow<AugDist>>, cc_matmul::MatmulError>,
) -> Result<Vec<SparseRow<AugDist>>, DistanceError> {
    let mut held = start.rows().to_vec();
    if d == 1 {
        return Ok(held);
    }
    let mut w = Operand::prepare::<AugMinPlus>(clique, Side::Left, w.rows())?;
    let mut frontier = held.clone();
    for _ in 1..d {
        // The frontier's row counts open the step: all 0 means no node
        // changed, and the loop stops before anything else.
        let counts = layout::broadcast_counts(clique, &frontier, None)?;
        if counts.per_node().iter().all(|&count| count == 0) {
            break;
        }
        let product = multiply(clique, &mut w, &mut Operand::from_opposite(&frontier, counts))?;
        frontier = held.iter_mut().zip(&product).map(|(row, p)| lower(row, p, keep)).collect();
    }
    Ok(held)
}

/// Node-local: replaces `row` by its minimum with `product`, keeping the
/// `keep` smallest entries if given, and returns what changed — each entry
/// of the new row that is absent from the old one or holds another value.
fn lower(
    row: &mut SparseRow<AugDist>,
    product: &SparseRow<AugDist>,
    keep: Option<usize>,
) -> SparseRow<AugDist> {
    let entries = row.iter().chain(product.iter()).map(|(c, v)| (c, *v)).collect();
    let mut next = SparseRow::from_entries::<AugMinPlus>(entries);
    if let Some(k) = keep {
        next.filter_smallest(k);
    }
    let changed = next.iter().filter(|&(c, v)| row.get(c) != Some(v)).map(|(c, v)| (c, *v));
    let changed = SparseRow::from_sorted(changed.collect());
    *row = next;
    changed
}

/// **Theorem 19 (filtered variant)**: every node learns its `k` nearest
/// sources within `d` hops, with the hop-bounded distances, in
/// `O((m^{1/3}k^{2/3}/n + log n)·d)` rounds.
///
/// Output: per node, a sparse augmented row whose columns are source ids.
///
/// # Errors
///
/// * [`DistanceError::InvalidParameter`] for empty/out-of-range sources,
///   `d == 0`, `k == 0`, or a graph/clique size mismatch;
/// * [`DistanceError::Matmul`] if a multiplication subroutine fails.
pub fn source_detection_k(
    clique: &mut Clique,
    graph: &DiGraph,
    sources: &[usize],
    d: usize,
    k: usize,
) -> Result<Vec<SparseRow<AugDist>>, DistanceError> {
    let in_s = validate(clique, graph, sources, d)?;
    if k == 0 {
        return Err(invalid("source detection needs k >= 1"));
    }
    let k = k.min(clique.n());
    let w = graph.augmented_weight_matrix();
    clique.with_phase("source_detection_k", |clique| {
        // W_1: the k lightest arcs towards S per node.
        let start = restrict_to_sources(&w, &in_s).filtered(k);
        hop_loop(clique, &w, &start, d, Some(k), |clique, w, x| {
            cc_matmul::filtered_multiply_prepared::<AugMinPlus>(clique, w, x, k)
        })
    })
}

/// **Theorem 19 (unfiltered variant)**: every node learns its hop-`d`
/// distances to **all** sources, in `O((m^{1/3}|S|^{2/3}/n + 1)·d)` rounds.
///
/// Output: per node, a sparse augmented row whose columns are source ids
/// (absent = not reachable within `d` hops).
///
/// # Errors
///
/// Same as [`source_detection_k`], minus the `k` condition.
///
/// # Example
///
/// ```
/// use cc_clique::Clique;
/// use cc_distance::source_detection_all;
/// use cc_graph::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::path(8)?;
/// let mut clique = Clique::new(8);
/// let rows = source_detection_all(&mut clique, &g, &[0], 3)?;
/// assert_eq!(rows[3].get(0).map(|a| a.dist), Some(3)); // 3 hops away
/// assert!(rows[4].get(0).is_none()); // 4 hops: outside the budget
/// # Ok(())
/// # }
/// ```
pub fn source_detection_all(
    clique: &mut Clique,
    graph: &DiGraph,
    sources: &[usize],
    d: usize,
) -> Result<Vec<SparseRow<AugDist>>, DistanceError> {
    let in_s = validate(clique, graph, sources, d)?;
    let rho_hat = sources.len().max(1);
    let w = graph.augmented_weight_matrix();
    clique.with_phase("source_detection_all", |clique| {
        hop_loop(clique, &w, &restrict_to_sources(&w, &in_s), d, None, |clique, w, u| {
            cc_matmul::sparse_multiply_prepared::<AugMinPlus>(clique, w, u, rho_hat)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_clique::CostModel;
    use cc_graph::{generators, reference, Graph};

    fn check_all_against_reference(g: &Graph, sources: &[usize], d: usize) {
        let mut clique = Clique::new(g.n());
        let got = source_detection_all(&mut clique, g, sources, d).unwrap();
        for &s in sources {
            let expected = reference::hop_bounded(g, s, d);
            for v in 0..g.n() {
                let got_d = got[v].get(s as u32).map(|a| a.dist);
                assert_eq!(got_d, expected[v], "source {s}, node {v}, d={d} on {} nodes", g.n());
            }
        }
    }

    #[test]
    fn all_variant_matches_hop_bounded_reference() {
        let g = generators::gnp_weighted(20, 0.15, 20, 5).unwrap();
        check_all_against_reference(&g, &[0, 3, 7], 1);
        check_all_against_reference(&g, &[0, 3, 7], 2);
        check_all_against_reference(&g, &[0, 3, 7], 4);
        // Past the hop diameter, below n − 1: every shortest path from the
        // sources has fewer than d − 1 hops, so the clique loop and
        // `reference::hop_bounded` both stop at their fixpoint, the
        // reference by its Bellman–Ford exit rather than its Dijkstra
        // shortcut.
        let d = 12;
        for s in [0, 3, 7] {
            let hops = reference::dijkstra_with_hops(&g, s).into_iter().flatten();
            assert!(hops.map(|(_, h)| h as usize).max().unwrap() < d - 1, "source {s}");
        }
        check_all_against_reference(&g, &[0, 3, 7], d);
    }

    #[test]
    fn all_variant_on_path_respects_hop_budget() {
        let g = generators::path(10).unwrap();
        check_all_against_reference(&g, &[0, 9], 3);
        check_all_against_reference(&g, &[5], 9);
    }

    #[test]
    fn a_hop_step_in_the_pipeline_multiplies_only_the_frontier() {
        // A route costs 16 rounds a unit under the conservative cost model,
        // so on a weighted gnp(32, 8/32) with every node a source the second
        // hop step runs the pipeline, which transposes its right operand.
        // The transpose routes one message per entry, so it shows what the
        // step multiplied: the frontier Δ_i, the entries of U_i the step
        // before changed, and not the whole iterate U_i.
        let (n, d) = (32, 32);
        let g = generators::gnp_weighted(n, 8.0 / 32.0, 40, 42).unwrap();
        let sources: Vec<usize> = (0..n).collect();
        let mut clique = Clique::with_cost_model(n, CostModel::conservative());
        let (rows, audits) =
            cc_matmul::audit(|| source_detection_all(&mut clique, &g, &sources, d).unwrap());
        assert!(audits.iter().any(|a| !a.owner), "some hop step runs the pipeline");
        // U_1, then U_{i+1} = W ⋆ U_i on the host, one step per product.
        let w = g.augmented_weight_matrix();
        let in_s: Vec<bool> = (0..n).map(|v| sources.contains(&v)).collect();
        let mut iterate = restrict_to_sources(&w, &in_s);
        let mut frontier = iterate.nnz();
        let [mut frontiers, mut iterates] = [0; 2];
        for product in &audits {
            if product.transposed || !product.owner {
                frontiers += frontier;
                iterates += iterate.nnz();
            }
            let next = w.multiply::<AugMinPlus>(&iterate);
            let changed = |e: &cc_matrix::Entry<AugDist>| {
                iterate.get(e.row as usize, e.col as usize) != Some(&e.val)
            };
            frontier = next.entries().filter(changed).count();
            iterate = next;
        }
        assert_eq!(SparseMatrix::from_rows(rows), iterate);
        let phases = &clique.metrics().phases;
        let routed = phases["source_detection_all/sparse_mm/transpose/route"].messages;
        assert_eq!(routed, frontiers as u64, "the transposes routed the frontiers");
        assert!(frontiers < iterates, "{frontiers} frontier entries, {iterates} iterate entries");
    }

    #[test]
    fn k_variant_selects_k_nearest_sources() {
        let g = generators::gnp_weighted(20, 0.2, 10, 6).unwrap();
        let sources = vec![1, 4, 9, 13, 17];
        let (d, k) = (4, 2);
        let mut clique = Clique::new(20);
        let got = source_detection_k(&mut clique, &g, &sources, d, k).unwrap();

        // Sequential reference: full d-th augmented power, restricted to
        // source columns, filtered to the k smallest per row.
        let w = g.augmented_weight_matrix();
        let mut power = w.clone();
        for _ in 1..d {
            power = w.multiply::<AugMinPlus>(&power);
        }
        let mut in_s = vec![false; 20];
        for &s in &sources {
            in_s[s] = true;
        }
        let expected = restrict_to_sources(&power, &in_s).filtered(k);
        for v in 0..20 {
            assert_eq!(got[v], *expected.row(v), "node {v}");
        }
    }

    #[test]
    fn k_variant_with_source_at_self() {
        let g = generators::star(8).unwrap();
        let mut clique = Clique::new(8);
        let got = source_detection_k(&mut clique, &g, &[2, 5], 2, 2).unwrap();
        // Node 2 is its own nearest source at distance (0,0).
        assert_eq!(got[2].get(2), Some(&cc_matrix::AugDist::ZERO));
        // Leaf 3 reaches both sources via the centre in 2 hops.
        assert_eq!(got[3].get(2).map(|a| a.dist), Some(2));
        assert_eq!(got[3].get(5).map(|a| a.dist), Some(2));
    }

    #[test]
    fn rejects_bad_parameters() {
        let g = generators::path(6).unwrap();
        let mut clique = Clique::new(6);
        assert!(source_detection_all(&mut clique, &g, &[], 2).is_err());
        assert!(source_detection_all(&mut clique, &g, &[9], 2).is_err());
        assert!(source_detection_all(&mut clique, &g, &[1], 0).is_err());
        assert!(source_detection_k(&mut clique, &g, &[1], 2, 0).is_err());
    }

    #[test]
    fn round_cost_scales_linearly_in_d() {
        // On a path every product reaches one node more, so none of the
        // d − 1 products is saved by the fixpoint exit and growth is real.
        let g = generators::path(32).unwrap();
        let mut c2 = Clique::new(32);
        source_detection_all(&mut c2, &g, &[0], 2).unwrap();
        let mut c8 = Clique::new(32);
        source_detection_all(&mut c8, &g, &[0], 8).unwrap();
        let (r2, r8) = (c2.rounds(), c8.rounds());
        // 7 multiplications vs 1: expect roughly linear growth in d.
        assert!(r8 > 3 * r2 && r8 < 14 * r2.max(1), "r2={r2}, r8={r8}");
    }
}
