//! Matrix multiplication with on-the-fly output sparsification —
//! **Theorem 14**.
//!
//! Computes the ρ-filtered product `P̄` (each output row truncated to its
//! `ρ` smallest entries by `(value, column)` order) in
//! `O((ρS·ρT·ρ)^{1/3}/n^{2/3} + log W)` rounds. The crux: the intermediate
//! slice matrices `P_k` can be dense, so before summation each group
//! `B_{ik}` (the `a` nodes producing rows `C^S_i` of slice `P_k`) runs a
//! **distributed binary search** over the value space to find, per row, the
//! cutoff below which exactly `ρ` entries survive (Lemma 15). Everything
//! above the cutoff is discarded, the survivors are re-balanced inside the
//! group (Lemma 16), summed like in Theorem 8, and the final rows filtered
//! once more locally.
//!
//! Everything but the search, Lemma 16's helper policy (one pool per group,
//! chunk `ρ·α_i·c`) and the final filter is the shared pipeline's (see the
//! crate docs), which runs the search as its thinning step.
//!
//! The search runs over *combined ordinals* `ordinal(value)·n + column`, so
//! it directly finds the `(value, column)` cutoff pair — the paper's
//! lexicographic cutoff `(r, s)` — in one search instead of a value search
//! plus a tie-resolution query.

use cc_clique::{Clique, Envelope, NodeId, Payload};
use cc_matrix::{Entry, OrderedSemiring, Searchable, SparseRow};

use crate::cube::CubePartition;
use crate::key_index::KeyIndex;
use crate::operand::{Operand, Side};
use crate::pipeline::{product, HelperScope, Helpers, Keep, Plan};
use crate::MatmulError;

/// A combined `(value, column)` ordinal on the wire. The value is an
/// `O(log n)`-bit semiring element and the column an index, so the pair is
/// one message word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Ord128(u128);

impl Payload for Ord128 {
    fn words(&self) -> usize {
        1
    }
}

fn combined<E: Searchable>(val: &E, col: u32, n: usize) -> u128 {
    val.to_ordinal() * (n as u128) + col as u128
}

/// State of one per-row binary search, held by its coordinator.
#[derive(Debug)]
struct Search {
    /// Invariant: count(≤ lo) < ρ ≤ count(≤ hi).
    lo: u128,
    hi: u128,
    /// Entries of this row across the group, summed from the init reports.
    total: u64,
    /// Sum of the members' replies to the query in flight.
    replied: u64,
    /// Group members that reported entries for this row, ascending.
    contributors: Vec<NodeId>,
}

impl Search {
    /// Whether the cutoff is still undetermined (another query is due).
    fn open(&self) -> bool {
        self.hi > self.lo + 1
    }

    fn midpoint(&self) -> u128 {
        self.lo + (self.hi - self.lo) / 2
    }
}

/// One node's product entries as sorted combined ordinals per row, grouped
/// by the row's *slot* (its index in the node's row block `C^S_i`).
struct RowOrdinals {
    by_slot: KeyIndex,
    /// Parallel to `by_slot.order()`, each slot's group sorted ascending.
    ords: Vec<u128>,
}

impl RowOrdinals {
    fn build<E: Searchable>(entries: &[Entry<E>], slot_of_row: &[u32], n: usize) -> RowOrdinals {
        let mut by_slot = KeyIndex::default();
        by_slot.rebuild(entries.len(), |idx| slot_of_row[entries[idx].row as usize]);
        let mut ords: Vec<u128> = by_slot
            .order()
            .iter()
            .map(|&idx| combined(&entries[idx as usize].val, entries[idx as usize].col, n))
            .collect();
        for t in by_slot.keys() {
            ords[by_slot.range(t)].sort_unstable();
        }
        RowOrdinals { by_slot, ords }
    }

    /// The sorted ordinals of the row in slot `t` (for `O(log)` counting).
    fn row(&self, t: usize) -> &[u128] {
        &self.ords[self.by_slot.range(t as u32)]
    }
}

/// The per-row cutoffs of Lemma 15 as every group member knows them.
struct RowCutoffs {
    n: usize,
    /// Row → its slot in its row block `C^S_i`.
    slot_of_row: Vec<u32>,
    /// Per node, per slot of its row block: the combined cutoff ordinal, or
    /// `None` if the row already has at most `ρ` entries in the node's slice.
    by_node: Vec<Vec<Option<u128>>>,
}

impl RowCutoffs {
    /// Whether node `v` keeps product entry `e` (at or below its row's cutoff).
    fn keeps<E: Searchable>(&self, v: NodeId, e: &Entry<E>) -> bool {
        match self.by_node[v][self.slot_of_row[e.row as usize] as usize] {
            Some(cut) => combined(&e.val, e.col, self.n) <= cut,
            None => true,
        }
    }
}

/// **Theorem 14**: the ρ-filtered product `P̄` of `S ⋆ T`.
///
/// Input layout: node `v` holds row `v` of `S` and column `v` of `T`;
/// output: node `v` holds row `v` of `P̄` (at most `rho` entries, the
/// smallest of row `v` of `S·T` by `(value, column)` order).
///
/// Rounds: `O((ρS·ρT·ρ)^{1/3}/n^{2/3} + log W)` where `W` is the size of
/// the value space (for min-plus with `poly(n)` weights, `log W = O(log n)`).
///
/// # Errors
///
/// * [`MatmulError::DimensionMismatch`] if operands don't match the clique;
/// * [`MatmulError::Clique`] on malformed communication (internal bug).
///
/// # Example
///
/// ```
/// use cc_clique::Clique;
/// use cc_matmul::filtered_multiply;
/// use cc_matrix::{Dist, MinPlus, SparseMatrix};
///
/// # fn main() -> Result<(), cc_matmul::MatmulError> {
/// // Star graph: the square is dense, but we only want each node's 2
/// // nearest neighbours.
/// let n = 8;
/// let mut w = SparseMatrix::<Dist>::identity::<MinPlus>(n);
/// for v in 1..n {
///     w.set_in::<MinPlus>(0, v, Dist::fin(v as u64));
///     w.set_in::<MinPlus>(v, 0, Dist::fin(v as u64));
/// }
/// let mut clique = Clique::new(n);
/// let t_cols = w.transpose();
/// let p = filtered_multiply::<MinPlus>(&mut clique, w.rows(), t_cols.rows(), 2)?;
/// assert!(p.iter().all(|row| row.nnz() <= 2));
/// # Ok(())
/// # }
/// ```
pub fn filtered_multiply<SR>(
    clique: &mut Clique,
    s_rows: &[SparseRow<SR::Elem>],
    t_cols: &[SparseRow<SR::Elem>],
    rho: usize,
) -> Result<Vec<SparseRow<SR::Elem>>, MatmulError>
where
    SR: OrderedSemiring,
    SR::Elem: Searchable,
{
    let mut s = Operand::unprepared(Side::Left, s_rows);
    let mut t = Operand::unprepared(Side::Right, t_cols);
    filtered_multiply_prepared::<SR>(clique, &mut s, &mut t, rho)
}

/// [`filtered_multiply`] on operands the caller prepared — and may hand in
/// again: whatever an operand already carries (its broadcast counts, its
/// opposite layout, its `σ1` placement once a product computed it) is used,
/// not re-communicated. Same product, same errors.
///
/// # Panics
///
/// Panics unless `s` is a [`Side::Left`] and `t` a [`Side::Right`] operand.
///
/// # Errors
///
/// Same as [`filtered_multiply`].
pub fn filtered_multiply_prepared<SR>(
    clique: &mut Clique,
    s: &mut Operand<'_, SR::Elem>,
    t: &mut Operand<'_, SR::Elem>,
    rho: usize,
) -> Result<Vec<SparseRow<SR::Elem>>, MatmulError>
where
    SR: OrderedSemiring,
    SR::Elem: Searchable,
{
    let rho = rho.clamp(1, clique.n());
    // Lemma 15: per-row cutoffs via lockstep distributed binary search.
    let thin = |cl: &mut Clique, cube: &CubePartition, products: &[Vec<Entry<SR::Elem>>]| {
        let cutoffs = row_cutoffs::<SR>(cl, cube, products, rho)?;
        Ok(Box::new(move |v, e: &Entry<SR::Elem>| cutoffs.keeps(v, e)) as Keep<'_, SR::Elem>)
    };
    // Lemma 16: survivors are balanced inside each group B_ik, whose own
    // members are the pool (the lemma proves it always suffices).
    let scopes = |cube: &CubePartition| {
        let mut scopes: Vec<HelperScope> = Vec::with_capacity(cube.shape.b * cube.shape.c);
        for i in 0..cube.shape.b {
            let alpha_i = (cube.row_blocks[i].len() * cube.shape.b).div_ceil(cube.n).max(1);
            let chunk = (rho * alpha_i * cube.c_eff()).max(1);
            for k in 0..cube.shape.c {
                let members = cube.group_bik(i, k);
                scopes.push((members.clone(), members, chunk));
            }
        }
        scopes
    };
    let plan = Plan {
        label: "filtered_mm",
        cube_density: Some(rho),
        thin: Some(&thin),
        helpers: Some(Helpers { sizes_label: "weights", hint: rho, scopes: &scopes }),
    };
    let mut rows = product::<SR>(clique, &plan, s, t)?;
    for row in &mut rows {
        row.filter_smallest::<SR>(rho);
    }
    Ok(rows)
}

/// Lemma 15: for every group `B_{ik}` and row, finds the `(value, column)`
/// cutoff such that exactly `ρ` entries of that row of `P_k` survive (or
/// no cutoff if the row already has at most `ρ` entries). Afterwards,
/// **every member of the group** knows the cutoffs of all the group's rows.
///
/// All per-row state is kept in dense vectors indexed by the row's slot in
/// its row block, so every message batch is emitted in ascending
/// `(node, row)` order.
fn row_cutoffs<SR>(
    clique: &mut Clique,
    cube: &CubePartition,
    products: &[Vec<Entry<SR::Elem>>],
    rho: usize,
) -> Result<RowCutoffs, MatmulError>
where
    SR: OrderedSemiring,
    SR::Elem: Searchable,
{
    let n = clique.n();
    let a = cube.shape.a;

    let mut slot_of_row = vec![0u32; n];
    for block in &cube.row_blocks {
        for (t, &row) in block.iter().enumerate() {
            slot_of_row[row] = t as u32;
        }
    }
    // Rows (by slot) a node of row block i deals with; idle nodes have none.
    let slots_of = |v: NodeId| cube.triple_of(v).map_or(0, |(i, _, _)| cube.row_blocks[i].len());

    let row_ordinals: Vec<RowOrdinals> =
        products.iter().map(|entries| RowOrdinals::build(entries, &slot_of_row, n)).collect();

    clique.with_phase("cutoff_search", |clique| {
        // Init: members report (row, count, min, max) to coordinators. The
        // coordinator of slot t within group (i, k) is member t mod a.
        let mut init_msgs = Vec::new();
        for (v, ordinals) in row_ordinals.iter().enumerate() {
            let Some((i, _j, k)) = cube.triple_of(v) else { continue };
            for (t, &row) in cube.row_blocks[i].iter().enumerate() {
                let ords = ordinals.row(t);
                let (Some(&min_o), Some(&max_o)) = (ords.first(), ords.last()) else {
                    continue;
                };
                init_msgs.push(Envelope::new(
                    v,
                    cube.node_for(i, t % a, k),
                    (row as u32, ords.len() as u64, Ord128(min_o), Ord128(max_o)),
                ));
            }
        }
        let inboxes = clique.route(init_msgs)?;

        // Coordinators set up searches, one per reported row slot.
        let mut searches: Vec<Vec<Option<Search>>> =
            (0..n).map(|v| (0..slots_of(v)).map(|_| None).collect()).collect();
        for (coord, inbox) in inboxes.into_iter().enumerate() {
            for env in inbox {
                let (row, cnt, min_o, max_o) = env.payload;
                let s = searches[coord][slot_of_row[row as usize] as usize].get_or_insert(Search {
                    lo: u128::MAX,
                    hi: 0,
                    total: 0,
                    replied: 0,
                    contributors: Vec::new(),
                });
                s.contributors.push(env.src);
                s.lo = s.lo.min(min_o.0.saturating_sub(1));
                s.hi = s.hi.max(max_o.0);
                s.total += cnt;
            }
            for slot in &mut searches[coord] {
                match slot {
                    // At most ρ entries: keep-all, no cutoff needed.
                    Some(s) if s.total <= rho as u64 => *slot = None,
                    Some(s) => s.contributors.sort_unstable(),
                    None => {}
                }
            }
        }

        // Lockstep binary search: one (query, reply) route pair per step.
        loop {
            let mut queries = Vec::new();
            for (coord, slots) in searches.iter().enumerate() {
                let Some((i, _j, _k)) = cube.triple_of(coord) else { continue };
                for (t, s) in slots.iter().enumerate() {
                    let Some(s) = s.as_ref().filter(|s| s.open()) else { continue };
                    let row = cube.row_blocks[i][t] as u32;
                    for &m in &s.contributors {
                        queries.push(Envelope::new(coord, m, (row, Ord128(s.midpoint()))));
                    }
                }
            }
            if queries.is_empty() {
                break;
            }
            let inboxes = clique.route(queries)?;
            let mut replies = Vec::with_capacity(inboxes.iter().map(Vec::len).sum());
            for (member, inbox) in inboxes.into_iter().enumerate() {
                for env in inbox {
                    let (row, mid) = env.payload;
                    let ords = row_ordinals[member].row(slot_of_row[row as usize] as usize);
                    let cnt = ords.partition_point(|&o| o <= mid.0) as u64;
                    replies.push(Envelope::new(member, env.src, (row, cnt)));
                }
            }
            let inboxes = clique.route(replies)?;
            for (coord, inbox) in inboxes.into_iter().enumerate() {
                for env in inbox {
                    let (row, cnt) = env.payload;
                    let s = searches[coord][slot_of_row[row as usize] as usize]
                        .as_mut()
                        .expect("reply matches search");
                    s.replied += cnt;
                }
                // Exactly the searches that were open sent a query, and each
                // heard back from all its contributors.
                for s in searches[coord].iter_mut().flatten().filter(|s| s.open()) {
                    let mid = s.midpoint();
                    if s.replied >= rho as u64 {
                        s.hi = mid;
                    } else {
                        s.lo = mid;
                    }
                    s.replied = 0;
                }
            }
        }

        // Broadcast cutoffs to every member of each group.
        let mut cutoff_msgs = Vec::new();
        for (coord, slots) in searches.iter().enumerate() {
            let Some((i, _j, k)) = cube.triple_of(coord) else { continue };
            let group = cube.group_bik(i, k);
            for (t, s) in slots.iter().enumerate() {
                let Some(s) = s else { continue };
                let row = cube.row_blocks[i][t] as u32;
                for &m in &group {
                    cutoff_msgs.push(Envelope::new(coord, m, (row, Ord128(s.hi))));
                }
            }
        }
        let inboxes = clique.route(cutoff_msgs)?;
        let mut by_node: Vec<Vec<Option<u128>>> = (0..n).map(|v| vec![None; slots_of(v)]).collect();
        for (member, inbox) in inboxes.into_iter().enumerate() {
            for env in inbox {
                by_node[member][slot_of_row[env.payload.0 as usize] as usize] =
                    Some(env.payload.1 .0);
            }
        }
        Ok(RowCutoffs { n, slot_of_row, by_node })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::CubeShape;
    use crate::deliver::{deliver, local_product, ProductScratch};
    use cc_matrix::{AugDist, AugMinPlus, Dist, MinPlus, SparseMatrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(n: usize, nnz: usize, seed: u64) -> SparseMatrix<Dist> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = SparseMatrix::zeros(n);
        for _ in 0..nnz {
            let r = rng.gen_range(0..n);
            let c = rng.gen_range(0..n);
            m.set_in::<MinPlus>(r, c, Dist::fin(rng.gen_range(1..1000)));
        }
        m
    }

    fn check_filtered(n: usize, s: &SparseMatrix<Dist>, t: &SparseMatrix<Dist>, rho: usize) {
        let mut clique = Clique::new(n);
        let t_cols = t.transpose();
        let rows = filtered_multiply::<MinPlus>(&mut clique, s.rows(), t_cols.rows(), rho).unwrap();
        let expected = s.multiply::<MinPlus>(t).filtered::<MinPlus>(rho);
        assert_eq!(SparseMatrix::from_rows(rows), expected);
    }

    #[test]
    fn matches_filtered_reference_on_random() {
        let n = 16;
        let s = random_matrix(n, 60, 1);
        let t = random_matrix(n, 60, 2);
        for rho in [1, 2, 4, 8] {
            check_filtered(n, &s, &t, rho);
        }
    }

    #[test]
    fn star_square_filtered_stays_sparse_and_exact() {
        let n = 16;
        let mut w = SparseMatrix::<Dist>::identity::<MinPlus>(n);
        for v in 1..n {
            w.set_in::<MinPlus>(0, v, Dist::fin(v as u64));
            w.set_in::<MinPlus>(v, 0, Dist::fin(v as u64));
        }
        check_filtered(n, &w, &w, 3);
    }

    #[test]
    fn dense_inputs_filtered_output() {
        let n = 12;
        let s = random_matrix(n, n * n, 3);
        let t = random_matrix(n, n * n, 4);
        check_filtered(n, &s, &t, 2);
    }

    #[test]
    fn value_ties_break_by_column() {
        // All products equal: the filter must keep the lowest columns.
        let n = 8;
        let mut s = SparseMatrix::<Dist>::zeros(n);
        let mut t = SparseMatrix::<Dist>::zeros(n);
        for v in 0..n {
            s.set_in::<MinPlus>(0, v, Dist::fin(1));
            for c in 0..n {
                t.set_in::<MinPlus>(v, c, Dist::fin(1));
            }
        }
        let mut clique = Clique::new(n);
        let t_cols = t.transpose();
        let rows = filtered_multiply::<MinPlus>(&mut clique, s.rows(), t_cols.rows(), 3).unwrap();
        let kept: Vec<u32> = rows[0].iter().map(|(c, _)| c).collect();
        assert_eq!(kept, vec![0, 1, 2]);
    }

    #[test]
    fn augmented_semiring_filtered_square() {
        // Path graph over the augmented semiring: 2-nearest of each node.
        let n = 10;
        let mut w = SparseMatrix::<AugDist>::identity::<AugMinPlus>(n);
        for v in 0..n - 1 {
            w.set_in::<AugMinPlus>(v, v + 1, AugDist::fin(1, 1));
            w.set_in::<AugMinPlus>(v + 1, v, AugDist::fin(1, 1));
        }
        let mut clique = Clique::new(n);
        let t_cols = w.transpose();
        let rows =
            filtered_multiply::<AugMinPlus>(&mut clique, w.rows(), t_cols.rows(), 3).unwrap();
        let expected = w.multiply::<AugMinPlus>(&w).filtered::<AugMinPlus>(3);
        assert_eq!(SparseMatrix::from_rows(rows), expected);
    }

    #[test]
    fn cutoffs_are_the_rho_th_smallest_of_each_group_row() {
        // Lemma 15 on its own: after the search every member of B_ik holds,
        // for each row of the group's slice with more than ρ entries, exactly
        // the ρ-th smallest (value, column) ordinal — and nothing otherwise.
        let n = 16;
        let rho = 2;
        let s = random_matrix(n, 90, 21);
        let t = random_matrix(n, 90, 22);
        let t_cols = t.transpose();
        let mut clique = Clique::new(n);
        let mut s_op = Operand::unprepared(Side::Left, s.rows());
        let mut t_op = Operand::unprepared(Side::Right, t_cols.rows());
        let s_known = s_op.ensure_prepared::<MinPlus>(&mut clique).unwrap();
        let t_known = t_op.ensure_prepared::<MinPlus>(&mut clique).unwrap();
        let shape = CubeShape::choose(n, s_known.density, t_known.density, rho);
        let cube = CubePartition::build(&mut clique, shape, s_known, t_known).unwrap();
        let sigma1 = cube.sigma1();
        let inputs = deliver::<MinPlus>(&mut clique, &cube, &mut s_op, &mut t_op, &sigma1).unwrap();
        let mut scratch = ProductScratch::default();
        let products: Vec<Vec<Entry<Dist>>> =
            inputs.iter().map(|input| local_product::<MinPlus>(&mut scratch, input)).collect();

        let cutoffs = row_cutoffs::<MinPlus>(&mut clique, &cube, &products, rho).unwrap();
        let mut searched = 0;
        for i in 0..shape.b {
            for k in 0..shape.c {
                let group = cube.group_bik(i, k);
                for (slot, &row) in cube.row_blocks[i].iter().enumerate() {
                    let mut ordinals: Vec<u128> = group
                        .iter()
                        .flat_map(|&v| products[v].iter())
                        .filter(|e| e.row as usize == row)
                        .map(|e| combined(&e.val, e.col, n))
                        .collect();
                    ordinals.sort_unstable();
                    let expected = (ordinals.len() > rho).then(|| ordinals[rho - 1]);
                    searched += usize::from(expected.is_some());
                    for &member in &group {
                        assert_eq!(
                            cutoffs.by_node[member][slot], expected,
                            "group ({i},{k}) row {row} at member {member}"
                        );
                    }
                }
            }
        }
        assert!(searched > 0, "fixture too sparse to exercise the search");
        for idle in shape.subtasks()..n {
            assert!(cutoffs.by_node[idle].is_empty());
        }
    }

    #[test]
    fn search_cost_is_logarithmic_not_linear() {
        let n = 32;
        let s = random_matrix(n, 4 * n, 5);
        let t = random_matrix(n, 4 * n, 6);
        let mut clique = Clique::new(n);
        let t_cols = t.transpose();
        filtered_multiply::<MinPlus>(&mut clique, s.rows(), t_cols.rows(), 4).unwrap();
        // log W for 1000-bounded weights and n=32 is ~15 bits plus column
        // bits; the whole multiply should stay well under ~200 rounds and
        // nowhere near n^2.
        assert!(clique.rounds() < 250, "got {} rounds", clique.rounds());
    }
}
