//! Matrix multiplication with on-the-fly output sparsification —
//! **Theorem 14**.
//!
//! Computes the ρ-filtered product `P̄` (each output row truncated to its
//! `ρ` smallest entries by `(value, column)` order) in
//! `O((ρS·ρT·ρ)^{1/3}/n^{2/3} + log W)` rounds. The crux: the intermediate
//! slice matrices `P_k` can be dense, so before summation each group
//! `B_{ik}` (the `a` nodes producing rows `C^S_i` of slice `P_k`) runs a
//! **distributed search** over the value space to find, per row, the
//! cutoff below which exactly `ρ` entries survive (Lemma 15). Everything
//! above the cutoff is discarded, the survivors are re-balanced inside the
//! group (Lemma 16), summed like in Theorem 8, and the final rows filtered
//! once more locally.
//!
//! Everything but the search, Lemma 16's helper policy (one pool per group,
//! chunk `ρ·α_i·c`) and the final filter is the shared pipeline's (see the
//! crate docs), which runs the search as its thinning step.
//!
//! The search pays only where it cuts a row by a large factor. Where
//! `2ρ ≥ n` it cannot halve one, and Theorem 8 at `ρ̂ = n ≤ 2ρ` costs at
//! most `2^{1/3}` times Theorem 14's volume term and no `log W`: such a
//! product keeps Theorem 14's cube, skips the search and Lemma 16, balances
//! its whole slices by Lemma 12 at `ρ̂ = n` (one pool `0..n`, chunk `n·c`,
//! a hint no output exceeds) and filters its rows at the end, to the same
//! output. The hopset's k-nearest squarings run there for every n ≤ 256,
//! as `k = ⌈√n·log₂ n⌉ ≥ n/2`.
//!
//! The search runs over *combined ordinals* `ordinal(value)·n + column + 1`,
//! where `ordinal` is [`OrderedSemiring::ordinal`], the one encoding of the
//! order the final row filter sorts by (`Ord`). So it directly finds the
//! `(value, column)` cutoff pair — the paper's lexicographic cutoff
//! `(r, s)` — in one search instead of a value search plus a
//! tie-resolution query. That space is almost all empty (an
//! [`AugMinPlus`](cc_matrix::AugMinPlus) ordinal spends 20 bits on hops, so
//! a bisection takes ~30 steps), so the search *snaps*: every query's replies
//! name the row's nearest ordinals on either side of the midpoint, and the
//! bounds move to those instead of to the midpoint. It never takes more
//! steps than bisection — the lemma's `O(log W)` — and in the pinned n = 32
//! runs at most 6, against bisection's 27–32.

use cc_clique::{Clique, Envelope, NodeId, Payload};
use cc_matrix::{Entry, OrderedSemiring, SparseRow};

use crate::cube::CubePartition;
use crate::key_index::KeyIndex;
use crate::operand::{Operand, Side};
use crate::pipeline::{product, HelperScope, Helpers, Keep, Plan};
use crate::sparse_mm::lemma_12_scopes;
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

/// The combined ordinal of `(val, col)`, offset by one so that `min − 1`
/// below a row's smallest entry is exact even at value 0 in column 0.
fn combined<SR: OrderedSemiring>(val: &SR::Elem, col: u32, n: usize) -> u128 {
    SR::ordinal(val) * (n as u128) + col as u128 + 1
}

/// The answer to a query `mid` about one row: how many of its ordinals are
/// `≤ mid`, the largest of those and the smallest above `mid`. A member
/// answers for its own entries, the coordinator folds the answers into the
/// group's. `0` and `u128::MAX` stand for "none": no combined ordinal is 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reply {
    count: u64,
    pred: u128,
    succ: u128,
}

impl Reply {
    /// The fold of no answers.
    const NONE: Reply = Reply { count: 0, pred: 0, succ: u128::MAX };

    /// The answer of the ascending ordinals `ords` to the query `mid`.
    fn of(ords: &[u128], mid: u128) -> Reply {
        let count = ords.partition_point(|&o| o <= mid);
        let pred = count.checked_sub(1).map_or(0, |last| ords[last]);
        let succ = ords.get(count).copied().unwrap_or(u128::MAX);
        Reply { count: count as u64, pred, succ }
    }

    fn fold(self, other: Reply) -> Reply {
        Reply {
            count: self.count + other.count,
            pred: self.pred.max(other.pred),
            succ: self.succ.min(other.succ),
        }
    }
}

/// A count and two combined ordinals (see [`Ord128`]).
impl Payload for Reply {
    fn words(&self) -> usize {
        3
    }
}

/// State of one per-row search, held by its coordinator.
#[derive(Debug)]
struct Search {
    /// Invariant: count(≤ lo) < ρ ≤ count(≤ hi).
    lo: u128,
    hi: u128,
    /// Entries of this row across the group, summed from the init reports.
    total: u64,
    /// The fold of the members' replies to the query in flight.
    replied: Reply,
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

    /// Narrows `(lo, hi]` by the group's `reply` to the midpoint query,
    /// snapping each bound to the nearest ordinal that exists — at least as
    /// far as bisection moves it. An exact count of `ρ` or `ρ − 1` names
    /// the ρ-th smallest ordinal outright and closes the search.
    fn narrow(&mut self, reply: Reply, rho: u64) {
        if reply.count >= rho {
            self.hi = reply.pred;
        } else {
            self.lo = reply.succ - 1;
        }
        if reply.count == rho {
            self.lo = self.hi - 1;
        } else if reply.count + 1 == rho {
            self.hi = reply.succ;
        }
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
    fn build<SR: OrderedSemiring>(
        entries: &[Entry<SR::Elem>],
        slot_of_row: &[u32],
        n: usize,
    ) -> RowOrdinals {
        let mut by_slot = KeyIndex::default();
        by_slot.rebuild(entries.len(), |idx| slot_of_row[entries[idx].row as usize]);
        let mut ords: Vec<u128> = by_slot
            .order()
            .iter()
            .map(|&idx| combined::<SR>(&entries[idx as usize].val, entries[idx as usize].col, n))
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
    fn keeps<SR: OrderedSemiring>(&self, v: NodeId, e: &Entry<SR::Elem>) -> bool {
        match self.by_node[v][self.slot_of_row[e.row as usize] as usize] {
            Some(cut) => combined::<SR>(&e.val, e.col, self.n) <= cut,
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
/// Where `2ρ ≥ n` the `log W` term is not paid: the pipeline skips Lemma 15's
/// search and balances by Lemma 12 at `ρ̂ = n`, within `2^{1/3}` of the
/// volume term (module docs).
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
{
    filtered_product::<SR>(clique, s, t, rho, true)
}

/// [`filtered_multiply_prepared`], with the owner product allowed if
/// `owner`.
pub(crate) fn filtered_product<SR>(
    clique: &mut Clique,
    s: &mut Operand<'_, SR::Elem>,
    t: &mut Operand<'_, SR::Elem>,
    rho: usize,
    owner: bool,
) -> Result<Vec<SparseRow<SR::Elem>>, MatmulError>
where
    SR: OrderedSemiring,
{
    let n = clique.n();
    let rho = rho.clamp(1, n);
    // Lemma 15: per-row cutoffs via a lockstep distributed search.
    let thin = |cl: &mut Clique, cube: &CubePartition, products: &[Vec<Entry<SR::Elem>>]| {
        let cutoffs = row_cutoffs::<SR>(cl, cube, products, rho)?;
        Ok(Box::new(move |v, e: &Entry<SR::Elem>| cutoffs.keeps::<SR>(v, e)) as Keep<'_, SR::Elem>)
    };
    // Lemma 16: survivors are balanced inside each group B_ik, whose own
    // members are the pool (the lemma proves it always suffices).
    let lemma_16 = |cube: &CubePartition| {
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
    // Where `2ρ ≥ n` thinning cannot halve a row: no search, and the whole
    // slices are balanced by Lemma 12 at `ρ̂ = n` (module docs). Every node
    // knows `ρ` and `n`, so every node makes the same choice.
    let lemma_12 = |cube: &CubePartition| lemma_12_scopes(cube, n);
    let search = 2 * rho < n;
    let plan = Plan {
        label: "filtered_mm",
        cube_density: Some(rho),
        thin: if search { Some(&thin) } else { None },
        helpers: Some(if search {
            Helpers { sizes_label: "weights", hint: rho, scopes: &lemma_16 }
        } else {
            Helpers { sizes_label: "sizes", hint: n, scopes: &lemma_12 }
        }),
        owner,
    };
    let mut rows = product::<SR>(clique, &plan, s, t)?;
    for row in &mut rows {
        row.filter_smallest(rho);
    }
    Ok(rows)
}

/// Lemma 15: for every group `B_{ik}` and row, finds the `(value, column)`
/// cutoff such that exactly `ρ` entries of that row of `P_k` survive (or
/// no cutoff if the row already has at most `ρ` entries). Afterwards,
/// **every member of the group** knows the cutoffs of all the group's rows.
///
/// Each row's coordinator keeps `count(≤ lo) < ρ ≤ count(≤ hi)` over the
/// row's combined ordinals, from `lo = min − 1`, `hi = max`. A step queries
/// the midpoint `mid` of `(lo, hi]`; the members' replies fold into `Σcount`,
/// the largest ordinal `≤ mid` and the smallest `> mid`, and the coordinator
/// sets `hi` to the former if `Σcount ≥ ρ`, else `lo` to the latter minus
/// one ([`Search::narrow`]). Both are at least as tight as bisection's
/// `mid`, so a search takes at most `⌈log₂(hi₀ − lo₀)⌉` steps; `Σcount = ρ`
/// or `ρ − 1` ends it at once. It ends at `hi = lo + 1`: `hi` is then
/// exactly the ρ-th smallest ordinal, the cutoff bisection would find.
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
        products.iter().map(|entries| RowOrdinals::build::<SR>(entries, &slot_of_row, n)).collect();

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
                    replied: Reply::NONE,
                    contributors: Vec::new(),
                });
                s.contributors.push(env.src);
                s.lo = s.lo.min(min_o.0 - 1);
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

        // Lockstep search: one (query, reply) route pair per step.
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
                    replies.push(Envelope::new(member, env.src, (row, Reply::of(ords, mid.0))));
                }
            }
            let inboxes = clique.route(replies)?;
            for (coord, inbox) in inboxes.into_iter().enumerate() {
                for env in inbox {
                    let (row, reply) = env.payload;
                    let s = searches[coord][slot_of_row[row as usize] as usize]
                        .as_mut()
                        .expect("reply matches search");
                    s.replied = s.replied.fold(reply);
                }
                // Exactly the searches that were open sent a query, and each
                // heard back from all its contributors.
                for s in searches[coord].iter_mut().flatten().filter(|s| s.open()) {
                    let reply = std::mem::replace(&mut s.replied, Reply::NONE);
                    s.narrow(reply, rho as u64);
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
    use cc_matrix::{AugDist, AugMinPlus, Dist, MinPlus, Semiring, SparseMatrix};
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
        let expected = s.multiply::<MinPlus>(t).filtered(rho);
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
        let expected = w.multiply::<AugMinPlus>(&w).filtered(3);
        assert_eq!(SparseMatrix::from_rows(rows), expected);
    }

    /// Lemma 15's input as `product` hands it over: the cube shaped for `rho`
    /// and every node's σ1 slice product.
    fn slice_products<SR>(
        clique: &mut Clique,
        s: &SparseMatrix<SR::Elem>,
        t: &SparseMatrix<SR::Elem>,
        rho: usize,
    ) -> (CubePartition, Vec<Vec<Entry<SR::Elem>>>)
    where
        SR: OrderedSemiring,
    {
        let n = clique.n();
        let t_cols = t.transpose();
        let mut s_op = Operand::unprepared(Side::Left, s.rows());
        let mut t_op = Operand::unprepared(Side::Right, t_cols.rows());
        let s_known = s_op.ensure_prepared::<SR>(clique).unwrap();
        let t_known = t_op.ensure_prepared::<SR>(clique).unwrap();
        let shape = CubeShape::choose(n, s_known.counts.density(), t_known.counts.density(), rho);
        let cube = CubePartition::build(clique, shape, s_known, t_known).unwrap();
        let sigma1 = cube.sigma1();
        let inputs = deliver::<SR>(clique, &cube, &mut s_op, &mut t_op, &sigma1).unwrap();
        let mut scratch = ProductScratch::default();
        let products =
            inputs.iter().map(|input| local_product::<SR>(&mut scratch, input)).collect();
        (cube, products)
    }

    #[test]
    fn a_zero_value_in_column_zero_still_leaves_exactly_rho() {
        // Row 0 of S·T is 0, 0, 5 in columns 0, 1, 2: its smallest combined
        // ordinal is value 0 at column 0, the bottom of the ordinal range.
        let n = 4;
        let rho = 1;
        let mut s = SparseMatrix::<Dist>::zeros(n);
        let mut t = SparseMatrix::<Dist>::zeros(n);
        s.set_in::<MinPlus>(0, 0, Dist::fin(0));
        t.set_in::<MinPlus>(0, 0, Dist::fin(0));
        t.set_in::<MinPlus>(0, 1, Dist::fin(0));
        t.set_in::<MinPlus>(0, 2, Dist::fin(5));
        let mut clique = Clique::new(n);
        let (cube, products) = slice_products::<MinPlus>(&mut clique, &s, &t, rho);
        assert_eq!(products.iter().map(Vec::len).sum::<usize>(), 3);
        let cutoffs = row_cutoffs::<MinPlus>(&mut clique, &cube, &products, rho).unwrap();
        let survivors: usize = (0..n)
            .map(|v| products[v].iter().filter(|e| cutoffs.keeps::<MinPlus>(v, e)).count())
            .sum();
        assert_eq!(survivors, rho, "Lemma 16 counts on at most ρ survivors per row");
    }

    /// One row's search run on the host over the group's ascending
    /// `ordinals`: the cutoff it ends on, its steps, and the steps bisection
    /// of its starting range needs, `⌈log₂(hi₀ − lo₀)⌉`.
    fn search_on_host(ordinals: &[u128], rho: usize) -> (u128, u32, u32) {
        let (lo, hi) = (ordinals[0] - 1, ordinals[ordinals.len() - 1]);
        let total = ordinals.len() as u64;
        let mut search = Search { lo, hi, total, replied: Reply::NONE, contributors: Vec::new() };
        let mut steps = 0;
        while search.open() {
            search.narrow(Reply::of(ordinals, search.midpoint()), rho as u64);
            steps += 1;
        }
        (search.hi, steps, u128::BITS - (hi - lo - 1).leading_zeros())
    }

    /// Lemma 15 on one fixture: after the search every member of B_ik
    /// holds, for each row of the group's slice with more than ρ entries,
    /// exactly the ρ-th smallest (value, column) ordinal — and nothing
    /// otherwise — and no row's search took more steps than bisection would
    /// have. Returns the number of rows searched.
    fn check_cutoffs<SR>(
        s: &SparseMatrix<SR::Elem>,
        t: &SparseMatrix<SR::Elem>,
        rho: usize,
    ) -> usize
    where
        SR: OrderedSemiring,
    {
        let n = s.n();
        let mut clique = Clique::new(n);
        let (cube, products) = slice_products::<SR>(&mut clique, s, t, rho);
        let cutoffs = row_cutoffs::<SR>(&mut clique, &cube, &products, rho).unwrap();
        let (mut searched, mut most_steps) = (0, 0);
        for i in 0..cube.shape.b {
            for k in 0..cube.shape.c {
                let group = cube.group_bik(i, k);
                for (slot, &row) in cube.row_blocks[i].iter().enumerate() {
                    let entries: Vec<(NodeId, &Entry<SR::Elem>)> = group
                        .iter()
                        .flat_map(|&v| products[v].iter().map(move |e| (v, e)))
                        .filter(|(_, e)| e.row as usize == row)
                        .collect();
                    // The cutoffs keep what the final row filter keeps of the
                    // group's row: its `ρ` smallest entries by `Ord`.
                    let row_of = |kept: Vec<&(NodeId, &Entry<SR::Elem>)>| {
                        let pairs = kept.iter().map(|(_, e)| (e.col, e.val.clone())).collect();
                        SparseRow::from_entries::<SR>(pairs)
                    };
                    let mut smallest = row_of(entries.iter().collect());
                    smallest.filter_smallest(rho);
                    let at_or_below = row_of(
                        entries.iter().filter(|(v, e)| cutoffs.keeps::<SR>(*v, e)).collect(),
                    );
                    assert_eq!(at_or_below, smallest, "group ({i},{k}) row {row}");
                    let mut ordinals: Vec<u128> =
                        entries.iter().map(|(_, e)| combined::<SR>(&e.val, e.col, n)).collect();
                    ordinals.sort_unstable();
                    let expected = (ordinals.len() > rho).then(|| ordinals[rho - 1]);
                    if let Some(cutoff) = expected {
                        let (found, steps, bisection) = search_on_host(&ordinals, rho);
                        assert_eq!(found, cutoff, "group ({i},{k}) row {row}");
                        assert!(steps <= bisection, "row {row}: {steps} > {bisection} steps");
                        most_steps = most_steps.max(steps);
                        searched += 1;
                    }
                    for &member in &group {
                        assert_eq!(
                            cutoffs.by_node[member][slot], expected,
                            "group ({i},{k}) row {row} at member {member}"
                        );
                    }
                }
            }
        }
        for idle in cube.shape.subtasks()..n {
            assert!(cutoffs.by_node[idle].is_empty());
        }
        // Lockstep: the init route, a query and a reply route per step of the
        // longest search, and the broadcast of the cutoffs.
        let routes = clique.report().phases["cutoff_search/route"].invocations;
        assert_eq!(routes, 2 + 2 * u64::from(most_steps));
        searched
    }

    /// `m` over the augmented semiring, each entry given a random hop count.
    fn with_hops(m: &SparseMatrix<Dist>, seed: u64) -> SparseMatrix<AugDist> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut aug = SparseMatrix::zeros(m.n());
        for (r, row) in m.rows().iter().enumerate() {
            for (c, d) in row.iter() {
                let hops = rng.gen_range(1..m.n() as u32);
                aug.set_in::<AugMinPlus>(r, c as usize, AugDist::fin(d.value().unwrap(), hops));
            }
        }
        aug
    }

    /// The `n × n` matrix with every entry `val`.
    fn full<SR: Semiring>(n: usize, val: &SR::Elem) -> SparseMatrix<SR::Elem> {
        let mut m = SparseMatrix::zeros(n);
        for r in 0..n {
            for c in 0..n {
                m.set_in::<SR>(r, c, val.clone());
            }
        }
        m
    }

    #[test]
    fn cutoffs_are_the_rho_th_smallest_of_each_group_row() {
        let n = 20;
        let k = (n as f64).sqrt().ceil() as usize;
        let mut searched = 0;
        for rho in [1, 2, 4, k] {
            for seed in 0..4 {
                let s = random_matrix(n, 120, 2 * seed);
                let t = random_matrix(n, 120, 2 * seed + 1);
                searched += check_cutoffs::<MinPlus>(&s, &t, rho);
                let (s, t) = (with_hops(&s, seed), with_hops(&t, seed + 1));
                searched += check_cutoffs::<AugMinPlus>(&s, &t, rho);
            }
            // All values equal, so the column alone orders a row — at 1, and
            // at 0, where column 0 holds the smallest possible ordinal.
            for value in [0, 1] {
                let s = full::<MinPlus>(n, &Dist::fin(value));
                searched += check_cutoffs::<MinPlus>(&s, &s, rho);
                let s = full::<AugMinPlus>(n, &AugDist::fin(value, value as u32));
                searched += check_cutoffs::<AugMinPlus>(&s, &s, rho);
            }
        }
        assert!(searched >= 5_000, "fixtures too sparse to exercise the search: {searched}");
    }

    /// The `n × n` matrix with every entry a random weight.
    fn dense_matrix(n: usize, seed: u64) -> SparseMatrix<Dist> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = SparseMatrix::zeros(n);
        for r in 0..n {
            for c in 0..n {
                m.set_in::<MinPlus>(r, c, Dist::fin(rng.gen_range(1..1000)));
            }
        }
        m
    }

    /// The pipeline's ρ-filtered product of `S ⋆ T` (the row owners would
    /// take the sparse fixtures) against the reference, and whether it ran
    /// Lemma 15 as the `2ρ ≥ n` rule says: a search with a query step on a
    /// `dense` fixture, whose every slice row holds `n > ρ` entries; none,
    /// with Lemma 12's sizes for Lemma 16's weights, where `2ρ ≥ n`.
    fn check_boundary<SR>(
        s: &SparseMatrix<SR::Elem>,
        t: &SparseMatrix<SR::Elem>,
        rho: usize,
        dense: bool,
    ) where
        SR: OrderedSemiring,
    {
        let n = s.n();
        let what = format!("n = {n}, ρ = {rho}, dense: {dense}");
        let mut clique = Clique::new(n);
        let t_cols = t.transpose();
        let mut left = Operand::unprepared(Side::Left, s.rows());
        let mut right = Operand::unprepared(Side::Right, t_cols.rows());
        let rows = match filtered_product::<SR>(&mut clique, &mut left, &mut right, rho, false) {
            Ok(rows) => rows,
            Err(e) => panic!("{what}: {e}"),
        };
        let expected = s.multiply::<SR>(t).filtered(rho);
        assert!(SparseMatrix::from_rows(rows) == expected, "{what}: rows differ");
        let phases = &clique.metrics().phases;
        let routes = phases.get("filtered_mm/cutoff_search/route").map_or(0, |p| p.invocations);
        let weights = phases.contains_key("filtered_mm/weights/all_broadcast");
        let sizes = phases.contains_key("filtered_mm/sizes/all_broadcast");
        if 2 * rho >= n {
            assert_eq!((routes, weights, sizes), (0, false, true), "{what}");
        } else {
            assert!(weights && !sizes, "{what}");
            // The init route, a query and a reply route per step, and the
            // cutoffs' broadcast.
            assert!(routes >= if dense { 4 } else { 1 }, "{what}: {routes} search routes");
        }
    }

    #[test]
    fn where_two_rho_reaches_n_the_search_is_skipped() {
        for n in [31usize, 32] {
            let half = n.div_ceil(2);
            for (seed, dense) in [(7, true), (8, false)] {
                let (s, t) = if dense {
                    (dense_matrix(n, seed), dense_matrix(n, seed + 10))
                } else {
                    (random_matrix(n, 6 * n, seed), random_matrix(n, 6 * n, seed + 10))
                };
                let (aug_s, aug_t) = (with_hops(&s, seed), with_hops(&t, seed + 1));
                for rho in [half - 1, half] {
                    check_boundary::<MinPlus>(&s, &t, rho, dense);
                    check_boundary::<AugMinPlus>(&aug_s, &aug_t, rho, dense);
                }
            }
        }
    }

    #[test]
    fn search_cost_is_logarithmic_not_linear() {
        let n = 32;
        let s = random_matrix(n, 4 * n, 5);
        let t = random_matrix(n, 4 * n, 6);
        let mut clique = Clique::new(n);
        let t_cols = t.transpose();
        // The pipeline's cost: the row owners would take this product.
        let mut left = Operand::unprepared(Side::Left, s.rows());
        let mut right = Operand::unprepared(Side::Right, t_cols.rows());
        filtered_product::<MinPlus>(&mut clique, &mut left, &mut right, 4, false).unwrap();
        // log W for 1000-bounded weights and n=32 is ~15 bits plus column
        // bits, but the snapped search pays for the ordinals that exist: the
        // whole multiply takes 30 rounds (65 when the search bisected the
        // value space), nowhere near n^2.
        assert!(clique.rounds() < 36, "got {} rounds", clique.rounds());
    }
}
