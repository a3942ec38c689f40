//! Delivering subtask inputs: Lemma 10 (balancing) + Lemma 11 (intermediate
//! products).
//!
//! For an assignment `σ` of nodes to subtasks, every assigned node must
//! learn its submatrices `S[C^S_i, C^{ij}_k]` and `T[C^{ij}_k, C^T_j]`.
//! Entries are *duplicated* (an `S` entry is needed by one subtask per
//! column block), so senders are first re-balanced by total duplication
//! weight (Lemma 10: Lenzen sort by weight + round-robin deal, the
//! constructive Lemma 5) and then fan the entries out. With the Lemma 9
//! partition, every node sends and receives `O(ρS·a + n)` words for `S` and
//! `O(ρT·b + n)` for `T`, i.e. `O(ρS·a/n + ρT·b/n + 1)` rounds.

use cc_clique::{Clique, Envelope, NodeId};
use cc_matrix::{Entry, Semiring};

use crate::cube::{CubePartition, TaskAssignment};
use crate::key_index::KeyIndex;
use crate::keyed::Keyed;
use crate::operand::Operand;
use crate::MatmulError;

/// The input slices one node needs for its assigned subtask.
#[derive(Debug, Clone)]
pub struct SubtaskInput<E> {
    /// Entries of `S[C^S_i, C^{ij}_k]` in global coordinates.
    pub s_entries: Vec<Entry<E>>,
    /// Entries of `T[C^{ij}_k, C^T_j]` in global coordinates.
    pub t_entries: Vec<Entry<E>>,
}

/// Fills the buffer it is handed with the recipients of entry `(row, col)`;
/// the buffer arrives empty.
type Targets<'a> = &'a dyn Fn(u32, u32, &mut Vec<NodeId>);

/// Entries in global coordinates, grouped by the node that holds them.
pub(crate) type PerNode<E> = Vec<Vec<Entry<E>>>;

/// Lemma 11: every node assigned a subtask by `assignment` learns its
/// `S`-block and `T`-block.
///
/// An assignment that names no node is skipped without communication (and
/// the result is empty): it was computed from broadcast data, so every node
/// knows nothing is due. Under `σ1`, an operand whose placement an earlier
/// delivery computed skips Lemma 10's broadcast, sort and deal — its balanced
/// holders were sent those entries then — and only fans out against the new
/// cube.
///
/// # Errors
///
/// Returns [`MatmulError::Clique`] on malformed communication.
pub(crate) fn deliver<SR: Semiring>(
    clique: &mut Clique,
    cube: &CubePartition,
    s: &mut Operand<'_, SR::Elem>,
    t: &mut Operand<'_, SR::Elem>,
    assignment: &TaskAssignment,
) -> Result<Vec<SubtaskInput<SR::Elem>>, MatmulError> {
    if assignment.is_empty() {
        return Ok(Vec::new());
    }
    // S entries start row-distributed, T entries column-distributed.
    let s_targets =
        |r: u32, c: u32, out: &mut Vec<NodeId>| cube.s_entry_targets(r, c, assignment, out);
    let s_delivered = clique.with_phase("deliver_s", |cl| {
        half_delivery::<SR>(cl, s, assignment.canonical, &s_targets)
    })?;
    let t_targets =
        |r: u32, c: u32, out: &mut Vec<NodeId>| cube.t_entry_targets(r, c, assignment, out);
    let t_delivered = clique.with_phase("deliver_t", |cl| {
        half_delivery::<SR>(cl, t, assignment.canonical, &t_targets)
    })?;
    Ok(s_delivered
        .into_iter()
        .zip(t_delivered)
        .map(|(s_entries, t_entries)| SubtaskInput { s_entries, t_entries })
        .collect())
}

/// One operand's half of a delivery: every entry goes from where Lemma 10
/// puts it to the nodes `targets` names. A `reusable` (`σ1`) placement is
/// taken from the operand if an earlier delivery left one, and left there.
fn half_delivery<SR: Semiring>(
    clique: &mut Clique,
    operand: &mut Operand<'_, SR::Elem>,
    reusable: bool,
    targets: Targets<'_>,
) -> Result<PerNode<SR::Elem>, MatmulError> {
    let kept = if reusable { operand.sigma1_placement.take() } else { None };
    let placement = match kept {
        Some(placement) => placement,
        None => balance::<SR>(clique, operand.entries(), targets)?,
    };
    let mut recipients: Vec<NodeId> = Vec::new();
    let mut weight = None;
    // Every entry a delivery moves is needed somewhere: at least one copy each.
    let mut copies = Vec::with_capacity(placement.iter().map(Vec::len).sum());
    for (holder, batch) in placement.iter().enumerate() {
        for entry in batch {
            recipients.clear();
            targets(entry.row, entry.col, &mut recipients);
            debug_assert!(
                !reusable || *weight.get_or_insert(recipients.len()) == recipients.len(),
                "a placement is reusable only while every entry weighs the same"
            );
            for &dst in &recipients {
                copies.push(Envelope::new(holder, dst, entry.clone()));
            }
        }
    }
    let inboxes = clique.with_phase("fanout", |cl| cl.route(copies))?;
    if reusable {
        operand.sigma1_placement = Some(placement);
    }
    Ok(inboxes.into_iter().map(|batch| batch.into_iter().map(|e| e.payload).collect()).collect())
}

/// Lemma 10: balances weighted entries across nodes. Returns, per balanced
/// holder, the entries it now holds.
///
/// `per_node[v]` are the entries initially held by node `v`; `targets(r, c,
/// buf)` lists the recipients of entry `(r, c)` into a buffer that arrives
/// empty, and an entry's duplication weight is the length of that list.
fn balance<SR: Semiring>(
    clique: &mut Clique,
    per_node: PerNode<SR::Elem>,
    targets: Targets<'_>,
) -> Result<PerNode<SR::Elem>, MatmulError> {
    let n = clique.n();
    let mut recipients: Vec<NodeId> = Vec::new();

    // Step 1: global sort by descending duplication weight, then position
    // (for determinism).
    let items: Vec<Vec<Keyed<SR::Elem>>> = per_node
        .into_iter()
        .map(|entries| {
            entries
                .into_iter()
                .map(|e| {
                    recipients.clear();
                    targets(e.row, e.col, &mut recipients);
                    Keyed { key: (u64::MAX - recipients.len() as u64, e.row, e.col), val: e.val }
                })
                .collect()
        })
        .collect();
    // Everyone learns the total count, hence the global rank layout.
    let counts: Vec<u64> = items.iter().map(|v| v.len() as u64).collect();
    let counts = clique.with_phase("balance", |cl| cl.all_broadcast(counts))?;
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return Ok(vec![Vec::new(); n]);
    }
    let sorted = clique.with_phase("balance", |cl| cl.sort(items))?;
    let run = (total as usize).div_ceil(n);

    // Step 2: deal rank r to node r mod n (round-robin over the
    // descending-weight order = the constructive Lemma 5 with k = n).
    let mut deal = Vec::with_capacity(total as usize);
    for (holder, batch) in sorted.into_iter().enumerate() {
        for (off, item) in batch.into_iter().enumerate() {
            let rank = holder * run + off;
            deal.push(Envelope::new(holder, rank % n, item));
        }
    }
    let balanced = clique.with_phase("balance", |cl| cl.route(deal))?;
    Ok(balanced
        .into_iter()
        .map(|batch| {
            batch
                .into_iter()
                .map(|env| Entry::new(env.payload.key.1, env.payload.key.2, env.payload.val))
                .collect()
        })
        .collect())
}

/// The buffers of [`local_product`]. One multiplication computes thousands
/// of small block products; handing the same scratch to each of them makes
/// the output `Vec` the only allocation of a product.
#[derive(Debug)]
pub struct ProductScratch<E> {
    s_by_row: KeyIndex,
    t_by_row: KeyIndex,
    /// The accumulator row, one cell per column of the widest `T` block so
    /// far; every cell is `None` between products.
    acc: Vec<Option<E>>,
    /// Columns of `acc` written while accumulating the current output row.
    touched: Vec<u32>,
}

impl<E> Default for ProductScratch<E> {
    fn default() -> Self {
        ProductScratch {
            s_by_row: KeyIndex::default(),
            t_by_row: KeyIndex::default(),
            acc: Vec::new(),
            touched: Vec::new(),
        }
    }
}

/// Computes a subtask's local product `S_block · T_block`, returning the
/// non-zero entries of the block of `P` in deterministic position order.
///
/// A sparse-accumulator (Gustavson) product: `S` is walked row by row and
/// `T` is indexed by its row (the contraction dimension), so one output row
/// accumulates into a dense row as wide as the `T` block's column span, and
/// the columns it touched are sorted once per output row. Every output
/// position sees its elementary products in the order of the input lists.
pub fn local_product<SR: Semiring>(
    scratch: &mut ProductScratch<SR::Elem>,
    input: &SubtaskInput<SR::Elem>,
) -> Vec<Entry<SR::Elem>> {
    let (s, t) = (&input.s_entries, &input.t_entries);
    let ProductScratch { s_by_row, t_by_row, acc, touched } = scratch;
    if !(s_by_row.rebuild(s.len(), |idx| s[idx].row) && t_by_row.rebuild(t.len(), |idx| t[idx].row))
    {
        return Vec::new();
    }
    // `t` is non-empty here, so the fold leaves a real span.
    let (col_lo, col_hi) =
        t.iter().fold((u32::MAX, 0), |(lo, hi), e| (lo.min(e.col), hi.max(e.col)));
    let width = (col_hi - col_lo) as usize + 1;
    if acc.len() < width {
        acc.resize(width, None);
    }

    let mut out = Vec::new();
    for row in s_by_row.keys() {
        for &s_idx in s_by_row.get(row) {
            let s_entry = &s[s_idx as usize];
            for &t_idx in t_by_row.get(s_entry.col) {
                let t_entry = &t[t_idx as usize];
                let prod = SR::mul(&s_entry.val, &t_entry.val);
                match &mut acc[(t_entry.col - col_lo) as usize] {
                    Some(cur) => *cur = SR::add(cur, &prod),
                    slot => {
                        *slot = Some(prod);
                        touched.push(t_entry.col);
                    }
                }
            }
        }
        touched.sort_unstable();
        for col in touched.drain(..) {
            let val = acc[(col - col_lo) as usize].take().expect("touched columns hold a value");
            if !SR::is_zero(&val) {
                out.push(Entry::new(row, col, val));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::Side;
    use cc_matrix::{
        AugDist, AugMinPlus, Boolean, Dist, MinPlus, SparseMatrix, WitnessedDist, WitnessedMinPlus,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The product as first written: two ordered maps. Kept as the reference
    /// the sparse-accumulator product must equal, entry for entry, in order.
    fn local_product_reference<SR: Semiring>(
        input: &SubtaskInput<SR::Elem>,
    ) -> Vec<Entry<SR::Elem>> {
        use std::collections::BTreeMap;
        // Index T entries by their row (the contraction dimension).
        let mut t_by_row: BTreeMap<u32, Vec<(u32, &SR::Elem)>> = BTreeMap::new();
        for e in &input.t_entries {
            t_by_row.entry(e.row).or_default().push((e.col, &e.val));
        }
        let mut acc: BTreeMap<(u32, u32), SR::Elem> = BTreeMap::new();
        for s in &input.s_entries {
            if let Some(ts) = t_by_row.get(&s.col) {
                for (c, tval) in ts {
                    let prod = SR::mul(&s.val, tval);
                    acc.entry((s.row, *c))
                        .and_modify(|cur| *cur = SR::add(cur, &prod))
                        .or_insert(prod);
                }
            }
        }
        acc.into_iter()
            .filter(|(_, v)| !SR::is_zero(v))
            .map(|((r, c), v)| Entry::new(r, c, v))
            .collect()
    }

    /// A block pair in arrival (i.e. arbitrary) order: rows of `S` in
    /// `rows`, the contraction dimension in `mid`, columns of `T` in `cols`;
    /// positions repeat on both sides when the counts exceed the block area.
    fn random_input<E>(
        rng: &mut StdRng,
        (rows, mid, cols): (std::ops::Range<u32>, std::ops::Range<u32>, std::ops::Range<u32>),
        (s_len, t_len): (usize, usize),
        mut val: impl FnMut(&mut StdRng) -> E,
    ) -> SubtaskInput<E> {
        let s_entries = (0..s_len)
            .map(|_| {
                Entry::new(rng.gen_range(rows.clone()), rng.gen_range(mid.clone()), val(&mut *rng))
            })
            .collect();
        let t_entries = (0..t_len)
            .map(|_| {
                Entry::new(rng.gen_range(mid.clone()), rng.gen_range(cols.clone()), val(&mut *rng))
            })
            .collect();
        SubtaskInput { s_entries, t_entries }
    }

    /// Checks one product on a fresh scratch and on `shared`, which carries
    /// the buffers (and their invariants) of every earlier case.
    fn assert_matches_reference<SR: Semiring>(
        shared: &mut ProductScratch<SR::Elem>,
        what: &str,
        input: &SubtaskInput<SR::Elem>,
    ) {
        let expected = local_product_reference::<SR>(input);
        assert_eq!(local_product::<SR>(&mut ProductScratch::default(), input), expected, "{what}");
        assert_eq!(local_product::<SR>(shared, input), expected, "{what}, reused scratch");
        assert!(shared.acc.iter().all(Option::is_none), "{what}: accumulator left dirty");
        assert!(shared.touched.is_empty(), "{what}: touched list left dirty");
    }

    /// Shapes from dense-with-repeats to nearly empty, offset from 0 so the
    /// span arithmetic is exercised.
    const SHAPES: [(usize, usize); 6] = [(0, 9), (9, 0), (1, 1), (12, 40), (60, 60), (200, 150)];

    fn for_each_case<E>(
        seed: u64,
        val: impl Fn(&mut StdRng) -> E + Copy,
        mut check: impl FnMut(&str, &SubtaskInput<E>),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (case, &lens) in SHAPES.iter().enumerate() {
            for trial in 0..8 {
                let input = random_input(&mut rng, (40..52, 7..19, 90..101), lens, val);
                check(&format!("case {case} trial {trial}"), &input);
            }
        }
        // S columns with no matching T row: disjoint contraction ranges, and
        // a T side that reaches only part of S's columns.
        let mut input = random_input(&mut rng, (0..8, 0..6, 3..9), (30, 0), val);
        input.t_entries = random_input(&mut rng, (0..8, 6..12, 3..9), (0, 30), val).t_entries;
        check("disjoint contraction ranges", &input);
        input.t_entries = random_input(&mut rng, (0..8, 4..9, 3..9), (0, 30), val).t_entries;
        check("partially overlapping contraction ranges", &input);
    }

    #[test]
    fn sparse_accumulator_matches_btreemap_product_over_min_plus() {
        let mut shared = ProductScratch::default();
        for_each_case(
            11,
            |rng| Dist::fin(rng.gen_range(1..50)),
            |what, input| assert_matches_reference::<MinPlus>(&mut shared, what, input),
        );
    }

    #[test]
    fn sparse_accumulator_matches_btreemap_product_over_aug_min_plus() {
        let mut shared = ProductScratch::default();
        for_each_case(
            12,
            |rng| AugDist::fin(rng.gen_range(1..6), rng.gen_range(1..4)),
            |what, input| assert_matches_reference::<AugMinPlus>(&mut shared, what, input),
        );
    }

    #[test]
    fn sparse_accumulator_matches_btreemap_product_over_witnessed_min_plus() {
        // Few distinct distances, so equal-distance candidates with different
        // witnesses meet in one accumulator cell and order would show.
        let mut shared = ProductScratch::default();
        for_each_case(
            13,
            |rng| {
                if rng.gen_bool(0.5) {
                    WitnessedDist::direct(rng.gen_range(1..4))
                } else {
                    WitnessedDist::via(rng.gen_range(1..4), rng.gen_range(0..30))
                }
            },
            |what, input| assert_matches_reference::<WitnessedMinPlus>(&mut shared, what, input),
        );
    }

    #[test]
    fn sparse_accumulator_matches_btreemap_product_over_boolean() {
        // `false` entries make whole cells sum to the semiring zero: they
        // must be dropped, and a cell revived by a later `true` must not be.
        let mut shared = ProductScratch::default();
        for_each_case(
            14,
            |rng| rng.gen_bool(0.4),
            |what, input| assert_matches_reference::<Boolean>(&mut shared, what, input),
        );
    }

    #[test]
    fn products_that_sum_to_zero_are_dropped() {
        // Row 3 only ever multiplies INF: its cells exist in the accumulator
        // and must not reach the output; row 4 produces one real entry.
        let input = SubtaskInput {
            s_entries: vec![
                Entry::new(3, 0, Dist::INF),
                Entry::new(4, 1, Dist::fin(2)),
                Entry::new(3, 1, Dist::INF),
            ],
            t_entries: vec![Entry::new(0, 7, Dist::fin(1)), Entry::new(1, 5, Dist::fin(1))],
        };
        let mut scratch = ProductScratch::default();
        let product = local_product::<MinPlus>(&mut scratch, &input);
        assert_eq!(product, vec![Entry::new(4, 5, Dist::fin(3))]);
        assert_matches_reference::<MinPlus>(&mut scratch, "explicit zeros", &input);
    }

    #[test]
    fn fan_out_asks_for_targets_into_one_buffer() {
        // Entry (r, c) goes to nodes r and c: every inbox then holds exactly
        // the entries naming it, in (holder, deal) order, whatever the
        // balancing did in between.
        let n = 6;
        let mut full = SparseMatrix::zeros(n);
        for (v, c) in (0..n).flat_map(|v| (0..n).map(move |c| (v, c))) {
            full.set(v, c, Dist::fin((v * 10 + c) as u64));
        }
        let mut rows = Operand::unprepared(Side::Left, full.rows());
        let targets = |r: u32, c: u32, out: &mut Vec<NodeId>| {
            assert!(out.is_empty(), "the buffer is handed over empty");
            out.push(r as usize);
            if c != r {
                out.push(c as usize);
            }
        };
        let mut clique = Clique::new(n);
        let delivered = half_delivery::<MinPlus>(&mut clique, &mut rows, false, &targets).unwrap();
        assert!(rows.sigma1_placement.is_none(), "not σ1: nothing to keep");
        for (v, inbox) in delivered.iter().enumerate() {
            let mut positions: Vec<(u32, u32)> = inbox.iter().map(Entry::pos).collect();
            positions.sort_unstable();
            let mut expected: Vec<(u32, u32)> = (0..n as u32)
                .flat_map(|r| (0..n as u32).map(move |c| (r, c)))
                .filter(|&(r, c)| r as usize == v || c as usize == v)
                .collect();
            expected.sort_unstable();
            assert_eq!(positions, expected, "node {v}");
        }
        // 36 entries dealt + (2·36 − 6) fanned out, nothing else routed.
        assert_eq!(clique.metrics().phases["balance/route"].messages, 36);
        assert_eq!(clique.metrics().phases["fanout/route"].messages, 66);
    }
}
