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
/// delivery computed skips Lemma 10's sort and deal — its balanced holders
/// were sent those entries then — and only fans out against the new cube.
///
/// The two sides are independent: each sorts on its own
/// (`deliver_s/balance/sort`, `deliver_t/balance/sort`), then both deals
/// share the rounds of one route (`deliver/balance/route`) and both fan-outs
/// those of another (`deliver/fanout/route`). A deal needs the operand's
/// total entry count, which a prepared operand's broadcast counts already
/// give; only an unprepared one — the dense baseline's — broadcasts its
/// counts first (`deliver_s/balance/all_broadcast`, and likewise for `T`).
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
    let t_targets =
        |r: u32, c: u32, out: &mut Vec<NodeId>| cube.t_entry_targets(r, c, assignment, out);
    let reusable = assignment.canonical;
    let s_kept = if reusable { s.sigma1_placement.take() } else { None };
    let t_kept = if reusable { t.sigma1_placement.take() } else { None };

    // Lemma 10 for each side without a kept placement; an empty deal
    // stands for a side whose placement is reused.
    let s_deal = match s_kept {
        Some(_) => Vec::new(),
        None => clique.with_phase("deliver_s/balance", |cl| deal::<SR>(cl, s, &s_targets))?,
    };
    let t_deal = match t_kept {
        Some(_) => Vec::new(),
        None => clique.with_phase("deliver_t/balance", |cl| deal::<SR>(cl, t, &t_targets))?,
    };
    let [s_dealt, t_dealt] =
        clique.with_phase("deliver/balance", |cl| cl.route_together([s_deal, t_deal]))?;
    let s_placement = s_kept.unwrap_or_else(|| placement(s_dealt));
    let t_placement = t_kept.unwrap_or_else(|| placement(t_dealt));

    // Lemma 11: both fan-outs in shared rounds.
    let copies =
        [fan_out(&s_placement, &s_targets, reusable), fan_out(&t_placement, &t_targets, reusable)];
    let [s_inboxes, t_inboxes] =
        clique.with_phase("deliver/fanout", |cl| cl.route_together(copies))?;
    if reusable {
        s.sigma1_placement = Some(s_placement);
        t.sigma1_placement = Some(t_placement);
    }
    let payloads =
        |inbox: Vec<Envelope<Entry<SR::Elem>>>| inbox.into_iter().map(|e| e.payload).collect();
    Ok(s_inboxes
        .into_iter()
        .zip(t_inboxes)
        .map(|(s_in, t_in)| SubtaskInput { s_entries: payloads(s_in), t_entries: payloads(t_in) })
        .collect())
}

/// Lemma 10's sort for one operand: the deal that balances its entries
/// across nodes by duplication weight, still to be routed.
///
/// `targets(r, c, buf)` lists the recipients of entry `(r, c)` into a buffer
/// that arrives empty, and an entry's duplication weight is the length of
/// that list.
fn deal<SR: Semiring>(
    clique: &mut Clique,
    operand: &Operand<'_, SR::Elem>,
    targets: Targets<'_>,
) -> Result<Vec<Envelope<Keyed<SR::Elem>>>, MatmulError> {
    let n = clique.n();
    let mut recipients: Vec<NodeId> = Vec::new();

    // Step 1: global sort by descending duplication weight, then position
    // (for determinism).
    let items: Vec<Vec<Keyed<SR::Elem>>> = operand
        .entries()
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
    // Everyone knows the total count, hence the global rank layout: a
    // prepared operand's slice sizes were broadcast when it was prepared,
    // and only an unprepared one (the dense baseline's) broadcasts them now.
    let total: u64 = match operand.prepared() {
        Some(known) => known.counts.per_node().iter().sum(),
        None => clique.all_broadcast(items.iter().map(|v| v.len() as u64).collect())?.iter().sum(),
    };
    if total == 0 {
        return Ok(Vec::new());
    }
    let sorted = clique.sort(items)?;
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
    Ok(deal)
}

/// The entries every node holds once a deal is delivered: the sort key
/// carried each entry's position.
fn placement<E>(dealt: Vec<Vec<Envelope<Keyed<E>>>>) -> PerNode<E> {
    dealt
        .into_iter()
        .map(|inbox| {
            inbox
                .into_iter()
                .map(|env| Entry::new(env.payload.key.1, env.payload.key.2, env.payload.val))
                .collect()
        })
        .collect()
}

/// Lemma 11's fan-out for one operand: a copy of every placed entry to each
/// node `targets` names. A `reusable` (`σ1`) placement must weigh every
/// entry the same.
fn fan_out<E: Clone>(
    placement: &PerNode<E>,
    targets: Targets<'_>,
    reusable: bool,
) -> Vec<Envelope<Entry<E>>> {
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
    copies
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
    use crate::cube::CubeShape;
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
    fn only_an_unprepared_operand_broadcasts_its_deal_counts() {
        // A product prepares both operands, so each deal reads its total
        // off the operand's counts; the dense baseline's operands are never
        // prepared, and each of its two deals broadcasts them once.
        let n = 16;
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = SparseMatrix::zeros(n);
        for _ in 0..60 {
            m.set_in::<MinPlus>(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                Dist::fin(rng.gen_range(1..9)),
            );
        }
        let (cols, expected) = (m.transpose(), m.multiply::<MinPlus>(&m));
        let balance_broadcasts = |clique: &Clique, label: &str| {
            ["deliver_s", "deliver_t"].map(|side| {
                let phase = format!("{label}/{side}/balance/all_broadcast");
                clique.metrics().phases.get(&phase).map_or(0, |p| p.invocations)
            })
        };

        let mut clique = Clique::new(n);
        let rows =
            crate::sparse_multiply::<MinPlus>(&mut clique, m.rows(), cols.rows(), n).unwrap();
        assert_eq!(SparseMatrix::from_rows(rows), expected);
        assert!(clique.metrics().phases["sparse_mm/deliver_s/balance/sort"].invocations >= 1);
        assert_eq!(balance_broadcasts(&clique, "sparse_mm"), [0, 0]);

        let mut clique = Clique::new(n);
        let rows = crate::dense_multiply::<MinPlus>(&mut clique, m.rows(), cols.rows()).unwrap();
        assert_eq!(SparseMatrix::from_rows(rows), expected);
        assert_eq!(balance_broadcasts(&clique, "dense_mm"), [1, 1]);
    }

    #[test]
    fn fan_out_asks_for_targets_into_one_buffer() {
        // Every inbox holds exactly the entries whose targets name its node,
        // whatever the balancing did in between: a recipient buffer handed
        // over with the last entry's targets still in it would show here.
        let n = 8;
        let mut full = SparseMatrix::zeros(n);
        for (r, c) in (0..n).flat_map(|r| (0..n).map(move |c| (r, c))) {
            full.set(r, c, Dist::fin((r * 10 + c) as u64));
        }
        let cols = full.transpose();
        let cube = CubePartition::uniform(n, CubeShape { a: 2, b: 2, c: 2 });
        let sigma1 = cube.sigma1();
        let (mut s, mut t) = (
            Operand::unprepared(Side::Left, full.rows()),
            Operand::unprepared(Side::Right, cols.rows()),
        );
        let mut clique = Clique::new(n);
        let first = deliver::<MinPlus>(&mut clique, &cube, &mut s, &mut t, &sigma1).unwrap();
        let positions_for = |v: NodeId, targets: Targets<'_>| {
            let mut recipients = Vec::new();
            let all = (0..n as u32).flat_map(|r| (0..n as u32).map(move |c| (r, c)));
            all.filter(|&(r, c)| {
                recipients.clear();
                targets(r, c, &mut recipients);
                recipients.contains(&v)
            })
            .collect::<Vec<_>>()
        };
        let sorted = |entries: &[Entry<Dist>]| {
            let mut p: Vec<(u32, u32)> = entries.iter().map(Entry::pos).collect();
            p.sort_unstable();
            p
        };
        for (v, input) in first.iter().enumerate() {
            let s_targets = |r, c, out: &mut Vec<NodeId>| cube.s_entry_targets(r, c, &sigma1, out);
            let t_targets = |r, c, out: &mut Vec<NodeId>| cube.t_entry_targets(r, c, &sigma1, out);
            assert_eq!(sorted(&input.s_entries), positions_for(v, &s_targets), "S at node {v}");
            assert_eq!(sorted(&input.t_entries), positions_for(v, &t_targets), "T at node {v}");
        }
        // 64 entries a side dealt in one route; each S entry fanned out to
        // a = 2 nodes and each T entry to b = 2, in one more.
        let phases = &clique.metrics().phases;
        assert_eq!(phases["deliver/balance/route"].messages, 2 * 64);
        assert_eq!(phases["deliver/fanout/route"].messages, 2 * 2 * 64);

        // σ1 again: both placements are reused, so nothing is dealt and the
        // same copies arrive.
        let again = deliver::<MinPlus>(&mut clique, &cube, &mut s, &mut t, &sigma1).unwrap();
        for (a, b) in first.iter().zip(&again) {
            assert_eq!((&a.s_entries, &a.t_entries), (&b.s_entries, &b.t_entries));
        }
        let phases = &clique.metrics().phases;
        assert_eq!(phases["deliver_s/balance/sort"].invocations, 1);
        assert_eq!(phases["deliver_t/balance/sort"].invocations, 1);
        assert_eq!(phases["deliver/balance/route"].messages, 2 * 64, "nothing dealt again");
        assert_eq!(phases["deliver/fanout/route"].invocations, 2);
    }
}
