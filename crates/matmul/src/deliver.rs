//! Delivering subtask inputs: Lemma 10 (balancing) + Lemma 11 (intermediate
//! products).
//!
//! For an assignment `σ` of nodes to subtasks, every assigned node must
//! learn its submatrices `S[C^S_i, C^{ij}_k]` and `T[C^{ij}_k, C^T_j]`.
//! Entries are *duplicated* (an `S` entry is needed by one subtask per
//! column block), so senders may first be re-balanced by total duplication
//! weight (Lemma 10: Lenzen sort by weight + round-robin deal, the
//! constructive Lemma 5) before they fan the entries out. With the Lemma 9
//! partition, every node then sends and receives `O(ρS·a + n)` words for `S`
//! and `O(ρT·b + n)` for `T`, i.e. `O(ρS·a/n + ρT·b/n + 1)` rounds.
//!
//! The balance is only worth its rounds when the input layout would fan out
//! more slowly. Under `σ1` every entry of `S` weighs `a` and every entry of
//! `T` weighs `b`, so each node's fan-out send load follows from the
//! broadcast slice sizes alone, for the input layout and for the balanced
//! one alike. [`plan`] predicts the sort, deal and fan-out rounds of every
//! choice from those sizes, under the clique's cost model, and balances only
//! the sides whose balance pays; the fan-out's receive load is the same
//! whatever the choice, so the plan never costs more rounds than balancing
//! both sides would. `σ2` deliveries balance both sides.

use cc_clique::{Clique, CostModel, Envelope, NodeId};
use cc_matrix::{Entry, Semiring};

use crate::cube::{CubePartition, CubeShape, TaskAssignment};
use crate::key_index::KeyIndex;
use crate::keyed::Keyed;
use crate::layout::{self, Counts};
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

/// Where one side of a delivery fans out from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Placing {
    /// The input layout, as [`Operand::entries`] lists it.
    InPlace,
    /// The placement an earlier `σ1` delivery balanced.
    Kept,
    /// A placement Lemma 10 balances now, by a sort and a deal.
    Balanced,
}

/// The rounds [`predict`] expects a delivery to charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Predicted {
    /// Each side's balancing sort (`deliver_s/balance/sort`,
    /// `deliver_t/balance/sort`).
    pub sort: [u64; 2],
    /// The deal route both sides share (`deliver/balance/route`).
    pub deal: u64,
    /// What the fan-out's send load charges; the fan-out route
    /// (`deliver/fanout/route`) charges the larger of this and its receive
    /// load, which no placing changes.
    pub send: u64,
}

impl Predicted {
    fn total(&self) -> u64 {
        self.sort.iter().sum::<u64>() + self.deal + self.send
    }
}

/// One side's slice sizes as [`predict`] reads them, from a broadcast
/// [`Counts`]: the held slices' sizes, or — when only the opposite layout's
/// were broadcast — just the total, which both layouts share.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sizes<'c> {
    n: u64,
    total: u64,
    per_node: Option<&'c [u64]>,
}

impl<'c> Sizes<'c> {
    /// The held slices' sizes, from their broadcast.
    pub fn held(counts: &'c Counts) -> Self {
        Sizes { per_node: Some(counts.per_node()), ..Sizes::opposite(counts) }
    }

    /// The total alone, from a broadcast of the opposite layout's sizes.
    pub fn opposite(counts: &Counts) -> Self {
        let per_node = counts.per_node();
        Sizes { n: per_node.len() as u64, total: per_node.iter().sum(), per_node: None }
    }
}

/// The rounds a `σ1` delivery spends on its sorts, its deal and its fan-out
/// sends when its two sides are placed as `placing`, computed from their
/// broadcast `sizes` and the cube's `(a, b)` alone.
///
/// Under `σ1` every entry of `S` goes to `a` nodes and every entry of `T` to
/// `b`. A side in place holds `c_v` entries at node `v`; a kept or balanced
/// one holds `⌊total/n⌋ + [v < total mod n]`, what dealing rank `r` to node
/// `r mod n` leaves. Each entry is one word, as every element type of the
/// workspace is, and each load is charged by the cost model's rule for its
/// primitive.
///
/// Exact when both sides' per-node sizes are known. A side known only by its
/// total is bounded from below: its balancing sort by the average slice
/// (`⌈total/n⌉` entries, one unit if it has any), and — in place — its
/// fan-out sends by none at all, with the busiest sender at least the
/// average one (`⌈(a·ΣS + b·ΣT)/n⌉`).
pub(crate) fn predict(
    cost: &CostModel,
    shape: CubeShape,
    sizes: [Sizes<'_>; 2],
    placing: [Placing; 2],
) -> Predicted {
    let n = sizes[0].n;
    let nodes = n as usize;
    let total = sizes.map(|side| side.total);
    let mut sort = [0; 2];
    let mut dealt = 0;
    for side in 0..2 {
        if placing[side] == Placing::Balanced {
            let most = sizes[side].per_node.map_or(0, |c| c.iter().copied().max().unwrap_or(0));
            sort[side] = cost.sort_rounds(most.max(total[side].div_ceil(n)), nodes);
            dealt += total[side].div_ceil(n);
        }
    }
    let holding = |side: usize, v: u64| match placing[side] {
        Placing::InPlace => sizes[side].per_node.map_or(0, |c| c[v as usize]),
        Placing::Kept | Placing::Balanced => total[side] / n + u64::from(v < total[side] % n),
    };
    let (a, b) = (shape.a as u64, shape.b as u64);
    let busiest = (0..n).map(|v| holding(0, v) * a + holding(1, v) * b).max().unwrap_or(0);
    let send = busiest.max((total[0] * a + total[1] * b).div_ceil(n));
    Predicted { sort, deal: cost.route_rounds(dealt, nodes), send: cost.route_rounds(send, nodes) }
}

/// Which sides a `σ1` delivery balances: of the placings open to it, the one
/// [`predict`] charges fewest rounds, balancing less on a tie. A side with a
/// `kept` placement reuses it, at no cost.
///
/// Every input is a broadcast value or the cube's shape, so every node
/// computes the same plan. Balancing both sides is always open and every
/// other plan sorts and deals less, so the plan never charges more than
/// balancing both would.
pub(crate) fn plan(
    cost: &CostModel,
    shape: CubeShape,
    sizes: [Sizes<'_>; 2],
    kept: [bool; 2],
) -> [Placing; 2] {
    let open = |kept: bool| {
        if kept {
            &[Placing::Kept][..]
        } else {
            &[Placing::InPlace, Placing::Balanced][..]
        }
    };
    let mut best = ([Placing::Balanced; 2], u64::MAX);
    for &s in open(kept[0]) {
        for &t in open(kept[1]) {
            let rounds = predict(cost, shape, sizes, [s, t]).total();
            if rounds < best.1 {
                best = ([s, t], rounds);
            }
        }
    }
    best.0
}

/// A floor no run of the pipeline on the same operands goes below: the
/// cube's broadcasts, the `σ1` delivery's sorts, deal and fan-out sends
/// ([`predict`] under [`plan`]), the helper sizes broadcast, and — if
/// `summed`, some elementary product being non-zero, so that the summation
/// has something to sort — one summation sort and one route. From `sizes`
/// that know a side only by its total, a floor under that floor.
///
/// The pipeline always builds the cube (free if `c = 1`), delivers under
/// `σ1` as [`plan`] places it — its fan-out charges at least the predicted
/// sends — and broadcasts its subtask product sizes (Lemmas 12 and 16). A
/// non-zero elementary product leaves at least one intermediate value in
/// every semiring of the workspace (a sum of non-zero elements is
/// non-zero, and Lemma 15 keeps a row's smallest entries), so the summation
/// then sorts and routes at least one unit each.
pub(crate) fn pipeline_floor(
    cost: &CostModel,
    shape: CubeShape,
    sizes: [Sizes<'_>; 2],
    kept: [bool; 2],
    summed: bool,
) -> u64 {
    let n = sizes[0].n as usize;
    let sigma1 = predict(cost, shape, sizes, plan(cost, shape, sizes, kept)).total();
    let sum = if summed { cost.sort_rounds(1, n) + cost.route_rounds(1, n) } else { 0 };
    shape.build_rounds(cost, n) + sigma1 + cost.broadcast_rounds(1) + sum
}

/// The bit of an owner load word ([`Load::from_words`]) raised if some
/// elementary product through the node is non-zero. A load is at most `n²`,
/// far below it.
pub(crate) const FLAG_BIT: u64 = 1 << 63;

/// What the nodes know of the owner route's largest load word `L`: `least
/// ≤ L ≤ most`, and whether some elementary product is non-zero, if they
/// know that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Load {
    pub least: u64,
    pub most: u64,
    pub summed: Option<bool>,
}

impl Load {
    /// Bounds from broadcast counts alone: `S`'s row and column counts and
    /// `T`'s row counts.
    ///
    /// Node `w` sends row `w` of `T` to every node of column `w` of `S` but
    /// itself, and receives row `u` of `T` from every `u` of row `w` of `S`
    /// but itself. So its word is at least `(|col w of S| − 1)·|row w of T|`
    /// and at most the larger of `|col w of S|·|row w of T|` and
    /// `min(|row w of S|·max_u |row u of T|, Σ_u |row u of T|)`.
    pub fn from_counts(s_rows: &[u64], s_cols: &[u64], t_rows: &[u64]) -> Load {
        let (widest, all) = (t_rows.iter().copied().max().unwrap_or(0), t_rows.iter().sum::<u64>());
        let mut load = Load { least: 0, most: 0, summed: None };
        for w in 0..t_rows.len() {
            let send = s_cols[w] * t_rows[w];
            load.least = load.least.max(send.saturating_sub(t_rows[w]));
            load.most = load.most.max(send.max((s_rows[w] * widest).min(all)));
        }
        load
    }

    /// The largest of every node's broadcast load word — its owner route
    /// load `max(send, recv)`, with the flag bit raised if some elementary
    /// product through the node is non-zero.
    pub fn from_words(words: &[u64]) -> Load {
        let most = words.iter().map(|w| w & !FLAG_BIT).max().unwrap_or(0);
        let summed = words.iter().any(|w| w & FLAG_BIT != 0);
        Load { least: most, most, summed: Some(summed) }
    }

    /// What the owner route charges at `least` and at `most` on `n` nodes.
    pub fn route(&self, cost: &CostModel, n: usize) -> [u64; 2] {
        [self.least, self.most].map(|words| cost.route_rounds(words, n))
    }
}

/// The owner product's choice from broadcast words and the cube's shape
/// alone, if `load` settles it: `Some(true)` — the owners — if the route's
/// most is within the pipeline's floor, counting the summation only if it
/// surely has something to sort; `Some(false)` — the pipeline — if both
/// sides' per-node `sizes` are known and the route's least exceeds the
/// floor, counting the summation unless it surely has nothing to sort; else
/// `None`, and the nodes learn the next fact. Every node makes the same
/// choice, and the owner product never charges more than the pipeline when
/// it is chosen. Load words with exact `sizes` always settle the choice;
/// from `sizes` that know a side only by its total the floor is bounded from
/// below, so the pipeline is never chosen.
pub(crate) fn owner_choice(
    cost: &CostModel,
    shape: CubeShape,
    sizes: [Sizes<'_>; 2],
    kept: [bool; 2],
    load: Load,
) -> Option<bool> {
    let [least, most] = load.route(cost, sizes[0].n as usize);
    let floor = |summed| pipeline_floor(cost, shape, sizes, kept, summed);
    if most <= floor(load.summed == Some(true)) {
        return Some(true);
    }
    let exact = sizes.iter().all(|side| side.per_node.is_some());
    (exact && least > floor(load.summed != Some(false))).then_some(false)
}

/// Lemma 11: every node assigned a subtask by `assignment` learns its
/// `S`-block and `T`-block.
///
/// An assignment that names no node is skipped without communication (and
/// the result is empty): it was computed from broadcast data, so every node
/// knows nothing is due.
///
/// Under `σ1`, [`plan`] decides from both operands' broadcast counts which
/// sides Lemma 10 balances: a side that does not pay for its balance fans
/// out straight from the input layout, and a side whose balanced placement
/// an earlier delivery computed reuses it — its balanced holders were sent
/// those entries then. Only balanced placements are kept for later `σ1`
/// deliveries, which decide again against their own cubes. Under `σ2` both
/// sides are balanced: the helpers make entry weights uneven, and only each
/// entry's holder knows its weight.
///
/// Each balanced side sorts on its own (`deliver_s/balance/sort`,
/// `deliver_t/balance/sort`), then the deals share the rounds of one route
/// (`deliver/balance/route`, absent when neither side deals) and both
/// fan-outs those of another (`deliver/fanout/route`). The plan and the
/// deals read the operands' broadcast counts: a prepared operand's come with
/// it, and only an unprepared one — the dense baseline's — broadcasts its
/// counts first (`deliver_s/counts/all_broadcast`, and likewise for `T`).
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

    let counts = [known_counts(clique, s, "deliver_s")?, known_counts(clique, t, "deliver_t")?];
    let sizes = [Sizes::held(&counts[0]), Sizes::held(&counts[1])];
    let placing = if reusable {
        plan(clique.cost_model(), cube.shape, sizes, [s_kept.is_some(), t_kept.is_some()])
    } else {
        [Placing::Balanced; 2]
    };
    let totals = sizes.map(|side| side.total);

    // Lemma 10 for each side the plan balances; an empty deal stands for a
    // side that is not balanced now.
    let s_deal = match placing[0] {
        Placing::Balanced => {
            clique.with_phase("deliver_s/balance", |cl| deal::<SR>(cl, s, totals[0], &s_targets))?
        }
        Placing::InPlace | Placing::Kept => Vec::new(),
    };
    let t_deal = match placing[1] {
        Placing::Balanced => {
            clique.with_phase("deliver_t/balance", |cl| deal::<SR>(cl, t, totals[1], &t_targets))?
        }
        Placing::InPlace | Placing::Kept => Vec::new(),
    };
    let [s_dealt, t_dealt] = if s_deal.is_empty() && t_deal.is_empty() {
        [Vec::new(), Vec::new()]
    } else {
        clique.with_phase("deliver/balance", |cl| cl.route_together([s_deal, t_deal]))?
    };
    let s_placement = placed(s, placing[0], s_kept, s_dealt);
    let t_placement = placed(t, placing[1], t_kept, t_dealt);

    // Lemma 11: both fan-outs in shared rounds.
    let copies =
        [fan_out(&s_placement, &s_targets, reusable), fan_out(&t_placement, &t_targets, reusable)];
    let [s_inboxes, t_inboxes] =
        clique.with_phase("deliver/fanout", |cl| cl.route_together(copies))?;
    if reusable {
        s.sigma1_placement = (placing[0] != Placing::InPlace).then_some(s_placement);
        t.sigma1_placement = (placing[1] != Placing::InPlace).then_some(t_placement);
    }
    let payloads =
        |inbox: Vec<Envelope<Entry<SR::Elem>>>| inbox.into_iter().map(|e| e.payload).collect();
    Ok(s_inboxes
        .into_iter()
        .zip(t_inboxes)
        .map(|(s_in, t_in)| SubtaskInput { s_entries: payloads(s_in), t_entries: payloads(t_in) })
        .collect())
}

/// The operand's broadcast slice sizes: those a prepared operand carries,
/// or for an unprepared one those of a counts broadcast now, under `label`.
fn known_counts<E: Clone + PartialEq>(
    clique: &mut Clique,
    operand: &Operand<'_, E>,
    label: &str,
) -> Result<Counts, MatmulError> {
    match operand.prepared() {
        Some(known) => Ok(known.counts.clone()),
        None => clique.with_phase(label, |cl| layout::broadcast_counts(cl, operand.held(), None)),
    }
}

/// Lemma 10's sort for one operand of `total` entries: the deal that
/// balances its entries across nodes by duplication weight, still to be
/// routed.
///
/// `targets(r, c, buf)` lists the recipients of entry `(r, c)` into a buffer
/// that arrives empty, and an entry's duplication weight is the length of
/// that list.
fn deal<SR: Semiring>(
    clique: &mut Clique,
    operand: &Operand<'_, SR::Elem>,
    total: u64,
    targets: Targets<'_>,
) -> Result<Vec<Envelope<Keyed<SR::Elem>>>, MatmulError> {
    if total == 0 {
        return Ok(Vec::new());
    }
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
    let sorted = clique.sort(items)?;
    // Everyone knows the total count, hence the global rank layout.
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

/// The entries every node fans out, as `placing` says: the placement `kept`
/// from an earlier delivery, the input layout, or what a deal delivered (the
/// sort key carried each entry's position).
fn placed<E: Clone + PartialEq>(
    operand: &Operand<'_, E>,
    placing: Placing,
    kept: Option<PerNode<E>>,
    dealt: Vec<Vec<Envelope<Keyed<E>>>>,
) -> PerNode<E> {
    match (kept, placing) {
        (Some(kept), _) => kept,
        (None, Placing::InPlace) => operand.entries(),
        (None, Placing::Kept | Placing::Balanced) => dealt
            .into_iter()
            .map(|inbox| {
                inbox
                    .into_iter()
                    .map(|env| Entry::new(env.payload.key.1, env.payload.key.2, env.payload.val))
                    .collect()
            })
            .collect(),
    }
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
        // A prepared operand's counts came with it, so a delivery plans and
        // deals from them; an unprepared one broadcasts them in the delivery,
        // once per side.
        let n = 32;
        let (s_matrix, t_matrix) = (star(n, 0), permutation(n, 3));
        let t_cols = t_matrix.transpose();
        let cube = CubePartition::uniform(n, CubeShape { a: 4, b: 2, c: 4 });
        let sigma1 = cube.sigma1();
        let count_broadcasts = |clique: &Clique, label: &str| {
            ["deliver_s", "deliver_t"].map(|side| {
                let phase = format!("{label}{side}/counts/all_broadcast");
                clique.metrics().phases.get(&phase).map_or(0, |p| p.invocations)
            })
        };
        for prepared in [true, false] {
            let mut clique = Clique::new(n);
            let (mut s, mut t) = if prepared {
                let mut prepare =
                    |side, held| Operand::prepare::<MinPlus>(&mut clique, side, held).unwrap();
                (prepare(Side::Left, s_matrix.rows()), prepare(Side::Right, t_cols.rows()))
            } else {
                let s = Operand::unprepared(Side::Left, s_matrix.rows());
                (s, Operand::unprepared(Side::Right, t_cols.rows()))
            };
            let inputs = deliver::<MinPlus>(&mut clique, &cube, &mut s, &mut t, &sigma1).unwrap();
            assert_blocks_arrived(&cube, &s_matrix, &t_matrix, &inputs);
            // The star row is sorted and dealt: the deal read S's total.
            assert_eq!(clique.metrics().phases["deliver_s/balance/sort"].invocations, 1);
            let expected = if prepared { [0, 0] } else { [1, 1] };
            assert_eq!(count_broadcasts(&clique, ""), expected, "prepared: {prepared}");
        }

        // The dense baseline's operands are never prepared.
        let mut clique = Clique::new(n);
        let rows =
            crate::dense_multiply::<MinPlus>(&mut clique, s_matrix.rows(), t_cols.rows()).unwrap();
        assert_eq!(SparseMatrix::from_rows(rows), s_matrix.multiply::<MinPlus>(&t_matrix));
        assert_eq!(count_broadcasts(&clique, "dense_mm/"), [1, 1]);
    }

    /// Asserts that every node's input holds exactly the entries of `s` and
    /// `t` whose `σ1` targets name it.
    fn assert_blocks_arrived(
        cube: &CubePartition,
        s: &SparseMatrix<Dist>,
        t: &SparseMatrix<Dist>,
        inputs: &[SubtaskInput<Dist>],
    ) {
        let sigma1 = cube.sigma1();
        let expected = |m: &SparseMatrix<Dist>, targets: Targets<'_>| {
            let mut per_node: PerNode<Dist> = vec![Vec::new(); cube.n];
            let mut recipients = Vec::new();
            for e in m.entries() {
                recipients.clear();
                targets(e.row, e.col, &mut recipients);
                for &v in &recipients {
                    per_node[v].push(e);
                }
            }
            per_node
        };
        let s_targets = |r, c, out: &mut Vec<NodeId>| cube.s_entry_targets(r, c, &sigma1, out);
        let t_targets = |r, c, out: &mut Vec<NodeId>| cube.t_entry_targets(r, c, &sigma1, out);
        let by_position = |entries: &[Entry<Dist>]| {
            let mut sorted = entries.to_vec();
            sorted.sort_unstable_by_key(Entry::pos);
            sorted
        };
        let (s_want, t_want) = (expected(s, &s_targets), expected(t, &t_targets));
        for (v, input) in inputs.iter().enumerate() {
            assert_eq!(by_position(&input.s_entries), by_position(&s_want[v]), "S at node {v}");
            assert_eq!(by_position(&input.t_entries), by_position(&t_want[v]), "T at node {v}");
        }
    }

    /// The rounds charged under each phase whose label ends in `leaf`.
    fn rounds_under(clique: &Clique, leaf: &str) -> u64 {
        let phases = &clique.metrics().phases;
        phases.iter().filter(|(label, _)| label.ends_with(leaf)).map(|(_, p)| p.rounds).sum()
    }

    #[test]
    fn fan_out_asks_for_targets_into_one_buffer() {
        // Every inbox holds exactly the entries whose targets name its node:
        // a recipient buffer handed over with the last entry's targets still
        // in it would show here.
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
        assert_blocks_arrived(&cube, &full, &full, &first);
        // Every node holds 8 entries a side, as a balance would leave it: both
        // sides fan out from the input layout, each S entry to a = 2 nodes
        // and each T entry to b = 2, and nothing is dealt.
        let phases = &clique.metrics().phases;
        assert_eq!(phases["deliver/fanout/route"].messages, 2 * 2 * 64);
        assert!(!phases.keys().any(|label| label.contains("balance")));
        assert!(s.sigma1_placement.is_none() && t.sigma1_placement.is_none());

        // σ1 again: no placement was kept, so the delivery plans again from
        // the counts — unprepared operands broadcast them again — and the
        // same copies arrive.
        let again = deliver::<MinPlus>(&mut clique, &cube, &mut s, &mut t, &sigma1).unwrap();
        for (a, b) in first.iter().zip(&again) {
            assert_eq!((&a.s_entries, &a.t_entries), (&b.s_entries, &b.t_entries));
        }
        let phases = &clique.metrics().phases;
        assert_eq!(phases["deliver_s/counts/all_broadcast"].invocations, 2);
        assert_eq!(phases["deliver_t/counts/all_broadcast"].invocations, 2);
        assert_eq!(phases["deliver/fanout/route"].invocations, 2);
        assert!(!phases.keys().any(|label| label.contains("balance")));
    }

    /// Row 0 full and the diagonal elsewhere, every value distinct, shifted
    /// by `shift` columns: a star row on its input holder.
    fn star(n: usize, shift: usize) -> SparseMatrix<Dist> {
        let mut m = SparseMatrix::zeros(n);
        for c in 0..n {
            m.set(0, (c + shift) % n, Dist::fin(c as u64 + 1));
        }
        for r in 1..n {
            m.set(r, (r + shift) % n, Dist::fin((n + r) as u64));
        }
        m
    }

    /// A permutation matrix: row `r` holds column `(r + shift) mod n`.
    fn permutation(n: usize, shift: usize) -> SparseMatrix<Dist> {
        let mut m = SparseMatrix::zeros(n);
        for r in 0..n {
            m.set(r, (r + shift) % n, Dist::fin(r as u64 + 1));
        }
        m
    }

    #[test]
    fn a_skewed_operand_is_still_balanced() {
        // S's row 0 holds 32 entries of weight a = 4: 128 words on one node,
        // 4 rounds of sending, where a sort and a deal (a round each) leave
        // every node 1 or 2 entries. T's one entry per column fits as it is.
        let n = 32;
        let (s_matrix, t_matrix) = (star(n, 0), permutation(n, 3));
        let t_cols = t_matrix.transpose();
        let cube = CubePartition::uniform(n, CubeShape { a: 4, b: 2, c: 4 });
        let sigma1 = cube.sigma1();
        let mut s = Operand::unprepared(Side::Left, s_matrix.rows());
        let mut t = Operand::unprepared(Side::Right, t_cols.rows());
        let mut clique = Clique::new(n);
        let first = deliver::<MinPlus>(&mut clique, &cube, &mut s, &mut t, &sigma1).unwrap();
        assert_blocks_arrived(&cube, &s_matrix, &t_matrix, &first);
        let phases = &clique.metrics().phases;
        assert_eq!(phases["deliver_s/balance/sort"].rounds, 1);
        assert!(!phases.contains_key("deliver_t/balance/sort"));
        assert_eq!(phases["deliver/balance/route"].messages, 2 * n as u64 - 1);
        // 1 or 2 S entries of weight 4 and one T entry of weight 2 per node.
        assert_eq!(phases["deliver/fanout/route"].rounds, 1);
        assert!(s.sigma1_placement.is_some() && t.sigma1_placement.is_none());

        // σ1 again: S reuses its balanced placement, T is planned again.
        let again = deliver::<MinPlus>(&mut clique, &cube, &mut s, &mut t, &sigma1).unwrap();
        assert_blocks_arrived(&cube, &s_matrix, &t_matrix, &again);
        let phases = &clique.metrics().phases;
        assert_eq!(phases["deliver_s/balance/sort"].invocations, 1);
        assert_eq!(phases["deliver/balance/route"].invocations, 1, "nothing dealt again");
        assert_eq!(phases["deliver/fanout/route"].invocations, 2);
        assert_eq!(phases["deliver/fanout/route"].rounds, 2);
    }

    #[test]
    fn the_plan_reads_the_counts_and_not_the_entries() {
        // Two operand pairs with equal counts and different entries: the same
        // sides are balanced, at the same cost, and both arrive intact.
        let n = 32;
        let cube = CubePartition::uniform(n, CubeShape { a: 4, b: 2, c: 4 });
        let sigma1 = cube.sigma1();
        let balancing = |s_matrix: &SparseMatrix<Dist>, t_matrix: &SparseMatrix<Dist>| {
            let t_cols = t_matrix.transpose();
            let mut s = Operand::unprepared(Side::Left, s_matrix.rows());
            let mut t = Operand::unprepared(Side::Right, t_cols.rows());
            let mut clique = Clique::new(n);
            let inputs = deliver::<MinPlus>(&mut clique, &cube, &mut s, &mut t, &sigma1).unwrap();
            assert_blocks_arrived(&cube, s_matrix, t_matrix, &inputs);
            let mut balance: Vec<(String, u64, u64)> = (clique.metrics().phases.iter())
                .filter(|(label, _)| label.contains("balance"))
                .map(|(label, p)| (label.clone(), p.rounds, p.messages))
                .collect();
            balance.sort();
            balance
        };
        let first = balancing(&star(n, 0), &permutation(n, 1));
        assert_eq!(first.len(), 2, "S is sorted and dealt, T is not: {first:?}");
        assert_eq!(first, balancing(&star(n, 7), &permutation(n, 20)));

        let counts = |m: &SparseMatrix<Dist>| {
            layout::broadcast_counts(&mut Clique::new(n), m.rows(), None).unwrap()
        };
        let (s_counts, t_counts) = (counts(&star(n, 0)), counts(&permutation(n, 0)));
        let sizes = [Sizes::held(&s_counts), Sizes::held(&t_counts)];
        let planned = plan(&CostModel::unit(), cube.shape, sizes, [false; 2]);
        assert_eq!(planned, [Placing::Balanced, Placing::InPlace]);
    }

    /// An `n × n` matrix of up to `nnz` random entries, plus a full random
    /// row when `skewed`.
    fn random_operand(rng: &mut StdRng, n: usize, nnz: usize, skewed: bool) -> SparseMatrix<Dist> {
        let mut m = SparseMatrix::zeros(n);
        if skewed {
            let hot = rng.gen_range(0..n);
            for c in 0..n {
                m.set(hot, c, Dist::fin(rng.gen_range(1..50)));
            }
        }
        for _ in 0..nnz {
            m.set(rng.gen_range(0..n), rng.gen_range(0..n), Dist::fin(rng.gen_range(1..50)));
        }
        m
    }

    #[test]
    fn predicted_rounds_are_the_rounds_charged() {
        // Random operands, skewed or not, on random cube shapes and both cost
        // models, delivered twice under σ1 (the second time against another
        // cube, reusing what the first balanced): the predicted sorts and
        // deal are exactly what the clique charged; the fan-out charged the
        // larger of the predicted send load and the receive load; and no
        // plan costs more than balancing every side that may be balanced.
        let mut rng = StdRng::seed_from_u64(35);
        let mut balanced = [0; 3];
        for case in 0..100 {
            let n = [8, 16, 27, 32][case % 4];
            let cost = if case % 5 == 0 { CostModel::conservative() } else { CostModel::unit() };
            let nnz = [n / 2, n, 3 * n, n * n / 2][rng.gen_range(0..4)];
            let (s_skewed, t_skewed, t_nnz) =
                (rng.gen_bool(0.7), rng.gen_bool(0.7), rng.gen_range(0..3 * n));
            let s_matrix = random_operand(&mut rng, n, nnz, s_skewed);
            let t_matrix = random_operand(&mut rng, n, t_nnz, t_skewed);
            let t_cols = t_matrix.transpose();
            let mut s = Operand::unprepared(Side::Left, s_matrix.rows());
            let mut t = Operand::unprepared(Side::Right, t_cols.rows());
            let counts = [s_matrix.rows(), t_cols.rows()]
                .map(|held| layout::broadcast_counts(&mut Clique::new(n), held, None).unwrap());
            let counts = [Sizes::held(&counts[0]), Sizes::held(&counts[1])];
            let mut clique = Clique::with_cost_model(n, cost);
            for delivery in 0..2 {
                let a = rng.gen_range(1..=n.min(8));
                let b = rng.gen_range(1..=(n / a).min(8));
                let shape = CubeShape { a, b, c: rng.gen_range(1..=n / (a * b)) };
                let cube = CubePartition::uniform(n, shape);
                let sigma1 = cube.sigma1();
                let what = format!("case {case} delivery {delivery}, n = {n}, {shape:?}");
                let kept = [s.sigma1_placement.is_some(), t.sigma1_placement.is_some()];
                let placing = plan(&cost, shape, counts, kept);
                let predicted = predict(&cost, shape, counts, placing);
                let [s_sorted, t_sorted, dealt, fanned] = [
                    "deliver_s/balance/sort",
                    "deliver_t/balance/sort",
                    "deliver/balance/route",
                    "deliver/fanout/route",
                ]
                .map(|leaf| rounds_under(&clique, leaf));

                let inputs =
                    deliver::<MinPlus>(&mut clique, &cube, &mut s, &mut t, &sigma1).unwrap();
                assert_blocks_arrived(&cube, &s_matrix, &t_matrix, &inputs);
                let charged = |leaf: &str, before: u64| rounds_under(&clique, leaf) - before;
                let sorts = [
                    charged("deliver_s/balance/sort", s_sorted),
                    charged("deliver_t/balance/sort", t_sorted),
                ];
                assert_eq!(sorts, predicted.sort, "{what}: sorts");
                assert_eq!(charged("deliver/balance/route", dealt), predicted.deal, "{what}: deal");
                let received =
                    inputs.iter().map(|i| (i.s_entries.len() + i.t_entries.len()) as u64);
                let receive = cost.route_rounds(received.max().unwrap_or(0), n);
                let fan_out = charged("deliver/fanout/route", fanned);
                assert_eq!(fan_out, predicted.send.max(receive), "{what}: fan-out");

                let balance_all = kept.map(|k| if k { Placing::Kept } else { Placing::Balanced });
                let all = predict(&cost, shape, counts, balance_all);
                let all_rounds = all.sort.iter().sum::<u64>() + all.deal + all.send.max(receive);
                assert!(
                    sorts.iter().sum::<u64>() + predicted.deal + fan_out <= all_rounds,
                    "{what}: the plan costs more than balancing"
                );
                let sides_balanced = placing.iter().filter(|&&p| p == Placing::Balanced).count();
                balanced[sides_balanced] += 1;
            }
        }
        // The cases reach every plan size: none, one and two sides balanced.
        assert!(balanced.iter().all(|&count| count > 0), "{balanced:?}");
    }
}
