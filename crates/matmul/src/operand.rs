//! A product operand together with what the clique already knows about it.
//!
//! A product `S ⋆ T` starts from the paper's input layout (§2.1) — node `v`
//! holds row `v` of `S` and column `v` of `T` — and then spends its first
//! rounds learning things that depend on one operand only: the broadcast
//! slice sizes (Lemma 9's block weights), the opposite layout (the per-slice
//! counts behind the Lemma 7 middle partition), and, under the canonical
//! assignment `σ1`, where Lemma 10's sort-and-deal puts each entry once a
//! delivery chose to balance the operand. An [`Operand`] carries all of
//! that, and a caller builds one in one of three shapes:
//!
//! * [`Operand::prepare`], either side, from the layout the side starts in:
//!   one transpose and one counts broadcast. A caller that multiplies by the
//!   same matrix again — the `W` of Theorem 19's `W ⋆ Δ_i` — pays for it
//!   once.
//! * [`Operand::from_opposite`], a right operand held by rows with their
//!   broadcast counts: the frontier `Δ_i` of Theorem 19's iterate — the
//!   entries the last hop step changed — which comes out of a product by
//!   rows. It is transposed only by a product that reads its columns.
//! * [`Operand::prepare_square`], both operands of `X ⋆ X` — Theorem 18's
//!   squarings — from one transpose and one counts broadcast.
//!
//! Every prepared operand knows both layouts' slice sizes, so the owner
//! product can always weigh its route from the counts.

use std::borrow::Cow;

use cc_clique::Clique;
use cc_matrix::{Entry, Semiring, SparseRow};

use crate::deliver::{PerNode, Sizes};
use crate::layout::{self, Counts};
use crate::MatmulError;

/// Which side of a product an [`Operand`] is laid out for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The left operand `S`: node `v` holds row `v`.
    Left,
    /// The right operand `T`: node `v` holds column `v`.
    Right,
}

/// One operand of a distributed product: the slices the nodes hold, plus
/// everything about them that earlier, charged primitives already told the
/// nodes.
#[derive(Debug, Clone)]
pub struct Operand<'a, E: Clone> {
    pub(crate) side: Side,
    known: Known<'a, E>,
    /// Where Lemma 10 put each entry under `σ1`, once a delivery balanced
    /// the operand: per holder, the entries in global coordinates. Under
    /// `σ1` every entry of one operand has the same duplication weight (`a`
    /// for `S`, `b` for `T`), so the balancing sort orders by position alone
    /// and its outcome does not depend on the other operand or on the cube's
    /// shape. Only a balanced placement is kept — node `v` holds
    /// `⌊total/n⌋ + [v < total mod n]` entries of it — so its sizes follow
    /// from the broadcast counts; a delivery that leaves the operand where it
    /// is held keeps nothing, and the next one decides again.
    pub(crate) sigma1_placement: Option<PerNode<E>>,
}

/// What the nodes hold of an operand and what broadcasts told them of it.
#[derive(Debug, Clone)]
enum Known<'a, E: Clone> {
    /// The layout its side starts in and nothing else: a one-shot product's
    /// operand until (and unless — the dense baseline never does) the
    /// pipeline prepares it.
    Held(&'a [SparseRow<E>]),
    /// The opposite layout and its broadcast slice sizes: the held layout is
    /// one transpose away, learned only once a product reads it.
    Opposite(&'a [SparseRow<E>], Counts),
    /// Both layouts, and the held slices' sizes.
    Prepared(Prepared<'a, E>),
}

/// What preparing an operand tells the nodes.
#[derive(Debug, Clone)]
pub(crate) struct Prepared<'a, E: Clone> {
    /// Slice `v` at node `v`: rows of a left operand, columns of a right one.
    pub held: Cow<'a, [SparseRow<E>]>,
    /// The other layout of the same matrix (node `v` holds column `v` of a
    /// left operand, row `v` of a right one).
    pub opposite: Cow<'a, [SparseRow<E>]>,
    /// `held[v].nnz()` for every `v`, the density, and `opposite[v].nnz()`:
    /// every way of preparing an operand broadcasts both layouts' sizes.
    pub counts: Counts,
}

impl<E: Clone> Prepared<'_, E> {
    /// `opposite[v].nnz()` for every `v`: a right operand's row counts, or a
    /// left operand's column counts.
    pub fn opposite_counts(&self) -> &[u64] {
        self.counts.opposite().expect("preparing broadcasts both layouts' sizes")
    }
}

impl<'a, E: Clone + PartialEq> Operand<'a, E> {
    /// Prepares an operand from the layout its side starts in: obtains the
    /// opposite layout by a transpose exchange (`O(1)` rounds) and broadcasts
    /// the sizes of both layouts' slices (one round).
    ///
    /// # Errors
    ///
    /// Returns [`MatmulError::Clique`] if `held.len()` differs from the
    /// clique size or an entry addresses a node outside the clique.
    pub fn prepare<S: Semiring<Elem = E>>(
        clique: &mut Clique,
        side: Side,
        held: &'a [SparseRow<E>],
    ) -> Result<Self, MatmulError> {
        let mut operand = Operand::unprepared(side, held);
        operand.ensure_prepared::<S>(clique)?;
        Ok(operand)
    }

    /// Both operands of the square `X ⋆ X` from the rows of `X` — Theorem
    /// 18's squarings: one transpose exchange gives the columns, and one
    /// counts broadcast of the columns carries the row counts in the same
    /// words. The left operand holds the rows and the right one the columns,
    /// and each reads the other's layout and counts as its opposite ones.
    ///
    /// # Errors
    ///
    /// As [`Operand::prepare`].
    pub fn prepare_square<S: Semiring<Elem = E>>(
        clique: &mut Clique,
        rows: &'a [SparseRow<E>],
    ) -> Result<(Self, Self), MatmulError> {
        let cols = layout::transpose_exchange::<S>(clique, rows)?;
        let col_counts = layout::broadcast_counts(clique, &cols, Some(rows))?;
        let row_counts = col_counts.transposed().expect("the row counts rode along");
        let left = Known::Prepared(Prepared {
            held: Cow::Borrowed(rows),
            opposite: Cow::Owned(cols.clone()),
            counts: row_counts,
        });
        let right = Known::Prepared(Prepared {
            held: Cow::Owned(cols),
            opposite: Cow::Borrowed(rows),
            counts: col_counts,
        });
        Ok((Operand::new(Side::Left, left), Operand::new(Side::Right, right)))
    }

    /// A right operand the nodes hold in the opposite layout only — a hop
    /// step's frontier, held by rows — whose slice sizes they
    /// broadcast: `counts` is what [`layout::broadcast_counts`] returned for
    /// `opposite`. No communication.
    ///
    /// The row owners multiply by such an operand without its columns, so a
    /// product transposes it (and broadcasts its column counts) only if it
    /// runs the pipeline, or if it cannot choose without those counts.
    pub fn from_opposite(opposite: &'a [SparseRow<E>], counts: Counts) -> Self {
        debug_assert!(
            sizes_match(opposite, counts.per_node()),
            "the counts must be the opposite slices'"
        );
        Operand::new(Side::Right, Known::Opposite(opposite, counts))
    }

    /// The paper's input layout and nothing else; no communication.
    pub(crate) fn unprepared(side: Side, held: &'a [SparseRow<E>]) -> Self {
        Operand::new(side, Known::Held(held))
    }

    fn new(side: Side, known: Known<'a, E>) -> Self {
        Operand { side, known, sigma1_placement: None }
    }

    /// What the nodes know about both layouts, after telling them as
    /// [`Operand::prepare`] does if nothing has yet: the layout they hold is
    /// transposed into the other, and the held slices' sizes are broadcast
    /// with the opposite ones'.
    pub(crate) fn ensure_prepared<S: Semiring<Elem = E>>(
        &mut self,
        clique: &mut Clique,
    ) -> Result<&Prepared<'a, E>, MatmulError> {
        let layouts = match self.known {
            Known::Prepared(_) => None,
            Known::Held(held) => Some((
                Cow::Borrowed(held),
                Cow::Owned(layout::transpose_exchange::<S>(clique, held)?),
            )),
            Known::Opposite(opposite, _) => Some((
                Cow::Owned(layout::transpose_exchange::<S>(clique, opposite)?),
                Cow::Borrowed(opposite),
            )),
        };
        if let Some((held, opposite)) = layouts {
            let counts = layout::broadcast_counts(clique, &held, Some(&opposite))?;
            self.known = Known::Prepared(Prepared { held, opposite, counts });
        }
        Ok(self.prepared().expect("prepared just above, if not before"))
    }

    /// The density, from whichever layout's sizes the nodes were told, after
    /// preparing the operand if they were told none.
    pub(crate) fn ensure_density<S: Semiring<Elem = E>>(
        &mut self,
        clique: &mut Clique,
    ) -> Result<usize, MatmulError> {
        Ok(match &self.known {
            Known::Opposite(_, counts) => counts.density(),
            Known::Held(_) | Known::Prepared(_) => {
                self.ensure_prepared::<S>(clique)?.counts.density()
            }
        })
    }

    /// What the nodes were told about both layouts, if they were.
    pub(crate) fn prepared(&self) -> Option<&Prepared<'a, E>> {
        match &self.known {
            Known::Prepared(known) => Some(known),
            Known::Held(_) | Known::Opposite(..) => None,
        }
    }

    /// The opposite layout and its broadcast slice sizes, if the nodes hold
    /// the one and were told the other.
    pub(crate) fn opposite_known(&self) -> Option<(&[SparseRow<E>], &[u64])> {
        match &self.known {
            Known::Opposite(opposite, counts) => Some((opposite, counts.per_node())),
            Known::Prepared(known) => Some((&known.opposite, known.opposite_counts())),
            Known::Held(_) => None,
        }
    }

    /// What a delivery plan can read of the operand's slice sizes: the held
    /// slices', if they were broadcast, else the total of the opposite
    /// slices', if those were.
    pub(crate) fn sizes(&self) -> Option<Sizes<'_>> {
        match &self.known {
            Known::Prepared(known) => Some(Sizes::held(&known.counts)),
            Known::Opposite(_, counts) => Some(Sizes::opposite(counts)),
            Known::Held(_) => None,
        }
    }

    /// The number of slices, one per node, in whichever layout is held.
    pub(crate) fn len(&self) -> usize {
        match &self.known {
            Known::Held(slices) | Known::Opposite(slices, _) => slices.len(),
            Known::Prepared(known) => known.held.len(),
        }
    }

    /// Slice `v` at node `v` for every `v`.
    ///
    /// # Panics
    ///
    /// Panics for an operand handed over in the opposite layout that no
    /// product prepared yet: every product reads the held layout only after
    /// [`Operand::ensure_prepared`].
    pub(crate) fn held(&self) -> &[SparseRow<E>] {
        match &self.known {
            Known::Held(held) => held,
            Known::Prepared(known) => &known.held,
            Known::Opposite(..) => panic!("the held layout is read only once it is prepared"),
        }
    }

    /// The held entries in global `(row, col)` coordinates, per holder.
    pub(crate) fn entries(&self) -> PerNode<E> {
        self.held()
            .iter()
            .enumerate()
            .map(|(v, slice)| {
                slice
                    .iter()
                    .map(|(x, val)| match self.side {
                        Side::Left => Entry::new(v as u32, x, val.clone()),
                        Side::Right => Entry::new(x, v as u32, val.clone()),
                    })
                    .collect()
            })
            .collect()
    }
}

/// Whether `counts` are the sizes of `slices`.
fn sizes_match<E: Clone + PartialEq>(slices: &[SparseRow<E>], counts: &[u64]) -> bool {
    slices.iter().map(|r| r.nnz() as u64).eq(counts.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filtered_mm::filtered_product;
    use cc_matrix::{Dist, MinPlus, SparseMatrix};

    fn sample() -> SparseMatrix<Dist> {
        let mut m = SparseMatrix::zeros(4);
        m.set(0, 1, Dist::fin(1));
        m.set(0, 3, Dist::fin(2));
        m.set(2, 1, Dist::fin(3));
        m.set(3, 0, Dist::fin(4));
        m
    }

    #[test]
    fn prepare_costs_one_broadcast_and_one_transpose() {
        let m = sample();
        let mut clique = Clique::new(4);
        let op = Operand::prepare::<MinPlus>(&mut clique, Side::Left, m.rows()).unwrap();
        let known = op.prepared().unwrap();
        assert_eq!(known.counts.per_node(), [2, 0, 1, 1]);
        assert_eq!(known.counts.opposite(), Some(&[1, 2, 0, 1][..]));
        assert_eq!(known.counts.density(), 1);
        assert_eq!(&*known.opposite, m.transpose().rows());
        let phases = &clique.metrics().phases;
        assert_eq!(phases["counts/all_broadcast"].invocations, 1);
        assert_eq!(phases["transpose/route"].invocations, 1);
        assert_eq!(phases.len(), 2);
    }

    #[test]
    fn prepare_square_transposes_once_and_broadcasts_once() {
        // X ⋆ X from the rows of X: one transpose gives the columns, and the
        // column counts carry the row counts in the same words, so both
        // operands know both layouts and both layouts' counts.
        let mut m = sample();
        for v in 0..4 {
            m.set(v, v, Dist::fin(0));
        }
        let cols = m.transpose();
        let mut clique = Clique::new(4);
        let (left, right) = Operand::prepare_square::<MinPlus>(&mut clique, m.rows()).unwrap();
        let phases = &clique.metrics().phases;
        assert_eq!(phases["transpose/route"].invocations, 1);
        assert_eq!(phases["counts/all_broadcast"].invocations, 1);
        assert_eq!(phases.len(), 2);
        let (row_counts, col_counts) = (&[3, 1, 2, 2][..], &[2, 3, 1, 2][..]);
        let (l, r) = (left.prepared().unwrap(), right.prepared().unwrap());
        assert_eq!((l.counts.per_node(), l.opposite_counts()), (row_counts, col_counts));
        assert_eq!((r.counts.per_node(), r.opposite_counts()), (col_counts, row_counts));
        assert_eq!((&*l.held, &*l.opposite), (m.rows(), cols.rows()));
        assert_eq!((&*r.held, &*r.opposite), (cols.rows(), m.rows()));
        // The filtered square, at the row owners or through the pipeline.
        for rho in 1..=4 {
            let expected = m.multiply::<MinPlus>(&m).filtered(rho);
            for owner in [true, false] {
                let (mut cl, mut x, mut y) = (clique.clone(), left.clone(), right.clone());
                let square = filtered_product::<MinPlus>(&mut cl, &mut x, &mut y, rho, owner);
                assert_eq!(SparseMatrix::from_rows(square.unwrap()), expected, "ρ = {rho}");
            }
        }
    }

    #[test]
    fn an_operand_handed_over_by_rows_is_transposed_only_when_prepared() {
        // A right operand from its rows and their counts: the rows and row
        // counts are known at once; its columns cost one transpose and one
        // counts broadcast, which carries the row counts again.
        let m = sample();
        let mut clique = Clique::new(4);
        let row_counts = layout::broadcast_counts(&mut clique, m.rows(), None).unwrap();
        let mut op = Operand::from_opposite(m.rows(), row_counts);
        assert!(op.prepared().is_none());
        assert_eq!(op.opposite_known(), Some((m.rows(), &[2, 0, 1, 1][..])));
        assert_eq!(op.ensure_density::<MinPlus>(&mut clique).unwrap(), 1);
        assert_eq!(clique.rounds(), 1, "the density came with the row counts");
        let known = op.ensure_prepared::<MinPlus>(&mut clique).unwrap();
        assert_eq!(&*known.held, m.transpose().rows());
        assert_eq!(known.counts.per_node(), [1, 2, 0, 1]);
        assert_eq!(known.counts.opposite(), Some(&[2, 0, 1, 1][..]));
        let phases = &clique.metrics().phases;
        assert_eq!(phases["counts/all_broadcast"].invocations, 2);
        assert_eq!(phases["transpose/route"].invocations, 1);
        let cols = m.transpose();
        let both = Operand::prepare::<MinPlus>(&mut clique, Side::Right, cols.rows()).unwrap();
        assert_eq!(op.entries(), both.entries());
    }

    #[test]
    fn entries_are_in_global_coordinates_on_either_side() {
        let m = sample();
        let t = m.transpose();
        let mut clique = Clique::new(4);
        let left = Operand::prepare::<MinPlus>(&mut clique, Side::Left, m.rows()).unwrap();
        let right = Operand::prepare::<MinPlus>(&mut clique, Side::Right, t.rows()).unwrap();
        let positions = |op: &Operand<'_, Dist>| {
            let mut p: Vec<(u32, u32)> = op.entries().iter().flatten().map(Entry::pos).collect();
            p.sort_unstable();
            p
        };
        assert_eq!(positions(&left), vec![(0, 1), (0, 3), (2, 1), (3, 0)]);
        assert_eq!(positions(&left), positions(&right));
        // A column holder holds exactly the entries of its column.
        assert!(right.entries()[1].iter().all(|e| e.col == 1));
    }

    #[test]
    #[should_panic(expected = "left operand")]
    fn a_product_refuses_two_left_operands() {
        let m = sample();
        let mut clique = Clique::new(4);
        let mut a = Operand::prepare::<MinPlus>(&mut clique, Side::Left, m.rows()).unwrap();
        let mut b = a.clone();
        let _ = crate::sparse_multiply_prepared::<MinPlus>(&mut clique, &mut a, &mut b, 1);
    }
}
