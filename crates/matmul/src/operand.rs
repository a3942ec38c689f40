//! A product operand together with what the clique already knows about it.
//!
//! A product `S ⋆ T` starts from the paper's input layout (§2.1) — node `v`
//! holds row `v` of `S` and column `v` of `T` — and then spends its first
//! rounds learning things that depend on one operand only: the broadcast
//! slice sizes (Lemma 9's block weights), the opposite layout (the per-slice
//! counts behind the Lemma 7 middle partition), and, under the canonical
//! assignment `σ1`, where Lemma 10's sort-and-deal puts each entry once a
//! delivery chose to balance the operand. An [`Operand`] carries all of
//! that, so a caller that multiplies by the same matrix again — the `W` of
//! Theorem 19's `W ⋆ U_i` — pays for it once, and a caller that already
//! holds both layouts of a matrix hands them over instead of having one
//! transposed back.

use std::borrow::Cow;

use cc_clique::Clique;
use cc_matrix::{Entry, Semiring, SparseMatrix, SparseRow};

use crate::deliver::PerNode;
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
    /// Slice `v` at node `v`: rows of a left operand, columns of a right one.
    pub(crate) held: &'a [SparseRow<E>],
    /// `None` only inside a one-shot product, until (and unless — the dense
    /// baseline never does) the pipeline prepares the operand it was handed.
    prepared: Option<Prepared<'a, E>>,
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

/// What preparing an operand tells the nodes.
#[derive(Debug, Clone)]
pub(crate) struct Prepared<'a, E: Clone> {
    /// The other layout of the same matrix (node `v` holds column `v` of a
    /// left operand, row `v` of a right one).
    pub opposite: Cow<'a, [SparseRow<E>]>,
    /// `held[v].nnz()` for every `v`, the density, and — if the broadcast
    /// carried them — `opposite[v].nnz()`.
    pub counts: Counts,
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

    /// An operand whose two layouts the nodes both hold already — an iterate
    /// that came out of a product by rows and was transposed by the caller,
    /// say — and whose slice sizes they broadcast: `counts` is what
    /// [`layout::broadcast_counts`] returned for `held`. No communication.
    ///
    /// A right operand whose `counts` carry the opposite layout's sizes (its
    /// row counts) may be multiplied at the row owners; without them the
    /// product always runs the pipeline.
    ///
    /// `opposite` must be the transpose of `held`.
    pub fn from_layouts(
        side: Side,
        held: &'a [SparseRow<E>],
        opposite: &'a [SparseRow<E>],
        counts: Counts,
    ) -> Self {
        debug_assert!(
            SparseMatrix::from_rows(held.to_vec()).transpose().rows() == opposite,
            "the two layouts must describe one matrix"
        );
        debug_assert!(
            held.iter().map(|r| r.nnz() as u64).eq(counts.per_node().iter().copied()),
            "the counts must be those of the held slices"
        );
        debug_assert!(
            counts
                .opposite()
                .is_none_or(|c| opposite.iter().map(|r| r.nnz() as u64).eq(c.iter().copied())),
            "the opposite counts must be those of the opposite slices"
        );
        let prepared = Prepared { opposite: Cow::Borrowed(opposite), counts };
        Operand { prepared: Some(prepared), ..Operand::unprepared(side, held) }
    }

    /// The paper's input layout and nothing else; no communication.
    pub(crate) fn unprepared(side: Side, held: &'a [SparseRow<E>]) -> Self {
        Operand { side, held, prepared: None, sigma1_placement: None }
    }

    /// What the nodes know about the held slices, after telling them as
    /// [`Operand::prepare`] does if nothing has yet.
    pub(crate) fn ensure_prepared<S: Semiring<Elem = E>>(
        &mut self,
        clique: &mut Clique,
    ) -> Result<&Prepared<'a, E>, MatmulError> {
        if self.prepared.is_none() {
            let opposite = layout::transpose_exchange::<S>(clique, self.held)?;
            let counts = layout::broadcast_counts(clique, self.held, Some(&opposite), None)?;
            self.prepared = Some(Prepared { opposite: Cow::Owned(opposite), counts });
        }
        Ok(self.prepared.as_ref().expect("prepared just above, if not before"))
    }

    /// What the nodes were told about the held slices, if they were.
    pub(crate) fn prepared(&self) -> Option<&Prepared<'a, E>> {
        self.prepared.as_ref()
    }

    /// The held entries in global `(row, col)` coordinates, per holder.
    pub(crate) fn entries(&self) -> PerNode<E> {
        self.held
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

#[cfg(test)]
mod tests {
    use super::*;
    use cc_matrix::{Dist, MinPlus};

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
        let known = op.prepared.as_ref().unwrap();
        assert_eq!(known.counts.per_node(), [2, 0, 1, 1]);
        assert_eq!(known.counts.opposite(), Some(&[1, 2, 0, 1][..]));
        assert_eq!(known.counts.density(), 1);
        assert_eq!(&*known.opposite, m.transpose().rows());
        let phases = &clique.metrics().phases;
        assert_eq!(phases["counts/all_broadcast"].invocations, 1);
        assert_eq!(phases["transpose/route"].invocations, 1);
        assert_eq!(phases.len(), 2);
    }

    /// [`Operand::from_layouts`] after the counts broadcast it takes.
    fn from_layouts<'a>(
        clique: &mut Clique,
        side: Side,
        held: &'a [SparseRow<Dist>],
        opposite: &'a [SparseRow<Dist>],
    ) -> Operand<'a, Dist> {
        let counts = layout::broadcast_counts(clique, held, Some(opposite), None).unwrap();
        Operand::from_layouts(side, held, opposite, counts)
    }

    #[test]
    fn from_layouts_only_broadcasts_the_counts() {
        let m = sample();
        let t = m.transpose();
        let mut clique = Clique::new(4);
        let op = from_layouts(&mut clique, Side::Right, t.rows(), m.rows());
        assert_eq!(op.prepared.unwrap().counts.per_node(), [1, 2, 0, 1]);
        assert_eq!(clique.rounds(), 1);
        assert_eq!(clique.metrics().phases.len(), 1);
    }

    #[test]
    fn entries_are_in_global_coordinates_on_either_side() {
        let m = sample();
        let t = m.transpose();
        let mut clique = Clique::new(4);
        let left = from_layouts(&mut clique, Side::Left, m.rows(), t.rows());
        let right = from_layouts(&mut clique, Side::Right, t.rows(), m.rows());
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
        let t = m.transpose();
        let mut clique = Clique::new(4);
        let mut a = from_layouts(&mut clique, Side::Left, m.rows(), t.rows());
        let mut b = a.clone();
        let _ = crate::sparse_multiply_prepared::<MinPlus>(&mut clique, &mut a, &mut b, 1);
    }
}
