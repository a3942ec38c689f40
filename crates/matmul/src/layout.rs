//! Distributed matrix layout helpers.
//!
//! The input convention throughout the workspace follows the paper (§2.1):
//! for a product `P = S ⋆ T` on an `n`-node clique, **node `v` holds row `v`
//! of `S` and column `v` of `T`**, and learns row `v` of `P`. A distributed
//! matrix is simply a `Vec<SparseRow<E>>` of length `n`, indexed by owner;
//! whether the slices are rows or columns is part of the call convention.

use cc_clique::{Clique, CliqueError, Envelope};
use cc_matrix::{Semiring, SparseRow};

use crate::MatmulError;

/// Transposes a distributed matrix: from node `v` holding slice `v` (say,
/// row `v`, entries keyed by column) to node `v` holding the opposite slice
/// (column `v`, entries keyed by row).
///
/// One routing step: entry `(r, c)` travels from node `r` to node `c`. Every
/// node sends at most `n` words (its slice) and receives at most `n` words
/// (the opposite slice), so this is `O(1)` rounds.
///
/// # Errors
///
/// Returns [`MatmulError::Clique`] if an entry addresses a node outside the
/// clique (i.e. the matrix is bigger than the clique).
pub fn transpose_exchange<S: Semiring>(
    clique: &mut Clique,
    slices: &[SparseRow<S::Elem>],
) -> Result<Vec<SparseRow<S::Elem>>, MatmulError> {
    let mut msgs = Vec::with_capacity(slices.iter().map(SparseRow::nnz).sum());
    for (v, row) in slices.iter().enumerate() {
        for (c, val) in row.iter() {
            msgs.push(Envelope::new(v, c as usize, (v as u32, val.clone())));
        }
    }
    let inboxes = clique.with_phase("transpose", |c| c.route(msgs))?;
    Ok(inboxes
        .into_iter()
        .map(|inbox| {
            SparseRow::from_entries::<S>(
                inbox.into_iter().map(|e| (e.payload.0, e.payload.1)).collect(),
            )
        })
        .collect())
}

/// What one counts broadcast told every node: the slice sizes, the density
/// derived from them, and the opposite slices' sizes if they rode along.
///
/// Only [`broadcast_counts`] makes one, so whatever reads a `Counts` reads
/// broadcast values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    per_node: Vec<u64>,
    density: usize,
    opposite: Option<Vec<u64>>,
}

impl Counts {
    /// `slices[v].nnz()` for every node `v`.
    pub fn per_node(&self) -> &[u64] {
        &self.per_node
    }

    /// The density `ρ = ⌈nnz / n⌉`, at least 1.
    pub fn density(&self) -> usize {
        self.density
    }

    /// `opposite[v].nnz()` for every node `v`, if the broadcast carried the
    /// opposite layout's sizes: a right operand's row counts, which the owner
    /// product's receive loads are computed from, or a left operand's column
    /// counts, which bound its send loads.
    pub fn opposite(&self) -> Option<&[u64]> {
        self.opposite.as_deref()
    }

    /// The same broadcast read from the opposite layout's side, if it carried
    /// the opposite layout's sizes: those become the per-node sizes, and the
    /// held ones the opposite sizes. The two layouts of one matrix hold the
    /// same entries, so the density stays. No communication: `x ⋆ x` reads
    /// its left operand's counts off its right operand's broadcast
    /// ([`crate::Operand::prepare_square`]).
    pub(crate) fn transposed(&self) -> Option<Counts> {
        let per_node = self.opposite.clone()?;
        Some(Counts { per_node, opposite: Some(self.per_node.clone()), ..self.clone() })
    }
}

/// Where the opposite slice's size sits in a count word: above the held
/// slice's, which is below `2³²` as every node id is.
const OPPOSITE_SHIFT: u32 = 32;

/// Broadcasts every node's slice size in one word; the size of node `v`'s
/// `opposite[v]`, if given, rides in the word's upper half. Two counts of at
/// most `n` are `O(log n)` bits: one all-to-all broadcast round.
///
/// # Errors
///
/// Returns [`MatmulError::Clique`] if `slices.len()` or `opposite.len()`
/// differs from the clique size.
pub fn broadcast_counts<E: Clone + PartialEq>(
    clique: &mut Clique,
    slices: &[SparseRow<E>],
    opposite: Option<&[SparseRow<E>]>,
) -> Result<Counts, MatmulError> {
    let n = clique.n();
    if let Some(got) = opposite.map(<[_]>::len).filter(|&len| len != n) {
        return Err(CliqueError::WrongLength { expected: n, got }.into());
    }
    let words: Vec<u64> = slices
        .iter()
        .enumerate()
        .map(|(v, r)| {
            let across = opposite.and_then(|o| o.get(v)).map_or(0, SparseRow::nnz) as u64;
            r.nnz() as u64 | across << OPPOSITE_SHIFT
        })
        .collect();
    let words = clique.with_phase("counts", |c| c.all_broadcast(words))?;
    let low = (1 << OPPOSITE_SHIFT) - 1;
    let opposite = opposite.map(|_| words.iter().map(|w| w >> OPPOSITE_SHIFT).collect());
    let per_node: Vec<u64> = words.into_iter().map(|w| w & low).collect();
    let density = per_node.iter().sum::<u64>().div_ceil(n as u64).max(1) as usize;
    Ok(Counts { per_node, density, opposite })
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn transpose_exchange_matches_local_transpose() {
        let m = sample();
        let mut clique = Clique::new(4);
        let cols = transpose_exchange::<MinPlus>(&mut clique, m.rows()).unwrap();
        let expected = m.transpose();
        assert_eq!(cols, expected.rows());
        assert_eq!(clique.rounds(), 1);
    }

    #[test]
    fn broadcast_counts_reports_density() {
        let m = sample();
        let mut clique = Clique::new(4);
        let counts = broadcast_counts(&mut clique, m.rows(), None).unwrap();
        assert_eq!(counts.per_node(), [2, 0, 1, 1]);
        assert_eq!(counts.opposite(), None);
        assert_eq!(counts.density(), 1);
        assert_eq!(clique.rounds(), 1);
    }

    #[test]
    fn the_opposite_counts_ride_in_the_same_words() {
        // Column counts [1, 2, 0, 1] beside row counts [2, 0, 1, 1]: one
        // round, and each count reads back on its own.
        let (m, t) = (sample(), sample().transpose());
        let mut clique = Clique::new(4);
        let both = broadcast_counts(&mut clique, m.rows(), Some(t.rows())).unwrap();
        assert_eq!(both.per_node(), [2, 0, 1, 1]);
        assert_eq!(both.opposite(), Some(&[1, 2, 0, 1][..]));
        assert_eq!(both.density(), 1);
        assert_eq!(clique.rounds(), 1);
        // Read from the other side, the same word gives the column counts.
        let across = both.transposed().unwrap();
        assert_eq!(across.per_node(), [1, 2, 0, 1]);
        assert_eq!(across.opposite(), Some(&[2, 0, 1, 1][..]));
        assert_eq!((across.density(), across.transposed()), (1, Some(both)));
        let held_only = broadcast_counts(&mut clique, m.rows(), None).unwrap();
        assert_eq!(held_only.transposed(), None);
        let err = broadcast_counts(&mut clique, m.rows(), Some(&t.rows()[..2])).unwrap_err();
        assert_eq!(err, MatmulError::Clique(CliqueError::WrongLength { expected: 4, got: 2 }));
    }
}
