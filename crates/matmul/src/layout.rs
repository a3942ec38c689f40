//! Distributed matrix layout helpers.
//!
//! The input convention throughout the workspace follows the paper (§2.1):
//! for a product `P = S ⋆ T` on an `n`-node clique, **node `v` holds row `v`
//! of `S` and column `v` of `T`**, and learns row `v` of `P`. A distributed
//! matrix is simply a `Vec<SparseRow<E>>` of length `n`, indexed by owner;
//! whether the slices are rows or columns is part of the call convention.

use cc_clique::{Clique, Envelope};
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

/// Broadcasts every node's slice size; returns `(per-node counts, total,
/// density ρ)`. One all-to-all broadcast round.
///
/// # Errors
///
/// Returns [`MatmulError::Clique`] if `slices.len()` differs from the clique
/// size.
pub fn broadcast_counts<E: Clone + PartialEq>(
    clique: &mut Clique,
    slices: &[SparseRow<E>],
) -> Result<(Vec<u64>, u64, usize), MatmulError> {
    let counts: Vec<u64> = slices.iter().map(|r| r.nnz() as u64).collect();
    let counts = clique.with_phase("counts", |c| c.all_broadcast(counts))?;
    let total: u64 = counts.iter().sum();
    let n = clique.n() as u64;
    let rho = total.div_ceil(n).max(1) as usize;
    Ok((counts, total, rho))
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
        let (counts, total, rho) = broadcast_counts(&mut clique, m.rows()).unwrap();
        assert_eq!(counts, vec![2, 0, 1, 1]);
        assert_eq!(total, 4);
        assert_eq!(rho, 1);
        assert_eq!(clique.rounds(), 1);
    }
}
