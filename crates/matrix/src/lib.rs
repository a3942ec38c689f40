//! # `cc-matrix`: semirings and sparse matrices for distance computation
//!
//! The algorithms of *Fast Approximate Shortest Paths in the Congested
//! Clique* (PODC 2019) reduce distance computation to matrix multiplication
//! over semirings. This crate provides:
//!
//! * the [`Semiring`] abstraction, with the three instances the paper uses —
//!   the **min-plus (tropical) semiring** over [`Dist`], the **augmented
//!   min-plus semiring** over [`AugDist`] `(weight, hops)` pairs (§3.1), and
//!   the **boolean semiring** (used to define cancellation-free output
//!   density, §2.1);
//! * [`OrderedSemiring`], the precondition of filtered products (§2.2):
//!   addition is `min` under the elements' `Ord`, zero is the maximum, and
//!   [`OrderedSemiring::ordinal`] is the one order-preserving encoding
//!   Lemma 15's cutoff search runs over;
//! * [`SparseRow`] / [`SparseMatrix`]: the row-sparse matrix representation
//!   the Congested Clique algorithms distribute (node `v` holds row `v`),
//!   with the paper's density measure `ρ` and ρ-filtering by `Ord` (§2.2);
//! * a sequential reference [`SparseMatrix::multiply`] used by differential
//!   tests against the distributed algorithms.
//!
//! Lengths follow one rule, defined once here and applied by every semiring
//! multiplication over them ([`Dist::checked_add`], [`AugDist::combine`],
//! [`WitnessedMinPlus`]): a length that overflows `u64`, or lands on its
//! `u64::MAX` ∞ sentinel, is no path.
//!
//! # Example: distance product
//!
//! ```
//! use cc_matrix::{Dist, MinPlus, Semiring, SparseMatrix};
//!
//! // 0 --1-- 1 --2-- 2 as a weight matrix.
//! let mut w = SparseMatrix::<Dist>::identity::<MinPlus>(3);
//! w.set(0, 1, Dist::fin(1));
//! w.set(1, 0, Dist::fin(1));
//! w.set(1, 2, Dist::fin(2));
//! w.set(2, 1, Dist::fin(2));
//!
//! let w2 = w.multiply::<MinPlus>(&w);
//! assert_eq!(w2.get(0, 2), Some(&Dist::fin(3))); // two-hop path 0-1-2
//! ```
//!
//! Unsafe code is forbidden (`#![forbid(unsafe_code)]`), as across the
//! whole workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod elem;
mod semiring;
mod sparse;

pub use elem::{AugDist, Dist, Entry, WitnessedDist};
pub use semiring::{AugMinPlus, Boolean, MinPlus, OrderedSemiring, Semiring, WitnessedMinPlus};
pub use sparse::{SparseMatrix, SparseRow};
