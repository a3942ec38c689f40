//! Property-based tests for semiring laws and sparse-matrix invariants.

use cc_matrix::{
    AugDist, AugMinPlus, Dist, Entry, MinPlus, OrderedSemiring, Semiring, SparseMatrix, SparseRow,
};
use proptest::prelude::*;

fn arb_dist() -> impl Strategy<Value = Dist> {
    prop_oneof![
        3 => (0u64..1_000_000).prop_map(Dist::fin),
        1 => Just(Dist::INF),
    ]
}

fn arb_aug() -> impl Strategy<Value = AugDist> {
    prop_oneof![
        3 => (0u64..1_000_000, 0u32..1_000).prop_map(|(d, h)| AugDist::fin(d, h)),
        1 => Just(AugDist::INF),
    ]
}

/// The largest `(value, column)` pair a filtered row kept, by the order the
/// filter keeps in: every entry it dropped comes after this one.
fn largest_kept(row: &SparseRow<Dist>) -> Option<(Dist, u32)> {
    row.iter().map(|(c, val)| (*val, c)).max()
}

fn arb_matrix(n: usize, max_entries: usize) -> impl Strategy<Value = SparseMatrix<Dist>> {
    prop::collection::vec((0..n as u32, 0..n as u32, 0u64..1_000), 0..max_entries).prop_map(
        move |entries| {
            SparseMatrix::from_entries::<MinPlus>(
                n,
                entries.into_iter().map(|(r, c, w)| Entry::new(r, c, Dist::fin(w))),
            )
        },
    )
}

proptest! {
    #[test]
    fn minplus_assoc_comm_distributive(a in arb_dist(), b in arb_dist(), c in arb_dist()) {
        prop_assert_eq!(MinPlus::add(&a, &b), MinPlus::add(&b, &a));
        prop_assert_eq!(
            MinPlus::add(&MinPlus::add(&a, &b), &c),
            MinPlus::add(&a, &MinPlus::add(&b, &c))
        );
        prop_assert_eq!(
            MinPlus::mul(&a, &MinPlus::add(&b, &c)),
            MinPlus::add(&MinPlus::mul(&a, &b), &MinPlus::mul(&a, &c))
        );
    }

    #[test]
    fn aug_minplus_add_is_min(a in arb_aug(), b in arb_aug()) {
        prop_assert_eq!(AugMinPlus::add(&a, &b), a.min(b));
        prop_assert!(a <= AugMinPlus::zero());
    }

    #[test]
    fn minplus_ordinal_preserves_the_order(a in arb_dist(), b in arb_dist()) {
        prop_assert_eq!(a.cmp(&b), MinPlus::ordinal(&a).cmp(&MinPlus::ordinal(&b)));
    }

    #[test]
    fn aug_ordinal_preserves_the_order(a in arb_aug(), b in arb_aug()) {
        prop_assert_eq!(a.cmp(&b), AugMinPlus::ordinal(&a).cmp(&AugMinPlus::ordinal(&b)));
    }

    #[test]
    fn matrix_multiply_identity(m in arb_matrix(8, 40)) {
        let id = SparseMatrix::identity::<MinPlus>(8);
        prop_assert_eq!(&m.multiply::<MinPlus>(&id), &m);
        prop_assert_eq!(&id.multiply::<MinPlus>(&m), &m);
    }

    #[test]
    fn matrix_multiply_associative(
        a in arb_matrix(6, 20),
        b in arb_matrix(6, 20),
        c in arb_matrix(6, 20),
    ) {
        let left = a.multiply::<MinPlus>(&b).multiply::<MinPlus>(&c);
        let right = a.multiply::<MinPlus>(&b.multiply::<MinPlus>(&c));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn filtering_is_idempotent_and_bounded(m in arb_matrix(8, 64), rho in 1usize..6) {
        let f = m.filtered(rho);
        prop_assert_eq!(&f.filtered(rho), &f);
        for v in 0..8 {
            prop_assert!(f.row(v).nnz() <= rho);
            // Everything kept must be <= everything dropped.
            if let Some((cut, cut_col)) = largest_kept(f.row(v)) {
                for (c, val) in m.row(v).iter() {
                    if f.row(v).get(c).is_none() {
                        prop_assert!(
                            (cut, cut_col) <= (*val, c),
                            "dropped a smaller entry than one kept"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn density_bounds_nnz(m in arb_matrix(8, 64)) {
        let rho = m.density();
        prop_assert!(m.nnz() <= rho * 8);
        prop_assert!(rho == 1 || m.nnz() > (rho - 1) * 8);
    }

    #[test]
    fn transpose_preserves_entries(m in arb_matrix(8, 64)) {
        let t = m.transpose();
        prop_assert_eq!(m.nnz(), t.nnz());
        for e in m.entries() {
            prop_assert_eq!(t.get(e.col as usize, e.row as usize), Some(&e.val));
        }
    }
}
