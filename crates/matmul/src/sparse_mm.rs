//! Output-sensitive sparse matrix multiplication — **Theorem 8**.
//!
//! Computes `P = S ⋆ T` over an arbitrary semiring in
//! `O((ρS·ρT·ρ̂)^{1/3}/n^{2/3} + 1)` rounds, where `ρ̂` is the (promised)
//! density of the cancellation-free output. The steps are the shared
//! pipeline's (see the crate docs); Theorem 8's own are a Lemma 9 cube shaped
//! for `ρ̂` and Lemma 12's helper policy — one pool `0..n`, one chunk `ρ̂·c` —
//! plus the doubling search for an unknown `ρ̂`.

use cc_clique::Clique;
use cc_matrix::{Semiring, SparseRow};

use crate::cube::CubePartition;
use crate::operand::{Operand, Side};
use crate::pipeline::{product, HelperScope, Helpers, Plan};
use crate::MatmulError;

/// **Theorem 8**: computes `P = S ⋆ T` on the clique, given that the
/// cancellation-free output density is at most `rho_hat`.
///
/// Input layout: node `v` holds row `v` of `S` (`s_rows[v]`) and column `v`
/// of `T` (`t_cols[v]`); output layout: node `v` holds row `v` of `P`.
///
/// The result is always the exact product — `rho_hat` only drives load
/// balancing. Rounds: `O((ρS·ρT·ρ̂)^{1/3}/n^{2/3} + 1)`, and no more than
/// the pipeline's when the row owners compute the product (crate docs).
///
/// # Errors
///
/// * [`MatmulError::DimensionMismatch`] if the operands don't match the
///   clique size;
/// * [`MatmulError::DensityHintTooSmall`] if `rho_hat` is below the true
///   output density and balancing becomes impossible (retry with a doubled
///   hint, or use [`sparse_multiply_auto`]). A product the row owners
///   compute needs no hint and never reports it, so a small hint yields
///   either the exact product or this error;
/// * [`MatmulError::Clique`] on malformed communication (internal bug).
///
/// # Example
///
/// ```
/// use cc_clique::Clique;
/// use cc_matmul::sparse_multiply;
/// use cc_matrix::{Dist, MinPlus, SparseMatrix};
///
/// # fn main() -> Result<(), cc_matmul::MatmulError> {
/// let mut w = SparseMatrix::<Dist>::identity::<MinPlus>(8);
/// for v in 0..7 {
///     w.set_in::<MinPlus>(v, v + 1, Dist::fin(1));
///     w.set_in::<MinPlus>(v + 1, v, Dist::fin(1));
/// }
/// let mut clique = Clique::new(8);
/// let t_cols = w.transpose(); // column layout for the right operand
/// let p = sparse_multiply::<MinPlus>(&mut clique, w.rows(), t_cols.rows(), 8)?;
/// assert_eq!(p[0].get(2), Some(&Dist::fin(2))); // 2-hop distance
/// # Ok(())
/// # }
/// ```
pub fn sparse_multiply<SR: Semiring>(
    clique: &mut Clique,
    s_rows: &[SparseRow<SR::Elem>],
    t_cols: &[SparseRow<SR::Elem>],
    rho_hat: usize,
) -> Result<Vec<SparseRow<SR::Elem>>, MatmulError> {
    let mut s = Operand::unprepared(Side::Left, s_rows);
    let mut t = Operand::unprepared(Side::Right, t_cols);
    sparse_multiply_prepared::<SR>(clique, &mut s, &mut t, rho_hat)
}

/// [`sparse_multiply`] on operands the caller prepared — and may hand in
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
/// Same as [`sparse_multiply`].
pub fn sparse_multiply_prepared<SR: Semiring>(
    clique: &mut Clique,
    s: &mut Operand<'_, SR::Elem>,
    t: &mut Operand<'_, SR::Elem>,
    rho_hat: usize,
) -> Result<Vec<SparseRow<SR::Elem>>, MatmulError> {
    sparse_product::<SR>(clique, s, t, rho_hat, true)
}

/// [`sparse_multiply_prepared`], with the owner product allowed if `owner`.
pub(crate) fn sparse_product<SR: Semiring>(
    clique: &mut Clique,
    s: &mut Operand<'_, SR::Elem>,
    t: &mut Operand<'_, SR::Elem>,
    rho_hat: usize,
    owner: bool,
) -> Result<Vec<SparseRow<SR::Elem>>, MatmulError> {
    let rho_hat = rho_hat.clamp(1, clique.n());
    let scopes = |cube: &CubePartition| lemma_12_scopes(cube, rho_hat);
    let plan = Plan {
        label: "sparse_mm",
        cube_density: Some(rho_hat),
        thin: None,
        helpers: Some(Helpers { sizes_label: "sizes", hint: rho_hat, scopes: &scopes }),
        owner,
    };
    product::<SR>(clique, &plan, s, t)
}

/// Lemma 12's helper policy for an output density of at most `rho_hat`: a
/// subtask whose product has `nz ≥ chunk` entries receives `⌊nz/chunk⌋`
/// helper nodes from the one pool `0..n`, with `chunk = ρ̂·c`. The pool runs
/// out only if `rho_hat` underestimates the output density.
pub(crate) fn lemma_12_scopes(cube: &CubePartition, rho_hat: usize) -> Vec<HelperScope> {
    let chunk = (rho_hat * cube.c_eff()).max(1);
    vec![((0..cube.shape.subtasks()).collect(), (0..cube.n).collect(), chunk)]
}

/// A product computed with an automatically discovered density estimate:
/// the output rows and the estimate that succeeded.
pub type AutoProduct<E> = (Vec<SparseRow<E>>, usize);

/// Theorem 8 without prior knowledge of the output density: runs
/// [`sparse_multiply`] with doubling estimates `ρ̂ = 1, 2, 4, …` until the
/// balancing succeeds, at a multiplicative `O(log n)` round overhead (§2.1).
///
/// Returns the product and the density estimate that succeeded.
///
/// # Errors
///
/// Same as [`sparse_multiply`], except `DensityHintTooSmall` is handled
/// internally.
pub fn sparse_multiply_auto<SR: Semiring>(
    clique: &mut Clique,
    s_rows: &[SparseRow<SR::Elem>],
    t_cols: &[SparseRow<SR::Elem>],
) -> Result<AutoProduct<SR::Elem>, MatmulError> {
    let n = clique.n();
    let mut rho_hat = 1usize;
    loop {
        match sparse_multiply::<SR>(clique, s_rows, t_cols, rho_hat) {
            Ok(rows) => return Ok((rows, rho_hat)),
            Err(MatmulError::DensityHintTooSmall { .. }) if rho_hat < n => {
                rho_hat = (rho_hat * 2).min(n);
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::CubeShape;
    use crate::pipeline::assign_helpers;
    use cc_matrix::{Dist, MinPlus, SparseMatrix};
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

    /// [`sparse_multiply`] without the owner product: the pipeline, always.
    fn pipeline_only(
        clique: &mut Clique,
        s_rows: &[SparseRow<Dist>],
        t_cols: &[SparseRow<Dist>],
        rho_hat: usize,
    ) -> Result<Vec<SparseRow<Dist>>, MatmulError> {
        let mut s = Operand::unprepared(Side::Left, s_rows);
        let mut t = Operand::unprepared(Side::Right, t_cols);
        sparse_product::<MinPlus>(clique, &mut s, &mut t, rho_hat, false)
    }

    fn check_product(n: usize, s: &SparseMatrix<Dist>, t: &SparseMatrix<Dist>, rho_hat: usize) {
        let mut clique = Clique::new(n);
        let t_cols = t.transpose();
        let rows =
            sparse_multiply::<MinPlus>(&mut clique, s.rows(), t_cols.rows(), rho_hat).unwrap();
        let expected = s.multiply::<MinPlus>(t);
        assert_eq!(SparseMatrix::from_rows(rows), expected);
    }

    #[test]
    fn matches_reference_on_random_sparse() {
        let n = 16;
        let s = random_matrix(n, 40, 1);
        let t = random_matrix(n, 40, 2);
        let rho = s.multiply::<MinPlus>(&t).density();
        check_product(n, &s, &t, rho);
    }

    #[test]
    fn matches_reference_on_asymmetric_densities() {
        let n = 24;
        let s = random_matrix(n, 20, 3); // very sparse
        let t = random_matrix(n, 300, 4); // dense
        let rho = s.multiply::<MinPlus>(&t).density();
        check_product(n, &s, &t, rho);
    }

    #[test]
    fn star_square_is_dense_but_correct() {
        // The star graph: sparse input, dense output (the paper's canonical
        // example of why iterated sparse squaring fails).
        let n = 16;
        let mut w = SparseMatrix::<Dist>::identity::<MinPlus>(n);
        for v in 1..n {
            w.set_in::<MinPlus>(0, v, Dist::fin(1));
            w.set_in::<MinPlus>(v, 0, Dist::fin(1));
        }
        check_product(n, &w, &w, n); // output density is ~n
    }

    #[test]
    fn small_hint_errors_then_auto_recovers() {
        let n = 16;
        let mut w = SparseMatrix::<Dist>::identity::<MinPlus>(n);
        for v in 1..n {
            w.set_in::<MinPlus>(0, v, Dist::fin(1));
            w.set_in::<MinPlus>(v, 0, Dist::fin(1));
        }
        let t_cols = w.transpose();
        // With hint 1 the star square (density n) must either still be
        // correct or report the hint as too small — never be wrong.
        let mut clique = Clique::new(n);
        match sparse_multiply::<MinPlus>(&mut clique, w.rows(), t_cols.rows(), 1) {
            Ok(rows) => {
                assert_eq!(SparseMatrix::from_rows(rows), w.multiply::<MinPlus>(&w));
            }
            Err(MatmulError::DensityHintTooSmall { hint: 1 }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
        let mut clique = Clique::new(n);
        let (rows, used) =
            sparse_multiply_auto::<MinPlus>(&mut clique, w.rows(), t_cols.rows()).unwrap();
        assert_eq!(SparseMatrix::from_rows(rows), w.multiply::<MinPlus>(&w));
        assert!(used >= 1);

        // The same exhaustion in Lemma 16's shape — a pool that is one group
        // B_ik, not 0..n. No product reaches it (the lemma's counting holds
        // for every thinned slice), so the shared assignment is handed one
        // directly: 2 members, 3 helpers owed.
        let cube = CubePartition::uniform(n, CubeShape { a: 2, b: 2, c: 4 });
        let group = cube.group_bik(1, 2);
        let mut sizes = vec![0u64; n];
        sizes[group[0]] = 10;
        sizes[group[1]] = 21;
        let scope = |chunk| [(group.clone(), group.clone(), chunk)];
        let err = assign_helpers(&cube, &sizes, &scope(10), 3).unwrap_err();
        assert_eq!(err, MatmulError::DensityHintTooSmall { hint: 3 });
        let (helpers, chunk_of) = assign_helpers(&cube, &sizes, &scope(11), 3).unwrap();
        assert_eq!(helpers.nodes_for(group[0]), &[] as &[usize]);
        assert_eq!(helpers.nodes_for(group[1]), &[group[0]]);
        assert_eq!((chunk_of[group[0]], chunk_of[group[1]]), (11, 11));
    }

    #[test]
    fn a_reused_left_operand_is_prepared_and_balanced_once() {
        // S ⋆ T1 then S ⋆ T2 from one prepared S: the one-shot products,
        // entry for entry, while the second product re-sends nothing that
        // depends on S alone. S's full row 0 does not fit as it is held once
        // the cube sends each S entry to several nodes.
        let n = 24;
        let mut s = random_matrix(n, 90, 11);
        for c in 0..n {
            s.set_in::<MinPlus>(0, c, Dist::fin(1));
        }
        let ts = [random_matrix(n, 60, 12), random_matrix(n, 200, 13), random_matrix(n, 150, 14)];
        let mut clique = Clique::new(n);
        let mut left = Operand::prepare::<MinPlus>(&mut clique, Side::Left, s.rows()).unwrap();
        let mut s_balances = Vec::new();
        for t in &ts {
            let t_cols = t.transpose();
            let mut right =
                Operand::prepare::<MinPlus>(&mut clique, Side::Right, t_cols.rows()).unwrap();
            // The pipeline alone: its delivery is what this test pins.
            let rows =
                sparse_product::<MinPlus>(&mut clique, &mut left, &mut right, n, false).unwrap();
            assert_eq!(SparseMatrix::from_rows(rows), s.multiply::<MinPlus>(t));
            let phases = &clique.metrics().phases;
            let sorts = phases.get("sparse_mm/deliver_s/balance/sort").map_or(0, |p| p.invocations);
            s_balances.push(sorts);

            let mut one_shot = Clique::new(n);
            let expected =
                sparse_multiply::<MinPlus>(&mut one_shot, s.rows(), t_cols.rows(), n).unwrap();
            assert_eq!(SparseMatrix::from_rows(expected), s.multiply::<MinPlus>(t));
        }
        let phases = &clique.metrics().phases;
        // Counts: S once, each T once. Transposes: S once, each T once,
        // before its product. σ1 balancing of S: once. The first cube leaves S in
        // place, the second balances it, and the third reuses the placement.
        assert_eq!(phases["counts/all_broadcast"].invocations, 1 + 3);
        assert_eq!(phases["transpose/route"].invocations, 1 + 3);
        assert!(!phases.contains_key("sparse_mm/transpose/route"));
        assert_eq!(s_balances, [0, 1, 1]);
        // Every T fits as it is held, and no helper is assigned: one deal
        // route, S's, and one fan-out route per product.
        assert!(!phases.contains_key("sparse_mm/deliver_t/balance/sort"));
        assert_eq!(phases["sparse_mm/deliver/balance/route"].invocations, 1);
        assert_eq!(phases["sparse_mm/deliver/fanout/route"].invocations, 3);
    }

    #[test]
    fn an_empty_sigma2_delivery_is_skipped() {
        // Identity ⋆ identity: every subtask product is tiny, so σ2 names
        // nobody and only the σ1 delivery communicates. Every node holds one
        // entry a side, as a balance would leave it, so nothing is balanced.
        let n = 8;
        let id = SparseMatrix::<Dist>::identity::<MinPlus>(n);
        let mut clique = Clique::new(n);
        pipeline_only(&mut clique, id.rows(), id.rows(), n).unwrap();
        let phases = &clique.metrics().phases;
        for side in ["deliver_s", "deliver_t"] {
            assert!(!phases.contains_key(&format!("sparse_mm/{side}/balance/sort")), "{side}");
            // The plan reads the operand's broadcast counts.
            assert!(!phases.contains_key(&format!("sparse_mm/{side}/counts/all_broadcast")));
        }
        assert!(!phases.contains_key("sparse_mm/deliver/balance/route"));
        assert_eq!(phases["sparse_mm/deliver/fanout/route"].invocations, 1);
    }

    #[test]
    fn a_product_whose_input_layout_fits_is_not_balanced() {
        // Every row and every column of a circulant holds d entries: each
        // node holds what a balance would leave it, for S and for T alike,
        // so neither the product nor the dense baseline sorts or deals.
        let (n, d) = (32, 5);
        let mut w = SparseMatrix::<Dist>::zeros(n);
        for r in 0..n {
            for k in 0..d {
                w.set(r, (r + 3 * k) % n, Dist::fin((r * d + k) as u64 + 1));
            }
        }
        let t_cols = w.transpose();
        let expected = w.multiply::<MinPlus>(&w);
        let mut clique = Clique::new(n);
        let rows = pipeline_only(&mut clique, w.rows(), t_cols.rows(), 16).unwrap();
        assert_eq!(SparseMatrix::from_rows(rows), expected);
        let mut dense = Clique::new(n);
        let rows = crate::dense_multiply::<MinPlus>(&mut dense, w.rows(), t_cols.rows()).unwrap();
        assert_eq!(SparseMatrix::from_rows(rows), expected);
        for (label, clique) in [("sparse_mm", &clique), ("dense_mm", &dense)] {
            let phases = &clique.metrics().phases;
            for leaf in
                ["deliver_s/balance/sort", "deliver_t/balance/sort", "deliver/balance/route"]
            {
                assert!(!phases.contains_key(&format!("{label}/{leaf}")), "{label}/{leaf}");
            }
            assert_eq!(phases[&format!("{label}/deliver/fanout/route")].invocations, 1, "{label}");
        }
    }

    #[test]
    fn identity_times_identity() {
        let n = 8;
        let id = SparseMatrix::<Dist>::identity::<MinPlus>(n);
        check_product(n, &id, &id, 1);
    }

    #[test]
    fn empty_matrices() {
        let n = 8;
        let z = SparseMatrix::<Dist>::zeros(n);
        check_product(n, &z, &z, 1);
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let mut clique = Clique::new(4);
        let m = SparseMatrix::<Dist>::zeros(8);
        let err = sparse_multiply::<MinPlus>(&mut clique, m.rows(), m.rows(), 1).unwrap_err();
        assert!(matches!(err, MatmulError::DimensionMismatch { .. }));
    }

    #[test]
    fn sparse_products_are_round_efficient() {
        // rho_s = rho_t = rho_hat ~ sqrt(n): Theorem 8 predicts O(1) rounds
        // (the (rho^3)^(1/3)/n^(2/3} = sqrt(n)/n^{2/3} < 1 regime).
        let n = 64;
        let s = random_matrix(n, 8 * n, 7);
        let t = random_matrix(n, 8 * n, 8);
        let mut clique = Clique::new(n);
        let t_cols = t.transpose();
        let rows = sparse_multiply::<MinPlus>(
            &mut clique,
            s.rows(),
            t_cols.rows(),
            s.multiply::<MinPlus>(&t).density(),
        )
        .unwrap();
        assert_eq!(SparseMatrix::from_rows(rows), s.multiply::<MinPlus>(&t));
        assert!(
            clique.rounds() < 60,
            "sparse multiply should be O(1)-ish rounds, got {}",
            clique.rounds()
        );
    }
}
