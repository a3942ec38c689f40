//! Output-sensitive sparse matrix multiplication — **Theorem 8**.
//!
//! Computes `P = S ⋆ T` over an arbitrary semiring in
//! `O((ρS·ρT·ρ̂)^{1/3}/n^{2/3} + 1)` rounds, where `ρ̂` is the (promised)
//! density of the cancellation-free output. Pipeline:
//!
//! 1. cube partition (Lemma 9) — `O(1)` rounds;
//! 2. subtask input delivery with the canonical assignment `σ1`
//!    (Lemmas 10+11) and local products — `O(ρS·a/n + ρT·b/n + 1)` rounds;
//! 3. duplication of dense subtasks (Lemma 12) via a second delivery with
//!    `σ2`, then responsibility splitting — same cost again;
//! 4. balanced summation (Lemma 13) — `O(ρ̂·c/n + 1)` rounds.

use cc_clique::Clique;
use cc_matrix::{Semiring, SparseRow};

use crate::cube::{CubePartition, CubeShape, Sigma, TaskAssignment};
use crate::deliver::{
    deliver_canonical_inputs, deliver_subtask_inputs, local_product, ProductScratch,
};
use crate::operand::{check_pair, Operand, Side};
use crate::sum::sum_intermediates;
use crate::MatmulError;

/// Builds the duplication assignment `σ2` of Lemma 12: a subtask whose
/// product has `nz ≥ chunk` entries receives `⌊nz/chunk⌋` helper nodes from
/// the pool `0..n`.
///
/// Returns `Err` if the pool runs out — which happens exactly when the
/// promised output density underestimates the truth.
fn build_sigma2(
    cube: &CubePartition,
    product_sizes: &[u64],
    chunk: u64,
    hint: usize,
) -> Result<Sigma, MatmulError> {
    let n = cube.n();
    let mut sigma2: Sigma = vec![None; n];
    let mut pool = 0usize;
    for v in 0..cube.shape.subtasks() {
        let extra = (product_sizes[v] / chunk) as usize;
        let triple = cube.triple_of(v).expect("subtask nodes have triples");
        for _ in 0..extra {
            if pool >= n {
                return Err(MatmulError::DensityHintTooSmall { hint });
            }
            sigma2[pool] = Some(triple);
            pool += 1;
        }
    }
    Ok(sigma2)
}

/// **Theorem 8**: computes `P = S ⋆ T` on the clique, given that the
/// cancellation-free output density is at most `rho_hat`.
///
/// Input layout: node `v` holds row `v` of `S` (`s_rows[v]`) and column `v`
/// of `T` (`t_cols[v]`); output layout: node `v` holds row `v` of `P`.
///
/// The result is always the exact product — `rho_hat` only drives load
/// balancing. Rounds: `O((ρS·ρT·ρ̂)^{1/3}/n^{2/3} + 1)`.
///
/// # Errors
///
/// * [`MatmulError::DimensionMismatch`] if the operands don't match the
///   clique size;
/// * [`MatmulError::DensityHintTooSmall`] if `rho_hat` is below the true
///   output density and balancing becomes impossible (retry with a doubled
///   hint, or use [`sparse_multiply_auto`]);
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
    let n = clique.n();
    if s_rows.len() != n || t_cols.len() != n {
        return Err(MatmulError::DimensionMismatch {
            s_rows: s_rows.len(),
            t_cols: t_cols.len(),
            n,
        });
    }
    clique.with_phase("sparse_mm", |clique| {
        let mut s = Operand::prepare::<SR>(clique, Side::Left, s_rows)?;
        let mut t = Operand::prepare::<SR>(clique, Side::Right, t_cols)?;
        product::<SR>(clique, &mut s, &mut t, rho_hat)
    })
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
    check_pair(clique.n(), s, t)?;
    clique.with_phase("sparse_mm", |clique| product::<SR>(clique, s, t, rho_hat))
}

/// Theorem 8 from prepared operands on, inside the caller's phase.
fn product<SR: Semiring>(
    clique: &mut Clique,
    s: &mut Operand<'_, SR::Elem>,
    t: &mut Operand<'_, SR::Elem>,
    rho_hat: usize,
) -> Result<Vec<SparseRow<SR::Elem>>, MatmulError> {
    let n = clique.n();
    let rho_hat = rho_hat.clamp(1, n);

    // Lemma 9: globally known cube partition.
    let shape = CubeShape::choose(n, s.density(), t.density(), rho_hat);
    let cube = CubePartition::build(clique, shape, s, t)?;

    // Lemma 11 with σ1 + local products.
    let inputs = deliver_canonical_inputs::<SR>(clique, &cube, s, t)?;
    let mut scratch = ProductScratch::default();
    let products: Vec<_> =
        inputs.iter().map(|input| local_product::<SR>(&mut scratch, input)).collect();

    // Lemma 12: duplicate dense subtasks.
    let sizes: Vec<u64> = products.iter().map(|p| p.len() as u64).collect();
    let sizes = clique.with_phase("sizes", |cl| cl.all_broadcast(sizes))?;
    let chunk = (rho_hat * cube.c_eff()).max(1) as u64;
    let sigma2_vec = build_sigma2(&cube, &sizes, chunk, rho_hat)?;
    let sigma2 = TaskAssignment::new(&cube, sigma2_vec);
    let dup_inputs = deliver_subtask_inputs::<SR>(clique, &cube, s.held(), t.held(), &sigma2)?;

    // Responsibility split: owners of subtask v are [v] ++ σ2-helpers
    // (sorted); owner index o takes the o-th chunk of the product.
    let mut intermediates: Vec<Vec<_>> = vec![Vec::new(); n];
    for v in 0..cube.shape.subtasks() {
        let (i, j, k) = cube.triple_of(v).expect("subtask nodes have triples");
        // A node may serve as both the σ1 owner and a σ2 helper of the
        // same task; it then takes two parts (paper, Lemma 12 step 3),
        // so duplicates are kept.
        let mut owners = vec![v];
        owners.extend(sigma2.nodes_for(&cube, i, j, k).iter().copied());
        owners.sort_unstable();
        // Recompute the product once per distinct owner (σ1 owner has it;
        // σ2 owners recomputed it from dup_inputs — same entries).
        let prod_len = sizes[v] as usize;
        let parts = prod_len.div_ceil(chunk as usize);
        debug_assert!(parts <= owners.len(), "Lemma 12 guarantees enough owners");
        for (o, owner) in owners.iter().enumerate().take(parts) {
            let lo = o * chunk as usize;
            let hi = ((o + 1) * chunk as usize).min(prod_len);
            if *owner == v {
                intermediates[*owner].extend_from_slice(&products[v][lo..hi]);
            } else {
                // σ2 owner: recompute locally from its delivered inputs.
                // (Computation is free in the model; entries are already
                // at the node via the σ2 delivery.)
                let prod = local_product::<SR>(&mut scratch, &dup_inputs[*owner]);
                intermediates[*owner].extend_from_slice(&prod[lo..hi]);
            }
        }
    }

    // Lemma 13: balanced summation into row owners.
    sum_intermediates::<SR>(clique, intermediates)
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
    }

    #[test]
    fn a_reused_left_operand_is_prepared_and_balanced_once() {
        // S ⋆ T1 then S ⋆ T2 from one prepared S: the one-shot products,
        // entry for entry, while the second product re-sends nothing that
        // depends on S alone.
        let n = 24;
        let s = random_matrix(n, 90, 11);
        let (t1, t2) = (random_matrix(n, 60, 12), random_matrix(n, 200, 13));
        let mut clique = Clique::new(n);
        let mut left = Operand::prepare::<MinPlus>(&mut clique, Side::Left, s.rows()).unwrap();
        let mut products_run = 0;
        for t in [&t1, &t2] {
            let (t_rows, t_cols) = (t.rows(), t.transpose());
            let mut right =
                Operand::from_layouts(&mut clique, Side::Right, t_cols.rows(), t_rows).unwrap();
            let rows =
                sparse_multiply_prepared::<MinPlus>(&mut clique, &mut left, &mut right, n).unwrap();
            assert_eq!(SparseMatrix::from_rows(rows), s.multiply::<MinPlus>(t));
            products_run += 1;

            let mut one_shot = Clique::new(n);
            let expected =
                sparse_multiply::<MinPlus>(&mut one_shot, s.rows(), t_cols.rows(), n).unwrap();
            assert_eq!(SparseMatrix::from_rows(expected), s.multiply::<MinPlus>(t));
        }
        let phases = &clique.metrics().phases;
        // Counts: S once, each T once. Transposes: S once (the Ts came with
        // both layouts). σ1 balancing of S: the first product only.
        assert_eq!(phases["counts/all_broadcast"].invocations, 1 + products_run);
        assert_eq!(phases["transpose/route"].invocations, 1);
        assert!(!phases.contains_key("sparse_mm/transpose/route"));
        let s_balances = phases["sparse_mm/deliver_s/balance/sort"].invocations;
        let t_balances = phases["sparse_mm/deliver_t/balance/sort"].invocations;
        assert_eq!(t_balances - s_balances, 1, "S skipped exactly one σ1 balancing");
        assert_eq!(phases["sparse_mm/deliver_s/fanout/route"].invocations, t_balances);
    }

    #[test]
    fn an_empty_sigma2_delivery_is_skipped() {
        // Identity ⋆ identity: every subtask product is tiny, so σ2 names
        // nobody and only the σ1 delivery communicates.
        let n = 8;
        let id = SparseMatrix::<Dist>::identity::<MinPlus>(n);
        let mut clique = Clique::new(n);
        sparse_multiply::<MinPlus>(&mut clique, id.rows(), id.rows(), n).unwrap();
        let phases = &clique.metrics().phases;
        for side in ["deliver_s", "deliver_t"] {
            for leaf in ["balance/all_broadcast", "balance/sort", "balance/route", "fanout/route"] {
                assert_eq!(phases[&format!("sparse_mm/{side}/{leaf}")].invocations, 1, "{side}");
            }
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
