//! The classical 3D dense semiring multiplication ([CKK+15], cited by the
//! paper as the `O(n^{1/3})`-round baseline).
//!
//! Uniform cube partition `a = b ≈ n^{1/3}`, `c = n/(a·b)`: every node
//! receives two `~n^{2/3} × n^{2/3}` blocks (`n^{4/3}` words ⇒ `n^{1/3}`
//! rounds), multiplies locally, and the block products are summed: the
//! shared pipeline (see the crate docs) under the plan with nothing
//! theorem-specific in it — a cube that needs no communication, hence
//! operands nobody prepares, no thinning and no helpers.

use cc_clique::Clique;
use cc_matrix::{Semiring, SparseRow};

use crate::operand::{Operand, Side};
use crate::pipeline::{product, Plan};
use crate::MatmulError;

/// Computes `P = S ⋆ T` with the dense 3D algorithm: `Θ(n^{1/3})` rounds
/// regardless of sparsity. The baseline against which Theorem 8's
/// output-sensitive algorithm is measured.
///
/// Input/output layout matches [`crate::sparse_multiply`].
///
/// # Errors
///
/// * [`MatmulError::DimensionMismatch`] if operands don't match the clique;
/// * [`MatmulError::Clique`] on malformed communication (internal bug).
///
/// # Example
///
/// ```
/// use cc_clique::Clique;
/// use cc_matmul::dense_multiply;
/// use cc_matrix::{Dist, MinPlus, SparseMatrix};
///
/// # fn main() -> Result<(), cc_matmul::MatmulError> {
/// let mut w = SparseMatrix::<Dist>::identity::<MinPlus>(8);
/// w.set_in::<MinPlus>(0, 1, Dist::fin(2));
/// w.set_in::<MinPlus>(1, 2, Dist::fin(3));
/// let mut clique = Clique::new(8);
/// let t_cols = w.transpose();
/// let p = dense_multiply::<MinPlus>(&mut clique, w.rows(), t_cols.rows())?;
/// assert_eq!(p[0].get(2), Some(&Dist::fin(5)));
/// # Ok(())
/// # }
/// ```
pub fn dense_multiply<SR: Semiring>(
    clique: &mut Clique,
    s_rows: &[SparseRow<SR::Elem>],
    t_cols: &[SparseRow<SR::Elem>],
) -> Result<Vec<SparseRow<SR::Elem>>, MatmulError> {
    let plan =
        Plan { label: "dense_mm", cube_density: None, thin: None, helpers: None, owner: false };
    let mut s = Operand::unprepared(Side::Left, s_rows);
    let mut t = Operand::unprepared(Side::Right, t_cols);
    product::<SR>(clique, &plan, &mut s, &mut t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_matrix::{Dist, MinPlus, SparseMatrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_dense(n: usize, fill: f64, seed: u64) -> SparseMatrix<Dist> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = SparseMatrix::zeros(n);
        for r in 0..n {
            for c in 0..n {
                if rng.gen_bool(fill) {
                    m.set_in::<MinPlus>(r, c, Dist::fin(rng.gen_range(1..100)));
                }
            }
        }
        m
    }

    #[test]
    fn matches_reference_on_dense_random() {
        let n = 27;
        let s = random_dense(n, 0.6, 1);
        let t = random_dense(n, 0.6, 2);
        let mut clique = Clique::new(n);
        let t_cols = t.transpose();
        let rows = dense_multiply::<MinPlus>(&mut clique, s.rows(), t_cols.rows()).unwrap();
        assert_eq!(SparseMatrix::from_rows(rows), s.multiply::<MinPlus>(&t));
    }

    #[test]
    fn matches_reference_on_sparse_too() {
        let n = 16;
        let s = random_dense(n, 0.05, 3);
        let t = random_dense(n, 0.05, 4);
        let mut clique = Clique::new(n);
        let t_cols = t.transpose();
        let rows = dense_multiply::<MinPlus>(&mut clique, s.rows(), t_cols.rows()).unwrap();
        assert_eq!(SparseMatrix::from_rows(rows), s.multiply::<MinPlus>(&t));
    }

    #[test]
    fn rounds_scale_like_cube_root_times_n_words() {
        // For fully dense inputs the dominant load is n^{4/3} words per
        // node; rounds should be well above O(1) but far below n.
        let n = 64;
        let s = random_dense(n, 1.0, 5);
        let t = random_dense(n, 1.0, 6);
        let mut clique = Clique::new(n);
        let t_cols = t.transpose();
        dense_multiply::<MinPlus>(&mut clique, s.rows(), t_cols.rows()).unwrap();
        let r = clique.rounds();
        assert!(r > 4, "dense multiply too cheap: {r}");
        assert!(r < n as u64, "dense multiply too expensive: {r}");
    }
}
