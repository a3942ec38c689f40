//! Direct use of the paper's matrix-multiplication engine: output-sensitive
//! sparse products (Theorem 8), filtered products (Theorem 14) and the
//! dense 3D baseline, with round accounting.
//!
//! This is the "library" view of the reproduction: the multiplication
//! primitives are useful beyond shortest paths (triangle counting,
//! reachability, semiring dynamic programs).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example sparse_matmul
//! ```

use congested_clique::clique::Clique;
use congested_clique::matmul::{dense_multiply, filtered_multiply, sparse_multiply};
use congested_clique::matrix::{Dist, MinPlus, SparseMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_sparse(n: usize, rho: usize, seed: u64) -> SparseMatrix<Dist> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = SparseMatrix::zeros(n);
    for _ in 0..rho * n {
        let r = rng.gen_range(0..n);
        let c = rng.gen_range(0..n);
        m.set_in::<MinPlus>(r, c, Dist::fin(rng.gen_range(1..1000)));
    }
    m
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 256;
    println!("== Sparse matrix multiplication in the Congested Clique ==");
    println!("n = {n}\n");

    for rho in [2usize, 8, 32] {
        let s = random_sparse(n, rho, 1);
        let t = random_sparse(n, rho, 2);
        let t_cols = t.transpose();
        let reference = s.multiply::<MinPlus>(&t);

        // Theorem 8, with the true output density as the hint.
        let mut clique = Clique::new(n);
        let p =
            sparse_multiply::<MinPlus>(&mut clique, s.rows(), t_cols.rows(), reference.density())?;
        assert_eq!(SparseMatrix::from_rows(p), reference);
        let sparse_rounds = clique.rounds();

        // Dense 3D baseline on the same inputs.
        let mut clique = Clique::new(n);
        let p = dense_multiply::<MinPlus>(&mut clique, s.rows(), t_cols.rows())?;
        assert_eq!(SparseMatrix::from_rows(p), reference);
        let dense_rounds = clique.rounds();

        // Theorem 14: only the 4 smallest entries per output row.
        let mut clique = Clique::new(n);
        let p = filtered_multiply::<MinPlus>(&mut clique, s.rows(), t_cols.rows(), 4)?;
        assert_eq!(SparseMatrix::from_rows(p), reference.filtered(4));
        let filtered_rounds = clique.rounds();

        println!(
            "rho_S = rho_T = {rho:<3} rho_out = {:<4} | Thm 8: {sparse_rounds:>4} rounds | dense 3D: {dense_rounds:>4} | Thm 14 (rho=4): {filtered_rounds:>4}",
            reference.density(),
        );
    }

    // Fully dense inputs: here the 3D baseline pays its n^{1/3} load while
    // Theorem 8 (told the truth about the output density) organises the
    // same work with sparse-aware balancing.
    let s = random_sparse(n, n, 5);
    let t = random_sparse(n, n, 6);
    let t_cols = t.transpose();
    let mut clique = Clique::new(n);
    dense_multiply::<MinPlus>(&mut clique, s.rows(), t_cols.rows())?;
    println!("\nfully dense inputs     | dense 3D: {:>4} rounds", clique.rounds());

    println!("\nTheorem 8 tracks (rho_S*rho_T*rho_out)^(1/3)/n^(2/3)+1; the dense");
    println!("baseline pays ~n^(1/3) loads on dense inputs; Theorem 14 trades a");
    println!("log W binary-search additive term for output sparsification. At");
    println!("n=256 the constant overheads (~30 rounds of partitioning and");
    println!("balancing) still dominate — the asymptotic separation is the");
    println!("subject of experiment E1 in the output of");
    println!("`cargo run -p cc-bench --bin experiments`.");
    Ok(())
}
