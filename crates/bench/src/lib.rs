//! # `cc-bench`: experiment support
//!
//! Shared infrastructure for the `experiments` binary, whose output —
//! `cargo run -p cc-bench --bin experiments` — is every claim-level
//! table. The paper's complexity measure is *rounds*, which the
//! `experiments` binary reports; wall time — of the simulator, the
//! builders and the serving stack — is the business of the benchmark
//! ledger under `examples/ledger/` (its own package; see
//! `BENCHMARK.json`), so performance regressions in this codebase itself
//! are visible there.
//!
//! Unsafe code is forbidden (`#![forbid(unsafe_code)]`), as across the
//! whole workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cc_matrix::{Dist, MinPlus, SparseMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A markdown pipe table accumulated row by row.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Prints the table as GitHub-flavoured markdown.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect();
            println!("| {} |", padded.join(" | "));
        };
        fmt_row(&self.header);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            fmt_row(row);
        }
        println!();
    }
}

/// A random square min-plus matrix with roughly `rho·n` non-zeros.
pub fn random_sparse(n: usize, rho: usize, seed: u64) -> SparseMatrix<Dist> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = SparseMatrix::zeros(n);
    for _ in 0..rho * n {
        let r = rng.gen_range(0..n);
        let c = rng.gen_range(0..n);
        m.set_in::<MinPlus>(r, c, Dist::fin(rng.gen_range(1..1000)));
    }
    m
}

/// Least-squares slope of `log y` against `log x` — the scaling exponent of
/// a measured cost curve.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return 0.0;
    }
    let (sx, sy): (f64, f64) = pts.iter().fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
    let (sxx, sxy): (f64, f64) =
        pts.iter().fold((0.0, 0.0), |(a, b), (x, y)| (a + x * x, b + x * y));
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Ordinary least-squares fit `y ≈ a + b·x`; returns `(a, b)`.
pub fn linear_fit(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    if points.len() < 2 {
        return (points.first().map_or(0.0, |p| p.1), 0.0);
    }
    let (sx, sy): (f64, f64) = points.iter().fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
    let (sxx, sxy): (f64, f64) =
        points.iter().fold((0.0, 0.0), |(a, b), (x, y)| (a + x * x, b + x * y));
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    (intercept, slope)
}

/// Theorem 8's round formula `(ρS·ρT·ρ̂)^{1/3}/n^{2/3} + 1`.
pub fn thm8_formula(n: usize, rho_s: usize, rho_t: usize, rho_hat: usize) -> f64 {
    ((rho_s * rho_t * rho_hat) as f64).powf(1.0 / 3.0) / (n as f64).powf(2.0 / 3.0) + 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_consistently() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print(); // should not panic
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn slope_recovers_power_laws() {
        let pts: Vec<(f64, f64)> = (1..20).map(|i| (i as f64, (i as f64).powf(1.5))).collect();
        assert!((loglog_slope(&pts) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn random_matrix_density_tracks_request() {
        let m = random_sparse(64, 8, 1);
        assert!(m.density() >= 6 && m.density() <= 8, "density {}", m.density());
    }

    #[test]
    fn thm8_formula_floor_is_one() {
        assert!((thm8_formula(1000, 1, 1, 1) - 1.0).abs() < 0.02);
    }

    #[test]
    fn linear_fit_recovers_lines() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let (a, b) = linear_fit(&pts);
        assert!((a - 3.0).abs() < 1e-9 && (b - 2.0).abs() < 1e-9);
    }
}
