use crate::{Entry, Semiring};

/// One sparse row: non-zero entries sorted by column index.
///
/// "Zero" means the semiring's additive identity (`∞` for min-plus); zero
/// entries are never stored.
///
/// # Example
///
/// ```
/// use cc_matrix::{Dist, MinPlus, SparseRow};
///
/// let mut row = SparseRow::new();
/// row.accumulate::<MinPlus>(3, Dist::fin(9));
/// row.accumulate::<MinPlus>(3, Dist::fin(4)); // min-combines
/// assert_eq!(row.get(3), Some(&Dist::fin(4)));
/// assert_eq!(row.nnz(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SparseRow<E> {
    entries: Vec<(u32, E)>,
}

impl<E: Clone + PartialEq> SparseRow<E> {
    /// An empty (all-zero) row.
    pub fn new() -> Self {
        SparseRow { entries: Vec::new() }
    }

    /// Builds a row from `(col, val)` pairs that are already sorted by
    /// strictly increasing column and contain no semiring zeros.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the input violates the ordering invariant.
    pub fn from_sorted(entries: Vec<(u32, E)>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "columns must be strictly increasing"
        );
        SparseRow { entries }
    }

    /// Builds a row by accumulating arbitrary `(col, val)` pairs with
    /// semiring addition, dropping zeros.
    pub fn from_entries<S: Semiring<Elem = E>>(mut entries: Vec<(u32, E)>) -> Self {
        entries.sort_by_key(|(c, _)| *c);
        let mut out: Vec<(u32, E)> = Vec::with_capacity(entries.len());
        for (c, v) in entries {
            match out.last_mut() {
                Some((lc, lv)) if *lc == c => *lv = S::add(lv, &v),
                _ => out.push((c, v)),
            }
        }
        out.retain(|(_, v)| !S::is_zero(v));
        SparseRow { entries: out }
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Whether the row is all zeros.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value at `col`, if non-zero.
    pub fn get(&self, col: u32) -> Option<&E> {
        self.entries.binary_search_by_key(&col, |(c, _)| *c).ok().map(|i| &self.entries[i].1)
    }

    /// Iterates over `(col, value)` pairs in column order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &E)> {
        self.entries.iter().map(|(c, v)| (*c, v))
    }

    /// Adds `val` at `col` with semiring addition, dropping the entry if the
    /// result is zero.
    pub fn accumulate<S: Semiring<Elem = E>>(&mut self, col: u32, val: E) {
        match self.entries.binary_search_by_key(&col, |(c, _)| *c) {
            Ok(i) => {
                let combined = S::add(&self.entries[i].1, &val);
                if S::is_zero(&combined) {
                    self.entries.remove(i);
                } else {
                    self.entries[i].1 = combined;
                }
            }
            Err(i) => {
                if !S::is_zero(&val) {
                    self.entries.insert(i, (col, val));
                }
            }
        }
    }

    /// Overwrites the value at `col` (removing it if `val` is zero).
    pub fn set<S: Semiring<Elem = E>>(&mut self, col: u32, val: E) {
        match self.entries.binary_search_by_key(&col, |(c, _)| *c) {
            Ok(i) => {
                if S::is_zero(&val) {
                    self.entries.remove(i);
                } else {
                    self.entries[i].1 = val;
                }
            }
            Err(i) => {
                if !S::is_zero(&val) {
                    self.entries.insert(i, (col, val));
                }
            }
        }
    }
}

impl<E: Clone + Ord> SparseRow<E> {
    /// Keeps only the `rho` smallest entries by `(value, column)` order — the
    /// paper's row filtering (§2.2).
    pub fn filter_smallest(&mut self, rho: usize) {
        if self.entries.len() <= rho {
            return;
        }
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by_key(|&i| (&self.entries[i].1, self.entries[i].0));
        order.truncate(rho);
        order.sort_unstable();
        self.entries = order.into_iter().map(|i| self.entries[i].clone()).collect();
    }
}

/// An `n × n` sparse matrix over a semiring, stored row-major.
///
/// This is the logical object the Congested Clique algorithms distribute:
/// node `v` holds row `v` (and, for the right-hand operand of a product,
/// column `v`). The distributed algorithms in `cc-matmul` operate on
/// per-node slices; this type also provides sequential reference operations
/// for differential testing.
///
/// # Example
///
/// ```
/// use cc_matrix::{Dist, MinPlus, SparseMatrix};
///
/// let mut m = SparseMatrix::zeros(4);
/// m.set(0, 1, Dist::fin(5));
/// assert_eq!(m.nnz(), 1);
/// assert_eq!(m.density(), 1); // smallest rho with nnz <= rho * n
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseMatrix<E> {
    n: usize,
    rows: Vec<SparseRow<E>>,
}

impl<E: Clone + PartialEq> SparseMatrix<E> {
    /// The all-zero `n × n` matrix.
    pub fn zeros(n: usize) -> Self {
        SparseMatrix { n, rows: vec![SparseRow::new(); n] }
    }

    /// The multiplicative identity: `one()` on the diagonal.
    pub fn identity<S: Semiring<Elem = E>>(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for v in 0..n {
            m.rows[v] = SparseRow::from_sorted(vec![(v as u32, S::one())]);
        }
        m
    }

    /// Builds a matrix from rows (must have length `n` each conceptually;
    /// the vector length fixes `n`).
    pub fn from_rows(rows: Vec<SparseRow<E>>) -> Self {
        SparseMatrix { n: rows.len(), rows }
    }

    /// Builds a matrix from arbitrary entries, accumulating duplicates with
    /// semiring addition.
    ///
    /// # Panics
    ///
    /// Panics if an entry lies outside `n × n`.
    pub fn from_entries<S: Semiring<Elem = E>>(
        n: usize,
        entries: impl IntoIterator<Item = Entry<E>>,
    ) -> Self {
        let mut per_row: Vec<Vec<(u32, E)>> = vec![Vec::new(); n];
        for e in entries {
            assert!((e.row as usize) < n && (e.col as usize) < n, "entry out of bounds");
            per_row[e.row as usize].push((e.col, e.val));
        }
        SparseMatrix { n, rows: per_row.into_iter().map(SparseRow::from_entries::<S>).collect() }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Row `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn row(&self, v: usize) -> &SparseRow<E> {
        &self.rows[v]
    }

    /// All rows in order.
    pub fn rows(&self) -> &[SparseRow<E>] {
        &self.rows
    }

    /// The value at `(row, col)`, if non-zero.
    pub fn get(&self, row: usize, col: usize) -> Option<&E> {
        self.rows[row].get(col as u32)
    }

    /// Overwrites `(row, col)`; requires knowing the semiring only through
    /// `PartialEq` with zero, so it takes the value directly and stores it
    /// unconditionally (use [`SparseMatrix::set_in`] to drop zeros).
    pub fn set(&mut self, row: usize, col: usize, val: E) {
        match self.rows[row].entries.binary_search_by_key(&(col as u32), |(c, _)| *c) {
            Ok(i) => self.rows[row].entries[i].1 = val,
            Err(i) => self.rows[row].entries.insert(i, (col as u32, val)),
        }
    }

    /// Overwrites `(row, col)` with semiring-zero awareness.
    pub fn set_in<S: Semiring<Elem = E>>(&mut self, row: usize, col: usize, val: E) {
        self.rows[row].set::<S>(col as u32, val);
    }

    /// Total number of stored entries.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(SparseRow::nnz).sum()
    }

    /// The paper's density `ρ`: the smallest positive integer with
    /// `nnz ≤ ρ·n`.
    pub fn density(&self) -> usize {
        self.nnz().div_ceil(self.n).max(1)
    }

    /// Iterates over all entries.
    pub fn entries(&self) -> impl Iterator<Item = Entry<E>> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(r, row)| row.iter().map(move |(c, v)| Entry::new(r as u32, c, v.clone())))
    }

    /// The transpose.
    pub fn transpose(&self) -> SparseMatrix<E> {
        let mut rows: Vec<Vec<(u32, E)>> = vec![Vec::new(); self.n];
        for (r, row) in self.rows.iter().enumerate() {
            for (c, v) in row.iter() {
                rows[c as usize].push((r as u32, v.clone()));
            }
        }
        SparseMatrix { n: self.n, rows: rows.into_iter().map(SparseRow::from_sorted).collect() }
    }

    /// Sequential reference product `self · other` over semiring `S`.
    ///
    /// Used as ground truth in differential tests of the distributed
    /// algorithms; cost is proportional to the number of elementary products.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn multiply<S: Semiring<Elem = E>>(&self, other: &SparseMatrix<E>) -> SparseMatrix<E> {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let mut rows = Vec::with_capacity(self.n);
        for row in &self.rows {
            let mut acc: Vec<(u32, E)> = Vec::new();
            for (w, a) in row.iter() {
                for (u, b) in other.rows[w as usize].iter() {
                    acc.push((u, S::mul(a, b)));
                }
            }
            rows.push(SparseRow::from_entries::<S>(acc));
        }
        SparseMatrix { n: self.n, rows }
    }
}

impl<E: Clone + Ord> SparseMatrix<E> {
    /// The ρ-filtered matrix `P̄` (§2.2): each row keeps its `rho` smallest
    /// entries by `(value, column)` order.
    pub fn filtered(&self, rho: usize) -> SparseMatrix<E> {
        let mut out = self.clone();
        for row in &mut out.rows {
            row.filter_smallest(rho);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AugDist, AugMinPlus, Dist, MinPlus};

    fn line_graph(n: usize) -> SparseMatrix<Dist> {
        // Path 0-1-2-...-(n-1), unit weights, with zero diagonal.
        let mut m = SparseMatrix::identity::<MinPlus>(n);
        for v in 0..n - 1 {
            m.set(v, v + 1, Dist::fin(1));
            m.set(v + 1, v, Dist::fin(1));
        }
        m
    }

    #[test]
    fn row_accumulate_is_min() {
        let mut row = SparseRow::new();
        row.accumulate::<MinPlus>(2, Dist::fin(5));
        row.accumulate::<MinPlus>(2, Dist::fin(9));
        row.accumulate::<MinPlus>(1, Dist::fin(7));
        assert_eq!(row.get(2), Some(&Dist::fin(5)));
        assert_eq!(row.nnz(), 2);
        // Accumulating zero (INF) changes nothing.
        row.accumulate::<MinPlus>(4, Dist::INF);
        assert_eq!(row.nnz(), 2);
    }

    #[test]
    fn row_from_entries_dedupes_and_drops_zeros() {
        let row = SparseRow::from_entries::<MinPlus>(vec![
            (3, Dist::fin(4)),
            (1, Dist::INF),
            (3, Dist::fin(2)),
            (0, Dist::fin(9)),
        ]);
        assert_eq!(row.iter().collect::<Vec<_>>(), vec![(0, &Dist::fin(9)), (3, &Dist::fin(2))]);
    }

    #[test]
    fn row_filter_keeps_smallest_with_column_tiebreak() {
        let mut row = SparseRow::from_entries::<MinPlus>(vec![
            (0, Dist::fin(5)),
            (1, Dist::fin(3)),
            (2, Dist::fin(5)),
            (3, Dist::fin(1)),
        ]);
        row.filter_smallest(2);
        assert_eq!(row.iter().collect::<Vec<_>>(), vec![(1, &Dist::fin(3)), (3, &Dist::fin(1))]);

        // Tie on value 5: column 0 beats column 2.
        let mut row =
            SparseRow::from_entries::<MinPlus>(vec![(2, Dist::fin(5)), (0, Dist::fin(5))]);
        row.filter_smallest(1);
        assert_eq!(row.iter().collect::<Vec<_>>(), vec![(0, &Dist::fin(5))]);
    }

    #[test]
    fn matrix_density_is_ceil() {
        let mut m = SparseMatrix::<Dist>::zeros(4);
        assert_eq!(m.density(), 1); // smallest *positive* integer
        for c in 0..4 {
            m.set(0, c, Dist::fin(1));
        }
        m.set(1, 0, Dist::fin(1));
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.density(), 2);
    }

    #[test]
    fn transpose_involution() {
        let m = line_graph(5);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn multiply_computes_two_hop_distances() {
        let m = line_graph(4);
        let m2 = m.multiply::<MinPlus>(&m);
        assert_eq!(m2.get(0, 2), Some(&Dist::fin(2)));
        assert_eq!(m2.get(0, 3), None); // 3 hops away
        let m4 = m2.multiply::<MinPlus>(&m2);
        assert_eq!(m4.get(0, 3), Some(&Dist::fin(3)));
    }

    #[test]
    fn multiply_matches_identity() {
        let m = line_graph(6);
        let id = SparseMatrix::identity::<MinPlus>(6);
        assert_eq!(m.multiply::<MinPlus>(&id), m);
        assert_eq!(id.multiply::<MinPlus>(&m), m);
    }

    #[test]
    fn augmented_powers_track_hops() {
        let mut w = SparseMatrix::identity::<AugMinPlus>(3);
        w.set(0, 1, AugDist::fin(5, 1));
        w.set(1, 0, AugDist::fin(5, 1));
        w.set(1, 2, AugDist::fin(1, 1));
        w.set(2, 1, AugDist::fin(1, 1));
        let w2 = w.multiply::<AugMinPlus>(&w);
        assert_eq!(w2.get(0, 2), Some(&AugDist::fin(6, 2)));
    }

    #[test]
    fn filtered_matrix_matches_row_filter() {
        let m = line_graph(6);
        let m2 = m.multiply::<MinPlus>(&m);
        let f = m2.filtered(2);
        for v in 0..6 {
            assert!(f.row(v).nnz() <= 2);
            let mut expect = m2.row(v).clone();
            expect.filter_smallest(2);
            assert_eq!(f.row(v), &expect);
        }
    }

    #[test]
    fn from_entries_accumulates() {
        let m = SparseMatrix::from_entries::<MinPlus>(
            3,
            vec![
                Entry::new(0, 1, Dist::fin(4)),
                Entry::new(0, 1, Dist::fin(2)),
                Entry::new(2, 2, Dist::fin(1)),
            ],
        );
        assert_eq!(m.get(0, 1), Some(&Dist::fin(2)));
        assert_eq!(m.get(2, 2), Some(&Dist::fin(1)));
        assert_eq!(m.nnz(), 2);
    }
}
