//! The cube partition of Lemma 9: splitting the `V³` product cube into `n`
//! equally-sparse subcubes, one per node.
//!
//! A subcube `C^S_i × C^{ij}_k × C^T_j` corresponds to the subtask of
//! multiplying `S[C^S_i, C^{ij}_k] · T[C^{ij}_k, C^T_j]`. The row blocks
//! `C^S_i` and column blocks `C^T_j` are balanced by Lemma 5 on row/column
//! weights; the middle blocks `C^{ij}_k` are consecutive index ranges
//! balanced *simultaneously* for the relevant slice of `S` and of `T` by
//! Lemma 7.

use std::ops::Range;

use cc_clique::{Clique, CostModel, Envelope, NodeId};
use cc_matrix::SparseRow;

use crate::operand::Prepared;
use crate::partition::{balanced_partition, doubly_balanced_partition};
use crate::MatmulError;

/// The dimensions `(a, b, c)` of the cube partition: `b` row blocks, `a`
/// column blocks, and `c` middle blocks per `(i, j)` pair, with
/// `a·b·c ≤ n` subtasks (nodes beyond `a·b·c` idle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CubeShape {
    /// Number of column blocks `C^T_j`.
    pub a: usize,
    /// Number of row blocks `C^S_i`.
    pub b: usize,
    /// Number of middle blocks `C^{ij}_k` per `(i, j)` pair.
    pub c: usize,
}

impl CubeShape {
    /// Chooses the shape minimising the per-node communication load
    ///
    /// ```text
    ///   ρS·n/(b·c)  +  ρT·n/(a·c)  +  ρ̂·c
    /// ```
    ///
    /// over integers `a, b ≥ 1` with `a·b ≤ n` and `c = ⌊n/(a·b)⌋` — the
    /// integer version of the closed-form optimum
    /// `a = (ρT ρ̂ n)^{1/3}/ρS^{2/3}` etc. of §2.1.1 (which attains the
    /// `O((ρS ρT ρ̂)^{1/3}/n^{2/3} + 1)` round bound of Theorem 8).
    pub fn choose(n: usize, rho_s: usize, rho_t: usize, rho_hat: usize) -> CubeShape {
        let mut best = CubeShape { a: 1, b: 1, c: n.max(1) };
        let mut best_cost = f64::INFINITY;
        let nf = n as f64;
        let mut a = 1usize;
        while a <= n {
            let mut b = 1usize;
            while a * b <= n {
                let c = (n / (a * b)).max(1);
                let cost = rho_s as f64 * nf / (b * c) as f64
                    + rho_t as f64 * nf / (a * c) as f64
                    + rho_hat as f64 * c as f64;
                if cost < best_cost {
                    best_cost = cost;
                    best = CubeShape { a, b, c };
                }
                b += 1;
            }
            a += 1;
        }
        best
    }

    /// The uniform shape `a = b ≈ n^{1/3}`, `c = ⌊n/(a·b)⌋` used by the
    /// dense-multiplication baseline.
    pub fn uniform(n: usize) -> CubeShape {
        let mut q = (n as f64).cbrt().round() as usize;
        q = q.max(1);
        while q > 1 && q * q > n {
            q -= 1;
        }
        let c = (n / (q * q)).max(1);
        CubeShape { a: q, b: q, c }
    }

    /// Total number of subtasks `a·b·c`.
    pub fn subtasks(&self) -> usize {
        self.a * self.b * self.c
    }

    /// The rounds [`CubePartition::build`] charges for this shape on `n`
    /// nodes: none if `c = 1`; else the slice-counts route, whose subtask
    /// nodes each receive a two-word pair from all `n` nodes (`2n` words),
    /// and the one-word boundaries broadcast.
    pub fn build_rounds(&self, cost: &CostModel, n: usize) -> u64 {
        if self.c == 1 {
            0
        } else {
            cost.route_rounds(2 * n as u64, n) + cost.broadcast_rounds(1)
        }
    }
}

/// A globally-known partition of the product cube `V³` into subcubes
/// (Lemma 9), plus the node ↔ subtask correspondence.
#[derive(Debug, Clone)]
pub(crate) struct CubePartition {
    /// The clique size the partition was built for.
    pub n: usize,
    /// The partition dimensions.
    pub shape: CubeShape,
    /// Row blocks `C^S_i`, `i ∈ [b]` (sorted node lists).
    pub row_blocks: Vec<Vec<usize>>,
    /// For each row `r`: the block index `i` with `r ∈ C^S_i`.
    pub row_block_of: Vec<usize>,
    /// For each column `c`: the block index `j` with `c ∈ C^T_j`.
    pub col_block_of: Vec<usize>,
    /// Middle ranges `C^{ij}_k`, indexed `[i·a + j][k]`; consecutive and
    /// covering `0..n` for every `(i, j)`.
    pub mid_ranges: Vec<Vec<Range<usize>>>,
    /// `mid_ranges` inverted once at construction: entry `(i·a + j)·n + col`
    /// is the `k` with `col ∈ C^{ij}_k` (what [`CubePartition::mid_block_of`]
    /// answers, once per entry and column/row block during delivery).
    mid_block: Vec<u32>,
}

/// Inverts consecutive covering ranges into a flat `[(i, j)][col] → k` table.
fn mid_block_table(n: usize, mid_ranges: &[Vec<Range<usize>>]) -> Vec<u32> {
    let mut table = vec![0u32; mid_ranges.len() * n];
    for (ij, ranges) in mid_ranges.iter().enumerate() {
        for (k, r) in ranges.iter().enumerate() {
            table[ij * n..(ij + 1) * n][r.clone()].fill(k as u32);
        }
    }
    table
}

/// Inverts a partition of `0..n` into blocks: index → the block holding it.
fn block_index(n: usize, blocks: &[Vec<usize>]) -> Vec<usize> {
    let mut block_of = vec![0; n];
    for (b, block) in blocks.iter().enumerate() {
        for &x in block {
            block_of[x] = b;
        }
    }
    block_of
}

impl CubePartition {
    /// The node responsible for subtask `(i, j, k)` under the canonical
    /// assignment `σ1`.
    pub fn node_for(&self, i: usize, j: usize, k: usize) -> NodeId {
        (i * self.shape.a + j) * self.shape.c + k
    }

    /// The subtask of node `v` under `σ1`, or `None` for idle nodes.
    pub fn triple_of(&self, v: NodeId) -> Option<(usize, usize, usize)> {
        if v >= self.shape.subtasks() {
            return None;
        }
        let k = v % self.shape.c;
        let ij = v / self.shape.c;
        Some((ij / self.shape.a, ij % self.shape.a, k))
    }

    /// The canonical assignment `σ1`: every subtask node computes its own.
    pub fn sigma1(&self) -> TaskAssignment {
        let by_task = (0..self.shape.subtasks()).map(|v| vec![v]).collect();
        TaskAssignment { canonical: true, by_task }
    }

    /// The middle block index `k` with `col ∈ C^{ij}_k`.
    ///
    /// # Panics
    ///
    /// Panics if `col ≥ n` (ranges always cover `0..n`).
    pub fn mid_block_of(&self, i: usize, j: usize, col: usize) -> usize {
        let ij = i * self.shape.a + j;
        let k = self.mid_block[ij * self.n..(ij + 1) * self.n][col] as usize;
        debug_assert!(self.mid_ranges[ij][k].contains(&col), "mid ranges must cover 0..n");
        k
    }

    /// The group `B_{ik}` of Lemma 15: the `a` nodes handling subtasks
    /// `(i, ·, k)` — together they produce rows `C^S_i` of the slice `P_k`.
    pub fn group_bik(&self, i: usize, k: usize) -> Vec<NodeId> {
        (0..self.shape.a).map(|j| self.node_for(i, j, k)).collect()
    }

    /// `ceil(n/(a·b))` — the effective middle-dimension multiplicity used
    /// for chunk sizing in Lemmas 12 and 16 (equals `c` when `a·b·c = n`).
    pub fn c_eff(&self) -> usize {
        self.n.div_ceil(self.shape.a * self.shape.b).max(1)
    }

    /// A partition with uniform consecutive blocks and **no communication**:
    /// used by the dense baseline, where balancing is unnecessary because
    /// every block is equally dense by construction.
    pub fn uniform(n: usize, shape: CubeShape) -> CubePartition {
        let even = |parts: usize| -> Vec<Range<usize>> {
            let size = n.div_ceil(parts);
            (0..parts).map(|p| (p * size).min(n)..((p + 1) * size).min(n)).collect()
        };
        let blocks = |parts| even(parts).into_iter().map(Iterator::collect).collect::<Vec<_>>();
        let row_blocks: Vec<Vec<usize>> = blocks(shape.b);
        let mid_ranges = vec![even(shape.c); shape.a * shape.b];
        CubePartition {
            n,
            shape,
            row_block_of: block_index(n, &row_blocks),
            col_block_of: block_index(n, &blocks(shape.a)),
            row_blocks,
            mid_block: mid_block_table(n, &mid_ranges),
            mid_ranges,
        }
    }

    /// Builds the partition of Lemma 9 on the clique in `O(1)` rounds.
    ///
    /// Inputs: the two prepared operands — node `v` holds row `v` and column
    /// `v` of `S`, column `v` and row `v` of `T`, and everyone knows the
    /// broadcast row counts of `S` and column counts of `T`.
    ///
    /// Steps: (1) everyone computes the row/column blocks from the broadcast
    /// counts via Lemma 5 (local); (2) node `v` sends each subtask node the
    /// non-zero counts of column `v` of `S` and row `v` of `T` per block;
    /// (3) every member of a subtask group computes the group's Lemma 7
    /// middle partition and broadcasts the end of its own range (1 word).
    /// A cube with `c = 1` skips (2) and (3) and costs no round at all.
    ///
    /// # Errors
    ///
    /// Returns [`MatmulError::Clique`] on malformed communication (dimension
    /// bugs in the caller).
    pub fn build<E: Clone + PartialEq>(
        clique: &mut Clique,
        shape: CubeShape,
        s: &Prepared<'_, E>,
        t: &Prepared<'_, E>,
    ) -> Result<CubePartition, MatmulError> {
        let n = clique.n();
        let CubeShape { a, b, c } = shape;
        let (s_cols, t_rows) = (&s.opposite, &t.opposite);

        // (1) Globally-known row and column blocks (Lemma 5).
        let row_blocks = balanced_partition(s.counts.per_node(), b);
        let col_blocks = balanced_partition(t.counts.per_node(), a);
        let row_block_of = block_index(n, &row_blocks);
        let col_block_of = block_index(n, &col_blocks);

        // (2)–(3) are skipped when c = 1: the shape is a function of the
        // broadcast densities, so every node knows the one middle range is
        // 0..n.
        let mid_ranges = if c == 1 {
            vec![vec![0..n]; a * b]
        } else {
            middle_ranges(clique, shape, s_cols, t_rows, &row_block_of, &col_block_of)?
        };

        Ok(CubePartition {
            n,
            shape,
            row_blocks,
            row_block_of,
            col_block_of,
            mid_block: mid_block_table(n, &mid_ranges),
            mid_ranges,
        })
    }

    /// Appends to `out` all subtask nodes that need `S`-entry `(r, c)` under
    /// `assigned`: those of one subtask per column block `j`.
    pub fn s_entry_targets(
        &self,
        r: u32,
        c: u32,
        assigned: &TaskAssignment,
        out: &mut Vec<NodeId>,
    ) {
        let i = self.row_block_of[r as usize];
        for j in 0..self.shape.a {
            let k = self.mid_block_of(i, j, c as usize);
            out.extend_from_slice(assigned.nodes_for(self.node_for(i, j, k)));
        }
    }

    /// Appends to `out` all subtask nodes that need `T`-entry `(r, c)` under
    /// `assigned`: those of one subtask per row block `i`.
    pub fn t_entry_targets(
        &self,
        r: u32,
        c: u32,
        assigned: &TaskAssignment,
        out: &mut Vec<NodeId>,
    ) {
        let j = self.col_block_of[c as usize];
        for i in 0..self.shape.b {
            let k = self.mid_block_of(i, j, r as usize);
            out.extend_from_slice(assigned.nodes_for(self.node_for(i, j, k)));
        }
    }
}

/// Steps (2) and (3) of [`CubePartition::build`], for `c > 1`: the middle
/// ranges `C^{ij}_k` of every `(i, j)` group, as every node learns them.
///
/// (2) Node `v` sends every subtask node `u = (i, j, k)` the pair
/// `(nz(S[C^S_i, v]), nz(T[v, C^T_j]))`, read from column `v` of `S` and
/// row `v` of `T`. (3) Member `k` of each group computes the group's Lemma 7
/// partition from the pairs it received and broadcasts one word, the `end`
/// of range `k`; idle nodes broadcast a word of nothing. Every node rebuilds
/// the ranges from the decoded ends: `start_0 = 0` and `start_k = end_{k−1}`.
fn middle_ranges<E: Clone + PartialEq>(
    clique: &mut Clique,
    shape: CubeShape,
    s_cols: &[SparseRow<E>],
    t_rows: &[SparseRow<E>],
    row_block_of: &[usize],
    col_block_of: &[usize],
) -> Result<Vec<Vec<Range<usize>>>, MatmulError> {
    let n = clique.n();
    let CubeShape { a, b, c } = shape;
    let mut msgs = Vec::with_capacity(n * shape.subtasks());
    let mut cnt_s = vec![0u64; b];
    let mut cnt_t = vec![0u64; a];
    for v in 0..n {
        cnt_s.fill(0);
        for (r, _) in s_cols[v].iter() {
            cnt_s[row_block_of[r as usize]] += 1;
        }
        cnt_t.fill(0);
        for (cidx, _) in t_rows[v].iter() {
            cnt_t[col_block_of[cidx as usize]] += 1;
        }
        for i in 0..b {
            for j in 0..a {
                for k in 0..c {
                    let u = (i * a + j) * c + k;
                    msgs.push(Envelope::new(v, u, (cnt_s[i], cnt_t[j])));
                }
            }
        }
    }
    let inboxes = clique.with_phase("cube/slice_counts", |cl| cl.route(msgs))?;

    let mut ends: Vec<Option<u64>> = vec![None; n];
    for (ij, group) in ends[..shape.subtasks()].chunks_mut(c).enumerate() {
        // Every member received the same pairs, so all compute the same
        // partition (once here, on the first member's inbox); member k keeps
        // the end of range k.
        let (mut w1, mut w2) = (vec![0u64; n], vec![0u64; n]);
        for e in &inboxes[ij * c] {
            (w1[e.src], w2[e.src]) = e.payload;
        }
        for (end, range) in group.iter_mut().zip(doubly_balanced_partition(&w1, &w2, c)) {
            *end = Some(range.end as u64);
        }
    }
    let ends = clique.with_phase("cube/boundaries", |cl| cl.all_broadcast(ends))?;
    Ok(ends[..shape.subtasks()]
        .chunks(c)
        .map(|group| {
            group
                .iter()
                .scan(0, |start, end| {
                    let end = end.expect("every subtask node broadcasts an end") as usize;
                    Some(std::mem::replace(start, end)..end)
                })
                .collect()
        })
        .collect())
}

/// An assignment `σ : V → subtasks` (Lemma 11): which nodes compute which
/// subtask's product, a subtask being named by its `σ1` node. The canonical
/// `σ1` maps every subtask node to itself; the balancing steps (Lemmas 12
/// and 16) construct sparse assignments that duplicate dense subtasks.
#[derive(Debug, Clone)]
pub(crate) struct TaskAssignment {
    /// Whether this is `σ1` itself (not merely equal to it): only then is
    /// the placement Lemma 10 computes for an operand reusable.
    pub canonical: bool,
    /// Reverse index: subtask → assigned nodes (sorted).
    by_task: Vec<Vec<NodeId>>,
}

impl TaskAssignment {
    /// Builds the reverse index of a per-node assignment vector: `sigma[v]`
    /// is the subtask node `v` computes, or `None` for idle nodes.
    pub fn new(cube: &CubePartition, sigma: &[Option<NodeId>]) -> Self {
        let mut by_task = vec![Vec::new(); cube.shape.subtasks()];
        for (v, task) in sigma.iter().enumerate() {
            if let Some(task) = task {
                by_task[*task].push(v);
            }
        }
        TaskAssignment { canonical: false, by_task }
    }

    /// Whether no node is assigned anything. An assignment is computed from
    /// broadcast data, so every node can tell.
    pub fn is_empty(&self) -> bool {
        self.by_task.iter().all(Vec::is_empty)
    }

    /// Nodes assigned to the subtask of `σ1` node `task`.
    pub fn nodes_for(&self, task: NodeId) -> &[NodeId] {
        &self.by_task[task]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::{Operand, Side};
    use cc_matrix::{Dist, MinPlus, SparseMatrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn shape_choose_respects_budget() {
        for &(n, rs, rt, rh) in
            &[(16, 1, 1, 1), (64, 8, 8, 8), (64, 1, 64, 8), (128, 128, 128, 128), (7, 3, 2, 5)]
        {
            let s = CubeShape::choose(n, rs, rt, rh);
            assert!(s.a >= 1 && s.b >= 1 && s.c >= 1);
            assert!(s.subtasks() <= n, "shape {s:?} exceeds n={n}");
        }
    }

    #[test]
    fn shape_choose_tracks_density_asymmetry() {
        // Very sparse S, dense T: S-dimension splitting should be coarse
        // (small b) and T-dimension fine (larger a)... by the formulas, a
        // grows with rho_T? a = (rho_T rho_hat n)^{1/3} / rho_S^{2/3}.
        let s = CubeShape::choose(512, 1, 64, 8);
        let t = CubeShape::choose(512, 64, 1, 8);
        // Symmetry: swapping rho_S and rho_T swaps a and b.
        assert_eq!((s.a, s.b), (t.b, t.a));
    }

    #[test]
    fn uniform_shape_is_cubic() {
        let s = CubeShape::uniform(64);
        assert_eq!((s.a, s.b, s.c), (4, 4, 4));
        assert!(CubeShape::uniform(7).subtasks() <= 7);
    }

    #[test]
    fn node_triple_roundtrip() {
        let cube = CubePartition::uniform(64, CubeShape::uniform(64));
        for v in 0..64 {
            let (i, j, k) = cube.triple_of(v).unwrap();
            assert_eq!(cube.node_for(i, j, k), v);
        }
        let cube = CubePartition::uniform(10, CubeShape { a: 2, b: 2, c: 2 });
        assert_eq!(cube.triple_of(8), None);
        assert_eq!(cube.triple_of(9), None);
    }

    fn random_matrix(n: usize, nnz: usize, seed: u64) -> SparseMatrix<Dist> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = SparseMatrix::zeros(n);
        for _ in 0..nnz {
            let r = rng.gen_range(0..n);
            let c = rng.gen_range(0..n);
            m.set_in::<MinPlus>(r, c, Dist::fin(rng.gen_range(1..100)));
        }
        m
    }

    #[test]
    fn build_produces_valid_partition_with_balanced_blocks() {
        let n = 32;
        let s = random_matrix(n, 200, 1);
        let t = random_matrix(n, 500, 2);
        let t_cols = t.transpose();
        let mut clique = Clique::new(n);
        let mut s_op = Operand::unprepared(Side::Left, s.rows());
        let mut t_op = Operand::unprepared(Side::Right, t_cols.rows());
        let s_known = s_op.ensure_prepared::<MinPlus>(&mut clique).unwrap();
        let t_known = t_op.ensure_prepared::<MinPlus>(&mut clique).unwrap();
        let shape = CubeShape::choose(n, s_known.counts.density(), t_known.counts.density(), 8);
        let cube = CubePartition::build(&mut clique, shape, s_known, t_known).unwrap();

        // Blocks cover everything exactly once.
        let mut seen = vec![false; n];
        for block in &cube.row_blocks {
            for &r in block {
                assert!(!seen[r]);
                seen[r] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));

        // Mid ranges are consecutive covers of 0..n for every (i, j).
        for i in 0..shape.b {
            for j in 0..shape.a {
                let ranges = &cube.mid_ranges[i * shape.a + j];
                assert_eq!(ranges.len(), shape.c);
                let mut next = 0;
                for r in ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, n);
                // And every column maps into the right block.
                for col in 0..n {
                    let k = cube.mid_block_of(i, j, col);
                    assert!(ranges[k].contains(&col));
                }
            }
        }

        // Subtask S-blocks satisfy the Lemma 9 sparsity bound
        // O(rho_S * a + n): check the concrete constant-free inequality
        // nz(S[C^S_i, C^{ij}_k]) <= 2(rho_S*n/(b*c') + n/b) + slack from
        // Lemma 7's doubling, against the safe bound 2*(W/c + max) + ...
        // Here we verify the direct Lemma 7 guarantee instead.
        for i in 0..shape.b {
            for j in 0..shape.a {
                let w_total: u64 = (0..n)
                    .map(|col| {
                        s.transpose()
                            .row(col)
                            .iter()
                            .filter(|(r, _)| cube.row_block_of[*r as usize] == i)
                            .count() as u64
                    })
                    .sum();
                let w_max: u64 = cube.row_blocks[i].len() as u64;
                for k in 0..shape.c {
                    let range = &cube.mid_ranges[i * shape.a + j][k];
                    let nz: u64 = range
                        .clone()
                        .map(|col| {
                            s.transpose()
                                .row(col)
                                .iter()
                                .filter(|(r, _)| cube.row_block_of[*r as usize] == i)
                                .count() as u64
                        })
                        .sum();
                    assert!(
                        nz <= 2 * (w_total / shape.c as u64 + w_max),
                        "S block ({i},{j},{k}) too dense: {nz}"
                    );
                }
            }
        }

        // O(1) rounds for the whole build (constant number of primitives).
        assert!(clique.rounds() <= 12, "cube build took {} rounds", clique.rounds());
    }

    /// Both operands prepared on `clique`, and the cube of `shape` built
    /// from them; returns the cube and the rounds the build alone took.
    fn build_on(
        clique: &mut Clique,
        shape: CubeShape,
        s: &SparseMatrix<Dist>,
        t_cols: &SparseMatrix<Dist>,
    ) -> (CubePartition, u64) {
        let mut s_op = Operand::unprepared(Side::Left, s.rows());
        let mut t_op = Operand::unprepared(Side::Right, t_cols.rows());
        let s_known = s_op.ensure_prepared::<MinPlus>(clique).unwrap();
        let t_known = t_op.ensure_prepared::<MinPlus>(clique).unwrap();
        let before = clique.rounds();
        let cube = CubePartition::build(clique, shape, s_known, t_known).unwrap();
        (cube, clique.rounds() - before)
    }

    #[test]
    fn boundaries_are_one_word_per_node_and_rebuild_the_lemma_7_ranges() {
        let n = 24;
        let (s, t) = (random_matrix(n, 150, 3), random_matrix(n, 90, 4));
        let shape = CubeShape { a: 2, b: 3, c: 4 };
        let mut clique = Clique::new(n);
        let (cube, _) = build_on(&mut clique, shape, &s, &t.transpose());
        let boundaries = &clique.metrics().phases["cube/boundaries/all_broadcast"];
        assert_eq!((boundaries.rounds, boundaries.words), (1, (n * (n - 1)) as u64));
        // What the members partitioned: per middle index, the entries of
        // S's column in row block i and of T's row in column block j.
        let s_cols = s.transpose();
        for i in 0..shape.b {
            for j in 0..shape.a {
                let count = |slice: &SparseRow<Dist>, block_of: &[usize], block| {
                    slice.iter().filter(|(x, _)| block_of[*x as usize] == block).count() as u64
                };
                let w1: Vec<u64> =
                    s_cols.rows().iter().map(|col| count(col, &cube.row_block_of, i)).collect();
                let w2: Vec<u64> =
                    t.rows().iter().map(|row| count(row, &cube.col_block_of, j)).collect();
                assert_eq!(
                    cube.mid_ranges[i * shape.a + j],
                    doubly_balanced_partition(&w1, &w2, shape.c),
                    "group ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn a_cube_with_one_middle_block_costs_no_round() {
        let n = 16;
        let (s, t) = (random_matrix(n, 60, 5), random_matrix(n, 60, 6));
        let shape = CubeShape { a: 4, b: 4, c: 1 };
        let mut clique = Clique::new(n);
        let (cube, rounds) = build_on(&mut clique, shape, &s, &t.transpose());
        assert_eq!(rounds, 0);
        assert!(cube.mid_ranges.iter().all(|ranges| ranges.len() == 1 && ranges[0] == (0..n)));
        let phases = &clique.metrics().phases;
        assert!(!phases.keys().any(|label| label.starts_with("cube/")), "{phases:?}");
    }

    #[test]
    fn build_rounds_are_the_rounds_the_build_charges() {
        let n = 24;
        let (s, t) = (random_matrix(n, 150, 7), random_matrix(n, 90, 8));
        for cost in [CostModel::unit(), CostModel::conservative()] {
            for shape in [
                CubeShape { a: 2, b: 3, c: 4 },
                CubeShape { a: 1, b: 1, c: 24 },
                CubeShape { a: 5, b: 1, c: 3 },
                CubeShape { a: 4, b: 6, c: 1 },
            ] {
                let mut clique = Clique::with_cost_model(n, cost);
                let (_, rounds) = build_on(&mut clique, shape, &s, &t.transpose());
                assert_eq!(rounds, shape.build_rounds(&cost, n), "{shape:?} under {cost:?}");
            }
        }
    }

    #[test]
    fn assignment_reverse_index() {
        let cube = CubePartition::uniform(8, CubeShape { a: 2, b: 2, c: 2 });
        let assigned = cube.sigma1();
        assert!(assigned.canonical);
        for v in 0..8 {
            assert_eq!(assigned.nodes_for(v), &[v]);
        }
        let helpers = TaskAssignment::new(&cube, &[None, Some(5), None, Some(5), Some(0)]);
        assert_eq!(helpers.nodes_for(5), &[1, 3]);
        assert_eq!(helpers.nodes_for(0), &[4]);
        assert!(!helpers.canonical && !helpers.is_empty());
    }
}
