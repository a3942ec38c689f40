//! Balanced summation of intermediate values (Lemma 13).
//!
//! After the subtask products, every node holds a bounded number of
//! *intermediate values* — partial sums `p_{vWu}` for positions of the
//! output matrix, with each elementary product contributing to exactly one
//! intermediate value. This module accumulates them into the output rows in
//! one pass: globally sort every node's whole list by position (Lenzen
//! sort), combine equal positions locally, and route the per-position sums
//! straight to their row owners, which add up what arrives.
//!
//! Nothing needs fixing at run boundaries. After the global sort the values
//! of one position are contiguous, so only a holder's first and last runs
//! can be shared with another holder, and each of the `n − 1` boundaries
//! between consecutive holders repeats at most one position. The owner of
//! row `r` therefore receives at most `distinct(r) + (n − 1) ≤ 2n − 1` sums,
//! and a holder sends at most its run of `⌈Σ_v L_v / n⌉ ≤ L` values. With at
//! most `L` values per node, the sort costs `⌈L/n⌉` rounds and the route
//! `max(2, ⌈L/n⌉)`: `O(L/n + 1)` in all, Lemma 13's bound.

use cc_clique::{Clique, Envelope};
use cc_matrix::{Entry, Semiring, SparseRow};

use crate::keyed::Keyed;
use crate::MatmulError;

/// Accumulates per-node intermediate values into the distributed output
/// matrix (node `r` ends holding output row `r`).
///
/// # Errors
///
/// Returns [`MatmulError::Clique`] on malformed communication.
pub(crate) fn sum_intermediates<SR: Semiring>(
    clique: &mut Clique,
    per_node: Vec<Vec<Entry<SR::Elem>>>,
) -> Result<Vec<SparseRow<SR::Elem>>, MatmulError> {
    // Every value is keyed by position, then by provenance — the node and
    // the value's offset in the node's list — so the global order is total.
    let keyed: Vec<Vec<Keyed<SR::Elem>>> = per_node
        .into_iter()
        .enumerate()
        .map(|(v, values)| {
            values
                .into_iter()
                .enumerate()
                .map(|(off, e)| {
                    let position = ((e.row as u64) << 32) | e.col as u64;
                    Keyed { key: (position, v as u32, off as u32), val: e.val }
                })
                .collect()
        })
        .collect();

    // (1) One global sort by position.
    let sorted = clique.with_phase("sum", |cl| cl.sort(keyed))?;

    // (2) Local combine of equal positions, each sum addressed to the owner
    // of its row.
    let mut sums: Vec<Envelope<Entry<SR::Elem>>> = Vec::new();
    for (v, items) in sorted.into_iter().enumerate() {
        let first = sums.len();
        for Keyed { key: (position, ..), val } in items {
            let (row, col) = ((position >> 32) as u32, position as u32);
            match sums[first..].last_mut() {
                Some(last) if last.payload.pos() == (row, col) => {
                    last.payload.val = SR::add(&last.payload.val, &val);
                }
                _ => sums.push(Envelope::new(v, row as usize, Entry::new(row, col, val))),
            }
        }
    }

    // (3) One route to the row owners, which add up the sums of a position
    // its holders shared. Holders send in position order, so every row
    // arrives in column order.
    let inboxes = clique.with_phase("sum", |cl| cl.route(sums))?;
    Ok(inboxes
        .into_iter()
        .map(|inbox| {
            let mut row = SparseRow::new();
            for env in inbox {
                row.accumulate::<SR>(env.payload.col, env.payload.val);
            }
            row
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_matrix::{Dist, MinPlus};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sums_duplicate_positions_across_nodes() {
        let n = 4;
        let mut clique = Clique::new(n);
        // Position (1, 2) has partial values at three nodes; min should win.
        let per_node = vec![
            vec![Entry::new(1, 2, Dist::fin(9)), Entry::new(0, 0, Dist::fin(1))],
            vec![Entry::new(1, 2, Dist::fin(4))],
            vec![Entry::new(1, 2, Dist::fin(7)), Entry::new(3, 3, Dist::fin(2))],
            vec![],
        ];
        let rows = sum_intermediates::<MinPlus>(&mut clique, per_node).unwrap();
        assert_eq!(rows[1].get(2), Some(&Dist::fin(4)));
        assert_eq!(rows[0].get(0), Some(&Dist::fin(1)));
        assert_eq!(rows[3].get(3), Some(&Dist::fin(2)));
        assert_eq!(rows[2].nnz(), 0);
    }

    #[test]
    fn handles_multi_repetition_loads() {
        let n = 4;
        let mut clique = Clique::new(n);
        // Node 0 holds 10 > n values for the same position: the one sort is
        // charged ⌈10/4⌉ = 3 rounds, and the 4 holders of the position each
        // send one sum to its row owner in one round.
        let per_node = vec![
            (0..10).map(|i| Entry::new(2, 1, Dist::fin(20 - i))).collect(),
            vec![],
            vec![],
            vec![Entry::new(2, 1, Dist::fin(5))],
        ];
        let rows = sum_intermediates::<MinPlus>(&mut clique, per_node).unwrap();
        assert_eq!(rows[2].get(1), Some(&Dist::fin(5)));
        let phases = &clique.metrics().phases;
        assert_eq!(phases["sum/sort"].rounds, 3);
        assert_eq!((phases["sum/route"].rounds, phases["sum/route"].messages), (1, 4));
    }

    #[test]
    fn empty_input_is_cheap() {
        let mut clique = Clique::new(3);
        let rows = sum_intermediates::<MinPlus>(&mut clique, vec![vec![], vec![], vec![]]).unwrap();
        assert!(rows.iter().all(|r| r.is_empty()));
        assert_eq!(clique.rounds(), 0);
    }

    /// Sequential reference: add every value at its position.
    fn reference_sum(n: usize, per_node: &[Vec<Entry<Dist>>]) -> Vec<SparseRow<Dist>> {
        let mut rows = vec![SparseRow::new(); n];
        for e in per_node.iter().flatten() {
            rows[e.row as usize].accumulate::<MinPlus>(e.col, e.val);
        }
        rows
    }

    #[test]
    fn three_consecutive_holders_share_one_boundary_key() {
        // n = 4, 8 values => runs of 2 per holder after the sort. Position
        // (1, 1) occurs five times: it ends holder 0 and fills holders 1 and
        // 2, so all three send a partial sum of it to row owner 1.
        let n = 4;
        let shared = |d| Entry::new(1, 1, Dist::fin(d));
        let per_node = vec![
            vec![Entry::new(0, 0, Dist::fin(3)), shared(9)],
            vec![shared(8), shared(2)],
            vec![shared(7), shared(6)],
            vec![Entry::new(2, 0, Dist::fin(4)), Entry::new(3, 3, Dist::fin(5))],
        ];
        let mut clique = Clique::new(n);
        let rows = sum_intermediates::<MinPlus>(&mut clique, per_node.clone()).unwrap();
        assert_eq!(rows, reference_sum(n, &per_node));
        assert_eq!(rows[1].get(1), Some(&Dist::fin(2)));
        // One route: 4 distinct positions, plus 2 more partial sums of the
        // position three holders share.
        let route = clique.metrics().phases["sum/route"];
        assert_eq!(route.invocations, 1);
        assert_eq!(route.messages, 4 + 2);
    }

    #[test]
    fn a_row_owner_receives_at_most_2n_minus_1_sums() {
        // n = 4, 12 values of row 0 => runs of 3. Every boundary between
        // holders splits a column: c0 c0 c1 | c1 c2 c2 | c2 c3 c3 | c3 c3 c3.
        // Row owner 0 receives distinct(0) + (n − 1) = 4 + 3 = 2n − 1 sums,
        // the bound behind Lemma 13's O(1) rounds: ⌈7/4⌉ = 2.
        let n = 4;
        let cols = [0, 0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3];
        let per_node: Vec<Vec<Entry<Dist>>> = (0..n)
            .map(|v| {
                (0..3).map(|i| Entry::new(0, cols[3 * v + i], Dist::fin(9 - i as u64))).collect()
            })
            .collect();
        let mut clique = Clique::new(n);
        let rows = sum_intermediates::<MinPlus>(&mut clique, per_node.clone()).unwrap();
        assert_eq!(rows, reference_sum(n, &per_node));
        let route = clique.metrics().phases["sum/route"];
        assert_eq!((route.messages, route.rounds), (2 * n as u64 - 1, 2));
    }

    #[test]
    fn holder_whose_only_run_is_shipped_keeps_nothing() {
        // n = 3, 3 values => one value per holder, all for position (2, 0):
        // each holder's only run is its whole list, and each sends it to
        // row owner 2, which adds up the three.
        let n = 3;
        let per_node: Vec<Vec<Entry<Dist>>> =
            (0..n).map(|v| vec![Entry::new(2, 0, Dist::fin(30 - v as u64))]).collect();
        let mut clique = Clique::new(n);
        let rows = sum_intermediates::<MinPlus>(&mut clique, per_node.clone()).unwrap();
        assert_eq!(rows, reference_sum(n, &per_node));
        assert_eq!(rows[2].get(0), Some(&Dist::fin(28)));
        let route = clique.metrics().phases["sum/route"];
        assert_eq!(route.messages, 3);
    }

    #[test]
    fn shipped_first_run_and_received_last_run_on_one_holder() {
        // Holder 1 shares its first run (0, 1) with holder 0 *and* its last
        // run (0, 3) with holder 2: both partial sums of each reach row
        // owner 0.
        let n = 3;
        let at = |c, d| Entry::new(0, c, Dist::fin(d));
        let per_node = vec![
            vec![at(0, 5), at(1, 9), at(1, 4)],
            vec![at(1, 6), at(2, 7), at(3, 8)],
            vec![at(3, 1), at(3, 2), at(4, 3)],
        ];
        let mut clique = Clique::new(n);
        let rows = sum_intermediates::<MinPlus>(&mut clique, per_node.clone()).unwrap();
        assert_eq!(rows, reference_sum(n, &per_node));
        assert_eq!(rows[0].get(1), Some(&Dist::fin(4)));
        assert_eq!(rows[0].get(3), Some(&Dist::fin(1)));
    }

    #[test]
    fn multi_repetition_sums_match_the_sequential_reference() {
        let n = 4;
        let per_node: Vec<Vec<Entry<Dist>>> = (0..n as u64)
            .map(|v| {
                (0..(3 * v + 2))
                    .map(|i| {
                        Entry::new(
                            ((i * 5 + v) % 4) as u32,
                            ((i * 3) % 4) as u32,
                            Dist::fin(1 + (i * 7 + v) % 13),
                        )
                    })
                    .collect()
            })
            .collect();
        let mut clique = Clique::new(n);
        let rows = sum_intermediates::<MinPlus>(&mut clique, per_node.clone()).unwrap();
        assert_eq!(rows, reference_sum(n, &per_node));
    }

    #[test]
    fn single_position_spanning_all_nodes() {
        let n = 4;
        let mut clique = Clique::new(n);
        let per_node: Vec<Vec<Entry<Dist>>> =
            (0..n).map(|v| vec![Entry::new(0, 0, Dist::fin(10 + v as u64))]).collect();
        let rows = sum_intermediates::<MinPlus>(&mut clique, per_node).unwrap();
        assert_eq!(rows[0].get(0), Some(&Dist::fin(10)));
        for r in 1..n {
            assert_eq!(rows[r].nnz(), 0);
        }
    }

    #[test]
    fn one_position_spread_over_every_holder_reaches_its_owner_n_times() {
        // 3n values of position (2, 1), unevenly held: after the sort every
        // holder's whole run is that position, so its owner receives one
        // partial sum from each of the n holders, in one round.
        let n = 6;
        let per_node: Vec<Vec<Entry<Dist>>> = (0..n)
            .map(|v| {
                let len = if v % 2 == 0 { 5 } else { 1 };
                (0..len).map(|i| Entry::new(2, 1, Dist::fin(40 - (v * 5 + i) as u64))).collect()
            })
            .collect();
        let mut clique = Clique::new(n);
        let rows = sum_intermediates::<MinPlus>(&mut clique, per_node.clone()).unwrap();
        assert_eq!(rows, reference_sum(n, &per_node));
        assert_eq!(rows[2].get(1), Some(&Dist::fin(40 - 25)));
        let phases = &clique.metrics().phases;
        assert_eq!(phases["sum/sort"].rounds, 1);
        let route = phases["sum/route"];
        assert_eq!((route.invocations, route.messages, route.rounds), (1, n as u64, 1));
    }

    proptest::proptest! {
        #[test]
        fn one_pass_sums_match_the_reference_within_lemma_13s_rounds(
            n in 2usize..12,
            seed in 0u64..u64::MAX,
        ) {
            // Up to 5n values per node at random positions: one sort charged
            // ⌈L_max/n⌉ and one route of at most 2 rounds.
            let mut rng = StdRng::seed_from_u64(seed);
            let per_node: Vec<Vec<Entry<Dist>>> = (0..n)
                .map(|_| {
                    let len = rng.gen_range(0..=5 * n);
                    (0..len)
                        .map(|_| {
                            let (r, c) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                            Entry::new(r, c, Dist::fin(rng.gen_range(1..100)))
                        })
                        .collect()
                })
                .collect();
            let l_max = per_node.iter().map(Vec::len).max().unwrap_or(0);
            let mut clique = Clique::new(n);
            let rows = sum_intermediates::<MinPlus>(&mut clique, per_node.clone()).unwrap();
            proptest::prop_assert_eq!(rows, reference_sum(n, &per_node));
            let phases = &clique.metrics().phases;
            proptest::prop_assert_eq!(phases["sum/sort"].rounds, l_max.div_ceil(n) as u64);
            let route = phases["sum/route"];
            proptest::prop_assert!(route.invocations == 1 && route.rounds <= 2, "{route:?}");
        }
    }
}
