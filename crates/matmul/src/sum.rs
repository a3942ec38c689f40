//! Balanced summation of intermediate values (Lemma 13).
//!
//! After the subtask products, every node holds a bounded number of
//! *intermediate values* — partial sums `p_{vWu}` for positions of the
//! output matrix, with each elementary product contributing to exactly one
//! intermediate value. This module accumulates them into the output rows:
//! repeatedly take `n` values per node, globally sort by position (Lenzen
//! sort, `O(1)` rounds), combine equal positions locally, fix the runs that
//! straddle node boundaries, and route the per-row sums to their row owners.
//! With at most `L` values per node this takes `O(L/n + 1)` rounds.

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
    let n = clique.n();

    // Everyone learns the number of repetitions.
    let lens: Vec<u64> = per_node.iter().map(|q| q.len() as u64).collect();
    let lens = clique.with_phase("sum", |cl| cl.all_broadcast(lens))?;
    let reps = lens.iter().map(|&l| (l as usize).div_ceil(n)).max().unwrap_or(0);

    let mut pending: Vec<std::vec::IntoIter<Entry<SR::Elem>>> =
        per_node.into_iter().map(Vec::into_iter).collect();
    let mut out: Vec<SparseRow<SR::Elem>> = vec![SparseRow::new(); n];
    for rep in 0..reps {
        // Each node contributes its next up-to-n values this repetition,
        // keyed by position, then by provenance — the node and the value's
        // offset in the node's original list — so the global order is total.
        let batch: Vec<Vec<Keyed<SR::Elem>>> = pending
            .iter_mut()
            .enumerate()
            .map(|(v, values)| {
                values
                    .by_ref()
                    .take(n)
                    .enumerate()
                    .map(|(off, e)| {
                        let position = ((e.row as u64) << 32) | e.col as u64;
                        Keyed { key: (position, v as u32, (rep * n + off) as u32), val: e.val }
                    })
                    .collect()
            })
            .collect();

        // (1) Global sort by position.
        let sorted = clique.with_phase("sum", |cl| cl.sort(batch))?;

        // (2) Local combine of equal positions.
        let mut combined: Vec<Vec<(u64, SR::Elem)>> = sorted
            .into_iter()
            .map(|items| {
                let mut acc: Vec<(u64, SR::Elem)> = Vec::with_capacity(items.len());
                for item in items {
                    match acc.last_mut() {
                        Some((k, v)) if *k == item.key.0 => *v = SR::add(v, &item.val),
                        _ => acc.push((item.key.0, item.val)),
                    }
                }
                acc
            })
            .collect();

        // (3) Boundary fix: positions straddling node boundaries are merged
        // at the smallest-id holder. Broadcast (min, max) keys; an empty
        // holder broadcasts `EMPTY_SPAN` bounds, which no real key equals.
        const EMPTY_SPAN: u64 = u64::MAX;
        let spans: Vec<(u64, u64)> = combined
            .iter()
            .map(|c| {
                if c.is_empty() {
                    (EMPTY_SPAN, EMPTY_SPAN)
                } else {
                    (c.first().expect("nonempty").0, c.last().expect("nonempty").0)
                }
            })
            .collect();
        let spans = clique.with_phase("sum", |cl| cl.all_broadcast(spans))?;
        // The smallest-id holder of key k, as seen from holder v: every
        // earlier holder of k must end with k (global sorted order), so it
        // is the first node whose max equals k — or v itself.
        let owner_of = |key: u64, v: usize| -> usize {
            (0..v).find(|&t| spans[t].1 == key && spans[t].0 != EMPTY_SPAN).unwrap_or(v)
        };
        // `kept_from[v]` is 1 if v shipped its first run away, else 0.
        let mut kept_from = vec![0usize; n];
        let mut boundary_msgs = Vec::new();
        for v in 0..n {
            if combined[v].is_empty() {
                continue;
            }
            let min_key = combined[v][0].0;
            let owner = owner_of(min_key, v);
            if owner != v {
                // Every key before ours is <= min_key, so only the first run
                // can be shared; ship its sum to the owner.
                let val = std::mem::replace(&mut combined[v][0].1, SR::zero());
                kept_from[v] = 1;
                boundary_msgs.push(Envelope::new(v, owner, (min_key, val)));
            }
        }
        let inboxes = clique.with_phase("sum", |cl| cl.route(boundary_msgs))?;
        for (v, inbox) in inboxes.into_iter().enumerate() {
            for env in inbox {
                let (k, val) = env.payload;
                // The owner's max is k and an owner never ships k away (no
                // earlier node ends with it), so the shared run is its last.
                match combined[v][kept_from[v]..].last_mut() {
                    Some((key, cur)) if *key == k => *cur = SR::add(cur, &val),
                    _ => unreachable!("the owner of a boundary key ends with that key"),
                }
            }
        }

        // (4) Route per-position sums to their row owners.
        let kept: usize = combined.iter().zip(&kept_from).map(|(c, &from)| c.len() - from).sum();
        let mut finals: Vec<Envelope<Entry<SR::Elem>>> = Vec::with_capacity(kept);
        for (v, items) in combined.into_iter().enumerate() {
            for (k, val) in items.into_iter().skip(kept_from[v]) {
                let row = (k >> 32) as u32;
                let col = (k & 0xffff_ffff) as u32;
                finals.push(Envelope::new(v, row as usize, Entry::new(row, col, val)));
            }
        }
        let inboxes = clique.with_phase("sum", |cl| cl.route(finals))?;
        for (r, inbox) in inboxes.into_iter().enumerate() {
            for env in inbox {
                out[r].accumulate::<SR>(env.payload.col, env.payload.val);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_matrix::{Dist, MinPlus};

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
        // Node 0 holds 10 values for the same position: forces 3 repetitions.
        let per_node = vec![
            (0..10).map(|i| Entry::new(2, 1, Dist::fin(20 - i))).collect(),
            vec![],
            vec![],
            vec![Entry::new(2, 1, Dist::fin(5))],
        ];
        let rows = sum_intermediates::<MinPlus>(&mut clique, per_node).unwrap();
        assert_eq!(rows[2].get(1), Some(&Dist::fin(5)));
        let rounds = clique.rounds();
        assert!(rounds >= 3, "expected multiple repetitions, got {rounds} rounds");
    }

    #[test]
    fn empty_input_is_cheap() {
        let mut clique = Clique::new(3);
        let rows = sum_intermediates::<MinPlus>(&mut clique, vec![vec![], vec![], vec![]]).unwrap();
        assert!(rows.iter().all(|r| r.is_empty()));
        assert!(clique.rounds() <= 1);
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
        // 2, so both ship their (only) run to holder 0.
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
        // One repetition: the boundary route carried the two shipped runs,
        // the final route the 4 distinct positions.
        let route = clique.metrics().phases["sum/route"];
        assert_eq!(route.invocations, 2);
        assert_eq!(route.messages, 2 + 4);
    }

    #[test]
    fn holder_whose_only_run_is_shipped_keeps_nothing() {
        // n = 3, 3 values => one value per holder, all for position (2, 0):
        // holders 1 and 2 each hold a single run and ship it to holder 0,
        // leaving their lists empty; only holder 0 routes a final sum.
        let n = 3;
        let per_node: Vec<Vec<Entry<Dist>>> =
            (0..n).map(|v| vec![Entry::new(2, 0, Dist::fin(30 - v as u64))]).collect();
        let mut clique = Clique::new(n);
        let rows = sum_intermediates::<MinPlus>(&mut clique, per_node.clone()).unwrap();
        assert_eq!(rows, reference_sum(n, &per_node));
        assert_eq!(rows[2].get(0), Some(&Dist::fin(28)));
        let route = clique.metrics().phases["sum/route"];
        assert_eq!(route.messages, 2 + 1);
    }

    #[test]
    fn shipped_first_run_and_received_last_run_on_one_holder() {
        // Holder 1 ships its first run (0, 1) to holder 0 *and* owns the run
        // (0, 3) that holder 2 starts with: offsets and "last run" must not
        // be confused.
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
}
