//! The deterministic partition lemmas of §1.5 (Lemmas 5, 6 and 7).
//!
//! These are the combinatorial workhorses behind the cube partition
//! (Lemma 9) and the balancing steps (Lemmas 10–12): given item weights,
//! split `[n]` into `k` groups whose total weights are all close to average.
//!
//! All three constructions are deterministic, so every node of the clique
//! computes the *same* partition from the same broadcast weight information —
//! that is what makes the partitions "globally known" in the paper.

use std::ops::Range;

/// Lemma 5 (\[CLT18\]): partition `0..weights.len()` into `k` groups of
/// near-equal cardinality (sizes differ by at most one) such that every
/// group's weight is at most `W/k + max_weight`.
///
/// Construction: sort items by descending weight and deal them round-robin.
/// Group `j` receives ranks `j, j+k, j+2k, …`; each later block's item is no
/// heavier than the average of the previous block, so the tail sums to at
/// most `W/k` and the head item adds at most `max_weight`.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn balanced_partition(weights: &[u64], k: usize) -> Vec<Vec<usize>> {
    assert!(k > 0, "cannot partition into zero groups");
    let mut order: Vec<usize> = (0..weights.len()).collect();
    // Descending weight, ties by index for determinism.
    order.sort_by(|&i, &j| weights[j].cmp(&weights[i]).then(i.cmp(&j)));
    let mut groups = vec![Vec::new(); k];
    for (rank, idx) in order.into_iter().enumerate() {
        groups[rank % k].push(idx);
    }
    for g in &mut groups {
        g.sort_unstable();
    }
    groups
}

/// Lemma 6: partition `0..weights.len()` into at most `k` *consecutive*
/// ranges, each of weight at most `W/k + max_weight`, padded with empty
/// ranges to exactly `k`.
///
/// Construction: scan left to right, closing a range as soon as its weight
/// reaches `W/k` (compared exactly via cross-multiplication to avoid
/// rounding).
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn consecutive_partition(weights: &[u64], k: usize) -> Vec<Range<usize>> {
    assert!(k > 0, "cannot partition into zero groups");
    let n = weights.len();
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    let mut parts: Vec<Range<usize>> = Vec::with_capacity(k);
    let mut start = 0usize;
    let mut acc: u128 = 0;
    for (i, &w) in weights.iter().enumerate() {
        acc += w as u128;
        // Close the range once acc >= W/k, i.e. acc * k >= W.
        if acc * (k as u128) >= total && parts.len() + 1 < k {
            parts.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    parts.push(start..n);
    while parts.len() < k {
        parts.push(n..n);
    }
    parts
}

/// Lemma 7: partition `0..n` into `k` consecutive ranges that are
/// simultaneously balanced for **two** weight vectors: every range has
/// `w1`-weight at most `2(W1/k + max(w1))` and `w2`-weight at most
/// `2(W2/k + max(w2))`.
///
/// Construction: take the Lemma 6 fenceposts of both single-weight
/// partitions, merge them in order, and keep every other fencepost; each
/// resulting range overlaps at most two ranges of either partition.
///
/// # Panics
///
/// Panics if `k == 0` or the weight vectors have different lengths.
pub fn doubly_balanced_partition(w1: &[u64], w2: &[u64], k: usize) -> Vec<Range<usize>> {
    assert!(k > 0, "cannot partition into zero groups");
    assert_eq!(w1.len(), w2.len(), "weight vectors must have equal length");
    let n = w1.len();
    let p1 = consecutive_partition(w1, k);
    let p2 = consecutive_partition(w2, k);
    // Merge the range end points of both partitions in increasing order.
    let mut ends: Vec<usize> = p1.iter().chain(p2.iter()).map(|r| r.end).collect();
    ends.sort_unstable();
    debug_assert_eq!(ends.len(), 2 * k);
    // Every other fencepost: ends[1], ends[3], ... ends[2k-1] (== n).
    let mut parts = Vec::with_capacity(k);
    let mut start = 0usize;
    for j in 0..k {
        let end = ends[2 * j + 1].max(start);
        parts.push(start..end);
        start = end;
    }
    debug_assert_eq!(parts.last().map(|r| r.end), Some(n));
    parts
}

/// Weight of `range` under `weights`: the quantity the partitions above
/// bound, which their property tests check with it.
pub fn range_weight(weights: &[u64], range: &Range<usize>) -> u64 {
    weights[range.clone()].iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_lemma5(weights: &[u64], k: usize) {
        let groups = balanced_partition(weights, k);
        assert_eq!(groups.len(), k);
        let total: u64 = weights.iter().sum();
        let max_w = weights.iter().copied().max().unwrap_or(0);
        let mut seen = vec![false; weights.len()];
        let min_size = weights.len() / k;
        for g in &groups {
            assert!(g.len() >= min_size && g.len() <= min_size + 1, "sizes near-equal");
            let w: u64 = g.iter().map(|&i| weights[i]).sum();
            assert!(
                w <= total / k as u64 + max_w,
                "group weight {w} exceeds W/k + max = {}",
                total / k as u64 + max_w
            );
            for &i in g {
                assert!(!seen[i], "duplicate item");
                seen[i] = true;
            }
        }
        assert!(seen.into_iter().all(|b| b), "partition must cover all items");
    }

    #[test]
    fn lemma5_bounds_hold() {
        check_lemma5(&[5, 1, 4, 2, 3, 9, 0, 7], 4);
        check_lemma5(&[1; 16], 4);
        check_lemma5(&[100, 0, 0, 0, 0, 0, 0, 0], 4);
        check_lemma5(&[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8], 5);
        check_lemma5(&[], 3);
        check_lemma5(&[7], 3);
    }

    fn check_lemma6(weights: &[u64], k: usize) {
        let parts = consecutive_partition(weights, k);
        assert_eq!(parts.len(), k);
        let total: u64 = weights.iter().sum();
        let max_w = weights.iter().copied().max().unwrap_or(0);
        let mut next = 0usize;
        for r in &parts {
            assert_eq!(r.start, next.min(weights.len()));
            assert!(r.end >= r.start);
            next = r.end;
            assert!(
                range_weight(weights, r) <= total / k as u64 + max_w,
                "range {r:?} weight exceeds bound"
            );
        }
        assert_eq!(next, weights.len());
    }

    #[test]
    fn lemma6_bounds_hold() {
        check_lemma6(&[5, 1, 4, 2, 3, 9, 0, 7], 4);
        check_lemma6(&[1; 10], 3);
        check_lemma6(&[0, 0, 10, 0, 0], 2);
        check_lemma6(&[9, 9, 9], 5); // more groups than needed -> empty tails
        check_lemma6(&[], 2);
    }

    fn check_lemma7(w1: &[u64], w2: &[u64], k: usize) {
        let parts = doubly_balanced_partition(w1, w2, k);
        assert_eq!(parts.len(), k);
        let (t1, t2): (u64, u64) = (w1.iter().sum(), w2.iter().sum());
        let (m1, m2) =
            (w1.iter().copied().max().unwrap_or(0), w2.iter().copied().max().unwrap_or(0));
        let mut next = 0usize;
        for r in &parts {
            assert_eq!(r.start, next);
            next = r.end;
            assert!(range_weight(w1, r) <= 2 * (t1 / k as u64 + m1), "w1 bound violated for {r:?}");
            assert!(range_weight(w2, r) <= 2 * (t2 / k as u64 + m2), "w2 bound violated for {r:?}");
        }
        assert_eq!(next, w1.len());
    }

    #[test]
    fn lemma7_bounds_hold() {
        check_lemma7(&[5, 1, 4, 2, 3, 9, 0, 7], &[1, 1, 1, 1, 9, 9, 9, 9], 4);
        check_lemma7(&[1; 12], &[12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 12], 3);
        check_lemma7(&[0; 6], &[0; 6], 2);
        check_lemma7(&[2, 8, 2, 8, 2, 8, 2, 8], &[8, 2, 8, 2, 8, 2, 8, 2], 4);
    }

    #[test]
    #[should_panic(expected = "zero groups")]
    fn zero_groups_panics() {
        let _ = balanced_partition(&[1, 2], 0);
    }

    #[test]
    fn deterministic_under_ties() {
        let a = balanced_partition(&[1, 1, 1, 1], 2);
        let b = balanced_partition(&[1, 1, 1, 1], 2);
        assert_eq!(a, b);
        assert_eq!(a[0], vec![0, 2]);
        assert_eq!(a[1], vec![1, 3]);
    }
}
