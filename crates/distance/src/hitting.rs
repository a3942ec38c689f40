//! Deterministic hitting sets — **Lemma 4**.
//!
//! Given per-node sets `S_v` of size ≥ `k`, construct a set `A` of size
//! `O(n log n / k)` that intersects every `S_v`. The paper cites the
//! deterministic construction of Parter–Yogev [52] running in
//! `O((log log n)³)` rounds; reproducing that separate paper is out of
//! scope, so this implementation substitutes a construction with the same
//! *interface*:
//!
//! * membership is decided by a seeded hash with probability
//!   `p = min(1, 2·ln n / k)` — deterministic given the seed, no
//!   communication;
//! * every node locally verifies that its set is hit; the (w.h.p. zero)
//!   un-hit nodes promote their smallest member in one broadcast round;
//! * the round cost `O((log log n)³)` of the cited construction is charged
//!   explicitly so downstream round counts match the paper's accounting.
//!
//! Where `k ≤ 2·ln n` (so `p = 1`), the lemma's size bound `O(n log n / k)`
//! is at least `n`, and `V` itself is the answer: every node is a member,
//! every set is hit, and every node can name the set from `n` and `k`
//! alone. There nothing is charged and no repair round is broadcast.
//!
//! The result always hits every set (repair guarantees it) and has expected
//! size `2·n·ln n/k + O(1)`; both properties are enforced by tests.

use cc_clique::Clique;
use cc_graph::Graph;
use cc_matrix::SparseRow;

use crate::error::{check_size, invalid};
use crate::DistanceError;

/// A hitting set over the clique's node ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HittingSet {
    /// Members in increasing id order.
    pub members: Vec<usize>,
    /// Membership indicator, indexed by node id.
    pub in_set: Vec<bool>,
}

impl HittingSet {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `v` is a member.
    pub fn contains(&self, v: usize) -> bool {
        self.in_set.get(v).copied().unwrap_or(false)
    }

    /// The member of smallest augmented distance in a `k`-nearest row —
    /// the node `p(v)` of §4.1 (closest hitter, ties by the row's
    /// augmented order then id).
    pub fn closest_in_row(
        &self,
        row: &SparseRow<cc_matrix::AugDist>,
    ) -> Option<(usize, cc_matrix::AugDist)> {
        row.iter()
            .filter(|(c, _)| self.contains(*c as usize))
            .min_by_key(|(c, a)| (**a, *c))
            .map(|(c, a)| (c as usize, *a))
    }

    /// Builds a hitting set for the neighbourhoods `N(v)` of all nodes with
    /// degree ≥ `k` (the high-degree phase of §6.3).
    ///
    /// # Errors
    ///
    /// Propagates [`hitting_set`] errors.
    pub fn for_high_degree(
        clique: &mut Clique,
        graph: &Graph,
        k: usize,
        seed: u64,
    ) -> Result<HittingSet, DistanceError> {
        check_size(clique, graph.n())?;
        // A node below the threshold has nothing to hit: its set is empty.
        let high = |v: usize| graph.neighbors(v).iter().filter(move |_| graph.degree(v) >= k);
        hitting_set_of(clique, |v| high(v).map(|&(u, _)| u), k, seed)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// **Lemma 4**: a hitting set of size `O(n log n / k)` for the family
/// `{S_v}` (with `|S_v| ≥ k` for the size bound; smaller non-empty sets are
/// still guaranteed hit via the repair step). The deterministic
/// construction the paper cites \[52\] is substituted by seeded sampling
/// with the same interface, and its `O((log log n)³)` rounds are what is
/// charged, plus one repair broadcast — where `k > 2·ln n`. Where
/// `k ≤ 2·ln n` the set is `V`, which every node knows from `n` and `k`,
/// so nothing is charged or broadcast.
///
/// Empty sets are skipped (nothing to hit).
///
/// # Errors
///
/// * [`DistanceError::InvalidParameter`] if `sets` doesn't match the clique
///   size, references out-of-range nodes, or `k == 0`.
///
/// # Example
///
/// ```
/// use cc_clique::Clique;
/// use cc_distance::hitting_set;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let n = 64;
/// // Every node's set: the 8 ids following it (cyclically).
/// let sets: Vec<Vec<usize>> =
///     (0..n).map(|v| (1..=8).map(|i| (v + i) % n).collect()).collect();
/// let mut clique = Clique::new(n);
/// let hs = hitting_set(&mut clique, &sets, 8, 42)?;
/// assert!(sets.iter().all(|s| s.iter().any(|&w| hs.contains(w))));
/// # Ok(())
/// # }
/// ```
pub fn hitting_set(
    clique: &mut Clique,
    sets: &[Vec<usize>],
    k: usize,
    seed: u64,
) -> Result<HittingSet, DistanceError> {
    let n = clique.n();
    if sets.len() != n {
        return Err(invalid(format!("sets has length {} but clique has {n}", sets.len())));
    }
    hitting_set_of(clique, |v| sets[v].iter().copied(), k, seed)
}

/// [`hitting_set`] over the family `members(v)`, `v ∈ 0..n`, read in place:
/// a caller that holds its sets in another shape (the `k`-nearest rows of
/// Theorem 18) hands them over without copying them. Same members, same
/// rounds.
///
/// # Errors
///
/// [`DistanceError::InvalidParameter`] if a set references out-of-range
/// nodes or `k == 0`.
pub fn hitting_set_of<I: IntoIterator<Item = usize>>(
    clique: &mut Clique,
    members: impl Fn(usize) -> I,
    k: usize,
    seed: u64,
) -> Result<HittingSet, DistanceError> {
    let n = clique.n();
    let (hs, repair) = hitting_set_local(n, members, k, seed)?;
    if sampling_probability(n, k) >= 1.0 {
        // Every node is a member: the set is `V`, known from `n` and `k`.
        return Ok(hs);
    }

    // Charge the cited deterministic construction's cost.
    let loglog = (n.max(4) as f64).log2().log2().ceil().max(1.0) as u64;
    clique.charge("hitting_set", loglog.pow(3));
    // The repair words cross the wire (one all-to-all broadcast round);
    // their effect is already folded into `hs` by the shared local kernel.
    clique.with_phase("hitting_set", |cl| cl.all_broadcast(repair))?;
    Ok(hs)
}

/// Lemma 4's sampling probability `p = min(1, 2·ln n / k)`.
fn sampling_probability(n: usize, k: usize) -> f64 {
    (2.0 * (n.max(2) as f64).ln() / k as f64).min(1.0)
}

/// The purely local kernel of [`hitting_set`]: seeded membership plus the
/// repair pass over the family `members(v)`, `v ∈ 0..n`, with no clique and
/// no round accounting. `members` is read in place, once to check every id
/// and once to repair, so the sets need not be copied into one shape.
/// Returns the set together with the per-node repair words the clique
/// wrapper broadcasts where `k > 2·ln n` (`u64::MAX` = "already hit,
/// nothing to promote"; every word is that where `k ≤ 2·ln n`, since every
/// node is a member).
///
/// [`hitting_set`] delegates here, so a direct (no-clique) builder that
/// calls this picks the **same members** as a simulated-clique build —
/// the bit-identity contract of `cc-oracle`'s differential suite.
///
/// # Errors
///
/// [`DistanceError::InvalidParameter`] if a set references out-of-range
/// nodes or `k == 0`.
pub fn hitting_set_local<I: IntoIterator<Item = usize>>(
    n: usize,
    members: impl Fn(usize) -> I,
    k: usize,
    seed: u64,
) -> Result<(HittingSet, Vec<u64>), DistanceError> {
    if k == 0 {
        return Err(invalid("hitting set needs k >= 1"));
    }
    for v in 0..n {
        if let Some(w) = members(v).into_iter().find(|&w| w >= n) {
            return Err(invalid(format!("node {v} references member {w} outside 0..{n}")));
        }
    }

    // Seeded pseudorandom membership with p = min(1, 2 ln n / k).
    let threshold = (sampling_probability(n, k) * u64::MAX as f64) as u64;
    let mut in_set: Vec<bool> = (0..n)
        .map(|v| splitmix64(seed ^ (v as u64).wrapping_mul(0x517c_c1b7_2722_0a95)) <= threshold)
        .collect();

    // Local verification; un-hit nodes promote their smallest member.
    // `NO_REPAIR` marks an already-hit (or empty) set in the packed repair
    // word (node ids are `< n`, so it cannot collide).
    const NO_REPAIR: u64 = u64::MAX;
    let repair: Vec<u64> = (0..n)
        .map(|v| {
            let mut smallest = NO_REPAIR;
            for w in members(v) {
                if in_set[w] {
                    return NO_REPAIR;
                }
                smallest = smallest.min(w as u64);
            }
            smallest
        })
        .collect();
    for &r in &repair {
        if r != NO_REPAIR {
            in_set[r as usize] = true;
        }
    }

    let members = (0..n).filter(|&v| in_set[v]).collect();
    Ok((HittingSet { members, in_set }, repair))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_sets(n: usize, k: usize, seed: u64) -> Vec<Vec<usize>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut set = std::collections::BTreeSet::new();
                while set.len() < k {
                    set.insert(rng.gen_range(0..n));
                }
                set.into_iter().collect()
            })
            .collect()
    }

    #[test]
    fn always_hits_every_set() {
        for seed in 0..5 {
            let n = 64;
            let k = 8;
            let sets = random_sets(n, k, seed);
            let mut clique = Clique::new(n);
            let hs = hitting_set(&mut clique, &sets, k, seed).unwrap();
            for (v, set) in sets.iter().enumerate() {
                assert!(set.iter().any(|&w| hs.contains(w)), "set of node {v} not hit");
            }
        }
    }

    #[test]
    fn size_is_near_n_log_n_over_k() {
        let n = 256;
        let k = 32;
        let sets = random_sets(n, k, 7);
        let mut clique = Clique::new(n);
        let hs = hitting_set(&mut clique, &sets, k, 99).unwrap();
        let bound = (4.0 * n as f64 * (n as f64).ln() / k as f64) as usize + 4;
        assert!(hs.len() <= bound, "hitting set too big: {} > {bound}", hs.len());
        assert!(!hs.is_empty());
    }

    #[test]
    fn deterministic_in_seed() {
        let sets = random_sets(32, 4, 3);
        let mut c1 = Clique::new(32);
        let mut c2 = Clique::new(32);
        let a = hitting_set(&mut c1, &sets, 4, 5).unwrap();
        let b = hitting_set(&mut c2, &sets, 4, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn handles_small_and_empty_sets() {
        // Sets smaller than k still get hit; empty sets are skipped.
        let sets = vec![vec![3], vec![], vec![0, 1], vec![]];
        let mut clique = Clique::new(4);
        let hs = hitting_set(&mut clique, &sets, 4, 1).unwrap();
        assert!(hs.contains(3) || sets[0].iter().any(|&w| hs.contains(w)));
        assert!(sets[2].iter().any(|&w| hs.contains(w)));
    }

    #[test]
    fn local_kernel_matches_the_clique_wrapper() {
        // The wrapper only adds round accounting on top of the shared local
        // kernel — the set itself must be bit-identical.
        for seed in 0..4 {
            let sets = random_sets(48, 6, seed);
            let mut clique = Clique::new(48);
            let in_clique = hitting_set(&mut clique, &sets, 6, seed ^ 0xabc).unwrap();
            let (local, _) =
                hitting_set_local(48, |v| sets[v].iter().copied(), 6, seed ^ 0xabc).unwrap();
            assert_eq!(in_clique, local);
        }
    }

    #[test]
    fn the_closure_form_reads_any_shape_of_the_same_family() {
        // Random families with every few sets emptied, on both sides of
        // k = 2·ln 64 ≈ 8.3: the sets handed over as slices, and in place
        // as windows of one flat list, give the same members.
        for seed in 0..6u64 {
            let (n, k) = (64, [4, 12][seed as usize % 2]);
            let mut sets = random_sets(n, k, seed);
            for v in (0..n).step_by(3 + seed as usize) {
                sets[v].clear();
            }
            let flat = sets.concat();
            let ends: Vec<usize> = sets
                .iter()
                .scan(0, |end, set| Some(std::mem::replace(end, *end + set.len())))
                .collect();
            let window = |v: usize| flat[ends[v]..ends[v] + sets[v].len()].iter().copied();
            let via_slices = hitting_set(&mut Clique::new(n), &sets, k, seed).unwrap();
            let (in_place, repair) = hitting_set_local(n, window, k, seed).unwrap();
            assert_eq!(in_place, via_slices, "seed {seed}");
            assert_eq!(hitting_set_of(&mut Clique::new(n), window, k, seed).unwrap(), via_slices);
            for (v, set) in sets.iter().enumerate() {
                assert!(set.is_empty() || set.iter().any(|&w| in_place.contains(w)));
                if set.is_empty() {
                    assert_eq!(repair[v], u64::MAX, "an empty set promotes nothing");
                }
            }
        }
        let err = hitting_set_local(4, |v| if v == 2 { vec![1, 7] } else { vec![v] }, 2, 0);
        let err = err.unwrap_err().to_string();
        assert!(err.contains("node 2") && err.contains("member 7"), "{err}");
    }

    #[test]
    fn closest_in_row_respects_order() {
        let hs = HittingSet {
            members: vec![2, 5],
            in_set: vec![false, false, true, false, false, true],
        };
        let row = SparseRow::from_entries::<cc_matrix::AugMinPlus>(vec![
            (1, cc_matrix::AugDist::fin(1, 1)),
            (2, cc_matrix::AugDist::fin(4, 2)),
            (5, cc_matrix::AugDist::fin(3, 9)),
        ]);
        // Node 5 at distance 3 beats node 2 at distance 4.
        assert_eq!(hs.closest_in_row(&row), Some((5, cc_matrix::AugDist::fin(3, 9))));
    }

    #[test]
    fn high_degree_neighbourhoods() {
        let g = generators::star(32).unwrap();
        let mut clique = Clique::new(32);
        let hs = HittingSet::for_high_degree(&mut clique, &g, 8, 11).unwrap();
        // Only the centre has degree >= 8; its neighbourhood must be hit.
        assert!((1..32).any(|v| hs.contains(v)));
    }

    #[test]
    fn rejects_bad_parameters() {
        // k = 3 > 2 ln 4: a valid call would be charged, a rejected one not.
        let mut clique = Clique::new(4);
        assert!(hitting_set(&mut clique, &[], 3, 0).is_err());
        assert_eq!(clique.rounds(), 0);
        assert!(hitting_set(&mut clique, &vec![vec![9]; 4], 3, 0).is_err());
        assert_eq!(clique.rounds(), 0);
        assert!(hitting_set(&mut clique, &vec![vec![0]; 4], 0, 0).is_err());
        assert_eq!(clique.rounds(), 0);
    }

    #[test]
    fn where_k_is_at_most_two_ln_n_every_node_is_a_member_for_free() {
        for n in [32usize, 64, 256] {
            let loglog = (n as f64).log2().log2().ceil() as u64;
            let below = (2.0 * (n as f64).ln()).floor() as usize;
            for k in [below, below + 1] {
                let sets = random_sets(n, k, n as u64);
                let mut clique = Clique::new(n);
                let hs = hitting_set(&mut clique, &sets, k, 17).unwrap();
                let (local, _) = hitting_set_local(n, |v| sets[v].iter().copied(), k, 17).unwrap();
                assert_eq!(hs, local, "n = {n}, k = {k}");
                let charged = clique.report().phases.keys().any(|l| l.starts_with("hitting_set"));
                if k == below {
                    assert_eq!(hs.members, (0..n).collect::<Vec<_>>(), "n = {n}, k = {k}");
                    assert_eq!(clique.rounds(), 0, "n = {n}, k = {k}");
                    assert!(!charged, "n = {n}, k = {k}");
                } else {
                    assert_eq!(clique.rounds(), loglog.pow(3) + 1, "n = {n}, k = {k}");
                    assert!(charged, "n = {n}, k = {k}");
                }
            }
        }
    }
}
