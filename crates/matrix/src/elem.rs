use std::fmt;

use cc_clique::Payload;

/// A distance value: a non-negative integer or infinity.
///
/// The paper assumes non-negative integer edge weights bounded by `O(n^c)`,
/// so a `u64` with a dedicated infinity sentinel covers the whole value
/// space. `Dist` is the element type of the min-plus semiring
/// ([`MinPlus`](crate::MinPlus)): addition of the semiring is `min`,
/// multiplication is [`Dist::checked_add`], under which `∞ + x = ∞` and a
/// sum that does not fit a word is no path.
///
/// # Example
///
/// ```
/// use cc_matrix::Dist;
///
/// let d = Dist::fin(3);
/// assert!(d < Dist::INF);
/// assert_eq!(d.checked_add(Dist::fin(4)), Dist::fin(7));
/// assert_eq!(Dist::INF.checked_add(d), Dist::INF);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Dist(u64);

impl Dist {
    /// The additive identity of min-plus: no path / infinite distance.
    pub const INF: Dist = Dist(u64::MAX);
    /// Zero distance (the multiplicative identity of min-plus).
    pub const ZERO: Dist = Dist(0);

    /// A finite distance.
    ///
    /// # Panics
    ///
    /// Panics if `w == u64::MAX`, which is reserved for [`Dist::INF`].
    pub fn fin(w: u64) -> Dist {
        assert_ne!(w, u64::MAX, "u64::MAX is reserved for Dist::INF");
        Dist(w)
    }

    /// Reinterprets a raw `u64` from the wire encoding ([`Dist::raw`]):
    /// `u64::MAX` is [`Dist::INF`], everything else is finite. The inverse
    /// of `raw()`, and the one place decoding spells the sentinel.
    pub fn from_raw(raw: u64) -> Dist {
        Dist(raw)
    }

    /// Whether this distance is finite.
    pub fn is_finite(self) -> bool {
        self != Dist::INF
    }

    /// The underlying value of a finite distance.
    pub fn value(self) -> Option<u64> {
        self.is_finite().then_some(self.0)
    }

    /// The underlying value, treating infinity as `u64::MAX`.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Path concatenation under the workspace's one length rule: the sum
    /// of two lengths, or [`Dist::INF`] when either is infinite or the sum
    /// overflows `u64` or lands on its `u64::MAX` sentinel. A length that
    /// does not fit a word is no path.
    #[inline]
    pub fn checked_add(self, other: Dist) -> Dist {
        extend(self.0, other.0).map_or(Dist::INF, Dist)
    }
}

/// The one length rule of the workspace: extends a path of length `a` by
/// one of length `b`. `None` — no path — when either is the `u64::MAX` ∞
/// sentinel, or when the sum overflows `u64` or lands on the sentinel. Every
/// semiring multiplication over lengths ([`Dist::checked_add`],
/// [`AugDist::combine`], [`WitnessedMinPlus`](crate::WitnessedMinPlus))
/// calls it. It, `checked_add` and `combine` are `#[inline]`: they run in
/// the inner loops of every product, in other crates.
#[inline]
pub(crate) fn extend(a: u64, b: u64) -> Option<u64> {
    a.checked_add(b).filter(|&sum| sum != u64::MAX)
}

impl fmt::Display for Dist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_finite() {
            write!(f, "{}", self.0)
        } else {
            write!(f, "inf")
        }
    }
}

impl Payload for Dist {
    fn words(&self) -> usize {
        1
    }
}

/// An element of the **augmented min-plus semiring** (§3.1): a path length
/// together with its hop count.
///
/// Ordering is lexicographic — first by distance, then by hops — which is the
/// order `≺` the paper uses to make `k`-nearest and source-detection outputs
/// *hop-consistent* (Lemma 17): every prefix of a recorded shortest path is
/// itself recorded.
///
/// A pair fits in `O(log n)` bits (weights are `poly(n)`, hops `≤ n`), so a
/// value counts as one message word on the wire.
///
/// # Example
///
/// ```
/// use cc_matrix::AugDist;
///
/// let a = AugDist::fin(5, 2);
/// let b = AugDist::fin(5, 3);
/// assert!(a < b); // same length, fewer hops wins
/// assert_eq!(a.combine(b), AugDist::fin(10, 5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AugDist {
    /// Path length (`u64::MAX` = unreachable).
    pub dist: u64,
    /// Number of edges on the path (`u32::MAX` = unreachable).
    pub hops: u32,
}

impl AugDist {
    /// The additive identity: unreachable.
    pub const INF: AugDist = AugDist { dist: u64::MAX, hops: u32::MAX };
    /// The multiplicative identity: the empty path.
    pub const ZERO: AugDist = AugDist { dist: 0, hops: 0 };

    /// A finite (length, hops) pair.
    ///
    /// # Panics
    ///
    /// Panics if either component equals its sentinel value.
    pub fn fin(dist: u64, hops: u32) -> AugDist {
        assert_ne!(dist, u64::MAX, "u64::MAX is reserved for AugDist::INF");
        assert_ne!(hops, u32::MAX, "u32::MAX is reserved for AugDist::INF");
        AugDist { dist, hops }
    }

    /// Whether this value denotes a real path.
    pub fn is_finite(self) -> bool {
        self.dist != u64::MAX
    }

    /// Path concatenation: adds lengths under the one length rule of
    /// [`Dist::checked_add`] and adds hop counts, absorbing infinity. A
    /// length or hop count that overflows (or lands on its `MAX` sentinel)
    /// gives [`AugDist::INF`]: this runs on serving paths, where a panic
    /// would kill the worker.
    #[inline]
    pub fn combine(self, other: AugDist) -> AugDist {
        match (extend(self.dist, other.dist), self.hops.checked_add(other.hops)) {
            (Some(dist), Some(hops)) if hops != u32::MAX => AugDist { dist, hops },
            _ => AugDist::INF,
        }
    }

    /// Drops the hop count, giving a plain [`Dist`].
    pub fn to_dist(self) -> Dist {
        if self.is_finite() {
            Dist::fin(self.dist)
        } else {
            Dist::INF
        }
    }
}

impl fmt::Display for AugDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_finite() {
            write!(f, "{}@{}h", self.dist, self.hops)
        } else {
            write!(f, "inf")
        }
    }
}

impl Payload for AugDist {
    fn words(&self) -> usize {
        1
    }
}

/// A distance together with the **witness** that produced it in a distance
/// product (§3.1, "Recovering paths"): for `P = S ⋆ T`, the entry `P[u,v]`
/// carries a node `via = w` with `P[u,v] = S[u,w] + T[w,v]`.
///
/// `via == u32::MAX` means "no witness" (identity/diagonal entries, original
/// edges, or infinite distances — the canonical zero). Ordering is by
/// `(dist, via)`, so ties pick the smallest witness deterministically.
///
/// # Example
///
/// ```
/// use cc_matrix::WitnessedDist;
///
/// let d = WitnessedDist::via(10, 3);
/// assert_eq!(d.witness(), Some(3));
/// assert!(WitnessedDist::via(9, 7) < d); // distance dominates
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WitnessedDist {
    /// Path length (`u64::MAX` = unreachable).
    pub dist: u64,
    /// The contraction index achieving the minimum (`u32::MAX` = none).
    pub via: u32,
}

impl WitnessedDist {
    /// The additive identity: unreachable, no witness.
    pub const INF: WitnessedDist = WitnessedDist { dist: u64::MAX, via: u32::MAX };
    /// The multiplicative identity: the empty path, no witness.
    pub const ZERO: WitnessedDist = WitnessedDist { dist: 0, via: u32::MAX };

    /// A finite distance without a witness (an original edge).
    ///
    /// # Panics
    ///
    /// Panics if `dist == u64::MAX` (reserved for [`WitnessedDist::INF`]).
    pub fn direct(dist: u64) -> WitnessedDist {
        assert_ne!(dist, u64::MAX, "u64::MAX is reserved for WitnessedDist::INF");
        WitnessedDist { dist, via: u32::MAX }
    }

    /// A finite distance achieved through node `via`.
    ///
    /// # Panics
    ///
    /// Panics if either field equals its sentinel value.
    pub fn via(dist: u64, via: u32) -> WitnessedDist {
        assert_ne!(dist, u64::MAX, "u64::MAX is reserved for WitnessedDist::INF");
        assert_ne!(via, u32::MAX, "u32::MAX means no witness");
        WitnessedDist { dist, via }
    }

    /// Whether this value denotes a real path.
    pub fn is_finite(self) -> bool {
        self.dist != u64::MAX
    }

    /// The witness, if one was recorded.
    pub fn witness(self) -> Option<usize> {
        (self.via != u32::MAX && self.is_finite()).then_some(self.via as usize)
    }

    /// Drops the witness, giving a plain [`Dist`].
    pub fn to_dist(self) -> Dist {
        if self.is_finite() {
            Dist::fin(self.dist)
        } else {
            Dist::INF
        }
    }
}

impl fmt::Display for WitnessedDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_finite() {
            write!(f, "inf")
        } else if self.via == u32::MAX {
            write!(f, "{}", self.dist)
        } else {
            write!(f, "{} via {}", self.dist, self.via)
        }
    }
}

impl Payload for WitnessedDist {
    fn words(&self) -> usize {
        1
    }
}

/// One non-zero matrix entry in transit: `(row, col, value)`.
///
/// Following the paper's accounting, an entry — two packed indices plus an
/// `O(log n)`-bit semiring element — is a single `O(log n)`-bit message, so
/// its wire size equals the wire size of its value.
///
/// # Example
///
/// ```
/// use cc_clique::Payload;
/// use cc_matrix::{Dist, Entry};
///
/// let e = Entry::new(2, 5, Dist::fin(7));
/// assert_eq!(e.words(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Entry<E> {
    /// Row index.
    pub row: u32,
    /// Column index.
    pub col: u32,
    /// The (non-zero) value.
    pub val: E,
}

impl<E> Entry<E> {
    /// Creates an entry.
    pub fn new(row: u32, col: u32, val: E) -> Self {
        Entry { row, col, val }
    }

    /// The `(row, col)` position.
    pub fn pos(&self) -> (u32, u32) {
        (self.row, self.col)
    }
}

impl<E: Payload> Payload for Entry<E> {
    fn words(&self) -> usize {
        self.val.words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_ordering_and_arith() {
        assert!(Dist::ZERO < Dist::fin(1));
        assert!(Dist::fin(10) < Dist::INF);
        assert_eq!(Dist::fin(2).checked_add(Dist::fin(3)), Dist::fin(5));
        assert_eq!(Dist::INF.checked_add(Dist::INF), Dist::INF);
        assert_eq!(Dist::fin(2).value(), Some(2));
        assert_eq!(Dist::INF.value(), None);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn dist_fin_rejects_sentinel() {
        let _ = Dist::fin(u64::MAX);
    }

    #[test]
    fn aug_order_is_lexicographic() {
        assert!(AugDist::fin(3, 9) < AugDist::fin(4, 0));
        assert!(AugDist::fin(3, 1) < AugDist::fin(3, 2));
        assert!(AugDist::fin(3, 1) < AugDist::INF);
        assert!(AugDist::ZERO < AugDist::fin(0, 1));
    }

    #[test]
    fn aug_combine_tracks_hops() {
        let a = AugDist::fin(2, 1).combine(AugDist::fin(5, 3));
        assert_eq!(a, AugDist::fin(7, 4));
        assert_eq!(AugDist::INF.combine(AugDist::ZERO), AugDist::INF);
        assert_eq!(a.to_dist(), Dist::fin(7));
        assert_eq!(AugDist::INF.to_dist(), Dist::INF);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Dist::fin(4).to_string(), "4");
        assert_eq!(Dist::INF.to_string(), "inf");
        assert_eq!(AugDist::fin(4, 2).to_string(), "4@2h");
    }

    #[test]
    fn entry_is_one_word_for_scalar_values() {
        assert_eq!(Entry::new(0, 0, Dist::ZERO).words(), 1);
        assert_eq!(Entry::new(0, 0, AugDist::ZERO).words(), 1);
        assert_eq!(Entry::new(1, 2, Dist::fin(9)).pos(), (1, 2));
    }
}
