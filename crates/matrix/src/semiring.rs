use std::fmt::Debug;

use cc_clique::Payload;

use crate::elem::extend;
use crate::{AugDist, Dist, WitnessedDist};

/// A semiring `(R, +, ·, 0, 1)` whose elements fit in an `O(log n)`-bit
/// message (§1.5 of the paper).
///
/// `0` is the additive identity (and the "zero" that sparse matrices omit);
/// `1` is the multiplicative identity. Multiplication need not commute.
/// Implementations are stateless marker types; all operations are associated
/// functions so that algorithms can be generic over the semiring while
/// storing plain element values.
///
/// # Example
///
/// ```
/// use cc_matrix::{Dist, MinPlus, Semiring};
///
/// let d = MinPlus::add(&Dist::fin(3), &Dist::fin(5));
/// assert_eq!(d, Dist::fin(3)); // min
/// let d = MinPlus::mul(&Dist::fin(3), &Dist::fin(5));
/// assert_eq!(d, Dist::fin(8)); // plus
/// ```
pub trait Semiring: Clone + Debug + 'static {
    /// The element type.
    type Elem: Clone + PartialEq + Debug + Payload + Send + Sync + 'static;

    /// The additive identity (sparse matrices omit this value).
    fn zero() -> Self::Elem;
    /// The multiplicative identity.
    fn one() -> Self::Elem;
    /// Semiring addition.
    fn add(a: &Self::Elem, b: &Self::Elem) -> Self::Elem;
    /// Semiring multiplication.
    fn mul(a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// Whether `e` is the additive identity.
    fn is_zero(e: &Self::Elem) -> bool {
        *e == Self::zero()
    }
}

/// A semiring whose addition is `min` under the elements' `Ord`, whose zero
/// is the maximum of that order, and whose elements have one
/// order-preserving ordinal for Lemma 15 (§2.2).
///
/// This is the precondition of the paper's *filtered* matrix multiplication
/// (Theorem 14): rows of the output can be meaningfully truncated to their
/// `ρ` smallest entries ([`SparseRow::filter_smallest`](crate::SparseRow::filter_smallest)
/// orders by `Ord`), and the cutoff search runs over [`Self::ordinal`].
pub trait OrderedSemiring: Semiring<Elem: Ord> {
    /// The element's place in the value space `R'` that Theorem 14's cutoff
    /// search (Lemma 15) searches over. Order-preserving:
    /// `a < b ⟺ ordinal(a) < ordinal(b)`. The search only compares ordinals
    /// of real elements with each other and with points between them, so
    /// no decoding is needed.
    fn ordinal(e: &Self::Elem) -> u128;
}

/// The min-plus (tropical) semiring over [`Dist`]: `(ℕ∪{∞}, min, +, ∞, 0)`.
///
/// Powers of a weight matrix over this semiring are exact shortest-path
/// distances. Multiplication is [`Dist::checked_add`], the one length rule:
/// a length that overflows `u64` or reaches its `u64::MAX` ∞ sentinel is
/// no path, so a product answers ∞ exactly where a sequential search does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MinPlus;

impl Semiring for MinPlus {
    type Elem = Dist;

    fn zero() -> Dist {
        Dist::INF
    }
    fn one() -> Dist {
        Dist::ZERO
    }
    fn add(a: &Dist, b: &Dist) -> Dist {
        *a.min(b)
    }
    fn mul(a: &Dist, b: &Dist) -> Dist {
        a.checked_add(*b)
    }
}

impl OrderedSemiring for MinPlus {
    fn ordinal(e: &Dist) -> u128 {
        e.raw() as u128
    }
}

/// The augmented min-plus semiring over [`AugDist`] (§3.1): elements are
/// `(weight, hops)` pairs, addition is lexicographic `min`, multiplication
/// adds componentwise.
///
/// Iterated powers of the augmented weight matrix compute hop-bounded
/// distances with consistent tie-breaking (Lemma 17), which is what the
/// `k`-nearest and source-detection tools build on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AugMinPlus;

impl Semiring for AugMinPlus {
    type Elem = AugDist;

    fn zero() -> AugDist {
        AugDist::INF
    }
    fn one() -> AugDist {
        AugDist::ZERO
    }
    fn add(a: &AugDist, b: &AugDist) -> AugDist {
        *a.min(b)
    }
    fn mul(a: &AugDist, b: &AugDist) -> AugDist {
        a.combine(*b)
    }
}

/// Width of the hops field inside [`AugMinPlus`] ordinals. Hop counts are
/// bounded by the number of nodes, so 20 bits cover any clique up to a
/// million nodes. Most of the ordinal range is therefore empty; Lemma 15's
/// search snaps to the ordinals that exist, so it does not pay for the gaps.
const HOP_BITS: u32 = 20;

impl OrderedSemiring for AugMinPlus {
    fn ordinal(e: &AugDist) -> u128 {
        debug_assert!(
            e.hops < (1 << HOP_BITS) || *e == AugDist::INF,
            "hop count exceeds the ordinal encoding width"
        );
        let hops = (e.hops as u128).min((1 << HOP_BITS) - 1);
        ((e.dist as u128) << HOP_BITS) | hops
    }
}

/// The witness-tracking min-plus semiring over [`WitnessedDist`] (§3.1,
/// "Recovering paths").
///
/// Addition is `min` by `(dist, via)`; multiplication adds distances and
/// keeps the **rightmost recorded** witness (the right operand's, falling
/// back to the left's). Products `P = S ⋆ T` with the right operand's
/// entries tagged by their row index therefore record, per output entry, a
/// contraction index achieving the minimum (see
/// `cc_distance::product_with_witnesses`).
///
/// Distances extend under the one length rule of [`Dist::checked_add`]: a
/// length that does not fit a word is no path. Infinite results are
/// canonicalised to [`WitnessedDist::INF`] so the additive identity stays
/// unique and annihilation holds exactly.
///
/// **Algebraic status.** Projected to distances this is exactly
/// [`MinPlus`] (a semiring homomorphism), and identities, associativity
/// and additive laws hold on the full pairs. Distributivity can differ in
/// the *witness component only* when tagged and untagged values of equal
/// distance mix — a case the distributed pipeline never produces (right
/// operands are uniformly tagged) and which would still yield a valid
/// witness; the distance component is always lawful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WitnessedMinPlus;

impl Semiring for WitnessedMinPlus {
    type Elem = WitnessedDist;

    fn zero() -> WitnessedDist {
        WitnessedDist::INF
    }
    fn one() -> WitnessedDist {
        WitnessedDist::ZERO
    }
    fn add(a: &WitnessedDist, b: &WitnessedDist) -> WitnessedDist {
        *a.min(b)
    }
    fn mul(a: &WitnessedDist, b: &WitnessedDist) -> WitnessedDist {
        match extend(a.dist, b.dist) {
            Some(dist) => {
                WitnessedDist { dist, via: if b.via != u32::MAX { b.via } else { a.via } }
            }
            None => WitnessedDist::INF,
        }
    }
}

/// The boolean semiring `({0,1}, ∨, ∧, 0, 1)`.
///
/// The paper uses it to define the cancellation-free density `ρ̂_{ST}` of a
/// product (§2.1): the density of `Ŝ·T̂` over booleans, ignoring zeros that
/// arise from cancellation. (Min-plus has no cancellation, so for the
/// distance tools `ρ̂_{ST} = ρ_P`.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Boolean;

impl Semiring for Boolean {
    type Elem = bool;

    fn zero() -> bool {
        false
    }
    fn one() -> bool {
        true
    }
    fn add(a: &bool, b: &bool) -> bool {
        *a || *b
    }
    fn mul(a: &bool, b: &bool) -> bool {
        *a && *b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_semiring_axioms<S: Semiring>(samples: &[S::Elem]) {
        for a in samples {
            // Identities.
            assert_eq!(S::add(a, &S::zero()), *a);
            assert_eq!(S::add(&S::zero(), a), *a);
            assert_eq!(S::mul(a, &S::one()), *a);
            assert_eq!(S::mul(&S::one(), a), *a);
            // Annihilation.
            assert!(S::is_zero(&S::mul(a, &S::zero())));
            assert!(S::is_zero(&S::mul(&S::zero(), a)));
            for b in samples {
                // Commutative addition.
                assert_eq!(S::add(a, b), S::add(b, a));
                for c in samples {
                    // Associativity.
                    assert_eq!(S::add(&S::add(a, b), c), S::add(a, &S::add(b, c)));
                    assert_eq!(S::mul(&S::mul(a, b), c), S::mul(a, &S::mul(b, c)));
                    // Distributivity.
                    assert_eq!(S::mul(a, &S::add(b, c)), S::add(&S::mul(a, b), &S::mul(a, c)));
                    assert_eq!(S::mul(&S::add(a, b), c), S::add(&S::mul(a, c), &S::mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn minplus_axioms() {
        let samples = [Dist::ZERO, Dist::fin(1), Dist::fin(7), Dist::fin(100), Dist::INF];
        check_semiring_axioms::<MinPlus>(&samples);
    }

    #[test]
    fn aug_minplus_axioms() {
        let samples = [
            AugDist::ZERO,
            AugDist::fin(1, 1),
            AugDist::fin(7, 2),
            AugDist::fin(7, 5),
            AugDist::INF,
        ];
        check_semiring_axioms::<AugMinPlus>(&samples);
    }

    #[test]
    fn boolean_axioms() {
        check_semiring_axioms::<Boolean>(&[false, true]);
    }

    #[test]
    fn witnessed_minplus_identity_and_annihilation() {
        let samples = [
            WitnessedDist::ZERO,
            WitnessedDist::direct(4),
            WitnessedDist::via(4, 2),
            WitnessedDist::via(9, 0),
            WitnessedDist::INF,
        ];
        for a in samples {
            assert_eq!(WitnessedMinPlus::mul(&a, &WitnessedMinPlus::one()), a);
            assert_eq!(WitnessedMinPlus::mul(&WitnessedMinPlus::one(), &a), a);
            assert!(WitnessedMinPlus::is_zero(&WitnessedMinPlus::mul(
                &a,
                &WitnessedMinPlus::zero()
            )));
            assert!(WitnessedMinPlus::is_zero(&WitnessedMinPlus::mul(
                &WitnessedMinPlus::zero(),
                &a
            )));
            assert_eq!(WitnessedMinPlus::add(&a, &WitnessedMinPlus::zero()), a);
            for b in samples {
                // Addition is min; the distance projection is MinPlus.
                assert_eq!(WitnessedMinPlus::add(&a, &b), a.min(b));
                assert_eq!(
                    WitnessedMinPlus::mul(&a, &b).to_dist(),
                    MinPlus::mul(&a.to_dist(), &b.to_dist())
                );
                for c in samples {
                    // Associativity (including witness component).
                    assert_eq!(
                        WitnessedMinPlus::mul(&WitnessedMinPlus::mul(&a, &b), &c),
                        WitnessedMinPlus::mul(&a, &WitnessedMinPlus::mul(&b, &c))
                    );
                }
            }
        }
    }

    #[test]
    fn witnessed_mul_prefers_right_witness() {
        let a = WitnessedDist::via(3, 7);
        let b = WitnessedDist::via(4, 2);
        assert_eq!(WitnessedMinPlus::mul(&a, &b), WitnessedDist::via(7, 2));
        let b = WitnessedDist::direct(4);
        assert_eq!(WitnessedMinPlus::mul(&a, &b), WitnessedDist::via(7, 7));
    }

    /// The two laws of [`OrderedSemiring`] through `Ord`: addition is
    /// `min`, and zero is the maximum.
    fn check_min_under_ord<S: OrderedSemiring>(samples: &[S::Elem]) {
        for a in samples {
            for b in samples {
                assert_eq!(S::add(a, b), a.clone().min(b.clone()));
            }
            assert!(*a <= S::zero());
        }
    }

    /// [`OrderedSemiring::ordinal`] orders every pair of `samples` as `Ord`.
    fn check_ordinal_preserves_order<S: OrderedSemiring>(samples: &[S::Elem]) {
        for a in samples {
            for b in samples {
                assert_eq!(a.cmp(b), S::ordinal(a).cmp(&S::ordinal(b)), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn ordered_addition_is_min() {
        check_min_under_ord::<MinPlus>(&[Dist::ZERO, Dist::fin(3), Dist::fin(9), Dist::INF]);
    }

    #[test]
    fn aug_ordered_addition_is_min() {
        check_min_under_ord::<AugMinPlus>(&[
            AugDist::ZERO,
            AugDist::fin(3, 1),
            AugDist::fin(3, 2),
            AugDist::INF,
        ]);
    }

    #[test]
    fn ordinals_keep_the_order_at_the_edges() {
        let top = u64::MAX - 1;
        check_ordinal_preserves_order::<MinPlus>(&[
            Dist::ZERO,
            Dist::fin(1),
            Dist::fin(top),
            Dist::INF,
        ]);
        let max_hops = (1 << HOP_BITS) - 1;
        check_ordinal_preserves_order::<AugMinPlus>(&[
            AugDist::ZERO,
            AugDist::fin(0, max_hops),
            AugDist::fin(1, 0),
            AugDist::fin(top, 0),
            AugDist::fin(top, max_hops),
            AugDist::INF,
        ]);
    }
}
