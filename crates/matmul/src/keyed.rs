use std::cmp::Ordering;

use cc_clique::Payload;

/// A value and the key a Lenzen sort orders it by — Lemma 10 sorts entries
/// by `(descending weight, row, column)`, Lemma 13 intermediate values by
/// `(position, source, sequence)`. The value does not participate in the
/// order, and its `O(log n)`-bit key rides in the value's own `O(1)` words.
#[derive(Debug, Clone)]
pub(crate) struct Keyed<E> {
    pub key: (u64, u32, u32),
    pub val: E,
}

impl<E> PartialEq for Keyed<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Keyed<E> {}
impl<E> PartialOrd for Keyed<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Keyed<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}
impl<E: Payload> Payload for Keyed<E> {
    fn words(&self) -> usize {
        self.val.words()
    }
}
