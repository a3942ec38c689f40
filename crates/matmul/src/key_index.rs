//! A reusable counting-sort (CSR) index of a list by a small integer key.
//!
//! Both hot local kernels group a node's entries by one coordinate — the
//! sparse-accumulator product by row and by contraction index, the Lemma 15
//! cutoff search by row slot — and both want "the entries with key `k`, in
//! list order" as a slice, without a map lookup per entry.

use std::ops::Range;

/// For each key in `lo..=hi` (the keys' span), the positions of the list
/// entries with that key, in list order.
#[derive(Debug, Default)]
pub(crate) struct KeyIndex {
    lo: u32,
    /// `start[k - lo]..start[k - lo + 1]` delimits key `k` in `order`.
    start: Vec<u32>,
    order: Vec<u32>,
}

impl KeyIndex {
    /// Re-indexes positions `0..len` by `key_of`, reusing the buffers of the
    /// previous use. Returns `false`, leaving no keys, if `len == 0`.
    pub(crate) fn rebuild(&mut self, len: usize, key_of: impl Fn(usize) -> u32) -> bool {
        self.start.clear();
        self.order.clear();
        if len == 0 {
            return false;
        }
        let (lo, hi) =
            (0..len).map(&key_of).fold((u32::MAX, 0), |(lo, hi), k| (lo.min(k), hi.max(k)));
        self.lo = lo;
        // Counts go two slots up, so that after the prefix sums slot k + 1 is
        // the cursor of key k and ends up as the start of key k + 1.
        self.start.resize((hi - lo) as usize + 3, 0);
        for idx in 0..len {
            self.start[(key_of(idx) - lo) as usize + 2] += 1;
        }
        for k in 1..self.start.len() {
            self.start[k] += self.start[k - 1];
        }
        self.order.resize(len, 0);
        for idx in 0..len {
            let cursor = &mut self.start[(key_of(idx) - lo) as usize + 1];
            self.order[*cursor as usize] = idx as u32;
            *cursor += 1;
        }
        self.start.pop();
        true
    }

    /// The keys of the span, ascending (present or not).
    pub(crate) fn keys(&self) -> Range<u32> {
        self.lo..self.lo + self.start.len().saturating_sub(1) as u32
    }

    /// All positions, grouped by ascending key, list order within a key.
    pub(crate) fn order(&self) -> &[u32] {
        &self.order
    }

    /// Where key `k`'s group sits in [`KeyIndex::order`] (empty outside the
    /// span).
    pub(crate) fn range(&self, k: u32) -> Range<usize> {
        match k.checked_sub(self.lo) {
            Some(off) if (off as usize) + 1 < self.start.len() => {
                self.start[off as usize] as usize..self.start[off as usize + 1] as usize
            }
            _ => 0..0,
        }
    }

    /// Positions of the entries with key `k`, in list order.
    pub(crate) fn get(&self, k: u32) -> &[u32] {
        &self.order[self.range(k)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_positions_by_key_in_list_order() {
        let keys = [7u32, 5, 9, 5, 7, 7, 12];
        let mut index = KeyIndex::default();
        assert!(index.rebuild(keys.len(), |i| keys[i]));
        assert_eq!(index.keys(), 5..13);
        assert_eq!(index.get(5), &[1, 3]);
        assert_eq!(index.get(7), &[0, 4, 5]);
        assert_eq!(index.get(9), &[2]);
        assert_eq!(index.get(12), &[6]);
        for absent in [0, 4, 6, 8, 10, 11, 13, u32::MAX] {
            assert!(index.get(absent).is_empty(), "key {absent}");
        }
        assert_eq!(index.order(), &[1, 3, 0, 4, 5, 2, 6]);
        assert_eq!(index.range(7), 2..5);
    }

    #[test]
    fn rebuild_forgets_the_previous_list() {
        let mut index = KeyIndex::default();
        assert!(index.rebuild(3, |i| [4u32, 4, 2][i]));
        assert_eq!(index.get(4), &[0, 1]);
        assert!(index.rebuild(1, |_| 9));
        assert_eq!(index.keys(), 9..10);
        assert_eq!(index.get(9), &[0]);
        assert!(index.get(4).is_empty());
        assert!(!index.rebuild(0, |_| unreachable!()));
        assert!(index.keys().is_empty());
        assert!(index.get(9).is_empty() && index.order().is_empty());
    }
}
