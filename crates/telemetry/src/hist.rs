//! A fixed-bucket, log₂-scaled histogram over `u64` samples (nanoseconds
//! on the serving path), backed by an atomic bucket array.
//!
//! Bucket layout: bucket `0` covers `[0, 1]`, bucket `i` (for
//! `1 ≤ i ≤ 62`) covers `(2^(i-1), 2^i]`, and the last bucket is the
//! overflow (`+Inf`) bucket covering everything above `2^62` — including
//! the `u64::MAX` infinity sentinel the oracle uses for disconnected
//! pairs. Exact powers of two land in the bucket whose upper bound they
//! equal, so bucket boundaries are exact and a quantile read off a bucket
//! upper bound is within 2× of the true sample value.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets, including the final overflow (`+Inf`) bucket.
pub const BUCKETS: usize = 64;

/// Index of the overflow bucket.
const OVERFLOW: usize = BUCKETS - 1;

/// Upper (inclusive) bound of bucket `i`; the overflow bucket reports
/// `u64::MAX` (rendered as `+Inf` in the Prometheus exposition).
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    if i >= OVERFLOW {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// Bucket index for a sample: the smallest `i` with `value ≤ 2^i`, or the
/// overflow bucket for values above `2^62`.
fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        return 0;
    }
    // Bits needed to represent value-1: v in (2^(b-1), 2^b] maps to b.
    let b = (64 - (value - 1).leading_zeros()) as usize;
    b.min(OVERFLOW)
}

/// A lock-free latency histogram with log₂-scaled buckets.
///
/// `record` touches two atomics (bucket + sum) with relaxed ordering and
/// never blocks; snapshots are taken bucket-by-bucket and are therefore
/// only *approximately* consistent under concurrent writes, which is fine
/// for monitoring. A histogram created disabled (see
/// [`Registry::new_disabled`](crate::Registry::new_disabled)) makes
/// `record` a no-op so instrumentation overhead can be measured.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    /// Saturating sum of recorded values (an ∞ sentinel pins it to MAX).
    sum: AtomicU64,
    enabled: bool,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty, enabled histogram.
    pub fn new() -> Histogram {
        Self::with_enabled(true)
    }

    pub(crate) fn with_enabled(enabled: bool) -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            enabled,
        }
    }

    /// Records one sample (typically a duration in nanoseconds).
    pub fn record(&self, value: u64) {
        if !self.enabled {
            return;
        }
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        // Saturating add: one ∞ sentinel must not wrap the running sum.
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(value);
            match self.sum.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Captures the current bucket counts and sum.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistSnapshot { buckets, sum: self.sum.load(Ordering::Relaxed) }
    }
}

/// A point-in-time copy of a [`Histogram`], suitable for merging across
/// shards and rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts (not cumulative).
    pub buckets: [u64; BUCKETS],
    /// Saturating sum of recorded values.
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot { buckets: [0; BUCKETS], sum: 0 }
    }
}

impl HistSnapshot {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper (inclusive) bound of bucket `i`; `u64::MAX` for the overflow
    /// bucket.
    pub fn upper_bound(i: usize) -> u64 {
        bucket_upper_bound(i)
    }

    /// Adds another snapshot's buckets and sum into this one
    /// (saturating), e.g. to aggregate per-shard histograms.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.sum = self.sum.saturating_add(other.sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn bucket_boundaries_are_exact_at_powers_of_two() {
        // 2^i must land in the bucket whose upper bound is 2^i, and
        // 2^i + 1 in the next one.
        for i in 1..62usize {
            let v = 1u64 << i;
            assert_eq!(bucket_index(v), i, "2^{i} belongs to bucket {i}");
            assert_eq!(bucket_index(v + 1), i + 1, "2^{i}+1 spills to bucket {}", i + 1);
            assert!(v <= bucket_upper_bound(i));
            assert!(v > bucket_upper_bound(i - 1) || i == 1);
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
    }

    #[test]
    fn infinity_sentinels_land_in_the_overflow_bucket() {
        let h = Histogram::new();
        h.record(u64::MAX); // the oracle's ∞ sentinel
        h.record(u64::MAX - 1); // MAX_FINITE_DISTANCE
        h.record((1u64 << 62) + 1);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[BUCKETS - 1], 3);
        assert_eq!(snap.count(), 3);
        // The sum saturates instead of wrapping.
        assert_eq!(snap.sum, u64::MAX);
    }

    #[test]
    fn merge_adds_buckets_and_sums() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(3);
        b.record(3);
        b.record(1 << 20);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 3);
        assert_eq!(m.sum, 6 + (1 << 20));
        assert_eq!(m.buckets[bucket_index(3)], 2);
    }

    #[test]
    fn disabled_histogram_records_nothing() {
        let h = Histogram::with_enabled(false);
        h.record(42);
        assert_eq!(h.snapshot().count(), 0);
    }

    proptest! {
        #[test]
        fn every_sample_lands_in_exactly_one_bucket(
            values in prop::collection::vec(0u64..u64::MAX, 0..200),
        ) {
            let h = Histogram::new();
            for v in &values {
                h.record(*v);
            }
            prop_assert_eq!(h.snapshot().count(), values.len() as u64);
        }
    }

    #[test]
    fn concurrent_hammer_loses_no_updates() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 100_000;
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    // A spread of magnitudes, including the ∞ sentinel.
                    let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1);
                    for i in 0..PER_THREAD {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let v = if i % 1000 == 0 { u64::MAX } else { x >> (x % 50) };
                        h.record(v);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(
            snap.count(),
            THREADS as u64 * PER_THREAD,
            "sum(buckets) must equal the number of records: no lost updates"
        );
    }
}
