//! A bounded, sharded LRU result cache over **any** [`QueryBackend`].

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use cc_matrix::Dist;

use crate::{DistanceOracle, OracleError, QueryBackend};

/// Number of independently locked shards. A power of two so the shard pick
/// is a mask; 16 keeps contention low for the thread counts `query_batch`
/// uses without bloating per-shard bookkeeping.
const SHARDS: usize = 16;

/// Snapshot of cache effectiveness counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that fell through to the backend.
    pub misses: u64,
    /// Entries currently resident (across all shards).
    pub len: usize,
    /// Maximum resident entries (across all shards); `0` when the cache is
    /// disabled (capacity 0 = pass-through).
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of queries served from the cache (0 when nothing was asked).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Multiply-shift hasher for the cache's packed pair keys. The keys are
/// already well-mixed 64-bit values ((lo << 32) | hi node ids), so the
/// default SipHash — ~25 ns per lookup, built to resist adversarial key
/// collisions a distance cache doesn't face — is pure overhead on the
/// query hot path. One Fibonacci multiply plus a fold gives uniform
/// bucket spread for a few nanoseconds.
#[derive(Default)]
struct PairKeyHasher(u64);

/// 2^64 / φ, the usual Fibonacci hashing multiplier.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for PairKeyHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by the u64-keyed map, but kept total).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FIB);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(FIB);
    }
}

type PairKeyMap = HashMap<u64, usize, BuildHasherDefault<PairKeyHasher>>;

/// One LRU shard: a map from packed pair key to a slot in an intrusive
/// doubly-linked list ordered by recency (index-based, no unsafe).
struct Shard {
    map: PairKeyMap,
    /// Slot storage: `(key, value, prev, next)`; `usize::MAX` terminates.
    slots: Vec<(u64, u64, usize, usize)>,
    head: usize,
    tail: usize,
    capacity: usize,
}

const NIL: usize = usize::MAX;

/// Smallest batch worth the shard-grouping pass in the serial batch path;
/// below this, grouping bookkeeping costs more than per-pair locking.
const GROUPED_BATCH_MIN: usize = 64;

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            map: PairKeyMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default()),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (_, _, prev, next) = self.slots[slot];
        match prev {
            NIL => self.head = next,
            p => self.slots[p].3 = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].2 = prev,
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].2 = NIL;
        self.slots[slot].3 = self.head;
        match self.head {
            NIL => self.tail = slot,
            h => self.slots[h].2 = slot,
        }
        self.head = slot;
    }

    fn get(&mut self, key: u64) -> Option<u64> {
        let slot = *self.map.get(&key)?;
        self.unlink(slot);
        self.push_front(slot);
        Some(self.slots[slot].1)
    }

    fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    fn insert(&mut self, key: u64, value: u64) {
        if let Some(&slot) = self.map.get(&key) {
            self.slots[slot].1 = value;
            self.unlink(slot);
            self.push_front(slot);
            return;
        }
        let slot = if self.slots.len() < self.capacity {
            self.slots.push((key, value, NIL, NIL));
            self.slots.len() - 1
        } else {
            // Evict the least-recently-used entry and reuse its slot.
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slots[victim].0);
            self.slots[victim].0 = key;
            self.slots[victim].1 = value;
            victim
        };
        self.map.insert(key, slot);
        self.push_front(slot);
    }

    /// Resident keys in most-recently-used-first order.
    fn keys_by_recency(&self) -> Vec<u64> {
        let mut keys = Vec::with_capacity(self.map.len());
        let mut at = self.head;
        while at != NIL {
            keys.push(self.slots[at].0);
            at = self.slots[at].3;
        }
        keys
    }
}

/// Any [`QueryBackend`] fronted by a bounded, sharded LRU cache of query
/// results — a monolithic [`DistanceOracle`] (the default type parameter),
/// a [`crate::ShardRouter`], or an erased `Box<dyn QueryBackend>`. Shards
/// are locked independently, so concurrent querying threads rarely contend;
/// hit/miss counters are lock-free atomics.
///
/// `CachingOracle` is itself a [`QueryBackend`], so caches stack anywhere a
/// backend is expected. A capacity of `0` disables caching: every query
/// passes straight through (and counts as a miss), which keeps `/stats`
/// accounting uniform for cacheless deployments.
///
/// # Example
///
/// ```
/// use cc_clique::Clique;
/// use cc_graph::generators;
/// use cc_oracle::{CachingOracle, OracleBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::gnp(32, 0.2, 1)?;
/// let mut clique = Clique::new(32);
/// let oracle = OracleBuilder::new().build(&mut clique, &g)?;
/// let cached = CachingOracle::new(oracle, 1024);
/// let first = cached.try_query(0, 31)?;
/// let second = cached.try_query(0, 31)?; // served from cache
/// assert_eq!(first, second);
/// assert_eq!(cached.stats().hits, 1);
/// # Ok(())
/// # }
/// ```
pub struct CachingOracle<B: QueryBackend = DistanceOracle> {
    backend: B,
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<B: QueryBackend> CachingOracle<B> {
    /// Wraps `backend` with a cache holding at most `capacity` results
    /// (rounded up to at least one entry per shard). A capacity of `0`
    /// disables caching entirely: queries pass through and count as misses.
    pub fn new(backend: B, capacity: usize) -> CachingOracle<B> {
        let shards = if capacity == 0 {
            Vec::new()
        } else {
            let per_shard = capacity.div_ceil(SHARDS).max(1);
            (0..SHARDS).map(|_| Mutex::new(Shard::new(per_shard))).collect()
        };
        CachingOracle { backend, shards, hits: AtomicU64::new(0), misses: AtomicU64::new(0) }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.backend
    }

    /// Consumes the wrapper, returning the backend.
    pub fn into_inner(self) -> B {
        self.backend
    }

    /// Number of nodes the wrapped backend covers.
    pub fn n(&self) -> usize {
        self.backend.n()
    }

    pub(crate) fn key(u: usize, v: usize) -> u64 {
        // The oracle is symmetric, so canonicalize the pair: doubles the
        // effective capacity for undirected traffic.
        let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
        ((lo as u64) << 32) | hi as u64
    }

    fn unkey(key: u64) -> (usize, usize) {
        ((key >> 32) as usize, (key & 0xffff_ffff) as usize)
    }

    fn check_pair(&self, u: usize, v: usize) -> Result<(), OracleError> {
        crate::oracle::check_pair(self.backend.n(), u, v)
    }

    /// Cached query for serving layers: identical answers to the wrapped
    /// backend, plus counters. Out-of-range endpoints become
    /// [`OracleError::QueryOutOfRange`], never a panic (and never a
    /// poisoned shard lock — validation happens before locking).
    ///
    /// # Errors
    ///
    /// [`OracleError::QueryOutOfRange`] if `u` or `v` is out of range.
    pub fn try_query(&self, u: usize, v: usize) -> Result<Dist, OracleError> {
        self.check_pair(u, v)?;
        Ok(self.query_validated(u, v))
    }

    /// The cache lookup kernel; callers must have validated `u, v < n`.
    ///
    /// The shard lock is taken exactly once and held across the miss
    /// compute + insert: a second thread asking for the same key blocks
    /// briefly and then *hits*, so a result is never computed (or a miss
    /// counted) twice for one resident key. The backend query is cheap
    /// (nanoseconds for the monolith, two half-queries for a router), far
    /// cheaper than a second lock round-trip.
    fn query_validated(&self, u: usize, v: usize) -> Dist {
        if self.shards.is_empty() {
            // Capacity 0: pass-through, accounted as a miss. The caller
            // validated the pair, so the backend cannot refuse it; INF is
            // the unreachable fallback, never a panic on a serving path.
            self.misses.fetch_add(1, Ordering::Relaxed);
            return self.backend.try_query(u, v).unwrap_or(Dist::INF);
        }
        let key = Self::key(u, v);
        let mut shard = self.shards[(key % SHARDS as u64) as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(raw) = shard.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Dist::from_raw(raw);
        }
        let answer = self.backend.try_query(u, v).unwrap_or(Dist::INF);
        self.misses.fetch_add(1, Ordering::Relaxed);
        shard.insert(key, answer.raw());
        answer
    }

    /// Cached batch query (shard-parallel like the uncached batch):
    /// validates every pair before computing anything.
    ///
    /// # Errors
    ///
    /// [`OracleError::QueryOutOfRange`] naming the first offending pair.
    pub fn try_query_batch(&self, pairs: &[(usize, usize)]) -> Result<Vec<Dist>, OracleError> {
        for &(u, v) in pairs {
            self.check_pair(u, v)?;
        }
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        if threads <= 1 || pairs.len() < 1024 {
            if pairs.len() >= GROUPED_BATCH_MIN && !self.shards.is_empty() {
                return Ok(self.query_batch_grouped(pairs));
            }
            return Ok(pairs.iter().map(|&(u, v)| self.query_validated(u, v)).collect());
        }
        let shard = pairs.len().div_ceil(threads);
        let mut out = vec![Dist::INF; pairs.len()];
        std::thread::scope(|scope| {
            for (chunk_in, chunk_out) in pairs.chunks(shard).zip(out.chunks_mut(shard)) {
                scope.spawn(move || {
                    for (slot, &(u, v)) in chunk_out.iter_mut().zip(chunk_in) {
                        *slot = self.query_validated(u, v);
                    }
                });
            }
        });
        Ok(out)
    }

    /// Serial batch kernel amortizing the per-pair overhead: pairs are
    /// grouped by shard, each shard is locked exactly once for its whole
    /// group, and the hit/miss counters are bumped once per batch. Answers
    /// and per-shard LRU recency order are identical to the pair-at-a-time
    /// path — within one shard, pairs are still processed in batch order.
    /// Callers must have validated every pair and `!self.shards.is_empty()`.
    fn query_batch_grouped(&self, pairs: &[(usize, usize)]) -> Vec<Dist> {
        // Counting sort by shard: one pass to size the groups, one to
        // scatter indices — no per-shard Vec growth on the hot path.
        let keys: Vec<u64> = pairs.iter().map(|&(u, v)| Self::key(u, v)).collect();
        let mut counts = [0usize; SHARDS];
        for key in &keys {
            counts[(key % SHARDS as u64) as usize] += 1;
        }
        let mut starts = [0usize; SHARDS];
        let mut at = 0;
        for (start, count) in starts.iter_mut().zip(counts) {
            *start = at;
            at += count;
        }
        let mut order = vec![0usize; pairs.len()];
        let mut fill = starts;
        for (i, key) in keys.iter().enumerate() {
            let which = (key % SHARDS as u64) as usize;
            order[fill[which]] = i;
            fill[which] += 1;
        }
        let mut out = vec![Dist::INF; pairs.len()];
        let (mut hits, mut misses) = (0u64, 0u64);
        for (which, (start, count)) in starts.iter().zip(counts).enumerate() {
            if count == 0 {
                continue;
            }
            let mut shard = self.shards[which].lock().unwrap_or_else(PoisonError::into_inner);
            for &i in &order[*start..*start + count] {
                if let Some(raw) = shard.get(keys[i]) {
                    hits += 1;
                    out[i] = Dist::from_raw(raw);
                    continue;
                }
                let (u, v) = pairs[i];
                // Pairs were validated before any shard work; INF is the
                // unreachable fallback, never a panic under a shard lock.
                let answer = self.backend.try_query(u, v).unwrap_or(Dist::INF);
                misses += 1;
                shard.insert(keys[i], answer.raw());
                out[i] = answer;
            }
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        out
    }

    /// The resident pairs in approximate hottest-first order, up to
    /// `limit`: each shard's keys most-recently-used first, interleaved
    /// round-robin across shards (exact global recency would need a global
    /// lock order the sharded design deliberately avoids).
    ///
    /// This is the donor side of a cache warm-up: a serving layer replays
    /// these pairs into a fresh generation's cache after a hot reload, so
    /// the hit rate doesn't fall off a cliff at every swap.
    pub fn hottest_keys(&self, limit: usize) -> Vec<(usize, usize)> {
        if limit == 0 || self.shards.is_empty() {
            return Vec::new();
        }
        let per_shard: Vec<Vec<u64>> = self
            .shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).keys_by_recency())
            .collect();
        let mut keys = Vec::with_capacity(limit.min(per_shard.iter().map(Vec::len).sum()));
        let deepest = per_shard.iter().map(Vec::len).max().unwrap_or(0);
        'fill: for depth in 0..deepest {
            for shard in &per_shard {
                if let Some(&key) = shard.get(depth) {
                    keys.push(Self::unkey(key));
                    if keys.len() == limit {
                        break 'fill;
                    }
                }
            }
        }
        keys
    }

    /// Computes and inserts `pairs` without touching the hit/miss counters
    /// (warm-up traffic is not client traffic), skipping out-of-range pairs
    /// (the new artifact may be smaller than the donor) and pairs already
    /// resident. Returns how many entries were actually warmed.
    ///
    /// Answers are computed by **this** cache's backend, so a warm-up can
    /// never leak a stale answer from the donor generation.
    pub fn warm(&self, pairs: &[(usize, usize)]) -> usize {
        if self.shards.is_empty() {
            return 0;
        }
        let mut warmed = 0;
        for &(u, v) in pairs {
            if self.check_pair(u, v).is_err() {
                continue;
            }
            let key = Self::key(u, v);
            let mut shard = self.shards[(key % SHARDS as u64) as usize]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if shard.contains(key) {
                continue;
            }
            // check_pair passed, so the backend cannot refuse; skipping on
            // the unreachable error beats panicking under a shard lock.
            let Ok(answer) = self.backend.try_query(u, v) else {
                continue;
            };
            shard.insert(key, answer.raw());
            warmed += 1;
        }
        warmed
    }

    /// Current hit/miss/occupancy counters.
    pub fn stats(&self) -> CacheStats {
        // One acquisition per shard: len and capacity are read under the
        // same guard, so the pair is consistent per shard.
        let (mut len, mut capacity) = (0usize, 0usize);
        for s in &self.shards {
            let shard = s.lock().unwrap_or_else(PoisonError::into_inner);
            len += shard.map.len();
            capacity += shard.capacity;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            len,
            capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OracleBuilder, ShardedArtifact};
    use cc_clique::Clique;
    use cc_graph::generators;

    fn build(n: usize) -> DistanceOracle {
        let g = generators::gnp_weighted(n, 0.15, 20, 11).unwrap();
        let mut clique = Clique::new(n);
        OracleBuilder::new().build(&mut clique, &g).unwrap()
    }

    fn cached(n: usize, capacity: usize) -> CachingOracle {
        CachingOracle::new(build(n), capacity)
    }

    #[test]
    fn cached_answers_match_uncached() {
        // Capacity comfortably above the 528 unique canonical pairs, so the
        // second pass is served entirely from the cache.
        let c = cached(32, 2048);
        for u in 0..32 {
            for v in 0..32 {
                assert_eq!(
                    c.try_query(u, v).unwrap(),
                    c.inner().try_query(u, v).unwrap(),
                    "({u},{v})"
                );
            }
        }
        let before = c.stats();
        for u in 0..32 {
            for v in 0..u {
                assert_eq!(c.try_query(u, v).unwrap(), c.inner().try_query(u, v).unwrap());
            }
        }
        let after = c.stats();
        assert_eq!(after.misses, before.misses, "second pass must not miss");
        assert!(after.hits > before.hits);
    }

    #[test]
    fn symmetric_pairs_share_one_entry() {
        let c = cached(16, 64);
        c.try_query(3, 7).unwrap();
        c.try_query(7, 3).unwrap();
        let stats = c.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn capacity_is_bounded_and_lru_evicts() {
        let c = cached(32, SHARDS); // one entry per shard
        for u in 0..32 {
            for v in 0..32 {
                c.try_query(u, v).unwrap();
            }
        }
        let stats = c.stats();
        assert!(stats.len <= stats.capacity);
        assert_eq!(stats.capacity, SHARDS);
        // Everything evicted long ago: re-querying the first pair misses.
        let misses_before = c.stats().misses;
        c.try_query(0, 1).unwrap();
        assert_eq!(c.stats().misses, misses_before + 1);
    }

    #[test]
    fn zero_capacity_disables_caching_but_keeps_accounting() {
        let c = cached(16, 0);
        for _ in 0..3 {
            assert_eq!(c.try_query(0, 1).unwrap(), c.inner().try_query(0, 1).unwrap());
        }
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses), (0, 3), "pass-through counts misses only");
        assert_eq!((stats.len, stats.capacity), (0, 0));
        assert!(c.hottest_keys(10).is_empty());
        assert_eq!(c.warm(&[(0, 1)]), 0);
    }

    #[test]
    fn hit_rate_reflects_traffic() {
        let c = cached(16, 512);
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.try_query(0, 1).unwrap();
        c.try_query(0, 1).unwrap();
        c.try_query(0, 1).unwrap();
        let stats = c.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn counters_account_exactly_under_concurrent_hammer() {
        // Regression for the check-then-insert race: the old code released
        // the shard lock between lookup and insert, so two threads missing
        // on the same key both computed and both counted a miss. With the
        // lock held across the miss path, a key that fits in the cache
        // misses exactly once, ever — and every request lands in exactly
        // one counter.
        let c = std::sync::Arc::new(cached(32, 4096));
        // 48 distinct canonical pairs, hammered by 8 threads; capacity is
        // far above the working set so nothing is ever evicted.
        let keys: Vec<(usize, usize)> = (0..48).map(|i| (i % 32, (i * 7 + 1) % 32)).collect();
        let unique: std::collections::HashSet<u64> =
            keys.iter().map(|&(u, v)| CachingOracle::<DistanceOracle>::key(u, v)).collect();
        let threads = 8;
        let per_thread = 3_000;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let c = std::sync::Arc::clone(&c);
                let keys = &keys;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let (u, v) = keys[(i * 13 + t * 7) % keys.len()];
                        // Half the threads query the flipped pair to also
                        // exercise canonicalization under contention.
                        if t % 2 == 0 {
                            c.try_query(u, v).unwrap();
                        } else {
                            c.try_query(v, u).unwrap();
                        }
                    }
                });
            }
        });
        let stats = c.stats();
        let total = (threads * per_thread) as u64;
        assert_eq!(stats.hits + stats.misses, total, "every request must count exactly once");
        assert_eq!(
            stats.misses,
            unique.len() as u64,
            "each resident key must be computed exactly once (no double-compute race)"
        );
    }

    #[test]
    fn try_query_rejects_out_of_range_and_poisons_nothing() {
        let c = cached(16, 64);
        assert!(matches!(
            c.try_query(0, 16),
            Err(crate::OracleError::QueryOutOfRange { u: 0, v: 16, n: 16 })
        ));
        assert!(c.try_query_batch(&[(0, 1), (16, 0)]).is_err());
        // The rejection touched no shard lock and no counter...
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
        // ...and the cache still serves normally afterwards.
        assert_eq!(c.try_query(0, 1).unwrap(), c.inner().try_query(0, 1).unwrap());
    }

    #[test]
    fn concurrent_queries_are_consistent() {
        let c = cached(32, 128);
        let pairs: Vec<(usize, usize)> = (0..4096).map(|i| (i % 32, (i * 17 + 3) % 32)).collect();
        let batch = c.try_query_batch(&pairs).unwrap();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            assert_eq!(batch[i], c.inner().try_query(u, v).unwrap());
        }
        let stats = c.stats();
        assert_eq!(stats.hits + stats.misses, 4096);
    }

    #[test]
    fn cache_stacks_over_a_shard_router() {
        // The cache is generic over the backend: fronting a ShardRouter
        // gives the router tier the pair cache the monolith always had.
        let oracle = build(24);
        let router = ShardedArtifact::partition(&oracle, 3).unwrap().into_router().unwrap();
        let c = CachingOracle::new(router, 512);
        for u in 0..24 {
            for v in 0..24 {
                assert_eq!(
                    c.try_query(u, v).unwrap(),
                    oracle.try_query(u, v).unwrap(),
                    "({u},{v})"
                );
            }
        }
        let stats = c.stats();
        assert!(stats.hits > 0, "diagonal + symmetric revisits must hit");
        assert_eq!(c.inner().n(), 24);
    }

    #[test]
    fn hottest_keys_are_mru_first_and_warm_replays_them() {
        let c = cached(32, 2048);
        // Touch 40 pairs, then re-touch a "hot" subset so it is most recent.
        for i in 0..40 {
            c.try_query(i % 32, (i * 7 + 1) % 32).unwrap();
        }
        let hot: Vec<(usize, usize)> = (0..6).map(|i| (i, (i * 7 + 1) % 32)).collect();
        for &(u, v) in &hot {
            c.try_query(u, v).unwrap();
        }
        let keys = c.hottest_keys(1024);
        assert!(!keys.is_empty());
        // Every hot pair must appear among the hottest keys (canonicalized).
        for &(u, v) in &hot {
            let canon = CachingOracle::<DistanceOracle>::key(u, v);
            assert!(
                keys.iter().any(|&(a, b)| CachingOracle::<DistanceOracle>::key(a, b) == canon),
                "hot pair ({u},{v}) missing from hottest_keys"
            );
        }
        // A bounded ask returns exactly that many.
        assert_eq!(c.hottest_keys(3).len(), 3);

        // Replay into a fresh cache over the same artifact: the warmed
        // pairs hit without ever missing, and warm-up itself counted
        // neither hits nor misses.
        let fresh = CachingOracle::new(c.inner().clone(), 2048);
        let warmed = fresh.warm(&keys);
        assert_eq!(warmed, keys.len());
        assert_eq!(fresh.stats().hits, 0);
        assert_eq!(fresh.stats().misses, 0);
        assert_eq!(fresh.stats().len, keys.len());
        for &(u, v) in &keys {
            fresh.try_query(u, v).unwrap();
        }
        let stats = fresh.stats();
        assert_eq!(stats.misses, 0, "warmed keys must all hit");
        assert_eq!(stats.hits, keys.len() as u64);

        // Warming again is a no-op; out-of-range donors are skipped.
        assert_eq!(fresh.warm(&keys), 0);
        assert_eq!(fresh.warm(&[(0, 99), (99, 0)]), 0);
    }
}
