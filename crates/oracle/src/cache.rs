//! A bounded, lock-free, set-associative result cache over a [`Backend`].

use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{fence, AtomicU64};

use cc_matrix::Dist;

use crate::oracle::check_pair;
use crate::{Backend, BackendDescriptor, OracleError};

/// Entries per set: a sequence word plus three `(key, value)` pairs is seven
/// words, the most that fit one 64-byte cache line.
const WAYS: usize = 3;

/// Key of an empty way: `lo = 1 > hi = 0`, which no canonical pair packs to.
const EMPTY: u64 = 1 << 32;

/// Snapshot of cache effectiveness counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that fell through to the backend.
    pub misses: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Maximum resident entries: the requested capacity rounded up to whole
    /// sets; `0` when the cache is disabled (capacity 0 = pass-through).
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of queries served from the cache (0 when nothing was asked).
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// One cache line: a sequence word guarding [`WAYS`] `[key, value]` slots,
/// newest first. Readers never write and writers never wait.
///
/// A seqlock. The writer makes `seq` odd with a CAS, issues a release fence,
/// rewrites the ways (relaxed) and publishes `seq + 2` with a release store.
/// The reader loads `seq` (acquire, pairing with that store), the ways
/// (relaxed), issues an acquire fence and reloads `seq`: had a way it saw
/// come from a write still in progress, the two fences would synchronize and
/// the reload would see the changed `seq`, so the read is thrown away: a
/// value is only ever returned with the key it was stored under. (A `key ⊕
/// value` tag cannot promise that; see the torn-read test.)
#[repr(align(64))]
struct Set {
    seq: AtomicU64,
    ways: [[AtomicU64; 2]; WAYS],
}

impl Set {
    fn new() -> Set {
        let ways = std::array::from_fn(|_| [AtomicU64::new(EMPTY), AtomicU64::new(0)]);
        Set { seq: AtomicU64::new(0), ways }
    }

    /// The value stored under `key`; `None` if there is none or a writer
    /// was active (a miss the caller answers from the backend).
    fn lookup(&self, key: u64) -> Option<u64> {
        let seq = self.seq.load(Acquire);
        let found =
            self.ways.iter().find(|[k, _]| k.load(Relaxed) == key).map(|[_, v]| v.load(Relaxed));
        fence(Acquire);
        found.filter(|_| seq & 1 == 0 && self.seq.load(Relaxed) == seq)
    }

    /// Shifts `(key, value)` in at way 0 (per-set FIFO) and returns the key
    /// that fell off the last way ([`EMPTY`] while the set is filling); `None`
    /// if another writer holds the set or `key` is already resident.
    fn insert(&self, key: u64, value: u64) -> Option<u64> {
        let seq = self.seq.load(Relaxed);
        // Acquire pairs with the previous writer's release of `seq`: its
        // ways are visible to the loads below.
        if seq & 1 == 1 || self.seq.compare_exchange(seq, seq + 1, Acquire, Relaxed).is_err() {
            return None;
        }
        fence(Release);
        let old = self.ways.each_ref().map(|[k, v]| [k.load(Relaxed), v.load(Relaxed)]);
        let fresh = old.iter().all(|&[k, _]| k != key);
        if fresh {
            let shifted = std::iter::once([key, value]).chain(old);
            for ([k, v], [new_k, new_v]) in self.ways.iter().zip(shifted) {
                k.store(new_k, Relaxed);
                v.store(new_v, Relaxed);
            }
        }
        self.seq.store(seq + 2, Release);
        fresh.then_some(old[WAYS - 1][0])
    }
}

/// What one call's misses did; added to the shared counters once, at its
/// end (its hits are the pairs it was asked less the misses).
#[derive(Default)]
struct Tally {
    misses: u64,
    filled: u64,
}

/// Packs the pair, smaller id first: the oracle is symmetric, so `(u, v)`
/// and `(v, u)` share one entry.
fn key(u: usize, v: usize) -> u64 {
    let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
    ((lo as u64) << 32) | hi as u64
}

fn unkey(key: u64) -> (usize, usize) {
    ((key >> 32) as usize, (key & 0xffff_ffff) as usize)
}

/// A [`Backend`] — a monolithic [`crate::DistanceOracle`] or a
/// [`crate::ShardRouter`] — fronted by a bounded cache of query results.
///
/// One flat table of cache-line-sized sets, allocated once. A hit reads one
/// line and writes nothing; a miss asks the backend and shifts the answer in
/// at the front of its set, dropping the set's oldest entry (FIFO per set,
/// not global LRU). Nothing blocks: an insert that finds another writer on
/// its set is skipped, and threads that miss on one key together each ask
/// the (immutable) backend and get the same answer.
///
/// # Example
///
/// ```
/// use cc_oracle::{CachingOracle, OracleBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = cc_graph::generators::gnp(32, 0.2, 1)?;
/// let oracle = OracleBuilder::new().build(&mut cc_clique::Clique::new(32), &g)?;
/// let cached = CachingOracle::new(oracle, 1024);
/// let first = cached.try_query(0, 31)?;
/// assert_eq!(cached.try_query(31, 0)?, first); // served from the cache
/// assert_eq!(cached.stats().hits, 1);
/// # Ok(())
/// # }
/// ```
pub struct CachingOracle {
    backend: Backend,
    sets: Box<[Set]>,
    hits: AtomicU64,
    misses: AtomicU64,
    len: AtomicU64,
}

impl CachingOracle {
    /// Wraps `backend` (either variant of [`Backend`], or a value that
    /// converts into one) with a cache holding at least `capacity` results
    /// (rounded up to whole sets). A capacity of `0` disables caching: every
    /// query passes straight through and counts as a miss, which keeps
    /// `/stats` accounting uniform for cacheless deployments.
    pub fn new(backend: impl Into<Backend>, capacity: usize) -> CachingOracle {
        let sets = (0..capacity.div_ceil(WAYS)).map(|_| Set::new()).collect();
        let [hits, misses, len] = [0; 3].map(AtomicU64::new);
        CachingOracle { backend: backend.into(), sets, hits, misses, len }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &Backend {
        &self.backend
    }

    /// Number of nodes the wrapped backend covers.
    pub fn n(&self) -> usize {
        self.backend.n()
    }

    /// The set `key` lives in — a Fibonacci (2⁶⁴/φ) multiply-shift hash,
    /// range-reduced by a second multiply; `None` only when capacity is 0.
    fn set(&self, key: u64) -> Option<&Set> {
        let hash = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.sets.get(((u128::from(hash) * self.sets.len() as u128) >> 64) as usize)
    }

    /// The lookup kernel; the caller has validated `u, v < n`. With no
    /// table (capacity 0) every pair is a miss that inserts nothing.
    fn answer(&self, u: usize, v: usize, tally: &mut Tally) -> Dist {
        let key = key(u, v);
        let set = self.set(key);
        if let Some(raw) = set.and_then(|s| s.lookup(key)) {
            return Dist::from_raw(raw);
        }
        let answer = self.backend.query_unchecked(u, v);
        tally.misses += 1;
        let evicted = set.and_then(|s| s.insert(key, answer.raw()));
        tally.filled += u64::from(evicted == Some(EMPTY));
        answer
    }

    /// Relaxed: statistics, publishing nothing. Zero adds are skipped — each
    /// would still be a locked read-modify-write.
    fn record(&self, asked: usize, tally: &Tally) {
        let hits = asked as u64 - tally.misses;
        let adds = [(&self.hits, hits), (&self.misses, tally.misses), (&self.len, tally.filled)];
        for (counter, add) in adds {
            if add > 0 {
                counter.fetch_add(add, Relaxed);
            }
        }
    }

    /// Cached query: the wrapped backend's answer, plus counters. A refused
    /// pair touches neither the table nor a counter.
    ///
    /// # Errors
    ///
    /// [`OracleError::QueryOutOfRange`] if `u` or `v` is out of range.
    pub fn try_query(&self, u: usize, v: usize) -> Result<Dist, OracleError> {
        // Validated before keying: an id past 2³² would alias a valid key.
        check_pair(self.backend.n(), u, v)?;
        let mut tally = Tally::default();
        let answer = self.answer(u, v, &mut tally);
        self.record(1, &tally);
        Ok(answer)
    }

    /// Cached batch query, answered serially on the calling thread; every
    /// pair is validated before anything is computed or counted.
    ///
    /// # Errors
    ///
    /// [`OracleError::QueryOutOfRange`] naming the first offending pair.
    pub fn try_query_batch(&self, pairs: &[(usize, usize)]) -> Result<Vec<Dist>, OracleError> {
        if self.sets.is_empty() {
            // Pass-through: the backend's own batch path validates.
            let answers = self.backend.try_query_batch(pairs)?;
            self.misses.fetch_add(pairs.len() as u64, Relaxed);
            return Ok(answers);
        }
        let n = self.backend.n();
        pairs.iter().try_for_each(|&(u, v)| check_pair(n, u, v))?;
        let mut tally = Tally::default();
        let answers = pairs.iter().map(|&(u, v)| self.answer(u, v, &mut tally)).collect();
        self.record(pairs.len(), &tally);
        Ok(answers)
    }

    /// Up to `limit` resident pairs, newest first: every set's front way,
    /// then every second way, and so on (ways are in insertion order; a hit
    /// does not reorder them). The donor side of a cache warm-up: a serving
    /// layer replays these into a fresh generation's cache after a reload.
    pub fn hottest_keys(&self, limit: usize) -> Vec<(usize, usize)> {
        (0..WAYS)
            .flat_map(|way| self.sets.iter().map(move |set| set.ways[way][0].load(Relaxed)))
            .filter(|&key| key != EMPTY)
            .take(limit)
            .map(unkey)
            .collect()
    }

    /// Computes and inserts `pairs` without touching the hit/miss counters
    /// (warm-up traffic is not client traffic), skipping out-of-range pairs
    /// (the new artifact may be smaller than the donor) and pairs already
    /// resident. Returns how many it computed — on a cache no one else is
    /// writing, the entries it added. Answers come from **this** cache's
    /// backend, so a warm-up never leaks a donor generation's answer.
    pub fn warm(&self, pairs: &[(usize, usize)]) -> usize {
        if self.sets.is_empty() {
            return 0;
        }
        let n = self.backend.n();
        let mut tally = Tally::default();
        for &(u, v) in pairs.iter().filter(|&&(u, v)| u < n && v < n) {
            self.answer(u, v, &mut tally);
        }
        self.len.fetch_add(tally.filled, Relaxed);
        tally.misses as usize
    }

    /// Current hit/miss/occupancy counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            len: self.len.load(Relaxed) as usize,
            capacity: self.sets.len() * WAYS,
        }
    }

    /// The backend's [`Backend::descriptor`], plus this cache's counters.
    pub fn descriptor(&self) -> BackendDescriptor {
        BackendDescriptor { cache: Some(self.stats()), ..self.backend.descriptor() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OracleBuilder, ShardedArtifact};
    use cc_clique::Clique;
    use cc_graph::generators;
    use std::collections::HashSet;

    fn cached(n: usize, capacity: usize) -> CachingOracle {
        let g = generators::gnp_weighted(n, 0.15, 20, 11).unwrap();
        let oracle = OracleBuilder::new().build(&mut Clique::new(n), &g).unwrap();
        CachingOracle::new(oracle, capacity)
    }

    fn counts(c: &CachingOracle) -> (u64, u64, usize) {
        (c.stats().hits, c.stats().misses, c.stats().len)
    }

    /// Asks every ordered pair once, holding each answer against the backend's.
    fn sweep(c: &CachingOracle) {
        for (u, v) in (0..c.n()).flat_map(|u| (0..c.n()).map(move |v| (u, v))) {
            assert_eq!(c.try_query(u, v).unwrap(), c.inner().try_query(u, v).unwrap(), "({u},{v})");
        }
    }

    /// Eight threads, released together, each draw `rounds` of `keys` and
    /// ask every drawn pair both ways (odd threads flipped first) against the
    /// backend's answers; returns the requests. Both ways are one key, so the
    /// second ask can hit the line the first just wrote, while the other
    /// threads rewrite it: every run reads across racing inserts.
    fn hammer(c: &CachingOracle, keys: &[(usize, usize)], rounds: usize) -> u64 {
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    for &(u, v) in keys.iter().cycle().skip(t * 7).step_by(13).take(rounds) {
                        let (u, v) = if t % 2 == 0 { (u, v) } else { (v, u) };
                        for (u, v) in [(u, v), (v, u)] {
                            let expected = c.inner().try_query(u, v).unwrap();
                            assert_eq!(c.try_query(u, v).unwrap(), expected, "({u},{v})");
                        }
                    }
                });
            }
        });
        2 * 8 * rounds as u64
    }

    #[test]
    fn cached_answers_match_uncached() {
        // Far more sets than the 528 canonical pairs: no set overflows its
        // ways, so the second sweep is served from the cache.
        let c = cached(32, 1 << 14);
        sweep(&c);
        assert_eq!(counts(&c), (1024 - 528, 528, 528));
        sweep(&c);
        assert_eq!(c.stats().misses, 528, "second pass must not miss");
    }

    #[test]
    fn symmetric_pairs_share_one_entry() {
        let c = cached(16, 64);
        c.try_query(3, 7).unwrap();
        c.try_query(7, 3).unwrap();
        assert_eq!(counts(&c), (1, 1, 1));
    }

    #[test]
    fn capacity_is_bounded_and_fifo_evicts() {
        for requested in [1, WAYS, WAYS + 1, 16, 64] {
            let c = cached(32, requested);
            sweep(&c);
            let stats = c.stats();
            assert_eq!(stats.capacity, requested.div_ceil(WAYS) * WAYS, "whole sets");
            assert!(stats.capacity >= requested && stats.len <= stats.capacity, "{stats:?}");
            assert_eq!(stats.len, c.hottest_keys(usize::MAX).len());
            // Everything evicted long ago: re-querying the first pair misses.
            c.try_query(0, 1).unwrap();
            assert_eq!(c.stats().misses, stats.misses + 1);
        }
        // Within one set the oldest entry goes first: the second (0, 1) is
        // a hit, and is not saved by it.
        let c = cached(32, WAYS);
        c.try_query_batch(&[(0, 1), (0, 2), (0, 3), (0, 1), (0, 4)]).unwrap();
        assert_eq!(c.hottest_keys(usize::MAX), [(0, 4), (0, 3), (0, 2)]);
    }

    #[test]
    fn zero_capacity_disables_caching_but_keeps_accounting() {
        let c = cached(16, 0);
        c.try_query(0, 1).unwrap();
        let pairs = [(0, 1), (2, 3), (1, 0)];
        assert_eq!(c.try_query_batch(&pairs).unwrap(), c.inner().try_query_batch(&pairs).unwrap());
        assert!(c.try_query_batch(&[(0, 1), (16, 0)]).is_err(), "the backend validates");
        assert_eq!(counts(&c), (0, 4, 0), "pass-through counts misses only");
        assert_eq!(c.stats().capacity, 0);
        assert!(c.hottest_keys(10).is_empty());
        assert_eq!(c.warm(&[(0, 1)]), 0);
    }

    #[test]
    fn hit_rate_reflects_traffic() {
        let c = cached(16, 512);
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.try_query_batch(&[(0, 1); 3]).unwrap();
        assert_eq!(counts(&c), (2, 1, 1));
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn counters_account_exactly_under_concurrent_hammer() {
        // No lock is held across a miss, so threads that miss on one key
        // together each count a miss. What stays exact: every request lands
        // in one counter, every key misses at least once, answers are right.
        let c = cached(32, 4096);
        let keys: Vec<(usize, usize)> = (0..48).map(|i| (i % 32, (i * 7 + 1) % 32)).collect();
        let unique: HashSet<u64> = keys.iter().map(|&(u, v)| key(u, v)).collect();
        let total = hammer(&c, &keys, 3_000);
        let (hits, misses, len) = counts(&c);
        assert_eq!(hits + misses, total, "every request must count exactly once");
        assert!(misses >= unique.len() as u64 && hits > total / 2, "{hits} hits, {misses} misses");
        assert!(len <= unique.len(), "a racing miss must not be stored twice: {len}");
    }

    #[test]
    fn torn_reads_never_pair_a_key_with_another_keys_value() {
        // One set, 31 keys (0, h): every insert rewrites the line every
        // reader is on. Keys are h and distances small, so for many (h₁, h₂)
        // the word h₁ ⊕ d₁ ⊕ d₂ is a third queried key h₃ with d₃ ≠ d₂ — a
        // `key ⊕ value` tag read across a racing insert would verify d₂ for
        // h₃. The seqlock discards such reads.
        let c = cached(32, 1);
        assert_eq!(c.stats().capacity, WAYS, "one set");
        let d = |h: usize| c.inner().try_query(0, h).unwrap().raw();
        let aliases = |h1: usize, h2: usize| {
            let h3 = h1 ^ (d(h1) ^ d(h2)) as usize;
            h1 != h2 && (1..32).contains(&h3) && h3 != h2 && d(h3) != d(h2)
        };
        assert!((1..32).any(|h1| (1..32).any(|h2| aliases(h1, h2))), "fixture has no alias");
        let keys: Vec<(usize, usize)> = (1..32).map(|h| (0, h)).collect();
        let total = hammer(&c, &keys, 20_000);
        let (hits, misses, len) = counts(&c);
        assert!(hits > 0 && hits + misses == total && len <= WAYS, "{hits} + {misses}, {len}");
    }

    #[test]
    fn try_query_rejects_out_of_range_and_poisons_nothing() {
        let c = cached(16, 64);
        let refused = c.try_query(0, 16);
        assert!(matches!(refused, Err(OracleError::QueryOutOfRange { u: 0, v: 16, n: 16 })));
        assert!(c.try_query_batch(&[(0, 1), (16, 0)]).is_err());
        assert_eq!(counts(&c), (0, 0, 0), "a rejection touches neither table nor counter");
        assert_eq!(c.try_query(0, 1).unwrap(), c.inner().try_query(0, 1).unwrap());
    }

    #[test]
    fn concurrent_queries_are_consistent() {
        // Four threads push one batch through a cache far smaller than its
        // working set: inserts and evictions race on every set.
        let c = cached(32, 128);
        let pairs: Vec<(usize, usize)> = (0..4096).map(|i| (i % 32, (i * 17 + 3) % 32)).collect();
        let expected = c.inner().try_query_batch(&pairs).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| assert_eq!(c.try_query_batch(&pairs).unwrap(), expected));
            }
        });
        let (hits, misses, len) = counts(&c);
        assert!(hits + misses == 4 * 4096 && len <= c.stats().capacity, "{:?}", c.stats());
    }

    #[test]
    fn cache_stacks_over_a_shard_router() {
        // Either backend variant: fronting a ShardRouter gives the router
        // tier the pair cache the monolith always had.
        let mono = cached(24, 0);
        let Backend::Mono(oracle) = mono.inner() else { unreachable!() };
        let router = ShardedArtifact::partition(oracle, 3).unwrap().into_router().unwrap();
        let c = CachingOracle::new(router, 512);
        sweep(&c);
        assert_eq!(c.try_query(5, 20).unwrap(), oracle.try_query(5, 20).unwrap());
        assert!(c.stats().hits > 0, "diagonal + symmetric revisits must hit");
    }

    #[test]
    fn hottest_keys_are_newest_first_and_warm_replays_them() {
        let c = cached(32, 2048);
        let pairs: Vec<(usize, usize)> = (0..40).map(|i| (i % 32, (i * 7 + 1) % 32)).collect();
        c.try_query_batch(&pairs).unwrap();
        // Every resident pair is offered, once, in canonical form.
        let keys = c.hottest_keys(1024);
        let offered: HashSet<u64> = keys.iter().map(|&(u, v)| key(u, v)).collect();
        assert_eq!(offered, pairs.iter().map(|&(u, v)| key(u, v)).collect());
        assert_eq!(keys.len(), offered.len());
        assert_eq!(c.hottest_keys(3).len(), 3, "a bounded ask returns exactly that many");

        // Replayed into a fresh cache over the same artifact, the warmed
        // pairs all hit, and warm-up itself counted neither hits nor misses.
        let fresh = CachingOracle::new(c.inner().clone(), 2048);
        assert_eq!(fresh.warm(&keys), keys.len());
        assert_eq!(counts(&fresh), (0, 0, keys.len()));
        fresh.try_query_batch(&keys).unwrap();
        assert_eq!(counts(&fresh), (keys.len() as u64, 0, keys.len()), "warmed keys must hit");
        // Warming again is a no-op; out-of-range donors are skipped.
        assert_eq!(fresh.warm(&keys), 0);
        assert_eq!(fresh.warm(&[(0, 99), (99, 0)]), 0);
    }
}
