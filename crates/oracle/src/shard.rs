//! Shard a built oracle by contiguous node range and answer queries with
//! the monolith's own kernel over the two slices owning the endpoints, so a
//! [`ShardRouter`] is bit-identical to the monolith it was partitioned from.
//!
//! The paper's artifact is "build once in the clique, query locally
//! forever"; at production scale one process cannot hold every node's ball.
//! The natural partition follows the construction itself:
//!
//! * **balls and nearest-landmark rows are per-node state** — shard them by
//!   contiguous node range ([`ShardPlan`]);
//! * **the landmark column matrix is global state the landmark regime needs
//!   for *both* endpoints** — every shard holds it, so a single shard can
//!   finish the landmark path for any pair it owns an endpoint of. Each
//!   shard *file* carries its own copy; in one process the shards of a set
//!   hold one allocation behind an `Arc` ([`ShardedArtifact::partition`]
//!   shares the oracle's, and a loader calls [`OracleShard::share_columns`]
//!   per decoded file). Landmark columns are `n × s` with `s ≈ √(n·k)`.
//!
//! A routed query `(u, v)` runs the monolith's kernel with `u`'s ball read
//! from the shard owning `u` and `v`'s from the shard owning `v` (the same
//! shard when they are co-located), lazily: a ball hit ends it. The same
//! answer also decomposes into two [`HalfQuery`] lookups, one per owning
//! shard, and a pure [`combine`] step — the seam an out-of-process router
//! tier would use; tests pin `combine` equal to the router for every pair.
//! A manifest-driven `cc-serve` in sharded mode is the in-process router
//! over HTTP.
//!
//! A shard is the same [`ArtifactSlice`] a whole artifact is — flat
//! sections, balls in CSR form — restricted to its rows, so cutting one is a
//! handful of row-section copies. Per-shard snapshots (magic `CCSH`, the fixed
//! header extended with shard index/count and a set id) are in
//! [`crate::serde`]:
//! [`crate::serde::to_shard_bytes`] / [`crate::serde::from_shard_bytes`].

use std::ops::Deref;
use std::sync::Arc;

use cc_matrix::Dist;

use crate::error::{corrupt, invalid, set_mismatch};
use crate::oracle::{answer, check_pair, nearer_landmark, ArtifactSlice, MAX_NODES};
use crate::{DistanceOracle, OracleError};

/// A deterministic partition of `0..n` into `count` contiguous, balanced
/// node ranges. The plan is a pure function of `(n, count)`, so every
/// participant — partitioner, shard loader, router — recomputes the same
/// ranges instead of trusting a serialized copy.
///
/// The first `n % count` shards own one extra node, so range sizes differ
/// by at most one.
///
/// [`ShardPlan::owner`] divides by a range width on every routed query, so
/// the plan precomputes `M = ⌈2⁶⁴/d⌉` for both widths `d` and multiplies
/// instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    n: usize,
    count: usize,
    /// The first `extra` shards own `base + 1` nodes, the rest `base`;
    /// together the wide ones own `0..wide`.
    base: usize,
    extra: usize,
    wide: usize,
    /// `v / (base + 1)` and `v / base` for `v < n`.
    by_wide: Reciprocal,
    by_base: Reciprocal,
}

/// Division by a fixed `d` as one multiply and one shift: with
/// `M = ⌈2⁶⁴/d⌉`, `⌊v/d⌋ = ⌊v·M / 2⁶⁴⌋` for every `v < 2³²` when `d ≤ 2³²`
/// (Lemire, Kaser and Kurz, arXiv 1902.01961, Theorem 1 with `N = 32`,
/// `F = 64`). `M` is a `u128` because `d = 1` makes it `2⁶⁴`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reciprocal(u128);

impl Reciprocal {
    /// The reciprocal of `d ≥ 1`.
    fn of(d: usize) -> Reciprocal {
        Reciprocal((1u128 << 64).div_ceil(d as u128))
    }

    /// `⌊v/d⌋`, exact for `v < 2³²` and `d ≤ 2³²`.
    #[inline]
    fn divide(self, v: usize) -> usize {
        ((v as u128 * self.0) >> 64) as usize
    }
}

impl ShardPlan {
    /// Plans `count` shards over `n` nodes.
    ///
    /// # Errors
    ///
    /// [`OracleError::InvalidParameter`] when `n == 0`, `count == 0`,
    /// `count > n` (an empty shard would own no nodes and serve nothing), or
    /// `n > 2³²` (node ids are `u32`).
    pub fn new(n: usize, count: usize) -> Result<ShardPlan, OracleError> {
        if n == 0 {
            return Err(invalid("shard plan over an empty node set (n = 0)"));
        }
        if count == 0 {
            return Err(invalid("shard count must be at least 1"));
        }
        if count > n {
            return Err(invalid(format!("shard count {count} exceeds node count {n}")));
        }
        if n as u64 > MAX_NODES {
            return Err(invalid(format!("n = {n} nodes exceeds the u32 id space ({MAX_NODES})")));
        }
        Ok(ShardPlan::shaped(n, count))
    }

    /// The one place a plan is built. The shape must be valid (`1 ≤ count ≤
    /// n ≤ 2³²`): [`ShardPlan::new`] checks it, and a shard's own `(n,
    /// count)` passed the same checks when it was cut or decoded.
    fn shaped(n: usize, count: usize) -> ShardPlan {
        let (base, extra) = (n / count, n % count);
        ShardPlan {
            n,
            count,
            base,
            extra,
            wide: extra * (base + 1),
            by_wide: Reciprocal::of(base + 1),
            by_base: Reciprocal::of(base),
        }
    }

    /// Number of nodes the plan covers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of shards.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The contiguous node range shard `index` owns. `index` must be in
    /// `0..count`: callers check it (a snapshot's slot when its header is
    /// parsed), and debug builds assert it.
    pub fn range(&self, index: usize) -> std::ops::Range<usize> {
        debug_assert!(index < self.count, "shard index {index} outside 0..{}", self.count);
        let start = index * self.base + index.min(self.extra);
        let len = self.base + usize::from(index < self.extra);
        start..start + len
    }

    /// The shard owning node `v`, without a division. `v` must be in
    /// `0..n`: routers check it at their edge, and debug builds assert it.
    #[inline]
    pub fn owner(&self, v: usize) -> usize {
        debug_assert!(v < self.n, "node {v} outside 0..{}", self.n);
        if v < self.wide {
            self.by_wide.divide(v)
        } else {
            self.extra + self.by_base.divide(v - self.wide)
        }
    }
}

/// One endpoint's contribution to a distance query: computable entirely on
/// the shard owning that endpoint, combinable by [`combine`] without any
/// further artifact access. The in-process router does not build these (it
/// stops at the first ball hit); they are the wire shape of a router that
/// cannot read both slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HalfQuery {
    /// Exact distance if the *far* endpoint lies in the near endpoint's
    /// ball.
    pub ball: Option<u64>,
    /// The landmark-regime candidate `d(near, p(near)) + d̃(p(near), far)`,
    /// already clamped to [`crate::MAX_FINITE_DISTANCE`]; `None` when the far
    /// endpoint is unreachable from the near endpoint's nearest landmark.
    pub via_landmark: Option<u64>,
}

/// Combines the two half-results for a pair `(u, v)` with `u != v` into
/// the answer [`DistanceOracle::try_query`] and [`ShardRouter::try_query`]
/// give: `u`'s ball first, then `v`'s (both are exact, so the order only
/// matters for symmetry of the code path, not the answer), then the smaller
/// landmark candidate; [`Dist::INF`] when neither endpoint reaches the
/// other through a ball or a landmark.
pub fn combine(u_half: HalfQuery, v_half: HalfQuery) -> Dist {
    // Ball distances are finite by construction: an artifact slice refuses
    // an ∞ one.
    if let Some(d) = u_half.ball {
        return Dist::from_raw(d);
    }
    if let Some(d) = v_half.ball {
        return Dist::from_raw(d);
    }
    nearer_landmark(u_half.via_landmark, v_half.via_landmark)
}

/// Which slice of which set a shard is: the three things a shard carries
/// that a whole artifact does not. Also the 16 shard-field bytes of a
/// per-shard snapshot header ([`crate::serde::SnapshotHeader::shard`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSlot {
    /// The shard's index within its set.
    pub index: u32,
    /// Total shards in the set.
    pub count: u32,
    /// Identity of the parent artifact: its monolithic payload checksum
    /// ([`crate::serde::payload_checksum`]), shared by every shard of one
    /// set.
    pub set_id: u64,
}

/// One shard of a partitioned oracle: the [`ArtifactSlice`] holding the
/// balls and nearest-landmark rows of its contiguous node range plus the
/// landmark list and full `n × s` column matrix (so
/// [`OracleShard::half_query`] never needs another shard; the matrix may be
/// one allocation shared with the rest of the set), tagged with the
/// [`ShardSlot`] it fills. Derefs to the slice for the parent build's
/// parameters, [`ArtifactSlice::owned`] and
/// [`ArtifactSlice::artifact_bytes`].
#[derive(Debug, Clone, PartialEq)]
pub struct OracleShard {
    /// Rows `plan().range(index)` of the parent build.
    pub(crate) slice: ArtifactSlice,
    pub(crate) slot: ShardSlot,
}

impl Deref for OracleShard {
    type Target = ArtifactSlice;

    fn deref(&self) -> &ArtifactSlice {
        &self.slice
    }
}

impl OracleShard {
    /// This shard's index within its set.
    pub fn index(&self) -> usize {
        self.slot.index as usize
    }

    /// Number of shards in the set this shard belongs to.
    pub fn count(&self) -> usize {
        self.slot.count as usize
    }

    /// Identity of the parent artifact (its payload checksum); every shard
    /// of one set carries the same value.
    pub fn set_id(&self) -> u64 {
        self.slot.set_id
    }

    /// The partition this shard belongs to.
    pub fn plan(&self) -> ShardPlan {
        ShardPlan::shaped(self.n(), self.count())
    }

    /// Adopts the column allocation of the first peer whose column matrix
    /// equals this shard's cell for cell, dropping this shard's own copy;
    /// keeps its own when no peer's does. Equality is by value, never
    /// inferred from the set id: a forged file, or a checksum collision
    /// between two builds, must not borrow another build's columns. So
    /// adopting never changes an answer.
    ///
    /// A loader calls this right after decoding each file of a set, so the
    /// copy it frees is what the next decode allocates into.
    pub fn share_columns(&mut self, peers: &[Arc<OracleShard>]) {
        let mine = &self.slice.sections().columns;
        // `Arc`'s `==` is pointer-first, so an adopted peer costs no scan.
        let shared =
            peers.iter().map(|peer| &peer.sections().columns).find(|&theirs| theirs == mine);
        if let Some(theirs) = shared.cloned() {
            self.slice.adopt_columns(theirs);
        }
    }

    /// The half-result for the pair `(near, far)` seen from `near`'s side.
    /// Every lookup touches only this shard's data: `near`'s ball (is `far`
    /// inside?), `near`'s nearest-landmark row, and the column
    /// of `far` — the two row primitives of the query kernel, evaluated
    /// eagerly for one side.
    ///
    /// `near` must be owned by this shard and `far` in `0..n`: routers
    /// validate first (see [`ShardRouter::try_query`]), and debug builds
    /// assert it.
    pub fn half_query(&self, near: usize, far: usize) -> HalfQuery {
        let owned = self.owned();
        debug_assert!(
            owned.contains(&near),
            "node {near} is not owned by shard {} ({owned:?})",
            self.slot.index
        );
        debug_assert!(far < self.n(), "node {far} outside 0..{}", self.n());
        HalfQuery {
            ball: self.ball_distance(near, far),
            via_landmark: self.via_landmark(near, far),
        }
    }
}

/// A monolithic oracle partitioned into per-shard slices, ready to be
/// snapshotted per shard ([`crate::serde::to_shard_bytes`]) or routed
/// in-process ([`ShardedArtifact::into_router`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedArtifact {
    shards: Vec<OracleShard>,
}

impl ShardedArtifact {
    /// Partitions `oracle` into `count` shards along a [`ShardPlan`].
    ///
    /// The per-node state (balls, nearest-landmark rows) is split by node
    /// range; the landmark list is copied into every shard, and every shard
    /// holds the oracle's own column allocation; every shard carries the
    /// parent's payload checksum as its `set_id`.
    ///
    /// # Errors
    ///
    /// [`OracleError::InvalidParameter`] for an impossible plan (see
    /// [`ShardPlan::new`]).
    pub fn partition(
        oracle: &DistanceOracle,
        count: usize,
    ) -> Result<ShardedArtifact, OracleError> {
        let plan = ShardPlan::new(oracle.n(), count)?;
        let set_id = crate::serde::payload_checksum(oracle);
        let shards = (0..count)
            .map(|i| {
                let slot = ShardSlot { index: i as u32, count: count as u32, set_id };
                oracle.restrict(plan.range(i)).map(|slice| OracleShard { slice, slot })
            })
            .collect::<Result<Vec<OracleShard>, OracleError>>()?;
        Ok(ShardedArtifact { shards })
    }

    /// The partition underlying this artifact.
    pub fn plan(&self) -> ShardPlan {
        self.shards[0].plan()
    }

    /// The per-shard slices, in index order.
    pub fn shards(&self) -> &[OracleShard] {
        &self.shards
    }

    /// Consumes the artifact, returning the slices in index order (e.g. to
    /// snapshot each to its own file).
    pub fn into_shards(self) -> Vec<OracleShard> {
        self.shards
    }

    /// Wraps the slices in an in-process [`ShardRouter`].
    ///
    /// # Errors
    ///
    /// As [`ShardRouter::assemble`] (cannot actually fail for an artifact
    /// produced by [`ShardedArtifact::partition`]).
    pub fn into_router(self) -> Result<ShardRouter, OracleError> {
        ShardRouter::assemble(self.shards)
    }
}

/// A shard set the strict gate refused: why, and the slot it blames — the
/// first slot whose shard disagrees with slot 0's, or slot 0 itself when
/// the set has the wrong size — so a loader can name the file sitting there.
#[derive(Debug)]
pub struct SetRejection {
    /// The blamed slot.
    pub slot: usize,
    /// Why the set was refused.
    pub error: OracleError,
}

impl From<SetRejection> for OracleError {
    fn from(rejection: SetRejection) -> OracleError {
        rejection.error
    }
}

/// The one set check, blaming the first slot that fails it. The shape is
/// what every router needs, strict or rolling: slot `i` holds the shard
/// declaring index `i`, every shard declares the same count and `n`, and
/// every shard's owned range matches the recomputed [`ShardPlan`]. A
/// `strict` set must also agree on `k`, `ε`, set id and landmarks. Returns
/// the plan.
fn check_set(shards: &[Arc<OracleShard>], strict: bool) -> Result<ShardPlan, SetRejection> {
    let at = |slot| move |error| SetRejection { slot, error };
    let first = shards.first().ok_or_else(|| at(0)(set_mismatch("empty shard set")))?;
    if shards.len() != first.count() {
        return Err(at(0)(set_mismatch(format!(
            "shard 0 declares a {}-shard set but {} shards were provided",
            first.count(),
            shards.len()
        ))));
    }
    let plan = first.plan();
    for (i, shard) in shards.iter().enumerate() {
        check_shape(i, shard, first, plan).map_err(at(i))?;
    }
    if strict {
        for (i, shard) in shards.iter().enumerate() {
            check_identity(i, shard, first).map_err(at(i))?;
        }
    }
    Ok(plan)
}

/// Slot `i`'s part of the shape check, against slot 0's shard `first`.
fn check_shape(
    i: usize,
    shard: &OracleShard,
    first: &OracleShard,
    plan: ShardPlan,
) -> Result<(), OracleError> {
    if shard.index() != i {
        return Err(OracleError::ShardIndexMismatch {
            expected: i as u32,
            found: shard.slot.index,
        });
    }
    if shard.count() != first.count() {
        return Err(field_mismatch(i, "shard count", shard.count(), first.count()));
    }
    if shard.n() != first.n() {
        return Err(set_mismatch(format!(
            "shard {i}: n = {} but the set has n = {} (a sharded artifact cannot change n \
             shard-by-shard)",
            shard.n(),
            first.n()
        )));
    }
    let want = plan.range(i);
    if shard.owned() != want {
        return Err(corrupt(format!(
            "shard {i} owns {:?} but the plan assigns {want:?}",
            shard.owned()
        )));
    }
    Ok(())
}

/// Slot `i`'s part of the strict check: the build it was cut from.
fn check_identity(i: usize, shard: &OracleShard, first: &OracleShard) -> Result<(), OracleError> {
    if shard.k() != first.k() {
        return Err(field_mismatch(i, "k", shard.k(), first.k()));
    }
    if shard.epsilon().to_bits() != first.epsilon().to_bits() {
        return Err(field_mismatch(i, "epsilon", shard.epsilon(), first.epsilon()));
    }
    if shard.set_id() != first.set_id() {
        return Err(field_mismatch(
            i,
            "set id",
            format_args!("{:016x}", shard.set_id()),
            format_args!("{:016x}", first.set_id()),
        ));
    }
    if shard.landmarks() != first.landmarks() {
        return Err(set_mismatch(format!(
            "shard {i}: landmark set differs from the set's ({} vs {} landmarks)",
            shard.landmarks().len(),
            first.landmarks().len()
        )));
    }
    Ok(())
}

fn field_mismatch(
    i: usize,
    what: &str,
    got: impl std::fmt::Display,
    want: impl std::fmt::Display,
) -> OracleError {
    set_mismatch(format!("shard {i}: {what} = {got} but the set has {what} = {want}"))
}

/// Routes distance queries over a complete, validated shard set with the
/// monolithic [`DistanceOracle::try_query`]'s kernel, reading each
/// endpoint's rows from the shard that owns it — the equivalence the
/// `tests/shard_equivalence.rs` suite pins down bit-for-bit.
///
/// # Example
///
/// ```
/// use cc_clique::Clique;
/// use cc_graph::generators;
/// use cc_oracle::{OracleBuilder, ShardedArtifact};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::gnp_weighted(24, 0.2, 30, 7)?;
/// let mut clique = Clique::new(24);
/// let oracle = OracleBuilder::new().build(&mut clique, &g)?;
///
/// let router = ShardedArtifact::partition(&oracle, 3)?.into_router()?;
/// for u in 0..24 {
///     for v in 0..24 {
///         assert_eq!(router.try_query(u, v)?, oracle.try_query(u, v)?);
///     }
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRouter {
    plan: ShardPlan,
    /// `Arc` so a serving layer can roll one slice without deep-copying the
    /// others.
    shards: Vec<Arc<OracleShard>>,
}

impl ShardRouter {
    /// Builds a router from the full shard set, validating it first: slot
    /// `i` holds the shard declaring index `i`, every shard declares the
    /// same count/`n`/`k`/`ε`/landmarks/set id, and every shard's owned
    /// range matches the recomputed [`ShardPlan`].
    ///
    /// This is the startup gate for any router tier: a shard file from a
    /// different artifact generation (or the right file in the wrong slot)
    /// must fail **here**, not by serving subtly wrong distances.
    ///
    /// # Errors
    ///
    /// * [`OracleError::ShardIndexMismatch`] — shard `i`'s slot holds a file
    ///   declaring a different index.
    /// * [`OracleError::ShardSetMismatch`] — wrong number of shards, or any
    ///   disagreement on `count`/`n`/`k`/`ε`/landmarks/set id.
    /// * [`OracleError::CorruptSnapshot`] — a shard's owned range does not
    ///   match the plan (possible only for hand-built shards; the snapshot
    ///   reader already enforces this).
    pub fn assemble(shards: Vec<OracleShard>) -> Result<ShardRouter, OracleError> {
        Ok(ShardRouter::assemble_shared(shards.into_iter().map(Arc::new).collect())?)
    }

    /// [`ShardRouter::assemble`] over already-shared slices: no copy, same
    /// strict validation, and a rejection names the slot it blames.
    ///
    /// # Errors
    ///
    /// Everything [`ShardRouter::assemble`] rejects, as a [`SetRejection`].
    pub fn assemble_shared(shards: Vec<Arc<OracleShard>>) -> Result<ShardRouter, SetRejection> {
        let plan = check_set(&shards, true)?;
        Ok(ShardRouter { plan, shards })
    }

    /// Assembles a possibly **mixed-generation** set — the rolling-rollout
    /// state, where some slices were already swapped to a new artifact
    /// build and others still serve the old one.
    ///
    /// Shape is non-negotiable and checked exactly like the strict path:
    /// every slice must declare its slot, the shared shard count and `n`,
    /// and own the range the recomputed [`ShardPlan`] assigns. What is
    /// *not* required is agreement on set id, `k`, `ε`, or the landmark
    /// set: each endpoint's half of a query is read from one slice, so a
    /// mixed set stays sound pair-by-pair while
    /// [`ShardRouter::set_uniform`] reports the roll's progress.
    ///
    /// # Errors
    ///
    /// * [`OracleError::ShardIndexMismatch`] — a slice in the wrong slot.
    /// * [`OracleError::ShardSetMismatch`] — wrong number of slices, or a
    ///   disagreement on shard count or `n`.
    /// * [`OracleError::CorruptSnapshot`] — a slice's owned range does not
    ///   match the plan.
    pub fn assemble_rolling(shards: Vec<Arc<OracleShard>>) -> Result<ShardRouter, OracleError> {
        let plan = check_set(&shards, false)?;
        Ok(ShardRouter { plan, shards })
    }

    /// The partition this router routes over.
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// Number of nodes the routed artifact covers.
    pub fn n(&self) -> usize {
        self.plan.n()
    }

    /// The per-shard slices, in index order.
    pub fn shards(&self) -> &[Arc<OracleShard>] {
        &self.shards
    }

    /// True when every slice carries the same set id — i.e. no rolling
    /// rollout is in flight.
    pub fn set_uniform(&self) -> bool {
        self.shards.windows(2).all(|w| w[0].set_id() == w[1].set_id())
    }

    /// Distance estimate for `(u, v)`: the monolithic query kernel over the
    /// shards owning `u` and `v`.
    ///
    /// # Errors
    ///
    /// [`OracleError::QueryOutOfRange`] if `u` or `v` is not in `0..n`.
    pub fn try_query(&self, u: usize, v: usize) -> Result<Dist, OracleError> {
        check_pair(self.plan.n(), u, v)?;
        Ok(self.query_unchecked(u, v))
    }

    /// The routed kernel; callers must have validated `u, v < n`.
    pub(crate) fn query_unchecked(&self, u: usize, v: usize) -> Dist {
        answer(&self.shards[self.plan.owner(u)], &self.shards[self.plan.owner(v)], u, v)
    }

    /// Answers a batch of queries in request order.
    ///
    /// # Errors
    ///
    /// [`OracleError::QueryOutOfRange`] naming the first offending pair;
    /// like the monolithic batch, either the whole batch is answered or
    /// nothing is computed.
    pub fn try_query_batch(&self, pairs: &[(usize, usize)]) -> Result<Vec<Dist>, OracleError> {
        for &(u, v) in pairs {
            check_pair(self.plan.n(), u, v)?;
        }
        Ok(pairs.iter().map(|&(u, v)| self.query_unchecked(u, v)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OracleBuilder, MAX_FINITE_DISTANCE};
    use cc_clique::Clique;
    use cc_graph::generators;

    fn build(n: usize, seed: u64) -> DistanceOracle {
        let g = generators::gnp_weighted(n, 0.15, 30, seed).unwrap();
        let mut clique = Clique::new(n);
        OracleBuilder::new().seed(seed).build(&mut clique, &g).unwrap()
    }

    #[test]
    fn plan_ranges_are_contiguous_balanced_and_invertible() {
        for n in [1usize, 2, 3, 7, 16, 31, 64, 100] {
            for count in 1..=n.min(9) {
                let plan = ShardPlan::new(n, count).unwrap();
                let mut next = 0usize;
                for i in 0..count {
                    let range = plan.range(i);
                    assert_eq!(range.start, next, "ranges must tile 0..n in order");
                    let len = range.len();
                    assert!(
                        (n / count..=n.div_ceil(count)).contains(&len),
                        "n={n} count={count} shard {i}: unbalanced range {range:?}"
                    );
                    for v in range.clone() {
                        assert_eq!(plan.owner(v), i, "owner({v}) for n={n} count={count}");
                    }
                    next = range.end;
                }
                assert_eq!(next, n, "ranges must cover every node");
            }
        }
    }

    #[test]
    fn plan_rejects_degenerate_shapes() {
        assert!(ShardPlan::new(0, 1).is_err());
        assert!(ShardPlan::new(8, 0).is_err());
        assert!(ShardPlan::new(8, 9).is_err());
        assert!(ShardPlan::new(8, 8).is_ok());
    }

    #[test]
    fn plan_refuses_more_nodes_than_u32_ids_can_name() {
        match ShardPlan::new((1 << 32) + 1, 1) {
            Err(OracleError::InvalidParameter { what }) => {
                assert!(what.contains("u32 id space"), "must name the bound: {what}");
            }
            other => panic!("n = 2^32 + 1 must be refused, got {other:?}"),
        }
        assert!(ShardPlan::new(1 << 32, 1).is_ok());
    }

    /// The multiply-shift owner against plain division at the largest `n`
    /// a plan accepts, where the reciprocals are least exact: every range
    /// boundary ±1 and `n − 1`. At `count = 2³²` every node is a boundary,
    /// so that plan is checked on its first and last 2¹⁶ ranges.
    #[test]
    fn owner_divides_exactly_at_two_to_the_32_nodes() {
        let n = 1usize << 32;
        let reference = |count: usize, v: usize| {
            let (base, extra) = (n / count, n % count);
            let wide = extra * (base + 1);
            if v < wide {
                v / (base + 1)
            } else {
                extra + (v - wide) / base
            }
        };
        for count in [1usize, 2, 3, 7, 1000, 1 << 32] {
            let plan = ShardPlan::new(n, count).unwrap();
            let edge = 1 << 16;
            let checked = (0..count.min(edge)).chain(count.saturating_sub(edge).max(edge)..count);
            for i in checked {
                let start = plan.range(i).start;
                for v in [start.saturating_sub(1), start, start + 1, n - 1] {
                    if v < n {
                        assert_eq!(
                            plan.owner(v),
                            reference(count, v),
                            "owner({v}) at count {count}"
                        );
                    }
                }
            }
            assert_eq!(plan.owner(n - 1), count - 1, "count {count}");
        }
    }

    /// Every pair through the router, against the monolith and against
    /// the out-of-process seam, `combine` of one half-query per owner.
    fn assert_router_agrees(oracle: &DistanceOracle, counts: &[usize]) {
        let n = oracle.n();
        for &count in counts {
            let router = ShardedArtifact::partition(oracle, count).unwrap().into_router().unwrap();
            let (plan, shards) = (router.plan(), router.shards());
            for u in 0..n {
                for v in 0..n {
                    let routed = router.try_query(u, v).unwrap();
                    assert_eq!(routed, oracle.try_query(u, v).unwrap(), "({u},{v}) x{count}");
                    let halves = combine(
                        shards[plan.owner(u)].half_query(u, v),
                        shards[plan.owner(v)].half_query(v, u),
                    );
                    let seam = if u == v { Dist::ZERO } else { halves };
                    assert_eq!(routed, seam, "({u},{v}) x{count}: combine disagrees");
                }
            }
        }
    }

    #[test]
    fn router_is_bit_identical_to_the_monolith() {
        assert_router_agrees(&build(33, 5), &[1, 2, 3, 7]);
    }

    #[test]
    fn router_reports_infinity_exactly_where_the_monolith_does() {
        // Two components; every cross-component pair is disconnected.
        let g =
            cc_graph::Graph::from_edges(9, [(0, 1, 2), (1, 2, 3), (4, 5, 1), (5, 6, 9)]).unwrap();
        let mut clique = Clique::new(9);
        let oracle = OracleBuilder::new().build(&mut clique, &g).unwrap();
        assert_router_agrees(&oracle, &[1, 2, 3, 7]);
    }

    /// The 3-node near-`u64::MAX` path artifact from the monolithic clamp
    /// regression tests, partitioned: the clamped landmark sum must come
    /// out of the router bit-identically.
    #[test]
    fn near_max_clamped_sums_survive_sharding() {
        let w = u64::MAX - 3;
        let oracle = crate::oracle::near_max_path_oracle(w, w);
        for count in [1usize, 2, 3] {
            let router = ShardedArtifact::partition(&oracle, count).unwrap().into_router().unwrap();
            assert_eq!(router.try_query(0, 2).unwrap(), Dist::fin(MAX_FINITE_DISTANCE), "x{count}");
        }
        assert_router_agrees(&oracle, &[1, 2, 3]);
    }

    #[test]
    fn partition_shares_the_oracles_column_allocation() {
        let oracle = build(21, 4);
        let columns = &oracle.sections().columns;
        for shard in ShardedArtifact::partition(&oracle, 3).unwrap().shards() {
            assert!(Arc::ptr_eq(&shard.sections().columns, columns), "shard {}", shard.index());
        }
    }

    #[test]
    fn share_columns_adopts_only_an_equal_matrix() {
        let oracle = build(21, 4);
        let shards = ShardedArtifact::partition(&oracle, 3).unwrap().into_shards();
        let peers = vec![Arc::new(shards[0].clone())];
        let shared = |shard: &OracleShard| {
            Arc::ptr_eq(&shard.sections().columns, &peers[0].sections().columns)
        };
        // Equal cells in an allocation of its own, as a decoded file has.
        let mut copy = shards[1].clone();
        copy.slice.sections_mut().columns = Arc::new(oracle.sections().columns.to_vec());
        assert!(!shared(&copy));
        copy.share_columns(&peers);
        assert!(shared(&copy), "an equal matrix must be adopted");
        assert_eq!(copy, shards[1]);
        // Same set id, one cell changed: keeps its own.
        let mut forged = shards[1].clone();
        Arc::make_mut(&mut forged.slice.sections_mut().columns)[0] ^= 1;
        forged.share_columns(&peers);
        assert_eq!(forged.set_id(), peers[0].set_id());
        assert!(!shared(&forged), "a different matrix must not be adopted");
    }

    #[test]
    fn try_query_validates_like_the_monolith() {
        let oracle = build(16, 3);
        let router = ShardedArtifact::partition(&oracle, 2).unwrap().into_router().unwrap();
        assert!(matches!(
            router.try_query(0, 16),
            Err(OracleError::QueryOutOfRange { u: 0, v: 16, n: 16 })
        ));
        assert!(matches!(router.try_query(99, 0), Err(OracleError::QueryOutOfRange { .. })));
        let pairs: Vec<(usize, usize)> = (0..16).map(|i| (i, (i * 5 + 2) % 16)).collect();
        assert_eq!(
            router.try_query_batch(&pairs).unwrap(),
            oracle.try_query_batch(&pairs).unwrap()
        );
        let mut bad = pairs;
        bad.push((3, 16));
        assert!(router.try_query_batch(&bad).is_err());
    }

    #[test]
    fn assemble_rejects_wrong_slots_and_mixed_sets() {
        let oracle = build(20, 9);
        let shards = ShardedArtifact::partition(&oracle, 2).unwrap().into_shards();

        // Shard 1's file offered as shard 0: index mismatch, named.
        let swapped = vec![shards[1].clone(), shards[0].clone()];
        assert!(matches!(
            ShardRouter::assemble(swapped),
            Err(OracleError::ShardIndexMismatch { expected: 0, found: 1 })
        ));

        // An incomplete set.
        assert!(matches!(
            ShardRouter::assemble(vec![shards[0].clone()]),
            Err(OracleError::ShardSetMismatch { .. })
        ));

        // A shard from a different artifact generation (different set id).
        let other = build(20, 10);
        let other_shards = ShardedArtifact::partition(&other, 2).unwrap().into_shards();
        let mixed = vec![shards[0].clone(), other_shards[1].clone()];
        match ShardRouter::assemble(mixed) {
            Err(OracleError::ShardSetMismatch { what }) => {
                assert!(what.contains("set id"), "must name the field: {what}");
            }
            other => panic!("mixed set must be rejected, got {other:?}"),
        }

        // A shard claiming a different n.
        let bigger = build(24, 9);
        let bigger_shards = ShardedArtifact::partition(&bigger, 2).unwrap().into_shards();
        let mixed_n = vec![shards[0].clone(), bigger_shards[1].clone()];
        assert!(matches!(
            ShardRouter::assemble(mixed_n),
            Err(OracleError::ShardSetMismatch { .. })
        ));

        // The untouched set still assembles.
        assert!(ShardRouter::assemble(shards).is_ok());
    }

    #[test]
    fn rolling_assembly_accepts_mixed_sets_but_not_wrong_shapes() {
        let a = build(20, 9);
        let b = build(20, 10);
        let to_arcs = |oracle: &DistanceOracle| -> Vec<Arc<OracleShard>> {
            ShardedArtifact::partition(oracle, 2)
                .unwrap()
                .into_shards()
                .into_iter()
                .map(Arc::new)
                .collect()
        };
        let a_shards = to_arcs(&a);
        let b_shards = to_arcs(&b);

        // The strict path refuses the mix; the rolling path accepts it and
        // reports the non-uniform state.
        let mixed = vec![a_shards[0].clone(), b_shards[1].clone()];
        assert!(ShardRouter::assemble_shared(mixed.clone()).is_err());
        let rolling = ShardRouter::assemble_rolling(mixed).unwrap();
        assert!(!rolling.set_uniform());
        let uniform = ShardRouter::assemble_rolling(a_shards.clone()).unwrap();
        assert!(uniform.set_uniform());

        // Every answer of the mixed router is the combine of exactly the
        // two slices that own the endpoints — each half from its own
        // generation, never a blend within a half.
        let plan = rolling.plan();
        let slices = [&a_shards[0], &b_shards[1]];
        for u in 0..20 {
            for v in 0..20 {
                let want = if u == v {
                    Dist::ZERO
                } else {
                    combine(
                        slices[plan.owner(u)].half_query(u, v),
                        slices[plan.owner(v)].half_query(v, u),
                    )
                };
                assert_eq!(rolling.try_query(u, v).unwrap(), want, "({u},{v})");
            }
        }

        // Shape violations are still hard errors.
        let swapped = vec![a_shards[1].clone(), a_shards[0].clone()];
        assert!(matches!(
            ShardRouter::assemble_rolling(swapped),
            Err(OracleError::ShardIndexMismatch { expected: 0, found: 1 })
        ));
        let other_n = to_arcs(&build(24, 9));
        let wrong_n = vec![a_shards[0].clone(), other_n[1].clone()];
        match ShardRouter::assemble_rolling(wrong_n) {
            Err(OracleError::ShardSetMismatch { what }) => {
                assert!(what.contains("n = "), "must name the field: {what}");
            }
            other => panic!("wrong-n slice must be rejected, got {other:?}"),
        }
        assert!(ShardRouter::assemble_rolling(vec![a_shards[0].clone()]).is_err());
    }

    #[test]
    fn partition_rejects_impossible_plans() {
        let oracle = build(8, 1);
        assert!(ShardedArtifact::partition(&oracle, 0).is_err());
        assert!(ShardedArtifact::partition(&oracle, 9).is_err());
    }

    #[test]
    fn shard_accessors_describe_the_slice() {
        let oracle = build(21, 4);
        let sharded = ShardedArtifact::partition(&oracle, 3).unwrap();
        let plan = sharded.plan();
        assert_eq!((plan.n(), plan.count()), (21, 3));
        let mut total_owned = 0usize;
        for (i, shard) in sharded.shards().iter().enumerate() {
            assert_eq!(shard.index(), i);
            assert_eq!(shard.count(), 3);
            assert_eq!(shard.owned(), plan.range(i));
            assert_eq!(shard.n(), oracle.n());
            assert_eq!(shard.k(), oracle.k());
            assert_eq!(shard.landmarks(), oracle.landmarks());
            assert_eq!(shard.set_id(), crate::serde::payload_checksum(&oracle));
            assert!(shard.artifact_bytes() > 0);
            total_owned += shard.owned().len();
        }
        assert_eq!(total_owned, oracle.n(), "every node owned exactly once");
    }
}
