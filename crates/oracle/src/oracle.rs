//! The immutable query-phase artifact, defined **once** ([`ArtifactSlice`]):
//! storage, the one validating constructor, accessors, the footprint
//! formula and the two row primitives every query is built from live here
//! and nowhere else.
//!
//! The storage is the snapshot's layout ([`Sections`]): flat vectors, balls
//! in CSR form — one `ball_offsets` entry per owned row plus one, indexing
//! parallel `ball_ids` / `ball_dists` — so loading a snapshot is one bulk
//! copy per section and nothing is allocated per node. Only the
//! nearest-landmark rows differ from their on-disk shape: two sections on
//! disk, one `(index, distance)` pair in memory, so the landmark path
//! still reads one cache line per endpoint.

use std::ops::{Deref, Range};
use std::sync::Arc;

use cc_matrix::Dist;

use crate::error::corrupt;
use crate::OracleError;

/// The largest finite distance an oracle answer can carry: `u64::MAX` is the
/// disconnected sentinel, so a landmark-path sum that reaches or overflows it
/// is clamped here instead of masquerading as `Dist::INF`.
pub const MAX_FINITE_DISTANCE: u64 = u64::MAX - 1;

/// The most nodes a build may cover: ball members, landmarks and the
/// result cache's keys all hold node ids as `u32`, so ids stop at
/// `2³² − 1`.
pub(crate) const MAX_NODES: u64 = 1 << 32;

/// The scalars every slice of one build shares — the snapshot header's
/// build fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BuildParams {
    pub(crate) n: usize,
    pub(crate) k: usize,
    pub(crate) epsilon: f64,
    pub(crate) seed: u64,
    pub(crate) build_rounds: u64,
}

/// The artifact's data as flat vectors, in snapshot section order (`u64`
/// sections, then `u32` sections). `m` is the number of owned rows, `s` the
/// landmark count, `E` the total number of ball entries.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Sections {
    /// Replicated: row-major `n × s` matrix of `(1+ε)`-approximate
    /// distances to each landmark; `u64::MAX` encodes unreachable. Behind
    /// an `Arc` so every slice of one process can hold one allocation:
    /// [`DistanceOracle::restrict`] clones the handle, and
    /// [`crate::OracleShard::share_columns`] adopts a peer's.
    pub(crate) columns: Arc<Vec<u64>>,
    /// Per owned node (indexed by `node - start`): `(index into landmarks,
    /// exact distance)` of its nearest landmark `p(v)`. On disk the `m`
    /// distances and the `m` indices are a section each.
    pub(crate) nearest_landmark: Vec<(u32, u64)>,
    /// `E` exact distances, parallel to `ball_ids`.
    pub(crate) ball_dists: Vec<u64>,
    /// Replicated: landmark node ids, ascending.
    pub(crate) landmarks: Vec<u32>,
    /// `m + 1` CSR offsets: owned row `r`'s exact `k`-nearest ball is
    /// entries `ball_offsets[r]..ball_offsets[r + 1]`.
    pub(crate) ball_offsets: Vec<u32>,
    /// `E` ball members, strictly ascending by node id within a row (for
    /// `O(log k)` membership tests).
    pub(crate) ball_ids: Vec<u32>,
}

impl Sections {
    /// Empty per-row sections sized for `rows` owned nodes, around the
    /// replicated `landmarks` and `columns` (moved in, never copied); rows
    /// arrive through [`Sections::push_row`].
    pub(crate) fn with_rows(rows: usize, landmarks: Vec<u32>, columns: Vec<u64>) -> Sections {
        let mut ball_offsets = Vec::with_capacity(rows + 1);
        ball_offsets.push(0);
        Sections {
            columns: Arc::new(columns),
            nearest_landmark: Vec::with_capacity(rows),
            ball_dists: Vec::new(),
            landmarks,
            ball_offsets,
            ball_ids: Vec::new(),
        }
    }

    /// Appends the next owned node's row: its nearest-landmark pick and its
    /// ball, members in ascending id order.
    pub(crate) fn push_row(
        &mut self,
        nearest_landmark: (u32, u64),
        ball: impl IntoIterator<Item = (u32, u64)>,
    ) {
        self.nearest_landmark.push(nearest_landmark);
        for (id, d) in ball {
            self.ball_ids.push(id);
            self.ball_dists.push(d);
        }
        // An entry count past `u32::MAX` saturates here and is refused by
        // `ArtifactSlice::from_sections`, never wrapped.
        self.ball_offsets.push(u32::try_from(self.ball_ids.len()).unwrap_or(u32::MAX));
    }
}

/// Rows `start..start+len` of an `n`-node build — the per-node state (exact
/// `k`-nearest balls, nearest-landmark rows) of a contiguous node range —
/// plus the state every range needs in full: the landmark list and the
/// `(1+ε)`-approximate `n × s` landmark column matrix.
///
/// Reached only through the two type-enforcing wrappers that deref to it:
/// [`DistanceOracle`] (the slice is `0..n`, slot 0 of a 1-shard plan, so
/// any pair can be answered) and [`crate::OracleShard`] (the slice is one
/// slot of a [`crate::ShardPlan`], so only half-queries for owned nodes
/// can). Every value of this type went through the crate's one validating
/// constructor (`from_sections`), so the row primitives index without
/// re-checking.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactSlice {
    params: BuildParams,
    /// First node whose rows this slice holds; `0` for a whole artifact.
    start: usize,
    sections: Sections,
    /// The largest stretch any owned row certifies (`row_stretch`).
    stretch_bound: f64,
}

impl ArtifactSlice {
    /// The one constructor — both builders, partitioning and both snapshot
    /// decoders end here — and so the one place the structural rules are
    /// written: `sections` must hold exactly the rows `owned` of an
    /// `params.n`-node build.
    ///
    /// # Errors
    ///
    /// [`OracleError::CorruptSnapshot`] naming the first rule broken:
    /// `n` above `2³²` (node ids are `u32`); `owned` outside `0..n`; a
    /// section whose length is not the one `n`, `s`, `owned` and `E` imply
    /// (`E` itself at most `u32::MAX`); ball offsets that do not start at 0, decrease, or do not end at `E`;
    /// a landmark or ball member id `≥ n`; a landmark index `≥ s`; an
    /// infinite nearest-landmark or ball distance; a ball row whose ids are
    /// not strictly ascending.
    ///
    /// The walk over the rows also certifies the slice's stretch bound.
    pub(crate) fn from_sections(
        params: BuildParams,
        owned: Range<usize>,
        sections: Sections,
    ) -> Result<ArtifactSlice, OracleError> {
        let Sections { columns, nearest_landmark, ball_dists, landmarks, ball_offsets, ball_ids } =
            &sections;
        let (n, s, rows, entries) = (params.n, landmarks.len(), owned.len(), ball_ids.len());
        if n as u64 > MAX_NODES {
            return Err(corrupt(format!("n = {n} nodes exceeds the u32 id space ({MAX_NODES})")));
        }
        if owned.start > owned.end || owned.end > n {
            return Err(corrupt(format!("owned rows {owned:?} outside 0..{n}")));
        }
        if n.checked_mul(s) != Some(columns.len()) {
            return Err(corrupt(format!(
                "column matrix holds {} cells, not n·s = {n}·{s}",
                columns.len()
            )));
        }
        if nearest_landmark.len() != rows || ball_offsets.len() != rows + 1 {
            return Err(corrupt(format!(
                "{} nearest-landmark rows and {} ball offsets for {rows} owned rows",
                nearest_landmark.len(),
                ball_offsets.len()
            )));
        }
        if u32::try_from(entries).is_err() || ball_dists.len() != entries {
            return Err(corrupt(format!(
                "{entries} ball ids (at most {}) against {} ball distances",
                u32::MAX,
                ball_dists.len()
            )));
        }
        if ball_offsets.first() != Some(&0) {
            return Err(corrupt("first ball offset is not 0"));
        }
        if ball_offsets.last().map(|&end| end as usize) != Some(entries) {
            return Err(corrupt(format!("last ball offset is not the entry count {entries}")));
        }
        if let Some(a) = landmarks.iter().find(|&&a| a as usize >= n) {
            return Err(corrupt(format!("landmark id {a} outside 0..{n}")));
        }
        for (v, &(idx, d)) in nearest_landmark.iter().enumerate() {
            if idx as usize >= s {
                return Err(corrupt(format!("node row {v}: landmark index {idx} outside 0..{s}")));
            }
            // A nearest-landmark distance is always finite (the hitting set
            // guarantees a landmark inside each ball).
            if d == Dist::INF.raw() {
                return Err(corrupt(format!("node row {v}: infinite nearest-landmark distance")));
            }
        }
        // The row with the largest `d(u,ℓ(u))/r(u)` so far, compared by
        // cross-multiplication (`row_stretch` grows with the ratio); a row
        // at its landmark is `0/1`, and `d/0` with `d > 0` exceeds them all.
        let mut worst = (0u64, 1u64);
        for (v, row) in ball_offsets.windows(2).enumerate() {
            let (lo, hi) = (row[0] as usize, row[1] as usize);
            // `get` refuses a decreasing pair and one that overshoots `E`.
            let (Some(ids), Some(dists)) = (ball_ids.get(lo..hi), ball_dists.get(lo..hi)) else {
                return Err(corrupt(format!(
                    "node row {v}: ball offsets {lo}..{hi} are not an ascending range within \
                     0..{entries}"
                )));
            };
            if let Some(id) = ids.iter().find(|&&id| id as usize >= n) {
                return Err(corrupt(format!("node row {v}: ball member {id} outside 0..{n}")));
            }
            // Strictly: a member listed twice would let the binary search
            // answer with whichever copy it probes first.
            if !ids.is_sorted_by(|a, b| a < b) {
                return Err(corrupt(format!("node row {v}: ball ids not strictly ascending")));
            }
            // Ball members are reachable by construction, so a distance
            // equal to the ∞ sentinel (the largest `u64`, so the radius
            // if present) can only come from corruption — and would make
            // the query kernel answer ∞ for a pair in a ball.
            let radius = dists.iter().copied().max().unwrap_or(0);
            if radius == Dist::INF.raw() {
                return Err(corrupt(format!("node row {v}: infinite ball distance")));
            }
            let to_landmark = nearest_landmark[v].1;
            if u128::from(to_landmark) * u128::from(worst.1)
                > u128::from(worst.0) * u128::from(radius)
            {
                worst = (to_landmark, radius);
            }
        }
        let stretch_bound = row_stretch(params.epsilon, worst.0, worst.1);
        Ok(ArtifactSlice { params, start: owned.start, sections, stretch_bound })
    }

    /// The build scalars, as the snapshot header stores them.
    pub(crate) fn params(&self) -> BuildParams {
        self.params
    }

    /// The data, as the snapshot stores it section by section.
    pub(crate) fn sections(&self) -> &Sections {
        &self.sections
    }

    /// The data, for tests that forge a slice.
    #[cfg(test)]
    pub(crate) fn sections_mut(&mut self) -> &mut Sections {
        &mut self.sections
    }

    /// Holds `columns` in place of an equal column matrix; the caller
    /// compared them.
    pub(crate) fn adopt_columns(&mut self, columns: Arc<Vec<u64>>) {
        debug_assert!(columns == self.sections.columns, "adopted columns must be equal");
        self.sections.columns = columns;
    }

    /// Number of nodes the **whole build** covers (not just the owned rows).
    pub fn n(&self) -> usize {
        self.params.n
    }

    /// The ball-size parameter `k` the artifact was built with.
    pub fn k(&self) -> usize {
        self.params.k
    }

    /// The MSSP accuracy parameter `ε` the artifact was built with.
    pub fn epsilon(&self) -> f64 {
        self.params.epsilon
    }

    /// The landmark-selection seed the artifact was built with.
    pub fn seed(&self) -> u64 {
        self.params.seed
    }

    /// Clique rounds the one-off build phase charged. Queries charge zero.
    pub fn build_rounds(&self) -> u64 {
        self.params.build_rounds
    }

    /// The landmark node ids (ascending).
    pub fn landmarks(&self) -> &[u32] {
        &self.sections.landmarks
    }

    /// The multiplicative stretch bound the owned rows certify: every
    /// finite answer `est` for a pair with an endpoint among them satisfies
    /// `d(u,v) ≤ est ≤ stretch_bound() · d(u,v)`, for faithful and
    /// [`max_landmarks`](crate::DirectBuilder::max_landmarks) (capped) builds
    /// alike.
    ///
    /// It is `max_u [(1+ε) + (2+ε)·d(u,ℓ(u))/r(u)]` over the rows, with
    /// `ℓ(u)` the row's nearest landmark and `r(u)` its ball's radius. A
    /// faithful build's landmarks hit every ball, so
    /// `d(u,ℓ(u)) ≤ r(u)` and it certifies at most `3+2ε`, within the
    /// paper's `3·(1+ε)`. A capped build's landmark can lie outside a ball,
    /// and the bound grows to what its rows prove; it is infinite where a
    /// row of radius 0 has its landmark elsewhere.
    pub fn stretch_bound(&self) -> f64 {
        self.stretch_bound
    }

    /// The contiguous node range whose rows this slice holds: `0..n` for a
    /// [`DistanceOracle`], the plan-assigned range for a shard.
    pub fn owned(&self) -> Range<usize> {
        self.start..self.start + self.sections.nearest_landmark.len()
    }

    /// Heap footprint in bytes — every section as allocated: 12 bytes per
    /// ball entry plus 4 per ball offset, 16 per nearest-landmark row, and
    /// the replicated landmarks and columns — for capacity planning. The
    /// columns count in full even when another slice shares them; a
    /// router's [`crate::Backend::descriptor`] counts a shared allocation
    /// once.
    pub fn artifact_bytes(&self) -> usize {
        let s = &self.sections;
        s.columns.len() * 8
            + s.nearest_landmark.len() * std::mem::size_of::<(u32, u64)>()
            + s.ball_dists.len() * 8
            + s.landmarks.len() * 4
            + s.ball_offsets.len() * 4
            + s.ball_ids.len() * 4
    }

    /// The ball of the owned node `near`: member ids, strictly ascending,
    /// and the parallel exact distances. (For diagnostics; the query path
    /// is [`ArtifactSlice::ball_distance`].)
    pub(crate) fn ball(&self, near: usize) -> (&[u32], &[u64]) {
        let s = &self.sections;
        let row = near - self.start;
        let (lo, hi) = (s.ball_offsets[row] as usize, s.ball_offsets[row + 1] as usize);
        (&s.ball_ids[lo..hi], &s.ball_dists[lo..hi])
    }

    /// Row primitive 1: the exact distance to `far` if it lies in the ball
    /// of the owned node `near` — a binary search over the row's 4-byte
    /// ids, then one distance read.
    ///
    /// The lookups go through `get` rather than indexing: the constructor's
    /// rules make every one of them succeed, and leaving the panic branches
    /// out of the kernel is worth ~12% of a uniform query. (Were a rule ever
    /// broken, the `None` would send the pair to the landmark estimate —
    /// still a sound upper bound.)
    #[inline]
    pub(crate) fn ball_distance(&self, near: usize, far: usize) -> Option<u64> {
        let s = &self.sections;
        let row = near - self.start;
        let lo = *s.ball_offsets.get(row)? as usize;
        let hi = *s.ball_offsets.get(row + 1)? as usize;
        let i = s.ball_ids.get(lo..hi)?.binary_search(&(far as u32)).ok()?;
        s.ball_dists.get(lo + i).copied()
    }

    /// Row primitive 2: the landmark-regime candidate
    /// `d(near, p(near)) + d̃(p(near), far)` for the owned node `near`;
    /// `None` when `far` is unreachable from `near`'s nearest landmark.
    #[inline]
    pub(crate) fn via_landmark(&self, near: usize, far: usize) -> Option<u64> {
        let s = &self.sections;
        let (idx, to_landmark) = s.nearest_landmark[near - self.start];
        let col = s.columns[far * s.landmarks.len() + idx as usize];
        // The pair is connected through this landmark, so the candidate
        // must stay finite: a sum that reaches the u64::MAX sentinel (or
        // overflows past it) is clamped to the largest finite value rather
        // than being misreported as "disconnected".
        (col != u64::MAX).then(|| {
            to_landmark
                .checked_add(col)
                .map_or(MAX_FINITE_DISTANCE, |sum| sum.min(MAX_FINITE_DISTANCE))
        })
    }
}

/// The stretch row `u` certifies for every pair `(u, v)` with `v` outside
/// its ball, from `d(u,ℓ(u))` (`to_landmark`) and the ball's largest
/// distance `r(u)` (`radius`).
///
/// Such a pair is answered at most by `u`'s landmark candidate
/// `d(u,ℓ(u)) + c(ℓ(u),v)`, with `c ≤ (1+ε)·d(ℓ(u),v) ≤ (1+ε)·(d(u,ℓ(u)) +
/// d(u,v))`, and `v ∉ ball(u)` puts `d(u,v) ≥ r(u)`: the answer is within
/// `(1+ε) + (2+ε)·d(u,ℓ(u))/r(u)` of `d(u,v)`. A row at its landmark
/// certifies `1+ε`; a row of radius 0 whose landmark is elsewhere certifies
/// nothing (`∞`).
fn row_stretch(epsilon: f64, to_landmark: u64, radius: u64) -> f64 {
    if to_landmark == 0 {
        1.0 + epsilon
    } else if radius == 0 {
        f64::INFINITY
    } else {
        (1.0 + epsilon) + (2.0 + epsilon) * (to_landmark as f64 / radius as f64)
    }
}

/// The query kernel — the one place a pair is answered, by the monolith
/// as `(self, self)` and by a router with the slices owning `u` and `v`.
/// `a` must own `u`, `b` must own `v`, and both must be in `0..n`.
///
/// Evaluated lazily: `u`'s ball in `a`, then `v`'s ball in `b` (both are
/// exact, so the first hit is the answer), and only when both miss the
/// two landmark candidates, whichever is smaller (both are sound).
#[inline]
pub(crate) fn answer(a: &ArtifactSlice, b: &ArtifactSlice, u: usize, v: usize) -> Dist {
    if u == v {
        return Dist::ZERO;
    }
    // Ball distances are finite by construction (`from_sections` refuses an
    // ∞ one).
    if let Some(d) = a.ball_distance(u, v) {
        return Dist::from_raw(d);
    }
    if let Some(d) = b.ball_distance(v, u) {
        return Dist::from_raw(d);
    }
    nearer_landmark(a.via_landmark(u, v), b.via_landmark(v, u))
}

/// The smaller of the two landmark candidates of a pair (both are sound,
/// so the minimum is); [`Dist::INF`] when neither endpoint's nearest
/// landmark reaches the other endpoint. The candidates are clamped to
/// [`MAX_FINITE_DISTANCE`] already, so the answer is finite by construction.
#[inline]
pub(crate) fn nearer_landmark(a: Option<u64>, b: Option<u64>) -> Dist {
    match (a, b) {
        (Some(a), Some(b)) => Dist::from_raw(a.min(b)),
        (Some(d), None) | (None, Some(d)) => Dist::from_raw(d),
        (None, None) => Dist::INF,
    }
}

/// The range check every query tier runs at its edge.
#[inline]
pub(crate) fn check_pair(n: usize, u: usize, v: usize) -> Result<(), OracleError> {
    if u >= n || v >= n {
        return Err(OracleError::QueryOutOfRange { u, v, n });
    }
    Ok(())
}

/// A build-once / query-many distance oracle: per-node exact `k`-nearest
/// balls, a landmark set hitting every ball, and `(1+ε)`-approximate
/// distance columns from every node to every landmark — the
/// [`ArtifactSlice`] covering all of `0..n`, to which it derefs for the
/// build parameters ([`ArtifactSlice::n`], [`ArtifactSlice::stretch_bound`],
/// [`ArtifactSlice::artifact_bytes`], …).
///
/// The artifact is purely local and immutable: every query method takes
/// `&self`, performs no clique communication, and is safe to call from many
/// threads at once. See the crate docs for the stretch guarantee.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceOracle(pub(crate) ArtifactSlice);

impl Deref for DistanceOracle {
    type Target = ArtifactSlice;

    fn deref(&self) -> &ArtifactSlice {
        &self.0
    }
}

impl DistanceOracle {
    /// Distance estimate for the pair `(u, v)`: zero communication,
    /// `O(log k)` time, never an underestimate, exact inside the balls and
    /// within [`ArtifactSlice::stretch_bound`] otherwise.
    /// [`Dist::INF`] for disconnected pairs; finite answers are clamped to
    /// [`MAX_FINITE_DISTANCE`] so a saturating landmark sum is never
    /// reported as disconnected. (The clamp is the one exception to
    /// "never an underestimate": when the true landmark-path length itself
    /// exceeds [`MAX_FINITE_DISTANCE`], the clamped answer is below it —
    /// reachability is preserved, the magnitude saturates.)
    ///
    /// An out-of-range endpoint is [`OracleError::QueryOutOfRange`]
    /// rather than a panic, so network front-ends can turn malformed
    /// requests into client errors without crashing the serving process.
    ///
    /// # Example
    ///
    /// ```
    /// use cc_clique::Clique;
    /// use cc_graph::generators;
    /// use cc_oracle::{OracleBuilder, OracleError};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let g = generators::gnp_weighted(16, 0.3, 10, 7)?;
    /// let mut clique = Clique::new(16);
    /// let oracle = OracleBuilder::new().build(&mut clique, &g)?;
    ///
    /// // In range: a finite, sound estimate.
    /// assert!(oracle.try_query(0, 15)?.is_finite());
    ///
    /// // Out of range: an error a serving layer maps to HTTP 400.
    /// assert!(matches!(
    ///     oracle.try_query(0, 99),
    ///     Err(OracleError::QueryOutOfRange { u: 0, v: 99, n: 16 })
    /// ));
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`OracleError::QueryOutOfRange`] if `u` or `v` is not in `0..n`.
    pub fn try_query(&self, u: usize, v: usize) -> Result<Dist, OracleError> {
        check_pair(self.n(), u, v)?;
        Ok(self.query_unchecked(u, v))
    }

    /// The rows of `range` as a slice of their own, with the landmark list
    /// copied along and the column matrix shared: what partitioning cuts a
    /// shard from.
    pub(crate) fn restrict(&self, range: Range<usize>) -> Result<ArtifactSlice, OracleError> {
        let s = &self.0.sections;
        let offsets = s.ball_offsets.get(range.start..=range.end).unwrap_or_default();
        let (Some(&base), Some(&end)) = (offsets.first(), offsets.last()) else {
            return Err(corrupt(format!("rows {range:?} outside 0..{}", self.n())));
        };
        let entries = base as usize..end as usize;
        ArtifactSlice::from_sections(
            self.0.params,
            range.clone(),
            Sections {
                columns: Arc::clone(&s.columns),
                nearest_landmark: s.nearest_landmark[range].to_vec(),
                ball_dists: s.ball_dists[entries.clone()].to_vec(),
                landmarks: s.landmarks.clone(),
                ball_offsets: offsets.iter().map(|&o| o - base).collect(),
                ball_ids: s.ball_ids[entries].to_vec(),
            },
        )
    }

    /// The query kernel over the whole artifact; callers must have
    /// validated `u, v < n`.
    pub(crate) fn query_unchecked(&self, u: usize, v: usize) -> Dist {
        answer(self, self, u, v)
    }

    /// Answers a batch of queries in request order, serially on the calling
    /// thread: a serving worker is already one of a pool, and the kernel is
    /// nanoseconds per pair. A caller that wants fan-out wraps
    /// `pairs.chunks(..)` in its own `std::thread::scope`.
    ///
    /// Every pair is validated up front, so either the whole batch is
    /// answered or nothing is computed.
    ///
    /// # Errors
    ///
    /// [`OracleError::QueryOutOfRange`] naming the first offending pair.
    pub fn try_query_batch(&self, pairs: &[(usize, usize)]) -> Result<Vec<Dist>, OracleError> {
        for &(u, v) in pairs {
            check_pair(self.n(), u, v)?;
        }
        Ok(pairs.iter().map(|&(u, v)| self.query_unchecked(u, v)).collect())
    }
}

/// A hand-crafted artifact for the path `0 — 1 — 2` with edge weights
/// `w01`, `w12` near `u64::MAX`, `k = 1` (balls are singletons) and
/// node 1 the only landmark: the only route for `(0, 2)` is
/// `w01 + w12`.
#[cfg(test)]
pub(crate) fn near_max_path_oracle(w01: u64, w12: u64) -> DistanceOracle {
    let mut sections = Sections::with_rows(3, vec![1], vec![w01, 0, w12]);
    for (id, to_landmark) in [(0, w01), (1, 0), (2, w12)] {
        sections.push_row((0, to_landmark), [(id, 0)]);
    }
    let params = BuildParams { n: 3, k: 1, epsilon: 0.25, seed: 0, build_rounds: 0 };
    DistanceOracle(ArtifactSlice::from_sections(params, 0..3, sections).unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OracleBuilder;
    use cc_clique::Clique;
    use cc_graph::{generators, reference};

    fn build(n: usize, seed: u64) -> (cc_graph::Graph, DistanceOracle) {
        let g = generators::gnp_weighted(n, 0.12, 30, seed).unwrap();
        let mut clique = Clique::new(n);
        let oracle = OracleBuilder::new().seed(seed).build(&mut clique, &g).unwrap();
        (g, oracle)
    }

    #[test]
    fn query_is_sound_and_within_stretch() {
        let (g, oracle) = build(48, 3);
        let bound = oracle.stretch_bound();
        for u in 0..g.n() {
            let exact = reference::dijkstra(&g, u);
            for v in 0..g.n() {
                let est = oracle.try_query(u, v).unwrap();
                let d = exact[v].expect("gnp is connected");
                let est = est.value().expect("connected pair must be finite");
                assert!(est >= d, "underestimate {est} < {d} for ({u},{v})");
                assert!(
                    est as f64 <= bound * d as f64 + 1e-9,
                    "stretch violated: {est} > {bound}*{d} for ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn each_row_certifies_from_its_landmark_distance_and_radius() {
        let eps = 0.5;
        assert_eq!(row_stretch(eps, 0, 0), 1.5, "a row at its landmark");
        assert_eq!(row_stretch(eps, 0, 9), 1.5);
        assert_eq!(row_stretch(eps, 4, 4), 4.0, "a faithful row's worst case, 3+2ε");
        assert_eq!(row_stretch(eps, 2, 4), 2.75);
        assert_eq!(row_stretch(eps, 12, 4), 9.0, "a landmark outside the ball");
        assert_eq!(row_stretch(eps, 1, 0), f64::INFINITY, "radius 0 certifies nothing");
        // The slice takes the largest row: the path's end rows have radius 0
        // and a landmark one edge away.
        assert_eq!(near_max_path_oracle(5, 7).stretch_bound(), f64::INFINITY);
        // Rows at ratios 0, 2 and 1: the middle one's `1.5 + 2.5·2` holds.
        let mut sections = Sections::with_rows(3, vec![0], vec![0, 3, 6]);
        sections.push_row((0, 0), [(0, 0), (1, 3)]);
        sections.push_row((0, 6), [(1, 0), (2, 3)]);
        sections.push_row((0, 3), [(1, 3), (2, 0)]);
        let params = BuildParams { n: 3, k: 2, epsilon: eps, seed: 0, build_rounds: 0 };
        let slice = ArtifactSlice::from_sections(params, 0..3, sections).unwrap();
        assert_eq!(slice.stretch_bound(), 6.5);
    }

    #[test]
    fn query_is_symmetric_and_zero_on_diagonal() {
        let (g, oracle) = build(32, 5);
        for u in 0..g.n() {
            assert_eq!(oracle.try_query(u, u).unwrap(), Dist::ZERO);
            for v in 0..g.n() {
                assert_eq!(
                    oracle.try_query(u, v).unwrap(),
                    oracle.try_query(v, u).unwrap(),
                    "({u},{v})"
                );
            }
        }
    }

    #[test]
    fn batch_agrees_with_single_queries() {
        let (_, oracle) = build(32, 7);
        // Exercise both the sequential small-batch path and the sharded
        // threaded path.
        let small: Vec<(usize, usize)> = (0..32).map(|i| (i, (i * 7 + 1) % 32)).collect();
        let large: Vec<(usize, usize)> = (0..5000).map(|i| (i % 32, (i * 13 + 5) % 32)).collect();
        for pairs in [small, large] {
            let batch = oracle.try_query_batch(&pairs).unwrap();
            for (i, &(u, v)) in pairs.iter().enumerate() {
                assert_eq!(batch[i], oracle.try_query(u, v).unwrap(), "pair ({u},{v})");
            }
        }
    }

    #[test]
    fn disconnected_pairs_report_infinity() {
        let g = cc_graph::Graph::from_edges(8, [(0, 1, 2), (2, 3, 4)]).unwrap();
        let mut clique = Clique::new(8);
        let oracle = OracleBuilder::new().build(&mut clique, &g).unwrap();
        assert_eq!(oracle.try_query(0, 1).unwrap(), Dist::fin(2));
        assert_eq!(oracle.try_query(0, 2).unwrap(), Dist::INF);
        assert_eq!(oracle.try_query(4, 5).unwrap(), Dist::INF);
    }

    #[test]
    fn try_query_rejects_out_of_range_without_panicking() {
        let (_, oracle) = build(16, 1);
        assert!(matches!(
            oracle.try_query(0, 16),
            Err(crate::OracleError::QueryOutOfRange { u: 0, v: 16, n: 16 })
        ));
        assert!(matches!(oracle.try_query(99, 0), Err(crate::OracleError::QueryOutOfRange { .. })));
        for u in 0..16 {
            for v in 0..16 {
                assert_eq!(oracle.try_query(u, v).unwrap(), oracle.query_unchecked(u, v));
            }
        }
    }

    #[test]
    fn try_query_batch_rejects_any_bad_pair_and_matches_batch() {
        let (_, oracle) = build(16, 2);
        let good: Vec<(usize, usize)> = (0..16).map(|i| (i, (i * 5 + 2) % 16)).collect();
        let singles: Vec<_> = good.iter().map(|&(u, v)| oracle.query_unchecked(u, v)).collect();
        assert_eq!(oracle.try_query_batch(&good).unwrap(), singles);
        let mut bad = good;
        bad.push((3, 16));
        assert!(matches!(
            oracle.try_query_batch(&bad),
            Err(crate::OracleError::QueryOutOfRange { u: 3, v: 16, n: 16 })
        ));
    }

    #[test]
    fn saturating_landmark_sum_is_clamped_finite_not_reported_as_inf() {
        // Regression: `saturating_add` used to drive the sum to u64::MAX,
        // which the sentinel comparison then reported as a disconnected
        // pair. The pair is connected, so the answer must be finite.
        let w = u64::MAX - 3;
        let oracle = near_max_path_oracle(w, w);
        let d = oracle.try_query(0, 2).unwrap();
        assert!(d.is_finite(), "connected pair reported as disconnected after overflow");
        assert_eq!(d, Dist::fin(super::MAX_FINITE_DISTANCE));
        // The single-hop answers stay untouched by the clamp.
        assert_eq!(oracle.try_query(0, 1).unwrap(), Dist::fin(w));
        assert_eq!(oracle.try_query(1, 2).unwrap(), Dist::fin(w));
    }

    #[test]
    fn exact_sentinel_collision_is_clamped_to_largest_finite() {
        // The sum equals u64::MAX exactly: no u64 overflow, but it collides
        // with the infinity sentinel and must still be clamped.
        let oracle = near_max_path_oracle(u64::MAX / 2, u64::MAX / 2 + 1);
        assert_eq!(oracle.try_query(0, 2).unwrap(), Dist::fin(super::MAX_FINITE_DISTANCE));
        // A genuinely disconnected artifact still reports infinity.
        let mut disconnected = near_max_path_oracle(5, 7);
        disconnected.0.sections.columns = Arc::new(vec![u64::MAX, 0, u64::MAX]);
        disconnected.0.sections.nearest_landmark[0].1 = 0;
        disconnected.0.sections.nearest_landmark[2].1 = 0;
        assert_eq!(disconnected.try_query(0, 2).unwrap(), Dist::INF);
    }

    #[test]
    fn from_sections_names_every_broken_rule() {
        let clean = near_max_path_oracle(5, 7).0;
        type Edit<'a> = &'a dyn Fn(&mut Sections);
        let rebuild = |edit: Edit| {
            let mut sections = clean.sections.clone();
            edit(&mut sections);
            ArtifactSlice::from_sections(clean.params, 0..3, sections)
        };
        assert_eq!(rebuild(&|_| {}).unwrap(), clean);
        let broken: [(&str, Edit); 12] = [
            ("column matrix", &|s| Arc::make_mut(&mut s.columns).push(0)),
            ("nearest-landmark rows", &|s| s.nearest_landmark.push((0, 0))),
            ("ball distances", &|s| s.ball_dists.push(0)),
            ("first ball offset", &|s| s.ball_offsets[0] = 1),
            ("last ball offset", &|s| s.ball_offsets[3] = 2),
            ("not an ascending range", &|s| s.ball_offsets[1] = 3),
            ("landmark id 3", &|s| s.landmarks[0] = 3),
            ("landmark index 1", &|s| s.nearest_landmark[2].0 = 1),
            ("infinite nearest-landmark", &|s| s.nearest_landmark[1].1 = u64::MAX),
            ("ball member 9", &|s| s.ball_ids[1] = 9),
            ("infinite ball distance", &|s| s.ball_dists[2] = u64::MAX),
            // The duplicate-member forgery: row 0 lists node 0 twice.
            ("not strictly ascending", &|s| {
                s.ball_ids = vec![0, 0, 2];
                s.ball_offsets = vec![0, 2, 2, 3];
            }),
        ];
        for (what, edit) in broken {
            let err = rebuild(edit).unwrap_err().to_string();
            assert!(err.contains(what), "expected `{what}` in: {err}");
        }
        // Rows outside the build, and more rows than the sections hold.
        assert!(ArtifactSlice::from_sections(clean.params, 1..4, clean.sections.clone()).is_err());
        assert!(ArtifactSlice::from_sections(clean.params, 0..2, clean.sections.clone()).is_err());
    }

    #[test]
    fn from_sections_refuses_more_nodes_than_u32_ids_can_name() {
        // No rows, no landmarks, nothing owned: every section is empty and
        // consistent, so only the node bound can refuse it.
        let empty = || Sections::with_rows(0, Vec::new(), Vec::new());
        let params = |n| BuildParams { n, k: 1, epsilon: 0.25, seed: 0, build_rounds: 0 };
        let too_many = (1usize << 32) + 1;
        match ArtifactSlice::from_sections(params(too_many), 0..0, empty()) {
            Err(OracleError::CorruptSnapshot { what }) => {
                assert!(what.contains("u32 id space"), "must name the bound: {what}");
            }
            other => panic!("n = 2^32 + 1 must be refused, got {other:?}"),
        }
        assert!(ArtifactSlice::from_sections(params(1 << 32), 0..0, empty()).is_ok());
    }
}
