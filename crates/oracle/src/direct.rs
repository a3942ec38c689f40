//! The direct builder: the clique pipeline re-run as plain shared-memory
//! graph algorithms, bit-identical by construction.
//!
//! [`OracleBuilder`](crate::OracleBuilder) simulates every build phase
//! through the [`cc_clique::Clique`] message substrate — the right tool for
//! validating the paper's round complexity, but the simulation overhead caps
//! artifact sizes around `n ≈ 10³`. This module computes the *same
//! artifact* without any clique: the workspace's sequential searches,
//! [`cc_graph::reference`], run on `std::thread` workers with one
//! [`Search`] state each, over the same schedules the distributed phases
//! resolve. The balls come from its augmented loop, which settles in the
//! order the distributed tool uses. Every column, faithful or capped, and
//! every hopset level comes from one column pass: a
//! [`Search::hop_bounded`] row per source, one `u64` per node in the column
//! encoding, laid into the `n × s` matrix (capped rows are unbounded, so
//! they are [`Search::distances`]).
//!
//! # The bit-identity contract
//!
//! In the default (faithful) mode, [`DirectBuilder`] produces a
//! [`DistanceOracle`] whose snapshot payload — and therefore its
//! `build_id` — is **byte-identical** to what `OracleBuilder` produces for
//! the same `(graph, k, ε, seed)`. This is not approximate agreement: every
//! ball entry, landmark id, nearest-landmark pick, and `(1+ε)` column is
//! the same `u64`. The contract holds because each phase shares its kernel
//! with the clique path instead of reimplementing it:
//!
//! * **k-nearest balls** — [`Search::k_nearest_row`], which settles nodes
//!   in the augmented order `(distance, hops, id)`: the order the
//!   distributed Theorem 18 tool is differentially pinned to, so the first
//!   `k` settles *are* the ball, returned in that tool's row shape.
//! * **landmarks** — [`cc_distance::hitting_set_local`], the exact kernel
//!   the clique wrapper delegates to (Lemma 4's sampling + repair), reading
//!   each ball's ids in place.
//! * **columns** — the hopset schedule comes from
//!   [`HopsetConfig::schedule`], the single source of truth shared with
//!   [`cc_hopset::build_hopset`], and `G ∪ H` from [`Growth`], the one
//!   growth rule that construction applies: bunches, then each level's
//!   `A₁ × A₁` edges, an edge landing only where it is lighter. This module
//!   supplies only the distances: each level's come from the column pass
//!   against the union before that level, and the loop stops where the
//!   clique's fixpoint does, at the first level where no edge lands.
//!   Hop-`β`-bounded distances are [`Search::hop_bounded`] — pinned equal to
//!   `source_detection_all` by that tool's differential tests.
//! * **extraction** — `crate::builder::extract_artifact`, the one
//!   extraction function, which the clique builder calls with the same
//!   nearest-landmark rule on the same row shape.
//!
//! Both paths extend paths by the one length rule of the min-plus semirings
//! (§3.1), where a path whose length overflows `u64` is no path, so the
//! contract holds for any weights.
//!
//! The only field that differs is the header-only `build_rounds` (the
//! direct path has no rounds to count; it records 0), which is excluded
//! from the payload checksum. `tests/build_equivalence.rs` enforces the
//! contract over the full graph-family × seed × ε × k suite.
//!
//! # Capped mode
//!
//! [`DirectBuilder::max_landmarks`] trades the bit-identity contract for
//! scale: at `n = 10⁵..10⁶` the faithful landmark count (`O(n log n / k)`)
//! would make the column matrix astronomically large, so capped mode picks
//! `m` seeded-rank landmarks and computes *exact* per-landmark Dijkstra
//! columns (no hopset), taking each node's nearest landmark from its column
//! row — a different artifact than the clique build would produce, whose
//! landmarks need not hit every ball: its certified
//! [`stretch_bound`](crate::ArtifactSlice::stretch_bound) is what its rows
//! prove, larger than a faithful build's `3+2ε`. See `docs/BUILDERS.md`.

use cc_distance::{check_epsilon, hitting_set_local};
use cc_graph::reference::Search;
use cc_graph::Graph;
use cc_hopset::{Growth, HopsetConfig, HopsetSchedule, HITTING_SET_SEED};
use cc_matrix::{AugDist, Dist, SparseRow};
use cc_telemetry::BuildTrace;

use crate::builder::{ball_ids, closest_hitter, default_k, extract_artifact};
use crate::error::{invalid, rejected};
use crate::oracle::BuildParams;
use crate::{DistanceOracle, OracleError};

/// Order-preserving parallel map with per-worker state: `out[i] = f(s, i)`
/// for `i in 0..count`, computed on up to `threads` scoped std threads. Each
/// worker calls `init` once and threads its state through its `f` calls,
/// which keeps `O(n)` search state out of the per-item path. The output is
/// identical for every thread count — parallelism never leaks into the
/// artifact — because `f` must not depend on the state's history
/// ([`Search`] resets itself on every call).
fn par_map_with<T: Send, S>(
    threads: usize,
    count: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    if threads <= 1 || count <= 1 {
        let mut scratch = init();
        return (0..count).map(|i| f(&mut scratch, i)).collect();
    }
    let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(count).collect();
    let chunk = count.div_ceil(threads);
    std::thread::scope(|scope| {
        for (ci, slots) in out.chunks_mut(chunk).enumerate() {
            let (init, f) = (&init, &f);
            scope.spawn(move || {
                let mut scratch = init();
                for (j, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(f(&mut scratch, ci * chunk + j));
                }
            });
        }
    });
    out.into_iter().map(|slot| slot.expect("every chunk index was computed")).collect()
}

/// Every node's `k`-nearest ball, in the row shape of
/// [`cc_distance::k_nearest`].
fn balls(graph: &Graph, k: usize, threads: usize) -> Vec<SparseRow<AugDist>> {
    par_map_with(threads, graph.n(), Search::new, |search, v| search.k_nearest_row(graph, v, k))
}

/// The column pass: the row-major `n × s` matrix whose entry `v·s + i` is
/// `d^hops(sources[i], v)` in the column encoding (∞ = `Dist::INF.raw()`),
/// the quantity `source_detection_all` ships. One [`Search::hop_bounded`]
/// row per source, on `threads` workers; `hops ≥ n − 1` makes every row
/// exact.
fn column_matrix(graph: &Graph, sources: &[usize], hops: usize, threads: usize) -> Vec<u64> {
    let rows = par_map_with(threads, sources.len(), Search::new, |search, i| {
        search.hop_bounded(graph, sources[i], hops).to_vec()
    });
    let mut columns = Vec::with_capacity(graph.n() * sources.len());
    for v in 0..graph.n() {
        columns.extend(rows.iter().map(|row| row[v]));
    }
    columns
}

/// The direct re-run of [`cc_hopset::build_hopset`]: same schedule, same
/// hitting set and the same [`Growth`] of `G ∪ H`, with each level's
/// distances from the column pass — returning the union and the `β` the
/// columns are bounded by.
fn direct_union_with_hopset(
    graph: &Graph,
    epsilon: f64,
    threads: usize,
) -> Result<(Graph, usize), OracleError> {
    let HopsetSchedule { k, beta, exploration, levels } =
        HopsetConfig::new(epsilon).schedule(graph.n());

    // Step 1: k-nearest + hitting set A1 (the hopset's own k, not the
    // oracle's ball size).
    let near = balls(graph, k, threads);
    let (a1, _repair) = hitting_set_local(graph.n(), |v| ball_ids(&near[v]), k, HITTING_SET_SEED)?;

    // Step 2: every node's bunch; the balls are not needed after it.
    let mut growth = Growth::new(graph);
    growth.add_bunches(&a1, &near);
    drop(near);

    // Step 3: each level's columns are computed against the union *before*
    // that level's edges land, as the clique explores before it adds; the
    // loop stops where that construction's does.
    let a = a1.len();
    for _level in 0..levels {
        let columns = &column_matrix(growth.union(), &a1.members, exploration, threads);
        let rows = (0..a).map(|i| a1.members.iter().map(move |&t| (t, columns[t * a + i])));
        if growth.add_level(&a1, rows).iter().all(|&landed| landed == 0) {
            break;
        }
    }
    Ok((growth.into_parts().0, beta))
}

/// Builds a [`DistanceOracle`] directly — no [`cc_clique::Clique`], no
/// round simulation — with the same `k`/`ε`/`seed` knobs as
/// [`OracleBuilder`](crate::OracleBuilder) and a snapshot payload that is
/// byte-identical to the clique build's (see the [module docs](self)).
///
/// Dropping the simulation unlocks `10⁵`–`10⁶`-node artifacts: pair
/// [`max_landmarks`](Self::max_landmarks) (for a bounded column matrix)
/// with a small explicit [`k`](Self::k).
///
/// # Example
///
/// ```
/// use cc_clique::Clique;
/// use cc_graph::generators;
/// use cc_oracle::{serde, DirectBuilder, OracleBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::grid_weighted(6, 6, 20, 1)?;
/// let mut clique = Clique::new(36);
/// let via_clique = OracleBuilder::new().epsilon(0.5).seed(3).build(&mut clique, &g)?;
/// let direct = DirectBuilder::new().epsilon(0.5).seed(3).build(&g)?;
/// // Same payload bytes, same build id — not merely the same answers.
/// assert_eq!(serde::payload_checksum(&direct), serde::payload_checksum(&via_clique));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DirectBuilder {
    k: Option<usize>,
    epsilon: f64,
    seed: u64,
    threads: Option<usize>,
    max_landmarks: Option<usize>,
}

impl Default for DirectBuilder {
    fn default() -> Self {
        DirectBuilder { k: None, epsilon: 0.25, seed: 0, threads: None, max_landmarks: None }
    }
}

impl DirectBuilder {
    /// A builder with the same defaults as
    /// [`OracleBuilder::new`](crate::OracleBuilder::new): `k = ⌈√(n·ln n)⌉`,
    /// `ε = 0.25`, `seed = 0`, one worker per available core, faithful
    /// (uncapped) landmark selection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ball size `k` (default `⌈√(n·ln n)⌉`, clamped to `1..=n`).
    pub fn k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// MSSP accuracy `ε > 0`; a faithful build certifies a serving-phase
    /// stretch bound of at most `3+2ε` (a capped one what its rows prove;
    /// see [`max_landmarks`](Self::max_landmarks)).
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Seed for the deterministic landmark selection — the same seed the
    /// clique builder would use, selecting the same landmarks.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker-thread count (default: one per available core). The artifact
    /// is identical for every thread count; this only changes wall time.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// **Capped mode**: select at most `m` landmarks by seeded rank instead
    /// of the faithful hitting set, and compute exact Dijkstra columns
    /// (no hopset). Bounds the column matrix to `n × m` so million-node
    /// artifacts stay serveable — at the price of the bit-identity
    /// contract (the clique build would have picked different landmarks)
    /// and of the `3+2ε` stretch bound: the landmarks need not hit every
    /// ball, so the certified
    /// [`stretch_bound`](crate::ArtifactSlice::stretch_bound) is what the
    /// rows prove, larger, and every answer stays sound and within it.
    pub fn max_landmarks(mut self, m: usize) -> Self {
        self.max_landmarks = Some(m);
        self
    }

    /// Runs the direct build. See [`build_traced`](Self::build_traced).
    ///
    /// # Errors
    ///
    /// Same conditions as [`build_traced`](Self::build_traced).
    pub fn build(&self, graph: &Graph) -> Result<DistanceOracle, OracleError> {
        self.build_traced(graph).map(|(oracle, _)| oracle)
    }

    /// Runs the direct build, returning the oracle plus a [`BuildTrace`]
    /// with one span per phase. Faithful mode reuses the clique phase
    /// names (`k_nearest_balls`, `hitting_set_landmarks`, `mssp_columns`,
    /// `local_extraction`) so dashboards and benches compare like for
    /// like; capped mode reports `landmark_selection` / `exact_columns`
    /// instead, making the different pipeline visible in the trace. All
    /// spans carry zero rounds: nothing is simulated.
    ///
    /// # Errors
    ///
    /// * [`OracleError::InvalidParameter`] for an empty graph, a non-finite
    ///   or non-positive `ε`, `k = 0`, `max_landmarks = 0`, or (capped mode)
    ///   a node that reaches no landmark;
    /// * [`OracleError::Build`] if the hitting-set kernel rejects its
    ///   input.
    pub fn build_traced(&self, graph: &Graph) -> Result<(DistanceOracle, BuildTrace), OracleError> {
        let n = graph.n();
        if n == 0 {
            return Err(invalid("oracle needs a non-empty graph"));
        }
        check_epsilon(self.epsilon).map_err(rejected)?;
        let k = self.k.unwrap_or_else(|| default_k(n)).min(n);
        if k == 0 {
            return Err(invalid("oracle needs k >= 1"));
        }
        if self.max_landmarks == Some(0) {
            return Err(invalid("max_landmarks must be >= 1"));
        }
        let threads = self
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
            .max(1);

        let mut trace = BuildTrace::new();

        // Phase 1 — the oracle's k-nearest balls (same for both modes).
        let near = trace.time_local("k_nearest_balls", || balls(graph, k, threads));
        // build_rounds is 0: the direct path simulates nothing (the field is
        // header-only and excluded from the payload checksum).
        let params = BuildParams { n, k, epsilon: self.epsilon, seed: self.seed, build_rounds: 0 };

        let oracle = match self.max_landmarks {
            // Faithful mode, the bit-identical re-run of the clique pipeline.
            None => {
                // Phase 2 — Lemma 4 landmark selection, via the exact local
                // kernel the clique wrapper delegates to.
                let (landmarks, _repair) = trace.time_local("hitting_set_landmarks", || {
                    hitting_set_local(n, |v| ball_ids(&near[v]), k, self.seed)
                })?;
                // Phase 3 — Theorem 3 columns: hopset union, then
                // hop-β-bounded distances from every landmark.
                let columns = trace.time_local("mssp_columns", || {
                    let (union, beta) = direct_union_with_hopset(graph, self.epsilon, threads)?;
                    Ok::<_, OracleError>(column_matrix(&union, &landmarks.members, beta, threads))
                })?;
                trace.time_local("local_extraction", || {
                    let rule = closest_hitter(&landmarks);
                    extract_artifact(params, &near, &landmarks.members, columns, rule)
                })
            }
            // Capped mode: m seeded-rank landmarks, exact columns.
            Some(m) => {
                // Phase 2 — the m nodes of smallest mixed rank, ids
                // ascending. Deterministic in (seed, n, m) alone.
                let landmarks = trace.time_local("landmark_selection", || {
                    let mut ranked: Vec<(u64, usize)> =
                        (0..n).map(|v| (seeded_rank(self.seed, v as u64), v)).collect();
                    ranked.sort_unstable();
                    ranked.truncate(m.min(n));
                    let mut ids: Vec<usize> = ranked.into_iter().map(|(_, v)| v).collect();
                    ids.sort_unstable();
                    ids
                });
                // Phase 3 — exact per-landmark distances (no hopset: with m
                // fixed the column pass is m Dijkstras, already scalable).
                let columns = trace
                    .time_local("exact_columns", || column_matrix(graph, &landmarks, n, threads));
                // The nearest landmark is read from the exact columns: the
                // smallest entry, ties by index.
                trace.time_local("local_extraction", || {
                    extract_artifact(params, &near, &landmarks, columns, |_, row| {
                        let (i, &d) = row.iter().enumerate().min_by_key(|&(_, &d)| d)?;
                        (d != Dist::INF.raw()).then_some((i as u32, d))
                    })
                })
            }
        }?;
        Ok((oracle, trace))
    }
}

/// A 64-bit finalizer (xor-shift / multiply rounds) ranking nodes for the
/// capped-mode landmark draw. Stateless and platform-independent, so capped
/// builds are as reproducible as faithful ones — just not clique-identical.
fn seeded_rank(seed: u64, v: u64) -> u64 {
    let mut x = seed ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_clique::Clique;
    use cc_graph::{generators, reference};
    use cc_hopset::build_hopset;

    fn clique_build(g: &Graph, epsilon: f64, seed: u64) -> DistanceOracle {
        let mut clique = Clique::new(g.n());
        crate::OracleBuilder::new().epsilon(epsilon).seed(seed).build(&mut clique, g).unwrap()
    }

    #[test]
    fn faithful_build_is_bit_identical_to_the_clique_build() {
        let g = generators::gnp_weighted(40, 0.15, 25, 7).unwrap();
        let direct = DirectBuilder::new().epsilon(0.5).seed(9).build(&g).unwrap();
        let clique = clique_build(&g, 0.5, 9);
        crate::testkit::assert_same_artifact(&direct, &clique);
    }

    #[test]
    fn the_direct_union_is_the_clique_union_arc_for_arc() {
        let mut cases = Vec::new();
        for seed in [1, 29, 77] {
            for (name, g) in generators::standard_suite(24, seed).unwrap() {
                cases.extend([0.25, 0.5].map(|epsilon| (name.clone(), g.clone(), epsilon)));
            }
        }
        // Two schedules with several levels (see `build_equivalence`).
        cases.push(("path".into(), generators::path(256).unwrap(), 4.0));
        cases.push(("grid".into(), generators::grid_weighted(8, 32, 20, 2).unwrap(), 6.0));
        for (name, g, epsilon) in &cases {
            let mut clique = Clique::new(g.n());
            let hopset = build_hopset(&mut clique, g, HopsetConfig::new(*epsilon)).unwrap();
            let (union, beta) = direct_union_with_hopset(g, *epsilon, 2).unwrap();
            assert_eq!(beta, hopset.beta, "{name} at ε {epsilon}");
            let clique_union = hopset.union_with(g);
            let arcs = |graph: &Graph| graph.arcs().collect::<Vec<_>>();
            assert_eq!(arcs(&union), arcs(&clique_union), "{name} at ε {epsilon}");
        }
    }

    #[test]
    fn thread_count_never_changes_the_artifact() {
        let g = generators::road_like(8, 8, 30, 5).unwrap();
        let one = DirectBuilder::new().threads(1).build(&g).unwrap();
        for threads in [2, 3, 8] {
            let multi = DirectBuilder::new().threads(threads).build(&g).unwrap();
            crate::testkit::assert_same_artifact(&one, &multi);
        }
    }

    #[test]
    fn trace_phases_mirror_the_clique_names_with_zero_rounds() {
        let g = generators::gnp(32, 0.2, 3).unwrap();
        let (_, trace) = DirectBuilder::new().build_traced(&g).unwrap();
        let phases: Vec<&str> = trace.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            phases,
            vec!["k_nearest_balls", "hitting_set_landmarks", "mssp_columns", "local_extraction"]
        );
        assert_eq!(trace.spans().iter().map(|s| s.rounds).sum::<u64>(), 0, "nothing is simulated");
    }

    #[test]
    fn capped_mode_bounds_landmarks_and_stays_deterministic() {
        let g = generators::road_like(10, 10, 20, 3).unwrap();
        let (a, trace) = DirectBuilder::new().k(6).max_landmarks(8).build_traced(&g).unwrap();
        assert_eq!(a.landmarks().len(), 8);
        let phases: Vec<&str> = trace.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            phases,
            vec!["k_nearest_balls", "landmark_selection", "exact_columns", "local_extraction"]
        );
        let b = DirectBuilder::new().k(6).max_landmarks(8).build(&g).unwrap();
        crate::testkit::assert_same_artifact(&a, &b);
        // Queries answer, never underestimate (columns are exact, balls are
        // exact; the via-landmark path is an upper bound) and stay within
        // the bound the artifact certifies.
        let bound = a.stretch_bound();
        for u in 0..g.n() {
            let exact = reference::dijkstra(&g, u);
            for v in 0..g.n() {
                let (est, d) = (a.try_query(u, v).unwrap().value().unwrap(), exact[v].unwrap());
                assert!(est >= d);
                assert!(
                    d == 0 || est as f64 <= bound * d as f64 + 1e-9,
                    "({u},{v}): {est} > {bound}·{d}"
                );
            }
        }
    }

    #[test]
    fn capped_mode_errors_when_a_node_reaches_no_landmark() {
        // Two components; rank the landmarks so only one component is hit:
        // with m = 1 some node must fail to reach it.
        let g = Graph::from_edges(8, [(0, 1, 1), (2, 3, 1)]).unwrap();
        let err = DirectBuilder::new().k(2).max_landmarks(1).build(&g).unwrap_err();
        assert!(err.to_string().contains("reaches no landmark"), "{err}");
    }

    #[test]
    fn rejects_bad_parameters() {
        let g = generators::path(8).unwrap();
        assert!(DirectBuilder::new().epsilon(0.0).build(&g).is_err());
        assert!(DirectBuilder::new().k(0).build(&g).is_err());
        assert!(DirectBuilder::new().max_landmarks(0).build(&g).is_err());
        assert!(DirectBuilder::new().build(&Graph::empty(0)).is_err());
    }
}
