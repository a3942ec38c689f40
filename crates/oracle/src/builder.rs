//! The build phase: one distributed pass that extracts the local artifact.

use std::sync::Arc;
use std::time::Instant;

use cc_clique::Clique;
use cc_core::mssp::mssp;
use cc_distance::{check_epsilon, check_size, hitting_set_of, k_nearest, HittingSet};
use cc_graph::Graph;
use cc_matrix::{AugDist, SparseRow};
use cc_telemetry::BuildTrace;

use crate::error::{invalid, rejected};
use crate::oracle::{ArtifactSlice, BuildParams, Sections};
use crate::{DistanceOracle, OracleError};

/// The default ball size `⌈√(n·ln n)⌉` — balancing ball size against the
/// `O(n log n / k)` landmark count, the paper's §4 trade-off. Shared by
/// [`OracleBuilder`] and [`crate::direct::DirectBuilder`] so the two build
/// paths resolve identical parameters.
pub(crate) fn default_k(n: usize) -> usize {
    ((n as f64) * (n.max(2) as f64).ln()).sqrt().ceil() as usize
}

/// The member ids of a `k`-nearest ball, read in place: the sets the
/// landmarks must hit (Lemma 4).
pub(crate) fn ball_ids(ball: &SparseRow<AugDist>) -> impl Iterator<Item = usize> + '_ {
    ball.iter().map(|(c, _)| c as usize)
}

/// The one extraction kernel, shared by every build: per-node balls in id
/// order, each node's nearest landmark, and the already-flattened column
/// matrix.
///
/// `near[v]` is node `v`'s `k`-nearest ball as [`k_nearest`] returns it
/// (the direct builder's search returns the same shape); `landmarks` are
/// ascending node ids; `columns` is the row-major `n × |landmarks|` matrix
/// with `Dist::INF.raw()` marking an unreachable landmark. `nearest` is the
/// build's nearest-landmark rule: given `v`'s ball and its column row, the
/// pick `(index into landmarks, distance)`, or `None` if `v` reaches no
/// landmark. The direct builder passes `build_rounds = 0`; the clique
/// builder the simulator's count.
///
/// # Errors
///
/// [`OracleError::InvalidParameter`] if some node reaches no landmark,
/// which a hitting set built over these balls rules out (every ball
/// contains its own node and the repair pass hits every non-empty set).
pub(crate) fn extract_artifact(
    params: BuildParams,
    near: &[SparseRow<AugDist>],
    landmarks: &[usize],
    columns: Vec<u64>,
    nearest: impl Fn(&SparseRow<AugDist>, &[u64]) -> Option<(u32, u64)>,
) -> Result<DistanceOracle, OracleError> {
    let s = landmarks.len();
    let ids = landmarks.iter().map(|&a| a as u32).collect();
    let mut sections = Sections::with_rows(near.len(), ids, Vec::new());
    for (v, ball) in near.iter().enumerate() {
        let Some(pick) = nearest(ball, &columns[v * s..(v + 1) * s]) else {
            return Err(invalid(format!(
                "node {v} reaches no landmark; raise max_landmarks or use a connected graph"
            )));
        };
        sections.push_row(pick, ball.iter().map(|(c, a)| (c, a.dist)));
    }
    sections.columns = Arc::new(columns);
    Ok(DistanceOracle(ArtifactSlice::from_sections(params, 0..params.n, sections)?))
}

/// The nearest-landmark rule of a hitting set (§4.1): `p(v)` is the member
/// closest in `v`'s ball, by the augmented order then id.
pub(crate) fn closest_hitter(
    landmarks: &HittingSet,
) -> impl Fn(&SparseRow<AugDist>, &[u64]) -> Option<(u32, u64)> + '_ {
    |ball, _| {
        let (p, aug) = landmarks.closest_in_row(ball)?;
        Some((landmarks.members.binary_search(&p).ok()? as u32, aug.dist))
    }
}

/// Appends one phase span to `trace`, charging the round/message/word
/// deltas since `before` and the wall time since `started`.
fn close_span(
    trace: &mut BuildTrace,
    name: &str,
    clique: &Clique,
    before: &cc_clique::RoundReport,
    started: Instant,
) {
    let after = clique.report();
    trace.record(
        name,
        started.elapsed().as_nanos() as u64,
        after.rounds - before.rounds,
        after.messages - before.messages,
        after.words - before.words,
    );
}

/// Configures and runs the one-off distributed build of a
/// [`DistanceOracle`].
///
/// Defaults: `k = ⌈√(n·ln n)⌉` (balancing ball size against the
/// `O(n log n / k)` landmark count, the paper's §4 trade-off), `ε = 0.25`,
/// `seed = 0`.
///
/// # Example
///
/// ```
/// use cc_clique::Clique;
/// use cc_graph::generators;
/// use cc_oracle::OracleBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::grid_weighted(6, 6, 20, 1)?;
/// let mut clique = Clique::new(36);
/// let oracle = OracleBuilder::new().k(8).epsilon(0.5).build(&mut clique, &g)?;
/// assert_eq!(oracle.k(), 8);
/// assert!(oracle.build_rounds() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OracleBuilder {
    k: Option<usize>,
    epsilon: f64,
    seed: u64,
}

impl Default for OracleBuilder {
    fn default() -> Self {
        OracleBuilder { k: None, epsilon: 0.25, seed: 0 }
    }
}

impl OracleBuilder {
    /// A builder with default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ball size `k` (default `⌈√(n·ln n)⌉`, clamped to `1..=n`).
    pub fn k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// MSSP accuracy `ε > 0`; the artifact certifies a serving-phase
    /// stretch bound of at most `3+2ε`.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Seed for the deterministic landmark selection. Two builds with the
    /// same graph, parameters and seed produce identical artifacts.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the distributed build: `k`-nearest balls, hitting-set landmark
    /// selection, and MSSP columns from the landmark set; then extracts the
    /// purely local artifact.
    ///
    /// # Errors
    ///
    /// * [`OracleError::InvalidParameter`] for `k = 0`, a non-finite or
    ///   non-positive `ε`, or a graph/clique size mismatch;
    /// * [`OracleError::Build`] if a distributed substrate fails.
    pub fn build(&self, clique: &mut Clique, graph: &Graph) -> Result<DistanceOracle, OracleError> {
        self.build_traced(clique, graph).map(|(oracle, _)| oracle)
    }

    /// Like [`build`](Self::build), but also returns a
    /// [`BuildTrace`] with one span per phase — k-nearest balls,
    /// hitting-set landmarks, MSSP columns, local extraction — each
    /// carrying the phase's simulated rounds, wall time, and message
    /// volume (messages/words moved through the clique).
    ///
    /// # Errors
    ///
    /// Same conditions as [`build`](Self::build).
    pub fn build_traced(
        &self,
        clique: &mut Clique,
        graph: &Graph,
    ) -> Result<(DistanceOracle, BuildTrace), OracleError> {
        let n = graph.n();
        check_size(clique, n).map_err(rejected)?;
        if n == 0 {
            return Err(invalid("oracle needs a non-empty graph"));
        }
        check_epsilon(self.epsilon).map_err(rejected)?;
        let k = self.k.unwrap_or_else(|| default_k(n)).min(n);
        if k == 0 {
            return Err(invalid("oracle needs k >= 1"));
        }

        let rounds_before = clique.rounds();
        let mut trace = BuildTrace::new();

        // Phase 1 — Theorem 18: exact k-nearest balls.
        let (report, started) = (clique.report(), Instant::now());
        let near = k_nearest(clique, graph, k)?;
        close_span(&mut trace, "k_nearest_balls", clique, &report, started);

        // Phase 2 — Lemma 4: a landmark set hitting every ball. Balls always
        // contain their own node, so every node gets a landmark in its ball.
        let (report, started) = (clique.report(), Instant::now());
        let landmarks = hitting_set_of(clique, |v| ball_ids(&near[v]), k, self.seed)?;
        close_span(&mut trace, "hitting_set_landmarks", clique, &report, started);

        // Phase 3 — Theorem 3: (1+ε) distance columns from the landmarks.
        let (report, started) = (clique.report(), Instant::now());
        let run = mssp(clique, graph, &landmarks.members, self.epsilon)?;
        close_span(&mut trace, "mssp_columns", clique, &report, started);
        let build_rounds = clique.rounds() - rounds_before;

        // Extraction — purely local, no further communication.
        let (report, started) = (clique.report(), Instant::now());
        let columns = run.dist.iter().flatten().map(|d| d.raw()).collect();
        let params = BuildParams { n, k, epsilon: self.epsilon, seed: self.seed, build_rounds };
        let rule = closest_hitter(&landmarks);
        let oracle = extract_artifact(params, &near, &landmarks.members, columns, rule)?;
        close_span(&mut trace, "local_extraction", clique, &report, started);
        Ok((oracle, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators;

    #[test]
    fn default_k_tracks_sqrt_n_log_n() {
        let g = generators::gnp(64, 0.15, 2).unwrap();
        let mut clique = Clique::new(64);
        let oracle = OracleBuilder::new().build(&mut clique, &g).unwrap();
        let expected = ((64f64) * (64f64).ln()).sqrt().ceil() as usize;
        assert_eq!(oracle.k(), expected);
        assert!(!oracle.landmarks().is_empty());
        assert!(oracle.landmarks().len() < 64, "landmarks must be a sketch, not everyone");
    }

    #[test]
    fn build_charges_rounds_only_once() {
        let g = generators::gnp(32, 0.2, 3).unwrap();
        let mut clique = Clique::new(32);
        let oracle = OracleBuilder::new().build(&mut clique, &g).unwrap();
        assert_eq!(oracle.build_rounds(), clique.rounds());
        let before = clique.rounds();
        // Queries are local: the clique's round counter must not move.
        for u in 0..32 {
            for v in 0..32 {
                let _ = oracle.try_query(u, v).unwrap();
            }
        }
        assert_eq!(clique.rounds(), before);
    }

    #[test]
    fn same_seed_rebuilds_identical_artifact() {
        let g = generators::gnp_weighted(32, 0.15, 25, 4).unwrap();
        let build = |seed: u64| {
            let mut clique = Clique::new(32);
            OracleBuilder::new().seed(seed).build(&mut clique, &g).unwrap()
        };
        assert_eq!(build(9), build(9));
    }

    #[test]
    fn build_trace_accounts_for_every_round() {
        let g = generators::gnp(32, 0.2, 3).unwrap();
        let mut clique = Clique::new(32);
        let (oracle, trace) = OracleBuilder::new().build_traced(&mut clique, &g).unwrap();
        let phases: Vec<&str> = trace.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            phases,
            vec!["k_nearest_balls", "hitting_set_landmarks", "mssp_columns", "local_extraction"]
        );
        // The three distributed phases account for exactly the build rounds;
        // extraction is local and charges none.
        assert_eq!(trace.spans().iter().map(|s| s.rounds).sum::<u64>(), oracle.build_rounds());
        assert_eq!(trace.span("local_extraction").unwrap().rounds, 0);
        assert!(trace.span("mssp_columns").unwrap().rounds > 0);
        assert!(trace.span("k_nearest_balls").unwrap().words > 0, "phase 1 moves data");
    }

    #[test]
    fn rejects_bad_parameters() {
        let g = generators::path(8).unwrap();
        let mut clique = Clique::new(8);
        assert!(OracleBuilder::new().epsilon(0.0).build(&mut clique, &g).is_err());
        assert!(OracleBuilder::new().k(0).build(&mut clique, &g).is_err());
        let mut mismatched = Clique::new(9);
        assert!(OracleBuilder::new().build(&mut mismatched, &g).is_err());
    }

    #[test]
    fn oversized_k_is_clamped_to_n() {
        let g = generators::path(6).unwrap();
        let mut clique = Clique::new(6);
        let oracle = OracleBuilder::new().k(100).build(&mut clique, &g).unwrap();
        assert_eq!(oracle.k(), 6);
        // With k = n every ball is the whole component: all queries exact.
        for u in 0..6 {
            for v in 0..6 {
                assert_eq!(
                    oracle.try_query(u, v).unwrap().value(),
                    cc_graph::reference::dijkstra(&g, u)[v]
                );
            }
        }
    }
}
