//! What the phase runner needs from a workload, and the verification
//! helpers the workloads share.

use crate::measure::Steps;
use crate::trace::Tracer;
use cc_graph::{reference, Graph};
use cc_matrix::Dist;
use std::path::Path;
use std::time::Duration;

/// The workloads, in the order every report lists them.
pub const WORKLOADS: [&str; 4] = ["clique_paper", "serve_point", "serve_batch", "serve_routed"];

/// The two timed phases of every workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The workload's main operation.
    Op,
    /// The operation that shares `op`'s code but stresses another part of it.
    Alt,
}

/// Operations attempted and failed, with the first failure kept for the
/// report.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations whose outcome was wrong.
    pub failed: u64,
    /// Description of the first failure.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Adds the operations another tally counted.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    /// Counts one checked operation; `why` is only rendered on failure.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(why());
            }
        }
    }
}

/// What a workload reports once its phases are over.
#[derive(Debug)]
pub struct Finished {
    /// The workload's exact cost (rounds or bytes; see the README table).
    pub cost_count: u64,
    /// Largest estimate ÷ exact distance over the fixed verification set.
    pub stretch_max: f64,
    /// Every operation checked during warm-up, phases and verification.
    pub tally: Tally,
}

/// One benchmark workload after set-up.
pub trait Workload {
    /// Operations in one block of `phase`.
    fn ops(&self, phase: Phase) -> usize;

    /// Runs one identical block of `phase` and returns the time of its
    /// measured part; outcomes are checked after that clock stops. With
    /// `replay` (traced runs only) the block's calls are then re-executed
    /// in process under child spans.
    fn block(&mut self, phase: Phase, tracer: &mut Tracer, replay: bool) -> Duration;

    /// Checks that can only run once a phase is over.
    fn after_phase(&mut self, _phase: Phase) {}

    /// Verifies answers against exact distances, tears the workload down
    /// and reports.
    fn finish(self: Box<Self>) -> Finished;

    /// Tears down a set-up that will not be measured (rule 5 repeats the
    /// complete set-up).
    fn tear_down(self: Box<Self>);
}

/// Sets up workload `name`, timing each step into `steps`; `None` for an
/// unknown name. Files go under `dir`.
pub fn set_up(name: &str, seed: u64, dir: &Path, steps: &mut Steps) -> Option<Box<dyn Workload>> {
    use crate::serve::{Kind, Serving};
    Some(match name {
        "clique_paper" => Box::new(crate::clique_paper::CliquePaper::set_up(seed, steps)),
        "serve_point" => Box::new(Serving::set_up(Kind::Point, seed, dir, steps)),
        "serve_batch" => Box::new(Serving::set_up(Kind::Batch, seed, dir, steps)),
        "serve_routed" => Box::new(Serving::set_up(Kind::Routed, seed, dir, steps)),
        _ => return None,
    })
}

/// Running statistics of estimate ÷ exact over verified answers.
#[derive(Debug, Clone, Copy)]
pub struct Stretch {
    /// Largest ratio seen (1.0 before any).
    pub max: f64,
    /// Sum of ratios, for the mean.
    pub sum: f64,
    /// Ratios seen.
    pub count: u64,
    /// Ratios equal to 1.
    pub exact: u64,
}

impl Default for Stretch {
    fn default() -> Self {
        Stretch { max: 1.0, sum: 0.0, count: 0, exact: 0 }
    }
}

impl Stretch {
    /// Checks one answer for soundness (finite iff reachable, never below
    /// the exact distance, at most `bound ×` exact when a bound applies) and
    /// folds its ratio in. Returns whether the answer is acceptable.
    pub fn admit(&mut self, estimate: Dist, exact: Option<u64>, bound: Option<f64>) -> bool {
        match (estimate.value(), exact) {
            (None, None) => true,
            (Some(e), Some(d)) if e >= d => {
                if d > 0 {
                    let ratio = e as f64 / d as f64;
                    self.max = self.max.max(ratio);
                    self.sum += ratio;
                    self.count += 1;
                    self.exact += u64::from(e == d);
                }
                bound.is_none_or(|b| e as f64 <= b * d as f64 + 1e-9)
            }
            _ => false,
        }
    }
}

/// Sources of the fixed verification set: 65 nodes spread over `0..n`.
pub fn verification_sources(n: usize) -> impl Iterator<Item = usize> {
    (0..65).map(move |i| i * n / 65)
}

/// Checks `answer(u, v)` against Dijkstra for every `u` in `sources` and
/// every `v`, counting each pair in `tally`.
pub fn verify_from_sources(
    graph: &Graph,
    sources: impl Iterator<Item = usize>,
    mut answer: impl FnMut(usize, usize) -> Option<Dist>,
    tally: &mut Tally,
) -> Stretch {
    let mut stretch = Stretch::default();
    for u in sources {
        let exact = reference::dijkstra(graph, u);
        for (v, &d) in exact.iter().enumerate() {
            let est = answer(u, v);
            let ok = est.is_some_and(|e| stretch.admit(e, d, None));
            tally.check(ok, || format!("pair ({u},{v}): answer {est:?} against exact {d:?}"));
        }
    }
    stretch
}

/// Soundness of served answers: no answer is below the exact distance.
/// `served` is sorted, so each distinct first endpoint costs one Dijkstra.
pub fn verify_served_pairs(graph: &Graph, served: &[((usize, usize), Dist)], tally: &mut Tally) {
    let mut stretch = Stretch::default();
    let mut current: Option<(usize, Vec<Option<u64>>)> = None;
    for &((u, v), answer) in served {
        if current.as_ref().is_none_or(|(src, _)| *src != u) {
            current = Some((u, reference::dijkstra(graph, u)));
        }
        let exact = current.as_ref().and_then(|(_, d)| d[v]);
        let ok = stretch.admit(answer, exact, None);
        tally.check(ok, || format!("served pair ({u},{v}): {answer:?} against exact {exact:?}"));
    }
}
