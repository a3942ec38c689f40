//! Workload `clique_paper`: the abstract's two headline results on the
//! simulated clique — Theorem 3 (MSSP) as `op`, Theorem 2/31 (unweighted
//! (2+ε)-APSP) as `alt`. All of its time is spent in `cc-matmul`,
//! `cc-clique`, `cc-distance`, `cc-hopset` and `cc-core`, none in serving
//! code, and the two phases drive the min-plus products with different
//! shapes: β-hop source detection over a hopset against k-nearest squaring,
//! through-sets and a hitting set.

use crate::fixtures::{self, CLIQUE_EPSILON, CLIQUE_N};
use crate::measure::Steps;
use crate::trace::Tracer;
use crate::workload::{Finished, Phase, Stretch, Tally, Workload};
use cc_clique::{Clique, RoundReport};
use cc_core::{apsp, mssp, ApspRun, MsspRun};
use cc_distance::{hitting_set, k_nearest, source_detection_all, DistanceError};
use cc_graph::{reference, Graph};
use cc_hopset::{build_hopset, HopsetConfig};
use cc_matrix::Dist;
use std::time::{Duration, Instant};

/// The first checked outcome of a phase; every later block must equal it.
struct Reference {
    dist: Vec<Vec<Dist>>,
    rounds: u64,
}

/// See the module docs.
pub struct CliquePaper {
    /// Weighted graph (`op` input).
    pub weighted: Graph,
    /// Unweighted graph (`alt` input).
    pub unweighted: Graph,
    /// MSSP sources, drawn from the seed.
    pub sources: Vec<usize>,
    exact_weighted: Vec<Vec<Option<u64>>>,
    exact_unweighted: Vec<Vec<Option<u64>>>,
    op_reference: Option<Reference>,
    alt_reference: Option<Reference>,
    stretch: Stretch,
    tally: Tally,
}

impl CliquePaper {
    /// Generates both graphs and their exact all-pairs distances.
    pub fn set_up(seed: u64, steps: &mut Steps) -> CliquePaper {
        let (weighted, unweighted) = steps.time("generate_graphs", || {
            (fixtures::clique_weighted(), fixtures::clique_unweighted())
        });
        let (exact_weighted, exact_unweighted) = steps.time("reference_all_pairs", || {
            (reference::all_pairs(&weighted), reference::all_pairs(&unweighted))
        });
        CliquePaper {
            weighted,
            unweighted,
            sources: fixtures::mssp_sources(seed),
            exact_weighted,
            exact_unweighted,
            op_reference: None,
            alt_reference: None,
            stretch: Stretch::default(),
            tally: Tally::default(),
        }
    }

    /// One `op`: Theorem 3 from the seeded sources on a fresh clique.
    pub fn run_op(&self) -> Result<MsspRun, DistanceError> {
        let mut clique = Clique::new(CLIQUE_N);
        mssp::mssp(&mut clique, &self.weighted, &self.sources, CLIQUE_EPSILON)
    }

    /// One `alt`: Theorem 2/31 on a fresh clique.
    pub fn run_alt(&self) -> Result<ApspRun, DistanceError> {
        let mut clique = Clique::new(CLIQUE_N);
        apsp::unweighted_2eps(&mut clique, &self.unweighted, CLIQUE_EPSILON)
    }

    /// First outcome: soundness and the theorem's bound against the exact
    /// distances. Later outcomes: bit-identity with the first.
    fn check(
        reference: &mut Option<Reference>,
        stretch: &mut Stretch,
        tally: &mut Tally,
        what: &str,
        outcome: Result<(Vec<Vec<Dist>>, u64), DistanceError>,
        exact_of: impl Fn(usize, usize) -> Option<u64>,
        bound: f64,
    ) {
        let (dist, rounds) = match outcome {
            Ok(run) => run,
            Err(e) => return tally.check(false, || format!("{what} failed: {e}")),
        };
        if let Some(first) = reference {
            let same = first.dist == dist && first.rounds == rounds;
            return tally.check(same, || format!("{what} differs from its first run"));
        }
        let mut ok = true;
        for (v, row) in dist.iter().enumerate() {
            for (i, &est) in row.iter().enumerate() {
                ok &= stretch.admit(est, exact_of(v, i), Some(bound));
            }
        }
        tally.check(ok, || format!("{what} is unsound or exceeds its {bound}× bound"));
        *reference = Some(Reference { dist, rounds });
    }

    /// Re-executes the two halves of Theorem 3 as children of `parent`.
    fn replay_op(&self, tracer: &mut Tracer, parent: crate::trace::SpanId, request: u32) {
        let mut clique = Clique::new(CLIQUE_N);
        let hopset = tracer.scope("hopset.build_hopset", Some(parent), request, || {
            build_hopset(&mut clique, &self.weighted, HopsetConfig::new(CLIQUE_EPSILON))
        });
        if let Ok(hopset) = hopset {
            let union = hopset.union_with(&self.weighted);
            tracer
                .scope("distance.source_detection_all", Some(parent), request, || {
                    source_detection_all(&mut clique, &union, &self.sources, hopset.beta)
                        .map(|r| r.len())
                })
                .ok();
        }
    }

    /// Re-executes the public tools Theorem 2/31 starts from as children of
    /// `parent`; the rest of the algorithm is the parent's self time.
    fn replay_alt(&self, tracer: &mut Tracer, parent: crate::trace::SpanId, request: u32) {
        let k = (CLIQUE_N as f64).sqrt().ceil() as usize;
        let mut clique = Clique::new(CLIQUE_N);
        let near = tracer.scope("distance.k_nearest", Some(parent), request, || {
            k_nearest(&mut clique, &self.unweighted, k)
        });
        if let Ok(near) = near {
            let sets: Vec<Vec<usize>> =
                near.iter().map(|r| r.iter().map(|(c, _)| c as usize).collect()).collect();
            tracer
                .scope("distance.hitting_set", Some(parent), request, || {
                    hitting_set(&mut clique, &sets, k, 0xB7).map(|h| h.len())
                })
                .ok();
        }
    }
}

/// Sums a report's per-phase rounds by the leaf segment of the phase label
/// (`mssp/hopset/route` → `route`).
pub fn rounds_by_leaf(report: &RoundReport, leaf: &str) -> u64 {
    report
        .phases
        .iter()
        .filter(|(label, _)| label.rsplit('/').next() == Some(leaf))
        .map(|(_, stats)| stats.rounds)
        .sum()
}

impl Workload for CliquePaper {
    fn ops(&self, _phase: Phase) -> usize {
        1
    }

    fn block(&mut self, phase: Phase, tracer: &mut Tracer, replay: bool) -> Duration {
        let request = if tracer.enabled() { tracer.new_request() } else { 0 };
        match phase {
            Phase::Op => {
                let t = Instant::now();
                let span = tracer.begin("core.mssp", None, request);
                let run = self.run_op();
                tracer.end(span);
                let elapsed = t.elapsed();
                let sources = &self.sources;
                let exact = &self.exact_weighted;
                Self::check(
                    &mut self.op_reference,
                    &mut self.stretch,
                    &mut self.tally,
                    "mssp (Theorem 3)",
                    run.map(|r| (r.dist, r.rounds)),
                    |v, i| exact[v][sources[i]],
                    1.0 + CLIQUE_EPSILON,
                );
                if replay {
                    self.replay_op(tracer, span, request);
                }
                elapsed
            }
            Phase::Alt => {
                let t = Instant::now();
                let span = tracer.begin("core.apsp_unweighted_2eps", None, request);
                let run = self.run_alt();
                tracer.end(span);
                let elapsed = t.elapsed();
                let exact = &self.exact_unweighted;
                Self::check(
                    &mut self.alt_reference,
                    &mut self.stretch,
                    &mut self.tally,
                    "unweighted_2eps (Theorem 2/31)",
                    run.map(|r| (r.dist, r.rounds)),
                    |u, v| exact[u][v],
                    2.0 + CLIQUE_EPSILON,
                );
                if replay {
                    self.replay_alt(tracer, span, request);
                }
                elapsed
            }
        }
    }

    fn finish(self: Box<Self>) -> Finished {
        let rounds = |r: &Option<Reference>| r.as_ref().map_or(0, |r| r.rounds);
        Finished {
            cost_count: rounds(&self.op_reference) + rounds(&self.alt_reference),
            stretch_max: self.stretch.max,
            tally: self.tally,
        }
    }

    fn tear_down(self: Box<Self>) {}
}
