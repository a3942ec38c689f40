//! The paper's algorithms are deterministic; the simulator must be too.
//! Same inputs ⇒ identical outputs *and* an identical `Clique::report()` —
//! rounds, messages, words and the whole per-phase breakdown — across
//! repeated runs in the same process (this catches accidental dependence on
//! hash-map iteration order inside the distributed algorithms).

use congested_clique::clique::Clique;
use congested_clique::core::{apsp, diameter, mssp, sssp};
use congested_clique::distance::k_nearest;
use congested_clique::graph::generators;

#[test]
fn k_nearest_is_deterministic() {
    let g = generators::gnp_weighted(48, 0.15, 30, 9).unwrap();
    let mut runs = Vec::new();
    for _ in 0..3 {
        let mut clique = Clique::new(48);
        let rows = k_nearest(&mut clique, &g, 8).unwrap();
        runs.push((rows, clique.report()));
    }
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[1], runs[2]);
}

#[test]
fn apsp_is_deterministic() {
    let g = generators::gnp(32, 0.15, 4).unwrap();
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut clique = Clique::new(32);
        let run = apsp::unweighted_2eps(&mut clique, &g, 0.5).unwrap();
        runs.push((run.dist, run.rounds, clique.report()));
    }
    assert_eq!(runs[0], runs[1]);
}

#[test]
fn mssp_and_sssp_are_deterministic() {
    let g = generators::grid_weighted(6, 5, 12, 3).unwrap();
    let mut mssp_runs = Vec::new();
    let mut sssp_runs = Vec::new();
    for _ in 0..2 {
        let mut clique = Clique::new(30);
        let run = mssp::mssp(&mut clique, &g, &[0, 17], 0.5).unwrap();
        mssp_runs.push((run.dist, run.rounds, clique.report()));
        let mut clique = Clique::new(30);
        let run = sssp::exact_sssp(&mut clique, &g, 3).unwrap();
        sssp_runs.push((run.dist, run.rounds, clique.report()));
    }
    assert_eq!(mssp_runs[0], mssp_runs[1]);
    assert_eq!(sssp_runs[0], sssp_runs[1]);
}

#[test]
fn diameter_is_deterministic() {
    let g = generators::cycle(24).unwrap();
    let mut estimates = Vec::new();
    for _ in 0..2 {
        let mut clique = Clique::new(24);
        let run = diameter::diameter_approx(&mut clique, &g, 0.25).unwrap();
        estimates.push((run.estimate, run.rounds, clique.report()));
    }
    assert_eq!(estimates[0], estimates[1]);
}
