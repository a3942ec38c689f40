//! Round *shape* of the two headline results as `n` grows (ROADMAP 2a):
//! Theorem 3 MSSP and the `(3+ε)` weighted APSP are polylogarithmic in the
//! paper, so on sparse random graphs their rounds must grow far slower than
//! any polynomial the baselines pay. The log-log slope over n = 32..256 is
//! asserted, the theorem's stretch bound is checked at every size, and the
//! `path(n)` family — where hop-bounded detection changes a row in every
//! product, so no fixpoint exit applies and the hop bound is paid in full —
//! is printed beside it. So is the share of MSSP's rounds Lemma 15's
//! cutoff search takes, which is asserted too: it is an `O(log W)` additive
//! term that must not come to dominate the run again.
//!
//! Opt-in (n = 256 is seconds in release, minutes in debug): CI runs it with
//! `--ignored`.
//!
//! ```text
//! cargo test --release --test round_shape -- --ignored --nocapture
//! ```

use congested_clique::clique::Clique;
use congested_clique::core::{apsp, mssp, stretch};
use congested_clique::graph::{generators, reference, Graph};

const SIZES: [usize; 4] = [32, 64, 128, 256];
const EPSILON: f64 = 0.5;
const MAX_SLOPE: f64 = 0.4;
/// Measured 0.08 / 0.12 / 0.15 / 0.17 on `gnp_weighted` at n = 32…256;
/// bisecting the value space took 0.32–0.36.
const MAX_SEARCH_SHARE: f64 = 0.2;

/// Eight sources spread over `0..n`, as in the golden ledger at n = 32.
fn sources(n: usize) -> Vec<usize> {
    (0..8).map(|i| 1 + i * (n / 8)).collect()
}

/// Rounds of a run's Lemma 15 cutoff search: every phase under that label.
fn cutoff_search_rounds(clique: &Clique) -> u64 {
    let report = clique.report();
    report
        .phases
        .iter()
        .filter(|(label, _)| label.contains("/cutoff_search/"))
        .map(|(_, p)| p.rounds)
        .sum()
}

/// MSSP's rounds and the cutoff search's part of them.
fn mssp_rounds(g: &Graph) -> (u64, u64) {
    let n = g.n();
    let sources = sources(n);
    let mut clique = Clique::new(n);
    let run = mssp::mssp(&mut clique, g, &sources, EPSILON).expect("mssp");
    // exact[v][i] = d(v, sources[i]), the shape of `run.dist`.
    let columns: Vec<Vec<Option<u64>>> =
        sources.iter().map(|&s| reference::dijkstra(g, s)).collect();
    let exact: Vec<Vec<Option<u64>>> =
        (0..n).map(|v| columns.iter().map(|col| col[v]).collect()).collect();
    stretch::assert_sound(&run.dist, &exact);
    let worst = stretch::max_stretch(&run.dist, &exact);
    assert!(worst <= 1.0 + EPSILON + 1e-9, "mssp n={n}: stretch {worst}");
    (run.rounds, cutoff_search_rounds(&clique))
}

fn apsp_rounds(g: &Graph) -> u64 {
    let n = g.n();
    let mut clique = Clique::new(n);
    let run = apsp::weighted_3eps(&mut clique, g, EPSILON).expect("weighted_3eps");
    let exact = reference::all_pairs(g);
    stretch::assert_sound(&run.dist, &exact);
    let worst = stretch::max_stretch(&run.dist, &exact);
    assert!(worst <= 3.0 + EPSILON + 1e-9, "(3+eps) n={n}: stretch {worst}");
    run.rounds
}

/// Least-squares slope of `log rounds` against `log n`.
fn log_log_slope(points: &[(usize, u64)]) -> f64 {
    let xs: Vec<f64> = points.iter().map(|&(n, _)| (n as f64).ln()).collect();
    let ys: Vec<f64> = points.iter().map(|&(_, r)| (r as f64).ln()).collect();
    let (mx, my) =
        (xs.iter().sum::<f64>() / xs.len() as f64, ys.iter().sum::<f64>() / ys.len() as f64);
    let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    cov / var
}

/// The MSSP and (3+ε) slopes, and the cutoff search's largest share of
/// MSSP's rounds.
fn measure(family: &str, graph_of: impl Fn(usize) -> Graph) -> [f64; 3] {
    let mut mssp_points = Vec::new();
    let mut search_points = Vec::new();
    let mut apsp_points = Vec::new();
    for n in SIZES {
        let g = graph_of(n);
        let (mssp, search) = mssp_rounds(&g);
        mssp_points.push((n, mssp));
        search_points.push((n, search));
        apsp_points.push((n, apsp_rounds(&g)));
    }
    let slopes = [log_log_slope(&mssp_points), log_log_slope(&apsp_points)];
    let shares: Vec<f64> =
        mssp_points.iter().zip(&search_points).map(|(m, s)| s.1 as f64 / m.1 as f64).collect();
    let share = shares.iter().copied().fold(0.0, f64::max);
    println!("{family}: mssp(8 sources) {mssp_points:?} slope {:.2}", slopes[0]);
    println!("{family}: cutoff_search   {search_points:?} share of mssp {shares:.2?}");
    println!("{family}: weighted_3eps   {apsp_points:?} slope {:.2}", slopes[1]);
    [slopes[0], slopes[1], share]
}

#[test]
#[ignore = "opt-in tier: n = 256 on the simulator is seconds in release, minutes in debug; CI runs it with --ignored"]
fn rounds_grow_sublinearly_on_sparse_random_graphs() {
    let [mssp_slope, apsp_slope, search_share] =
        measure("gnp_weighted", |n| generators::gnp_weighted(n, 5.0 / n as f64, 40, 42).unwrap());
    assert!(mssp_slope <= MAX_SLOPE, "mssp log-log slope {mssp_slope:.2} > {MAX_SLOPE}");
    assert!(apsp_slope <= MAX_SLOPE, "(3+eps) log-log slope {apsp_slope:.2} > {MAX_SLOPE}");
    assert!(
        search_share <= MAX_SEARCH_SHARE,
        "cutoff_search takes {search_share:.2} of mssp's rounds > {MAX_SEARCH_SHARE}"
    );
    // The family the exit cannot help: reported, stretch-checked, not gated.
    measure("path", |n| generators::path(n).unwrap());
}

#[test]
fn slope_of_a_known_power_law() {
    let points: Vec<(usize, u64)> = SIZES.iter().map(|&n| (n, (n * n) as u64)).collect();
    assert!((log_log_slope(&points) - 2.0).abs() < 1e-9);
}
