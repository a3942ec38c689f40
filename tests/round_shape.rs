//! Round *shape* of the two headline results as `n` grows (ROADMAP 2a):
//! Theorem 3 MSSP and the `(3+ε)` weighted APSP are polylogarithmic in the
//! paper, so on sparse random graphs their rounds must grow far slower than
//! any polynomial the baselines pay. The log-log slope over n = 32..256 is
//! asserted, and so are ceilings on both runs' rounds at every n and the
//! load words each run spent; the theorem's stretch bound is checked at
//! every size. The `path(n)` family — where hop-bounded detection changes a
//! row in every product, so no fixpoint exit applies and the hop bound is
//! paid in full — runs beside it with its own MSSP slope gate, ceilings and
//! load words. A third family, the 16-wide `grid`, is held to the same
//! slope gate as `gnp` and to its own ceilings and load words. Each run's
//! rounds are split by phase family and printed per n as shares, beside how
//! many of its products the row owners computed and what choosing their
//! paths spent (load words, frontier transposes), so a cut that only pays
//! off at n = 32 shows. Lemma 15's cutoff search is asserted per filtered
//! product that runs it in the pipeline: it is an `O(log W)` additive term
//! that must not come to dominate a product again. A filtered product with
//! `2ρ ≥ n` skips it, so how many ran it and how many skipped it is printed
//! per n beside that figure. A second test holds all three families' rounds
//! and load words to their ceilings at n = 512 and 1 024, where Lemma 15's
//! search runs and a cut that only pays off at small n shows.
//!
//! Opt-in (n = 256 is seconds in release, minutes in debug; n = 1 024 about
//! a minute in release): CI runs both with `--ignored`.
//!
//! ```text
//! cargo test --release --test round_shape -- --ignored --nocapture
//! ```

use congested_clique::clique::{Clique, RoundReport};
use congested_clique::core::{apsp, mssp, stretch};
use congested_clique::graph::{generators, reference, Graph};

const SIZES: [usize; 4] = [32, 64, 128, 256];
const EPSILON: f64 = 0.5;
const MAX_SLOPE: f64 = 0.4;
/// The `path` family's MSSP slope, where no fixpoint exit applies and every
/// hop step runs: measured 0.299 since hop steps send only what changed
/// (0.352 before, the gate's value), and 0.300 since k-nearest's first
/// squaring stopped broadcasting counts nobody reads (one round fewer at
/// every size).
const MAX_PATH_SLOPE: f64 = 0.352;
/// MSSP and (3+ε) rounds at each of `SIZES`: ceilings at the measured
/// counts, so a change that adds rounds at any size fails here.
const MAX_ROUNDS: [[u64; 4]; 2] = [[127, 159, 169, 174], [174, 217, 281, 287]];
/// The same on `path`.
const MAX_PATH_ROUNDS: [[u64; 4]; 2] = [[133, 172, 232, 241], [177, 237, 335, 355]];
/// The load words MSSP and (3+ε) broadcast at each of `SIZES`, as measured:
/// only a product the broadcast counts straddle spends one a node, so a
/// change in what chooses a product's path shows here.
const LOAD_WORDS: [[u64; 4]; 2] = [[0, 0, 0, 0], [3, 2, 1, 2]];
/// The same on `path`.
const PATH_LOAD_WORDS: [[u64; 4]; 2] = [[1, 0, 1, 0], [5, 4, 3, 3]];
/// The sizes past `SIZES` that the second opt-in test gates, and their
/// MSSP and (3+ε) rounds ceilings and load words on `gnp_weighted` and on
/// `path`, as measured.
const LARGE_SIZES: [usize; 2] = [512, 1024];
const MAX_LARGE_ROUNDS: [[u64; 2]; 2] = [[305, 318], [461, 488]];
const LARGE_LOAD_WORDS: [[u64; 2]; 2] = [[0, 0], [3, 2]];
const MAX_LARGE_PATH_ROUNDS: [[u64; 2]; 2] = [[397, 486], [549, 645]];
const LARGE_PATH_LOAD_WORDS: [[u64; 2]; 2] = [[1, 0], [3, 2]];
/// MSSP and (3+ε) rounds ceilings and load words on `grid(16, n/16)` at
/// each of `SIZES` and `LARGE_SIZES`, as measured.
const MAX_GRID_ROUNDS: [[u64; 4]; 2] = [[142, 149, 159, 158], [190, 212, 266, 274]];
const GRID_LOAD_WORDS: [[u64; 4]; 2] = [[0, 0, 0, 0], [3, 3, 4, 2]];
const MAX_LARGE_GRID_ROUNDS: [[u64; 2]; 2] = [[277, 298], [447, 491]];
const LARGE_GRID_LOAD_WORDS: [[u64; 2]; 2] = [[0, 0], [3, 3]];
/// Lemma 15's rounds per filtered product that runs it in the pipeline.
/// At n = 32…256 none does: the filtered products that reach the pipeline
/// are the hopset's k-nearest squarings, whose `k = ⌈√n·log₂ n⌉ ≥ n/2`
/// skips the search, so the measured figure is 0. The ceiling holds the
/// search to what it cost where it ran on `gnp_weighted` (13.3–26 rounds a
/// product); bisecting the value space paid `2 + 2·(27–32)` per search.
const MAX_SEARCH_ROUNDS_PER_PRODUCT: f64 = 32.0;

/// Phase families by a substring of their labels, first match wins; every
/// other label is "other".
const FAMILIES: [(&str, &str); 6] = [
    ("owner", "/owner/"),
    ("delivery", "/deliver"),
    ("summation", "/sum/"),
    ("cube", "/cube/"),
    ("cutoff", "/cutoff_search/"),
    ("hitting set", "hitting_set"),
];
const CUTOFF: usize = 4;

/// Eight sources spread over `0..n`, as in the golden ledger at n = 32.
fn sources(n: usize) -> Vec<usize> {
    (0..8).map(|i| 1 + i * (n / 8)).collect()
}

/// A run's rounds per phase family, in `FAMILIES` order and then "other".
fn family_rounds(report: &RoundReport) -> [u64; 7] {
    let mut rounds = [0; 7];
    for (label, stats) in &report.phases {
        let family = FAMILIES.iter().position(|(_, part)| label.contains(part));
        rounds[family.unwrap_or(FAMILIES.len())] += stats.rounds;
    }
    rounds
}

/// The invocations of every phase whose label ends in `leaf`.
fn invocations(report: &RoundReport, leaf: &str) -> u64 {
    report
        .phases
        .iter()
        .filter(|(label, _)| label.ends_with(leaf))
        .map(|(_, p)| p.invocations)
        .sum()
}

/// Filtered products a run executed in the pipeline, as those that ran
/// Lemma 15 and those that skipped it (`2ρ ≥ n`): the former broadcast their
/// Lemma 16 weights once, the latter their Lemma 12 sizes.
fn filtered_products(report: &RoundReport) -> [u64; 2] {
    ["filtered_mm/weights/all_broadcast", "filtered_mm/sizes/all_broadcast"]
        .map(|leaf| invocations(report, leaf))
}

fn mssp_report(g: &Graph) -> RoundReport {
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
    clique.report()
}

fn apsp_report(g: &Graph) -> RoundReport {
    let n = g.n();
    let mut clique = Clique::new(n);
    let run = apsp::weighted_3eps(&mut clique, g, EPSILON).expect("weighted_3eps");
    let exact = reference::all_pairs(g);
    stretch::assert_sound(&run.dist, &exact);
    let worst = stretch::max_stretch(&run.dist, &exact);
    assert!(worst <= 3.0 + EPSILON + 1e-9, "(3+eps) n={n}: stretch {worst}");
    clique.report()
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

/// Prints a run's rounds, each phase family's share of them, how many of
/// its products the row owners computed, and what the products' choices
/// spent: load words (broadcast only where the counts straddle the floor)
/// and transposes of a hop step's frontier, handed over by rows (only where
/// the product runs the pipeline or its row counts could not choose).
fn print_shares(family: &str, run: &str, n: usize, report: &RoundReport) {
    let shares: Vec<String> = family_rounds(report)
        .iter()
        .zip(FAMILIES.iter().map(|(name, _)| *name).chain(["other"]))
        .map(|(&r, name)| format!("{name} {:.2}", r as f64 / report.rounds as f64))
        .collect();
    let owner = invocations(report, "/owner/route");
    // A product that runs the pipeline broadcasts its Lemma 12 sizes or its
    // Lemma 16 weights once.
    let pipeline = invocations(report, "_mm/sizes/all_broadcast")
        + invocations(report, "_mm/weights/all_broadcast");
    let load_words = invocations(report, "/owner/loads/all_broadcast");
    let transposed = invocations(report, "source_detection_all/sparse_mm/transpose/route");
    println!(
        "{family}: {run} n={n} {} rounds: {}; {owner} of {} products at the owners, \
         {load_words} load words, {transposed} frontiers transposed",
        report.rounds,
        shares.join(", "),
        owner + pipeline
    );
}

/// The MSSP and (3+ε) slopes and the most cutoff-search rounds MSSP paid
/// per filtered product at any of `sizes`, after checking both runs' rounds
/// against `ceilings` and their load words against `load_words` at every n.
fn measure<const K: usize>(
    family: &str,
    graph_of: impl Fn(usize) -> Graph,
    sizes: [usize; K],
    ceilings: [[u64; K]; 2],
    load_words: [[u64; K]; 2],
) -> [f64; 3] {
    let mut mssp_points = Vec::new();
    let mut apsp_points = Vec::new();
    let mut per_product = Vec::new();
    for (i, n) in sizes.into_iter().enumerate() {
        let g = graph_of(n);
        let mssp = mssp_report(&g);
        let apsp = apsp_report(&g);
        for (j, (run, report)) in
            [("mssp", &mssp), ("weighted_3eps", &apsp)].into_iter().enumerate()
        {
            print_shares(family, run, n, report);
            let (rounds, ceiling) = (report.rounds, ceilings[j][i]);
            assert!(rounds <= ceiling, "{family} {run} at n = {n}: {rounds} rounds > {ceiling}");
            let spent = invocations(report, "/owner/loads/all_broadcast");
            assert_eq!(spent, load_words[j][i], "{family} {run} at n = {n}: load words");
        }
        let [searched, skipped] = filtered_products(&mssp);
        println!(
            "{family}: mssp n={n}: {searched} filtered pipeline products ran Lemma 15, \
             {skipped} skipped it"
        );
        per_product.push(family_rounds(&mssp)[CUTOFF] as f64 / searched.max(1) as f64);
        mssp_points.push((n, mssp.rounds));
        apsp_points.push((n, apsp.rounds));
    }
    let slopes = [log_log_slope(&mssp_points), log_log_slope(&apsp_points)];
    println!("{family}: mssp(8 sources) {mssp_points:?} slope {:.3}", slopes[0]);
    println!("{family}: weighted_3eps   {apsp_points:?} slope {:.3}", slopes[1]);
    println!("{family}: mssp cutoff_search rounds per product that ran it {per_product:.1?}");
    [slopes[0], slopes[1], per_product.iter().copied().fold(0.0, f64::max)]
}

/// The sparse random family: about five arcs a node, weights up to 40.
fn gnp(n: usize) -> Graph {
    generators::gnp_weighted(n, 5.0 / n as f64, 40, 42).unwrap()
}

/// The family where hop-bounded detection changes a row in every product.
fn path(n: usize) -> Graph {
    generators::path(n).unwrap()
}

/// A 16-wide unit-weight grid: planar, degree at most 4, `n/16 + 14` hops
/// across.
fn grid(n: usize) -> Graph {
    generators::grid(16, n / 16).unwrap()
}

#[test]
#[ignore = "opt-in tier: n = 256 on the simulator is seconds in release, minutes in debug; CI runs it with --ignored"]
fn rounds_grow_sublinearly_on_sparse_random_graphs() {
    let [mssp_slope, apsp_slope, search_per_product] =
        measure("gnp_weighted", gnp, SIZES, MAX_ROUNDS, LOAD_WORDS);
    assert!(mssp_slope <= MAX_SLOPE, "mssp log-log slope {mssp_slope:.2} > {MAX_SLOPE}");
    assert!(apsp_slope <= MAX_SLOPE, "(3+eps) log-log slope {apsp_slope:.2} > {MAX_SLOPE}");
    assert!(
        search_per_product <= MAX_SEARCH_ROUNDS_PER_PRODUCT,
        "cutoff_search takes {search_per_product:.1} rounds per filtered product > \
         {MAX_SEARCH_ROUNDS_PER_PRODUCT}"
    );
    // The family the exit cannot help: stretch-checked, and its MSSP slope,
    // rounds and load words gated on their own.
    let [path_slope, ..] = measure("path", path, SIZES, MAX_PATH_ROUNDS, PATH_LOAD_WORDS);
    assert!(path_slope <= MAX_PATH_SLOPE, "path mssp slope {path_slope:.3} > {MAX_PATH_SLOPE}");
    // The family the naive `W²` rule once regressed on.
    let [mssp_slope, apsp_slope, _] =
        measure("grid", grid, SIZES, MAX_GRID_ROUNDS, GRID_LOAD_WORDS);
    assert!(mssp_slope <= MAX_SLOPE, "grid mssp slope {mssp_slope:.3} > {MAX_SLOPE}");
    assert!(apsp_slope <= MAX_SLOPE, "grid (3+eps) slope {apsp_slope:.3} > {MAX_SLOPE}");
}

#[test]
#[ignore = "opt-in tier: n = 1 024 on the simulator is about a minute in release; CI runs it with --ignored"]
fn rounds_stay_under_their_ceilings_at_a_thousand_nodes() {
    measure("gnp_weighted", gnp, LARGE_SIZES, MAX_LARGE_ROUNDS, LARGE_LOAD_WORDS);
    measure("path", path, LARGE_SIZES, MAX_LARGE_PATH_ROUNDS, LARGE_PATH_LOAD_WORDS);
    measure("grid", grid, LARGE_SIZES, MAX_LARGE_GRID_ROUNDS, LARGE_GRID_LOAD_WORDS);
}

#[test]
fn slope_of_a_known_power_law() {
    let points: Vec<(usize, u64)> = SIZES.iter().map(|&n| (n, (n * n) as u64)).collect();
    assert!((log_log_slope(&points) - 2.0).abs() < 1e-9);
}
