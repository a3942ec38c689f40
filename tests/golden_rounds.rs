//! Golden communication ledger: the two headline runs of the benchmark's
//! `clique_paper` workload (Theorem 3 MSSP, Theorem 2/31 APSP at n = 32)
//! must charge **exactly** the rounds, messages and words they charged when
//! this file was written — in total and in every phase — and return the same
//! distances. A third section pins the three products of `cc-matmul` on their
//! own (neither headline run reaches `dense_multiply` or a one-shot
//! `filtered_multiply`), and Theorem 14 once more at `ρ = n/2`, where it
//! skips Lemma 15: per-phase report and a digest of the output rows.
//!
//! The simulator's host cost may be optimised freely; *what is simulated*
//! may not change by accident. A change that reorders, merges, drops or adds
//! a single simulated message moves one of these numbers and fails here,
//! under its own name, rather than somewhere inside a stretch assertion.
//!
//! Regenerating (only after an *intentional* change to the simulated
//! communication — never alongside a host-side optimisation):
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_rounds
//! ```

use congested_clique::clique::{Clique, CostModel, RoundReport};
use congested_clique::core::{apsp, mssp};
use congested_clique::graph::{generators, reference, Graph};
use congested_clique::matmul::{
    audit, dense_multiply, filtered_multiply, sparse_multiply, MatmulError,
};
use congested_clique::matrix::{Dist, MinPlus, SparseMatrix, SparseRow};

const GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/clique_n32_reports.txt");

const PRODUCTS_GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/products_n32_reports.txt");

const N: usize = 32;
const EPSILON: f64 = 0.5;
const SOURCES: [usize; 8] = [1, 5, 9, 13, 17, 21, 25, 29];

const MSSP_HEADER: &str = "# mssp(gnp_weighted(32, 5/32, 40, 42), sources 1,5,..,29, eps 0.5)";
const APSP_HEADER: &str = "# unweighted_2eps(gnp(32, 5/32, 42), eps 0.5)";
const PRODUCT_OPERAND: &str = "W * W, W = weight_matrix(gnp_weighted(32, 5/32, 40, 42))";
const SQUARE_OPERAND: &str = "W2 * W2, W2 = W * W";

/// Totals of one pinned run: what `Clique::report()` must read, the number
/// of primitive invocations behind it, and an FNV-1a digest of the output
/// distance matrix (row-major, `u64::MAX` for `Dist::INF`).
struct Pinned {
    rounds: u64,
    messages: u64,
    words: u64,
    phase_labels: usize,
    invocations: u64,
    dist_digest: u64,
}

const MSSP_PINNED: Pinned = Pinned {
    rounds: 127,
    messages: 71_013,
    words: 77_483,
    phase_labels: 18,
    invocations: 57,
    dist_digest: 11_751_844_912_777_100_782,
};

const APSP_PINNED: Pinned = Pinned {
    rounds: 218,
    messages: 104_132,
    words: 113_445,
    phase_labels: 38,
    invocations: 108,
    dist_digest: 12_639_840_282_067_814_693,
};

fn weighted_graph() -> Graph {
    generators::gnp_weighted(N, 5.0 / 32.0, 40, 42).unwrap()
}

fn unweighted_graph() -> Graph {
    generators::gnp(N, 5.0 / 32.0, 42).unwrap()
}

/// A pinned run's distances and report.
type Run = (Vec<Vec<Dist>>, RoundReport);

fn run_mssp() -> Run {
    mssp_on(Clique::new(N))
}

fn run_apsp() -> Run {
    apsp_on(Clique::new(N))
}

fn mssp_on(mut clique: Clique) -> Run {
    let run = mssp::mssp(&mut clique, &weighted_graph(), &SOURCES, EPSILON).unwrap();
    assert_eq!(run.rounds, clique.rounds(), "fresh clique: run delta == cumulative rounds");
    (run.dist, clique.report())
}

fn apsp_on(mut clique: Clique) -> Run {
    let run = apsp::unweighted_2eps(&mut clique, &unweighted_graph(), EPSILON).unwrap();
    assert_eq!(run.rounds, clique.rounds(), "fresh clique: run delta == cumulative rounds");
    (run.dist, clique.report())
}

fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn digest(dist: &[Vec<Dist>]) -> u64 {
    fnv1a(dist.iter().flatten().map(|d| d.value().unwrap_or(u64::MAX)))
}

/// Digest of distributed output rows: `(row, column, value)` per entry.
fn rows_digest(rows: &[SparseRow<Dist>]) -> u64 {
    fnv1a(rows.iter().enumerate().flat_map(|(r, row)| {
        row.iter().flat_map(move |(c, d)| [r as u64, c as u64, d.value().unwrap_or(u64::MAX)])
    }))
}

fn invocations(report: &RoundReport) -> u64 {
    report.phases.values().map(|p| p.invocations).sum()
}

fn assert_pinned(what: &str, pinned: &Pinned, dist: &[Vec<Dist>], report: &RoundReport) {
    assert_eq!(report.n, N);
    assert_eq!(
        (report.rounds, report.messages, report.words, report.phases.len()),
        (pinned.rounds, pinned.messages, pinned.words, pinned.phase_labels),
        "{what}: (rounds, messages, words, phase labels) moved — the simulated communication changed"
    );
    assert_eq!(invocations(report), pinned.invocations, "{what}: primitive invocations moved");
    assert_eq!(digest(dist), pinned.dist_digest, "{what}: output distances moved");
    // The breakdown adds up to the totals it is printed under.
    assert_eq!(report.phases.values().map(|p| p.rounds).sum::<u64>(), report.rounds);
    assert_eq!(report.phases.values().map(|p| p.messages).sum::<u64>(), report.messages);
    assert_eq!(report.phases.values().map(|p| p.words).sum::<u64>(), report.words);
}

/// Soundness and the theorem's stretch bound of every estimate.
fn assert_stretch(what: &str, est: Dist, exact: Option<u64>, bound: f64) {
    match (exact, est.value()) {
        (Some(d), Some(e)) => {
            assert!(e >= d, "{what}: underestimate {e} < {d}");
            assert!(e as f64 <= bound * d as f64 + 1e-9, "{what}: {e} > {bound}·{d}");
        }
        (None, None) => {}
        (d, e) => panic!("{what}: reachability mismatch, exact {d:?} vs estimate {e:?}"),
    }
}

fn rendered(mssp: &RoundReport, apsp: &RoundReport) -> String {
    format!("{MSSP_HEADER}\n{mssp}{APSP_HEADER}\n{apsp}")
}

#[test]
fn mssp_report_and_distances_are_pinned() {
    let (dist, report) = run_mssp();
    assert_pinned("mssp", &MSSP_PINNED, &dist, &report);
    let exact = reference::all_pairs(&weighted_graph());
    for (v, row) in dist.iter().enumerate() {
        assert_eq!(row.len(), SOURCES.len());
        for (i, &s) in SOURCES.iter().enumerate() {
            assert_stretch(&format!("mssp ({v},{s})"), row[i], exact[v][s], 1.0 + EPSILON);
        }
    }
}

#[test]
fn apsp_report_and_distances_are_pinned() {
    let (dist, report) = run_apsp();
    assert_pinned("unweighted_2eps", &APSP_PINNED, &dist, &report);
    let exact = reference::all_pairs(&unweighted_graph());
    for (u, row) in dist.iter().enumerate() {
        assert_eq!(row.len(), N);
        for (v, &est) in row.iter().enumerate() {
            assert_stretch(&format!("apsp ({u},{v})"), est, exact[u][v], 2.0 + EPSILON);
        }
    }
}

/// Which of each run's products the row owners compute (`o`) and which run
/// the pipeline (`p`), in order, under the unit and the conservative cost
/// model: the paths the products took when the one owner rule was asked of
/// the load words alone, which it must choose alike when the broadcast
/// counts, or the columns after them, settle it first.
const PATHS: [(&str, [&str; 2]); 2] = [
    ("mssp", ["opppooooooooo", "opppooooooooo"]),
    ("unweighted_2eps", ["oppoooooopooooooooooo", "oppoooppopooooooooooo"]),
];

/// Every product of both runs that weighed the owner product, under both
/// cost models: each took its pinned path, whether the broadcast counts or
/// the load words chose it; the owner product ran only where its route
/// charges no more than the pipeline charges on the same operands; and the
/// floor the route was held to is one the pipeline never went below.
/// Auditing runs each product's pipeline on copies, so the runs still charge
/// their pinned rounds and return their pinned distances. `--nocapture`
/// prints the products, one line each.
#[test]
fn the_owner_product_never_charges_more_than_the_pipeline() {
    for (model, cost) in [CostModel::unit(), CostModel::conservative()].into_iter().enumerate() {
        for ((what, paths), pinned) in PATHS.iter().zip([&MSSP_PINNED, &APSP_PINNED]) {
            let clique = Clique::with_cost_model(N, cost);
            let run = if *what == "mssp" { mssp_on } else { apsp_on };
            let ((dist, report), audits) = audit(|| run(clique));
            assert_eq!(digest(&dist), pinned.dist_digest, "{what}: distances moved");
            if cost == CostModel::unit() {
                assert_eq!(report.rounds, pinned.rounds, "{what}: auditing moved the rounds");
            }
            let owner = audits.iter().filter(|a| a.owner).count();
            let by_counts = audits.iter().filter(|a| a.by_counts).count();
            println!(
                "{what} under {cost:?}: {owner} of {} products at the owners, \
                 {by_counts} chosen by the counts",
                audits.len()
            );
            for (i, a) in audits.iter().enumerate() {
                let path = if a.owner { "owner" } else { "pipeline" };
                // The counts, with the right operand's column counts if its
                // row counts left the choice open, or the load words.
                let by = match (a.by_counts, a.transposed) {
                    (true, false) => "counts",
                    (true, true) => "columns",
                    (false, _) => "loads",
                };
                let pipeline = a.pipeline_rounds.expect("the runs' density hints suffice");
                println!(
                    "  {i:2} {:11} {path:8} by {by:7} route {:3}  floor {:3}  pipeline {pipeline:3}",
                    a.label, a.owner_rounds, a.floor
                );
                assert!(a.floor <= pipeline, "{what} product {i}: {a:?}");
                assert!(!a.owner || a.owner_rounds <= pipeline, "{what} product {i}: {a:?}");
                assert_eq!(a.owner, a.owner_rounds <= a.floor, "{what} product {i}: {a:?}");
            }
            let taken: String = audits.iter().map(|a| if a.owner { 'o' } else { 'p' }).collect();
            assert_eq!(taken, paths[model], "{what} under {cost:?}: a product changed its path");
        }
    }
}

/// Compares `got` with the committed file at `path`, line by line.
fn assert_matches_golden(path: &str, got: &str) {
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, got).unwrap();
    }
    let want = std::fs::read_to_string(path).expect(
        "golden reports missing; regenerate with UPDATE_GOLDEN=1 cargo test --test golden_rounds",
    );
    if got != want {
        let moved: Vec<String> = want
            .lines()
            .zip(got.lines())
            .filter(|(w, g)| w != g)
            .take(8)
            .map(|(w, g)| format!("  golden: {}\n  now:    {}", w.trim(), g.trim()))
            .collect();
        panic!(
            "per-phase reports differ from {path} ({} vs {} lines); first differences:\n{}",
            want.lines().count(),
            got.lines().count(),
            moved.join("\n")
        );
    }
}

#[test]
fn every_phase_matches_the_committed_reports() {
    let (_, mssp) = run_mssp();
    let (_, apsp) = run_apsp();
    assert_matches_golden(GOLDEN_PATH, &rendered(&mssp, &apsp));
}

type ProductRows = Result<Vec<SparseRow<Dist>>, MatmulError>;

/// `W ⋆ W` for a matrix `W`, on a fresh clique.
fn run_product(
    w: &SparseMatrix<Dist>,
    multiply: impl FnOnce(&mut Clique, &[SparseRow<Dist>], &[SparseRow<Dist>]) -> ProductRows,
) -> (Vec<SparseRow<Dist>>, RoundReport) {
    let mut clique = Clique::new(N);
    let rows = multiply(&mut clique, w.rows(), w.transpose().rows()).unwrap();
    (rows, clique.report())
}

/// The three products of `cc-matmul`, each on its own. `W` has about six
/// entries a row, so the row owners compute both theorems' products: the
/// operands' counts settle it, and one route follows their preparation,
/// the same rows as the pipeline's (`ρ̂ = 16`, below the true output density 25,
/// had Lemma 12 assign helpers; `ρ = 8`, below `n/2`, had Lemma 15 search).
/// The dense baseline never takes the owner product. A fourth block pins
/// Theorem 14 at `ρ = n/2` in the pipeline, on the square `W²` with about
/// 25 entries a row, which the row owners do not take.
#[test]
fn standalone_products_match_the_committed_reports() {
    let w = weighted_graph().weight_matrix();
    let square = w.multiply::<MinPlus>(&w);
    let at_the_owners = |report: &RoundReport, label: &str| {
        let phases = report.phases.keys().filter(|l| !l.ends_with("counts/all_broadcast"));
        let mut leaves: Vec<&str> = phases.map(|l| &l[label.len() + 1..]).collect();
        leaves.sort_unstable();
        assert_eq!(leaves, ["owner/route", "transpose/route"]);
    };

    let (sparse, sparse_report) =
        run_product(&w, |cl, s, t| sparse_multiply::<MinPlus>(cl, s, t, 16));
    assert_eq!(SparseMatrix::from_rows(sparse.clone()), square);
    at_the_owners(&sparse_report, "sparse_mm");

    let (filtered, filtered_report) =
        run_product(&w, |cl, s, t| filtered_multiply::<MinPlus>(cl, s, t, 8));
    assert_eq!(SparseMatrix::from_rows(filtered.clone()), square.filtered(8));
    at_the_owners(&filtered_report, "filtered_mm");

    let (dense, dense_report) = run_product(&w, dense_multiply::<MinPlus>);
    assert_eq!(SparseMatrix::from_rows(dense.clone()), square);
    assert!(!dense_report.phases.keys().any(|label| label.contains("/balance/")));

    // At ρ = n/2 the pipeline skips Lemma 15: W² ⋆ W² does not fit the row
    // owners, and its slices are summed whole and balanced by Lemma 12.
    let (half, half_report) =
        run_product(&square, |cl, s, t| filtered_multiply::<MinPlus>(cl, s, t, N / 2));
    let fourth = square.multiply::<MinPlus>(&square);
    assert_eq!(SparseMatrix::from_rows(half.clone()), fourth.filtered(N / 2));
    let labels: Vec<&str> = half_report.phases.keys().map(String::as_str).collect();
    assert!(labels.contains(&"filtered_mm/sizes/all_broadcast"), "{labels:?}");
    assert!(!labels.iter().any(|l| l.contains("cutoff_search") || l.contains("weights")));

    let section = |call: &str, operand: &str, rows: &[SparseRow<Dist>], report: &RoundReport| {
        let digest = rows_digest(rows);
        format!("# {call} of {operand}\n{report}rows_digest={digest}\n")
    };
    let got = [
        section("sparse_multiply(rho_hat 16)", PRODUCT_OPERAND, &sparse, &sparse_report),
        section("filtered_multiply(rho 8)", PRODUCT_OPERAND, &filtered, &filtered_report),
        section("dense_multiply", PRODUCT_OPERAND, &dense, &dense_report),
        section("filtered_multiply(rho 16)", SQUARE_OPERAND, &half, &half_report),
    ]
    .concat();
    assert_matches_golden(PRODUCTS_GOLDEN_PATH, &got);
}
