//! The hop loops as first written — a fixed number of one-shot products on
//! the augmented weight matrix, each by the whole iterate — kept as the
//! reference the fixpoint and semi-naive loops must equal, row for row, at
//! no more rounds.

use cc_clique::Clique;
use cc_graph::{generators, DiGraph, Graph};
use cc_matmul::audit;
use cc_matmul::layout::transpose_exchange;
use cc_matrix::{AugDist, AugMinPlus, SparseMatrix, SparseRow};

use crate::source_detection::restrict_to_sources;
use crate::{k_nearest, source_detection_all, source_detection_k};

type Rows = Vec<SparseRow<AugDist>>;

fn restrict(w: &SparseMatrix<AugDist>, sources: &[usize]) -> SparseMatrix<AugDist> {
    let in_s: Vec<bool> = (0..w.n()).map(|v| sources.contains(&v)).collect();
    restrict_to_sources(w, &in_s)
}

fn source_detection_all_fixed(
    clique: &mut Clique,
    w: &SparseMatrix<AugDist>,
    sources: &[usize],
    d: usize,
) -> Rows {
    let mut u = restrict(w, sources);
    for _ in 1..d {
        let u_cols = transpose_exchange::<AugMinPlus>(clique, u.rows()).unwrap();
        let rows =
            cc_matmul::sparse_multiply::<AugMinPlus>(clique, w.rows(), &u_cols, sources.len())
                .unwrap();
        u = SparseMatrix::from_rows(rows);
    }
    u.rows().to_vec()
}

fn source_detection_k_fixed(
    clique: &mut Clique,
    w: &SparseMatrix<AugDist>,
    sources: &[usize],
    d: usize,
    k: usize,
) -> Rows {
    let mut x = restrict(w, sources).filtered(k);
    for _ in 1..d {
        let x_cols = transpose_exchange::<AugMinPlus>(clique, x.rows()).unwrap();
        let rows =
            cc_matmul::filtered_multiply::<AugMinPlus>(clique, w.rows(), &x_cols, k).unwrap();
        x = SparseMatrix::from_rows(rows);
    }
    x.rows().to_vec()
}

fn k_nearest_fixed(clique: &mut Clique, w: &SparseMatrix<AugDist>, k: usize) -> Rows {
    let mut x = w.filtered(k);
    let squarings = (usize::BITS - (k - 1).leading_zeros()) as usize;
    for _ in 0..squarings {
        let x_cols = transpose_exchange::<AugMinPlus>(clique, x.rows()).unwrap();
        let rows =
            cc_matmul::filtered_multiply::<AugMinPlus>(clique, x.rows(), &x_cols, k).unwrap();
        x = SparseMatrix::from_rows(rows);
    }
    x.rows().to_vec()
}

/// Runs both loops on fresh cliques; asserts equal rows and `rounds ≤
/// reference`; returns the fixpoint loop's clique for further checks.
fn assert_same(
    what: &str,
    n: usize,
    new: impl FnOnce(&mut Clique) -> Rows,
    fixed: impl FnOnce(&mut Clique) -> Rows,
) -> Clique {
    let (mut c_new, mut c_fixed) = (Clique::new(n), Clique::new(n));
    assert_eq!(new(&mut c_new), fixed(&mut c_fixed), "{what}: rows differ");
    assert!(
        c_new.rounds() <= c_fixed.rounds(),
        "{what}: {} rounds > reference {}",
        c_new.rounds(),
        c_fixed.rounds()
    );
    c_new
}

/// The graph families the fixpoint loops are held to, as arc sets of one
/// size class each; the last is one-way, so its `W` is not symmetric.
fn fixtures() -> Vec<(&'static str, DiGraph)> {
    let undirected: Vec<(&'static str, Graph)> = vec![
        ("gnp", generators::gnp(24, 0.2, 3).unwrap()),
        ("gnp_weighted", generators::gnp_weighted(24, 0.15, 30, 4).unwrap()),
        ("grid_weighted", generators::grid_weighted(5, 5, 12, 5).unwrap()),
        ("star", generators::star(16).unwrap()),
        ("cliques_with_bridges", generators::cliques_with_bridges(4, 5, 6).unwrap()),
        ("disconnected", Graph::from_edges(18, (0..7).map(|v| (v, v + 1, 2 + v as u64))).unwrap()),
    ];
    let mut out: Vec<_> =
        undirected.into_iter().map(|(name, g)| (name, DiGraph::clone(&g))).collect();
    // One-way cycle plus a few chords: reachability differs by direction.
    let arcs = (0..20).map(|v| (v, (v + 1) % 20, 1 + v as u64 % 3)).chain([(0, 7, 9), (12, 3, 1)]);
    out.push(("digraph", DiGraph::from_arcs(20, arcs).unwrap()));
    out
}

/// The invocations of `phase`'s leaf `leaf`, 0 if it never ran.
fn invocations(clique: &Clique, phase: &str, leaf: &str) -> u64 {
    clique.metrics().phases.get(&format!("{phase}/{leaf}")).map_or(0, |p| p.invocations)
}

/// The products a detection ran: each either routes rows of the iterate to
/// the row owners once or, in the pipeline, broadcasts its Lemma 12 product
/// sizes once.
fn executed(clique: &Clique, phase: &str) -> u64 {
    invocations(clique, phase, "sparse_mm/owner/route")
        + invocations(clique, phase, "sparse_mm/sizes/all_broadcast")
}

#[test]
fn source_detection_all_equals_the_fixed_count_loop() {
    for (name, g) in fixtures() {
        let (n, w) = (g.n(), g.augmented_weight_matrix());
        let sources = [1, n / 2, n - 1];
        for d in [1, 2, 5, n] {
            let clique = assert_same(
                &format!("all, {name}, d={d}"),
                n,
                |c| source_detection_all(c, &g, &sources, d).unwrap(),
                |c| source_detection_all_fixed(c, &w, &sources, d),
            );
            assert!(executed(&clique, "source_detection_all") <= (d - 1) as u64);
            if d == 1 {
                assert_eq!(clique.rounds(), 0, "{name}: d = 1 runs no product");
            }
        }
    }
}

/// How many entries the reference loop's filter drops from the rows it
/// held, over its `d − 1` steps: an entry of `x_i` in no column of `x_{i+1}`.
fn filter_drops(w: &SparseMatrix<AugDist>, sources: &[usize], d: usize, k: usize) -> usize {
    let mut x = restrict(w, sources).filtered(k);
    let mut drops = 0;
    for _ in 1..d {
        let next = w.multiply::<AugMinPlus>(&x).filtered(k);
        drops += x.entries().filter(|e| next.get(e.row as usize, e.col as usize).is_none()).count();
        x = next;
    }
    drops
}

#[test]
fn source_detection_k_equals_the_fixed_count_loop() {
    let standard = fixtures().into_iter().map(|(name, g)| {
        let n = g.n();
        (name, g, vec![0, 2, n / 2, n - 2], vec![(1, 2), (3, 1), (6, 2), (n, 3)])
    });
    // Node 0 holds source 1 (10 away) after one hop and source 3 (2 away)
    // after two: with k = 1 the filter drops a held entry mid-run, which the
    // semi-naive loop's minimum must drop as the reference does.
    let drop = Graph::from_edges(6, [(0, 1, 10), (0, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)]);
    let drop = ("filter_drop", DiGraph::clone(&drop.unwrap()), vec![1, 3], vec![(4, 1)]);
    for (name, g, sources, cases) in standard.chain([drop]) {
        let (n, w) = (g.n(), g.augmented_weight_matrix());
        for (d, k) in cases {
            let what = format!("k, {name}, d={d}, k={k}");
            assert_same(
                &what,
                n,
                |c| source_detection_k(c, &g, &sources, d, k).unwrap(),
                |c| source_detection_k_fixed(c, &w, &sources, d, k),
            );
            if name == "filter_drop" {
                assert!(filter_drops(&w, &sources, d, k) > 0, "{what}: the filter drops nothing");
            }
        }
    }
}

#[test]
fn k_nearest_equals_the_fixed_count_loop() {
    for (name, g) in fixtures() {
        let (n, w) = (g.n(), g.augmented_weight_matrix());
        for k in [1, 2, 5, n] {
            assert_same(
                &format!("k_nearest, {name}, k={k}"),
                n,
                |c| k_nearest(c, &g, k).unwrap(),
                |c| k_nearest_fixed(c, &w, k),
            );
        }
    }
}

#[test]
fn one_squaring_broadcasts_its_counts_once_and_no_flag() {
    // k = 2: one squaring, so the bound ends the loop before a flag is due,
    // and the one counts broadcast is the squaring's operands'.
    let g = generators::gnp(16, 0.3, 5).unwrap();
    let w = g.augmented_weight_matrix();
    let clique = assert_same(
        "gnp(16), k=2",
        16,
        |c| k_nearest(c, &g, 2).unwrap(),
        |c| k_nearest_fixed(c, &w, 2),
    );
    assert_eq!(invocations(&clique, "knearest", "counts/all_broadcast"), 1);
    assert_eq!(invocations(&clique, "knearest", "fixpoint/all_broadcast"), 0);
}

#[test]
fn an_early_exit_pays_one_flag_round_per_squaring() {
    // A star's rows are complete after one squaring: the second of the four
    // allowed changes nothing, and the flag round after it ends the loop.
    // Every squaring transposes and broadcasts counts once.
    let g = generators::star(16).unwrap();
    let w = g.augmented_weight_matrix();
    let clique = assert_same(
        "star(16), k=16",
        16,
        |c| k_nearest(c, &g, 16).unwrap(),
        |c| k_nearest_fixed(c, &w, 16),
    );
    let squarings = invocations(&clique, "knearest", "transpose/route");
    assert_eq!(squarings, 2);
    assert_eq!(invocations(&clique, "knearest", "counts/all_broadcast"), squarings);
    assert_eq!(invocations(&clique, "knearest", "fixpoint/all_broadcast"), squarings);
}

#[test]
fn sources_nobody_reaches_exit_after_one_product() {
    // Node 9 is isolated: only its own row ever holds it, the first product
    // returns the hop-1 iterate, and the loop ends there whatever `d` is —
    // at the second step's counts broadcast, as its frontier is empty.
    let g = Graph::from_edges(10, (0..8).map(|v| (v, v + 1, 1))).unwrap();
    let w = g.augmented_weight_matrix();
    let clique = assert_same(
        "isolated source",
        10,
        |c| source_detection_all(c, &g, &[9], 9).unwrap(),
        |c| source_detection_all_fixed(c, &w, &[9], 9),
    );
    let phase = "source_detection_all";
    assert_eq!(executed(&clique, phase), 1);
    // W's preparation, the first step's row counts, and the second step's
    // opening. The row owners multiply by the frontier's rows, and the last
    // step stops on its counts: W is the one matrix transposed.
    assert_eq!(invocations(&clique, phase, "counts/all_broadcast"), 3);
    assert_eq!(invocations(&clique, phase, "transpose/route"), 1);
    assert_eq!(invocations(&clique, phase, "sparse_mm/owner/route"), 1);
    assert_eq!(invocations(&clique, phase, "fixpoint/all_broadcast"), 0);
}

#[test]
fn a_path_runs_every_product_and_pays_no_flag_round() {
    // The case the exit cannot help: hop-d detection from one end of a
    // path changes a new row in every product, so the bound binds. Each
    // step opens with its frontier's counts, and nothing follows step 30.
    let g = generators::path(32).unwrap();
    let w = g.augmented_weight_matrix();
    let clique = assert_same(
        "path(32), d=31",
        32,
        |c| source_detection_all(c, &g, &[0], 31).unwrap(),
        |c| source_detection_all_fixed(c, &w, &[0], 31),
    );
    let phase = "source_detection_all";
    assert_eq!(executed(&clique, phase), 30);
    assert_eq!(invocations(&clique, phase, "counts/all_broadcast"), 1 + 30);
    assert_eq!(invocations(&clique, phase, "fixpoint/all_broadcast"), 0);
    // One source: every frontier holds at most one entry a row, and the row
    // owners multiply by it without a transpose or a load word.
    assert_eq!(invocations(&clique, phase, "sparse_mm/owner/route"), 30);
    assert_eq!(invocations(&clique, phase, "transpose/route"), 1);
    assert_eq!(invocations(&clique, phase, "sparse_mm/owner/loads/all_broadcast"), 0);
}

#[test]
fn an_asymmetric_w_is_transposed_once_per_detection() {
    // The prepared W really carries its transpose: one transpose for W, and
    // one for the frontier in each step whose product ran the pipeline or
    // could not choose from the frontier's row counts; every other step
    // hands the frontier over by rows and the row owners multiply by them.
    let (_, g) = fixtures().pop().expect("the digraph fixture");
    let mut clique = Clique::new(g.n());
    let ((), audits) =
        audit(|| source_detection_all(&mut clique, &g, &[0, 5], g.n()).map(drop).unwrap());
    let phases = &clique.metrics().phases;
    let products = executed(&clique, "source_detection_all");
    assert!(products > 1, "fixture exits too early to tell");
    assert_eq!(audits.len() as u64, products);
    assert!(audits.iter().all(|a| a.owner || a.transposed), "the pipeline reads the columns");
    let transposed = audits.iter().filter(|a| a.transposed).count() as u64;
    let in_products =
        |leaf: &str| invocations(&clique, "source_detection_all", &format!("sparse_mm/{leaf}"));
    assert_eq!(phases["source_detection_all/transpose/route"].invocations, 1);
    assert_eq!(in_products("transpose/route"), transposed);
    assert_eq!(phases["source_detection_all/counts/all_broadcast"].invocations, products + 1);
    assert_eq!(in_products("counts/all_broadcast"), transposed);
    // W holds one or two arcs per row, as a balance would leave them: no
    // product balances it, so none has a placement to reuse either.
    assert_eq!(
        invocations(&clique, "source_detection_all", "sparse_mm/deliver_s/balance/sort"),
        0,
        "W fits as it is held"
    );
}
