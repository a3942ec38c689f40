//! The experiment harness: the output of
//! `cargo run -p cc-bench --bin experiments` is every claim-level result
//! (the paper has no tables/figures — its "evaluation" is its theorems,
//! so each experiment measures one theorem's bound and guarantee on the
//! simulator).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p cc-bench --bin experiments [all|e1|..|e12|oracle|build-direct|ablate-cost|ablate-filter|ablate-shortcut]
//! ```
//!
//! Output is GitHub-flavoured markdown, one table per experiment.

// Node-indexed loops over parallel per-node vectors are the domain idiom.
#![allow(clippy::needless_range_loop)]

use std::time::Instant;

use cc_bench::{loglog_slope, random_sparse, thm8_formula, Table};
use cc_clique::{Clique, CostModel};
use cc_core::{apsp, baselines, diameter, mssp, sssp, stretch};
use cc_distance::{distance_through_sets, hitting_set, k_nearest, source_detection_all};
use cc_graph::{generators, reference};
use cc_hopset::{build_hopset, HopsetConfig};
use cc_matrix::{Dist, MinPlus, SparseMatrix};

/// Every experiment, by the subcommand that runs it, in `all` order.
const EXPERIMENTS: [(&str, fn()); 17] = [
    ("e1", e1),
    ("e2", e2),
    ("e3", e3),
    ("e4", e4),
    ("e5", e5),
    ("e6", e6),
    ("e7", e7),
    ("e8", e8),
    ("e9", e9),
    ("e10", e10),
    ("e11", e11),
    ("e12", e12),
    ("oracle", oracle),
    ("build-direct", build_direct),
    ("ablate-cost", ablate_cost),
    ("ablate-filter", ablate_filter),
    ("ablate-shortcut", ablate_shortcut),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let started = Instant::now();
    let chosen: Vec<fn()> = EXPERIMENTS
        .iter()
        .filter(|(name, _)| which == "all" || which == *name)
        .map(|e| e.1)
        .collect();
    if chosen.is_empty() {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        eprintln!("experiments: unknown subcommand `{which}`; known: all, {}", known.join(", "));
        std::process::exit(2);
    }
    for run in chosen {
        run();
    }
    eprintln!("[experiments] total wall time: {:.1}s", started.elapsed().as_secs_f64());
}

/// E1 — Theorem 8: sparse MM rounds track `(ρS·ρT·ρ̂)^{1/3}/n^{2/3} + 1`.
fn e1() {
    let n = 256;
    println!("### E1 — Theorem 8: output-sensitive sparse matrix multiplication (n={n})\n");
    let mut table = Table::new(&[
        "rho_S=rho_T",
        "rho_out",
        "rounds (Thm 8)",
        "computed by",
        "formula",
        "rounds (dense 3D)",
        "correct",
    ]);
    let (mut owner_rounds, mut pts, mut load_words) = (Vec::new(), Vec::new(), 0);
    for rho in [1usize, 2, 4, 8, 16, 32, 64] {
        let s = random_sparse(n, rho, 10 + rho as u64);
        let t = random_sparse(n, rho, 20 + rho as u64);
        let t_cols = t.transpose();
        let expected = s.multiply::<MinPlus>(&t);
        let rho_out = expected.density();

        let mut clique = Clique::new(n);
        let p =
            cc_matmul::sparse_multiply::<MinPlus>(&mut clique, s.rows(), t_cols.rows(), rho_out)
                .expect("multiply");
        let ok = SparseMatrix::from_rows(p) == expected;
        let rounds = clique.rounds();
        let phases = &clique.metrics().phases;
        let route = phases.get("sparse_mm/owner/route").map(|p| p.rounds);
        let load_word = phases.contains_key("sparse_mm/owner/loads/all_broadcast");

        let mut clique = Clique::new(n);
        cc_matmul::dense_multiply::<MinPlus>(&mut clique, s.rows(), t_cols.rows()).expect("dense");
        let dense_rounds = clique.rounds();

        let f = thm8_formula(n, rho, rho, rho_out);
        load_words += u64::from(load_word);
        match route {
            Some(route) => owner_rounds.push((rounds, route)),
            None => pts.push((f, rounds as f64)),
        }
        table.row(vec![
            rho.to_string(),
            rho_out.to_string(),
            rounds.to_string(),
            (if route.is_some() { "row owners" } else { "pipeline" }).into(),
            format!("{f:.2}"),
            dense_rounds.to_string(),
            ok.to_string(),
        ]);
    }
    table.print();
    let span = |values: &[u64]| {
        let (lo, hi) = (values.iter().min(), values.iter().max());
        lo.zip(hi).map(|(lo, hi)| if lo == hi { lo.to_string() } else { format!("{lo}–{hi}") })
    };
    let (rounds, routes): (Vec<u64>, Vec<u64>) = owner_rounds.iter().copied().unzip();
    if let (Some(rounds), Some(routes)) = (span(&rounds), span(&routes)) {
        println!(
            "row owners: {rounds} rounds for {} products — preparing both operands and a route of {routes} — wherever the route fits under the pipeline's floor",
            owner_rounds.len()
        );
    }
    println!(
        "load words: {load_words} of {} products broadcast one; the operands' counts chose every other path",
        owner_rounds.len() + pts.len()
    );
    if pts.len() >= 2 {
        let (a, b) = cc_bench::linear_fit(&pts);
        println!(
            "pipeline, linear fit: rounds ~ {a:.0} + {b:.1}·formula — a constant pipeline floor of ~{a:.0} rounds plus ~{b:.0} rounds per formula unit (theory predicts linearity in the formula)",
        );
    } else {
        for (f, rounds) in &pts {
            println!("pipeline: {rounds} rounds at formula {f:.2}");
        }
    }
    println!();
}

/// E2 — Theorem 14: filtered MM stays flat while unfiltered output grows.
fn e2() {
    let n = 256;
    let rho_filter = 8;
    println!("### E2 — Theorem 14: filtered multiplication (n={n}, filter rho={rho_filter})\n");
    let mut table = Table::new(&[
        "rho_in",
        "rho_out (full)",
        "Thm 8 rounds (full output)",
        "Thm 14 rounds (filtered)",
        "correct",
    ]);
    for rho in [2usize, 4, 8, 16, 32, 64] {
        let s = random_sparse(n, rho, 30 + rho as u64);
        let t = random_sparse(n, rho, 40 + rho as u64);
        let t_cols = t.transpose();
        let expected_full = s.multiply::<MinPlus>(&t);
        let rho_out = expected_full.density();

        let mut clique = Clique::new(n);
        cc_matmul::sparse_multiply::<MinPlus>(&mut clique, s.rows(), t_cols.rows(), rho_out)
            .expect("multiply");
        let full_rounds = clique.rounds();

        let mut clique = Clique::new(n);
        let p = cc_matmul::filtered_multiply::<MinPlus>(
            &mut clique,
            s.rows(),
            t_cols.rows(),
            rho_filter,
        )
        .expect("filtered");
        let filtered_rounds = clique.rounds();
        let ok = SparseMatrix::from_rows(p) == expected_full.filtered(rho_filter);

        table.row(vec![
            rho.to_string(),
            rho_out.to_string(),
            full_rounds.to_string(),
            filtered_rounds.to_string(),
            ok.to_string(),
        ]);
    }
    table.print();
}

/// E3 — Theorem 18: k-nearest rounds `O((k/n^{2/3} + log n)·log k)`.
fn e3() {
    let n = 256;
    println!("### E3 — Theorem 18: k-nearest (n={n}, weighted G(n,p))\n");
    let g = generators::gnp_weighted(n, 4.0 / n as f64, 100, 3).expect("graph");
    let mut table = Table::new(&["k", "rounds", "bound ~ (k/n^2/3 + log n) log k", "exact"]);
    for k in [2usize, 4, 8, 16, 32, 64, 128] {
        let mut clique = Clique::new(n);
        let rows = k_nearest(&mut clique, &g, k).expect("k-nearest");
        let mut ok = true;
        for v in (0..n).step_by(37) {
            let expected = reference::k_nearest(&g, v, k);
            let mut got: Vec<(u64, u32, usize)> =
                rows[v].iter().map(|(c, a)| (a.dist, a.hops, c as usize)).collect();
            got.sort_unstable();
            let got: Vec<(usize, u64, u32)> = got.into_iter().map(|(d, h, u)| (u, d, h)).collect();
            ok &= got == expected;
        }
        let bound =
            (k as f64 / (n as f64).powf(2.0 / 3.0) + (n as f64).log2()) * (k.max(2) as f64).log2();
        table.row(vec![
            k.to_string(),
            clique.rounds().to_string(),
            format!("{bound:.0}"),
            ok.to_string(),
        ]);
    }
    table.print();
}

/// E4 — Theorem 19: source detection `O((m^{1/3}|S|^{2/3}/n + 1)·d)`.
fn e4() {
    let n = 128;
    println!("### E4 — Theorem 19: (S, d, k)-source detection (n={n})\n");
    let g = generators::gnp_weighted(n, 6.0 / n as f64, 50, 4).expect("graph");
    let mut table = Table::new(&["|S|", "d", "rounds", "rounds/d", "correct"]);
    for s_count in [2usize, 8, 32, 128] {
        let sources: Vec<usize> = (0..s_count).map(|i| i * (n / s_count)).collect();
        for d in [2usize, 8] {
            let mut clique = Clique::new(n);
            let rows = source_detection_all(&mut clique, &g, &sources, d).expect("detect");
            let mut ok = true;
            for &s in sources.iter().take(3) {
                let expected = reference::hop_bounded(&g, s, d);
                for v in (0..n).step_by(17) {
                    ok &= rows[v].get(s as u32).map(|a| a.dist) == expected[v];
                }
            }
            table.row(vec![
                s_count.to_string(),
                d.to_string(),
                clique.rounds().to_string(),
                format!("{:.1}", clique.rounds() as f64 / d as f64),
                ok.to_string(),
            ]);
        }
    }
    table.print();
}

/// E5 — Theorem 20: distance through sets `O(ρ^{2/3}/n^{1/3} + 1)`.
fn e5() {
    let n = 256;
    println!("### E5 — Theorem 20: distance through sets (n={n})\n");
    let mut table = Table::new(&["|W_v|", "rounds", "bound ~ rho^2/3 / n^1/3 + 1"]);
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(5);
    for size in [2usize, 4, 8, 16, 32, 64] {
        let sets: Vec<Vec<(usize, Dist)>> = (0..n)
            .map(|_| {
                (0..size).map(|_| (rng.gen_range(0..n), Dist::fin(rng.gen_range(1..100)))).collect()
            })
            .collect();
        let mut clique = Clique::new(n);
        distance_through_sets(&mut clique, &sets).expect("through sets");
        let bound = (size as f64).powf(2.0 / 3.0) / (n as f64).powf(1.0 / 3.0) + 1.0;
        table.row(vec![size.to_string(), clique.rounds().to_string(), format!("{bound:.2}")]);
    }
    table.print();
}

/// E6 — Lemma 4: hitting set sizes `O(n log n / k)` and the rounds each costs.
fn e6() {
    let n = 256;
    println!("### E6 — Lemma 4: hitting sets (n={n}, k-balls of a weighted G(n,p))\n");
    let g = generators::gnp_weighted(n, 6.0 / n as f64, 50, 6).expect("graph");
    let mut table = Table::new(&["k", "|A| measured", "2n·ln n/k", "rounds", "all sets hit"]);
    for k in [4usize, 16, 64, 128] {
        let mut clique = Clique::new(n);
        let near = k_nearest(&mut clique, &g, k).expect("k-nearest");
        let sets: Vec<Vec<usize>> =
            near.iter().map(|r| r.iter().map(|(c, _)| c as usize).collect()).collect();
        let before = clique.rounds();
        let hs = hitting_set(&mut clique, &sets, k, 42).expect("hitting set");
        let rounds = clique.rounds() - before;
        let hit = sets.iter().all(|s| s.is_empty() || s.iter().any(|&w| hs.contains(w)));
        let bound = 2.0 * n as f64 * (n as f64).ln() / k as f64;
        table.row(vec![
            k.to_string(),
            hs.len().to_string(),
            format!("{bound:.0}"),
            rounds.to_string(),
            hit.to_string(),
        ]);
    }
    table.print();
    println!(
        "where k ≤ 2·ln n = {:.1}, every node is a member and the set costs no rounds\n",
        2.0 * (n as f64).ln()
    );
}

/// E7 — Theorem 25: hopsets — the resolved schedule, size, construction
/// rounds, measured stretch.
fn e7() {
    println!("### E7 — Theorem 25: (beta, eps)-hopsets\n");
    let mut table = Table::new(&[
        "n",
        "eps",
        "k",
        "beta",
        "exploration",
        "levels",
        "edges",
        "n^1.5·log n",
        "build rounds",
        "measured stretch",
        "guarantee 1+eps",
    ]);
    for &(n, eps) in &[(64usize, 0.5), (128, 0.5), (128, 1.0), (256, 4.0)] {
        let g = generators::gnp_weighted(n, 4.0 / n as f64, 50, 7).expect("graph");
        let config = HopsetConfig::new(eps);
        let s = config.schedule(n);
        let mut clique = Clique::new(n);
        let h = build_hopset(&mut clique, &g, config).expect("hopset");
        let stretch = h.measure_stretch(&g);
        assert!(stretch <= 1.0 + eps + 1e-9, "n = {n}: stretch {stretch} > 1+{eps}");
        let bound = ((n as f64).powf(1.5) * (n as f64).log2()) as u64;
        table.row(vec![
            n.to_string(),
            eps.to_string(),
            s.k.to_string(),
            h.beta.to_string(),
            s.exploration.to_string(),
            s.levels.to_string(),
            h.edges.len().to_string(),
            bound.to_string(),
            clique.rounds().to_string(),
            format!("{stretch:.3}"),
            format!("{:.2}", 1.0 + eps),
        ]);
    }
    table.print();
}

/// E8 — Theorem 3: MSSP query rounds vs |S| (one shared hopset).
fn e8() {
    let n = 256;
    let eps = 0.5;
    println!("### E8 — Theorem 3: multi-source shortest paths (n={n}, eps={eps})\n");
    let g = generators::gnp_weighted(n, 5.0 / n as f64, 50, 8).expect("graph");
    let mut clique = Clique::new(n);
    let hopset = build_hopset(&mut clique, &g, HopsetConfig::new(eps)).expect("hopset");
    println!(
        "hopset build: {} rounds (shared across all queries below), beta = {}\n",
        clique.rounds(),
        hopset.beta
    );
    let mut table = Table::new(&["|S|", "query rounds", "max stretch (sampled)", "guarantee"]);
    for s_count in [1usize, 4, 16, 64, 128, 256] {
        let sources: Vec<usize> = (0..s_count).map(|i| i * (n / s_count)).collect();
        let mut clique = Clique::new(n);
        let run = mssp::mssp_with_hopset(&mut clique, &g, &sources, &hopset).expect("mssp");
        let mut worst: f64 = 1.0;
        for (i, &s) in sources.iter().enumerate().take(4) {
            let exact = reference::dijkstra(&g, s);
            for v in 0..n {
                if let (Some(d), Some(e)) = (exact[v], run.dist[v][i].value()) {
                    if d > 0 {
                        worst = worst.max(e as f64 / d as f64);
                    }
                }
            }
        }
        table.row(vec![
            s_count.to_string(),
            run.rounds.to_string(),
            format!("{worst:.3}"),
            format!("{:.2}", 1.0 + eps),
        ]);
    }
    table.print();
}

/// Lemma 4's regime for a hitting set of `k`-sets over `n` nodes, from `n`
/// and `k` alone: `V` where `k ≤ 2·ln n` (every node is a member and no
/// rounds are charged), sampled otherwise.
fn lemma4_regime(n: usize, k: usize) -> String {
    let regime = if k as f64 <= 2.0 * (n.max(2) as f64).ln() { "V" } else { "sampled" };
    format!("k={k}: {regime}")
}

/// What a `V` landmark set means for a stretch column, printed under E9 and
/// E10.
const LEMMA4_NOTE: &str = "Lemma 4 regime: a landmark set is V where k <= 2 ln n. Every node \
is then a landmark, no rounds are charged for the set, and its phase's MSSP runs from every \
node, so every pair that phase covers comes within 1+eps/2. A stretch near 1.000 in such a \
row is that small-n regime, not the paper's (2+eps)/(3+eps) behaviour: only a sampled set \
shows it.";

/// E9 — §6.1 + Theorem 28: weighted APSP vs the exact dense baseline.
fn e9() {
    println!("### E9 — Weighted APSP: (3+eps) and (2+eps,(1+eps)W) vs exact baseline\n");
    let eps = 0.5;
    let mut table = Table::new(&[
        "n",
        "algorithm",
        "landmarks (Lemma 4)",
        "rounds",
        "max stretch",
        "mean stretch",
        "guarantee",
    ]);
    for n in [32usize, 64, 128] {
        let g = generators::gnp_weighted(n, 5.0 / n as f64, 50, 9).expect("graph");
        let exact = reference::all_pairs(&g);
        let landmarks = lemma4_regime(n, (n as f64).sqrt().ceil() as usize);

        let mut clique = Clique::new(n);
        let run = apsp::weighted_3eps(&mut clique, &g, eps).expect("3eps");
        stretch::assert_sound(&run.dist, &exact);
        table.row(vec![
            n.to_string(),
            "(3+eps)".into(),
            landmarks.clone(),
            run.rounds.to_string(),
            format!("{:.3}", stretch::max_stretch(&run.dist, &exact)),
            format!("{:.3}", stretch::mean_stretch(&run.dist, &exact)),
            format!("{:.1}", 3.0 + eps),
        ]);

        let mut clique = Clique::new(n);
        let run = apsp::weighted_2eps(&mut clique, &g, eps).expect("2eps");
        stretch::assert_sound(&run.dist, &exact);
        table.row(vec![
            n.to_string(),
            "(2+eps,(1+eps)W)".into(),
            landmarks,
            run.rounds.to_string(),
            format!("{:.3}", stretch::max_stretch(&run.dist, &exact)),
            format!("{:.3}", stretch::mean_stretch(&run.dist, &exact)),
            "<= (3+2eps) overall".into(),
        ]);

        let mut clique = Clique::new(n);
        let run = baselines::exact_apsp_squaring(&mut clique, &g).expect("baseline");
        table.row(vec![
            n.to_string(),
            "exact dense squaring [13]".into(),
            "-".into(),
            run.rounds.to_string(),
            "1.000".into(),
            "1.000".into(),
            "exact".into(),
        ]);

        for k in [2usize, 3] {
            let mut clique = Clique::new(n);
            let run = baselines::spanner_apsp(&mut clique, &g, k).expect("spanner");
            stretch::assert_sound(&run.dist, &exact);
            table.row(vec![
                n.to_string(),
                format!("(2k-1)-spanner, k={k} [52]"),
                "-".into(),
                run.rounds.to_string(),
                format!("{:.3}", stretch::max_stretch(&run.dist, &exact)),
                format!("{:.3}", stretch::mean_stretch(&run.dist, &exact)),
                format!("{}", 2 * k - 1),
            ]);
        }
    }
    table.print();
    println!("{LEMMA4_NOTE}\n");
}

/// E10 — Theorem 2/31: unweighted (2+eps) APSP across graph families.
fn e10() {
    let n = 128;
    let eps = 0.5;
    println!("### E10 — Theorem 2/31: unweighted (2+eps) APSP (n~{n}, eps={eps})\n");
    let mut table = Table::new(&[
        "family",
        "n",
        "m",
        "landmarks (Lemma 4): phase 1; phase 2",
        "rounds",
        "max stretch",
        "mean stretch",
    ]);
    let side = (n as f64).sqrt().round() as usize;
    let families: Vec<(&str, cc_graph::Graph)> = vec![
        ("gnp-sparse", generators::gnp(n, 2.0 * (n as f64).ln() / n as f64, 10).unwrap()),
        ("gnp-dense", generators::gnp(n, 0.3, 11).unwrap()),
        ("grid", generators::grid(side, side).unwrap()),
        ("path", generators::path(n).unwrap()),
        ("star", generators::star(n).unwrap()),
        ("ba-hubs", generators::barabasi_albert(n, 3, 12).unwrap()),
        ("cliques", generators::cliques_with_bridges(n / 8, 8, 1).unwrap()),
    ];
    for (name, g) in families {
        let mut clique = Clique::new(g.n());
        let run = apsp::unweighted_2eps(&mut clique, &g, eps).expect(name);
        let exact = reference::all_pairs(&g);
        stretch::assert_sound(&run.dist, &exact);
        // Phase 1 hits `k = ⌈√n⌉`-sets, phase 2 `k' = ⌈n^{1/4}⌉`-sets.
        let size = g.n() as f64;
        let regimes =
            [size.sqrt(), size.powf(0.25)].map(|k| lemma4_regime(g.n(), k.ceil() as usize));
        table.row(vec![
            name.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            regimes.join("; "),
            run.rounds.to_string(),
            format!("{:.3}", stretch::max_stretch(&run.dist, &exact)),
            format!("{:.3}", stretch::mean_stretch(&run.dist, &exact)),
        ]);
    }
    table.print();
    println!("guarantee: max stretch <= 2 + eps = {:.1} on every family\n", 2.0 + eps);
    println!("{LEMMA4_NOTE}\n");
}

/// E11 — Theorem 33: exact SSSP vs Bellman-Ford, who wins where.
fn e11() {
    println!("### E11 — Theorem 33: exact SSSP (shortcut) vs Bellman-Ford\n");
    let mut table =
        Table::new(&["graph", "n", "SPD", "BF rounds", "Thm 33 rounds", "winner", "exact"]);
    let mut cases: Vec<(String, cc_graph::Graph)> = Vec::new();
    for n in [64usize, 128, 256, 512] {
        cases.push((format!("path-{n}"), generators::path(n).unwrap()));
    }
    cases.push(("grid-16x16".into(), generators::grid_weighted(16, 16, 20, 13).unwrap()));
    cases.push(("gnp-256".into(), generators::gnp_weighted(256, 5.0 / 256.0, 50, 14).unwrap()));
    let mut growth = Vec::new();
    for (name, g) in cases {
        let n = g.n();
        let exact = reference::dijkstra(&g, 0);
        let spd = reference::shortest_path_diameter(&g);
        let mut c_bf = Clique::new(n);
        let bf = sssp::bellman_ford(&mut c_bf, &g, 0, None).expect("bf");
        let mut c_fast = Clique::new(n);
        let fast = sssp::exact_sssp(&mut c_fast, &g, 0).expect("sssp");
        let ok = (0..n).all(|v| bf.dist[v].value() == exact[v] && fast.dist[v].value() == exact[v]);
        if name.starts_with("path-") {
            growth.push((n as f64, fast.rounds as f64));
        }
        let winner = if fast.rounds < bf.rounds { "Thm 33" } else { "Bellman-Ford" };
        table.row(vec![
            name,
            n.to_string(),
            spd.to_string(),
            bf.rounds.to_string(),
            fast.rounds.to_string(),
            winner.into(),
            ok.to_string(),
        ]);
    }
    table.print();
    println!(
        "Thm 33 round growth exponent on paths (log-log slope): {:.2} (theory: ~1/6 plus polylog constant; Bellman-Ford is exponent 1.0)\n",
        loglog_slope(&growth)
    );
}

/// E12 — Claims 34/35: diameter approximation bounds.
fn e12() {
    let eps = 0.25;
    println!("### E12 — §7.2: near-3/2 diameter approximation (eps={eps})\n");
    let mut table = Table::new(&[
        "family",
        "true D",
        "estimate D'",
        "lower bound (Claim 35)",
        "(1+eps)·D",
        "rounds",
        "within bounds",
    ]);
    let families: Vec<(&str, cc_graph::Graph)> = vec![
        ("path-120", generators::path(120).unwrap()),
        ("cycle-128", generators::cycle(128).unwrap()),
        ("grid-11x11", generators::grid(11, 11).unwrap()),
        ("gnp-128", generators::gnp(128, 0.06, 15).unwrap()),
        ("star-128", generators::star(128).unwrap()),
    ];
    for (name, g) in families {
        let d = reference::diameter(&g).expect("connected");
        let mut clique = Clique::new(g.n());
        let run = diameter::diameter_approx(&mut clique, &g, eps).expect(name);
        let h = d / 3;
        let z = d % 3;
        let lower = if z == 0 { 2 * h } else { 2 * h + 1 };
        table.row(vec![
            name.to_string(),
            d.to_string(),
            run.estimate.to_string(),
            lower.to_string(),
            format!("{:.1}", (1.0 + eps) * d as f64),
            run.rounds.to_string(),
            diameter::within_claim35(run.estimate, d, eps).to_string(),
        ]);
    }
    table.print();
}

/// Oracle — serving layer: one distributed build, then local queries whose
/// measured stretch is checked against the Dijkstra ground truth.
fn oracle() {
    let eps = 0.25;
    println!("### Oracle — build-once / query-many serving layer (eps={eps})\n");
    let mut table = Table::new(&[
        "family",
        "n",
        "landmarks",
        "build rounds",
        "query rounds",
        "exact answers",
        "max stretch",
        "mean stretch",
        "certified bound",
        "sound",
    ]);
    for (name, g) in generators::standard_suite(128, 23).expect("suite") {
        let n = g.n();
        let mut clique = Clique::new(n);
        let oracle = cc_oracle::OracleBuilder::new()
            .epsilon(eps)
            .seed(31)
            .build(&mut clique, &g)
            .expect("build");
        let build_rounds = clique.rounds();

        let exact = reference::all_pairs(&g);
        let mut worst: f64 = 1.0;
        let mut sum = 0.0;
        let mut pairs = 0u64;
        let mut exact_hits = 0u64;
        let mut sound = true;
        for u in 0..n {
            for v in 0..n {
                if u == v {
                    continue;
                }
                let est = oracle.try_query(u, v).unwrap().value();
                match (exact[u][v], est) {
                    (Some(d), Some(est)) => {
                        sound &= est >= d;
                        let ratio = est as f64 / d as f64;
                        if est == d {
                            exact_hits += 1;
                        }
                        worst = worst.max(ratio);
                        sum += ratio;
                        pairs += 1;
                    }
                    (None, None) => {}
                    _ => sound = false,
                }
            }
        }
        let query_rounds = clique.rounds() - build_rounds;
        table.row(vec![
            name,
            n.to_string(),
            oracle.landmarks().len().to_string(),
            build_rounds.to_string(),
            query_rounds.to_string(),
            format!("{:.0}%", 100.0 * exact_hits as f64 / pairs.max(1) as f64),
            format!("{worst:.3}"),
            format!("{:.3}", sum / pairs.max(1) as f64),
            format!("{:.3}", oracle.stretch_bound()),
            sound.to_string(),
        ]);
        assert!(sound, "oracle must never underestimate");
        assert!(worst <= oracle.stretch_bound() + 1e-9, "stretch bound violated");
        assert!(
            oracle.stretch_bound() <= 3.0 + 2.0 * eps + 1e-12,
            "a faithful build certifies 3+2eps"
        );
        assert_eq!(query_rounds, 0, "queries must be communication-free");
    }
    table.print();
    println!("every family: answers sound (never below the true distance), within the bound the artifact certifies from its rows (at most 3+2eps for a faithful build), and all n(n-1) queries cost 0 rounds after the one-off build.\n");
}

/// Direct-builder n-scaling: one capped-mode build per decade on the
/// `road_like` family (the same shape `cc-serve --demo-direct` uses),
/// then faithful builds at 2 500 and 10⁴ nodes, with the per-phase
/// wall-time breakdown out of the `BuildTrace`. This is the scale path the
/// simulator cannot reach — `Clique::new(10^5)` would allocate n^2 channel
/// state — so there is no clique column here; bit-identity at
/// simulator-reachable sizes is proven by `tests/build_equivalence.rs`
/// instead. Every faithful row must certify at most `3+2ε`.
fn build_direct() {
    let (k, m, seed, epsilon) = (8usize, 32usize, 7u64, 0.25);
    println!(
        "### Direct builder — n-scaling on road_like (capped: k={k}, max_landmarks={m}; faithful: default k, eps={epsilon})\n"
    );
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut table = Table::new(&[
        "mode",
        "n",
        "grid",
        "threads",
        "landmarks",
        "balls ms",
        "select ms",
        "columns ms",
        "extract ms",
        "total ms",
        "artifact MiB",
        "certified",
    ]);
    let mut pts = Vec::new();
    let capped = [(40usize, 25usize), (100, 100), (400, 250), (1000, 1000)].map(|g| (true, g));
    let faithful = [(50, 50), (100, 100)].map(|g| (false, g));
    for (is_capped, (w, h)) in capped.into_iter().chain(faithful) {
        let g = generators::road_like(w, h, 30, 42).expect("graph");
        let mut builder = cc_oracle::DirectBuilder::new().epsilon(epsilon).seed(seed);
        if is_capped {
            builder = builder.k(k).max_landmarks(m);
        }
        let started = Instant::now();
        let (oracle, trace) = builder.build_traced(&g).expect("direct build");
        let total_ms = started.elapsed().as_secs_f64() * 1e3;
        let phase_ms = |names: &[&str]| {
            names
                .iter()
                .find_map(|name| trace.span(name))
                .map_or_else(|| "-".into(), |s| format!("{:.0}", s.wall_ns as f64 / 1e6))
        };
        let bound = oracle.stretch_bound();
        if !is_capped {
            assert!(bound <= 3.0 + 2.0 * epsilon + 1e-12, "faithful {w}x{h} certifies {bound}");
        }
        table.row(vec![
            (if is_capped { "capped" } else { "faithful" }).into(),
            oracle.n().to_string(),
            format!("{w}x{h}"),
            threads.to_string(),
            oracle.landmarks().len().to_string(),
            phase_ms(&["k_nearest_balls"]),
            phase_ms(&["landmark_selection", "hitting_set_landmarks"]),
            phase_ms(&["exact_columns", "mssp_columns"]),
            phase_ms(&["local_extraction"]),
            format!("{total_ms:.0}"),
            format!("{:.1}", oracle.artifact_bytes() as f64 / (1024.0 * 1024.0)),
            format!("{bound:.3}"),
        ]);
        if is_capped {
            pts.push((oracle.n() as f64, total_ms));
        }
    }
    table.print();
    println!(
        "log-log slope of capped build time vs n: {:.2} (1.0 = linear scaling; the exact-columns phase is m Dijkstras, so O(m * n log n) dominates). Faithful columns are hop-bounded rows over G ∪ H from every hitting-set landmark; every faithful row certifies at most 3+2eps.\n",
        loglog_slope(&pts)
    );
}

/// Ablation: cost-model constants don't change algorithm rankings.
fn ablate_cost() {
    println!("### Ablation — cost-model sensitivity (unit vs conservative Lenzen constants)\n");
    let n = 128;
    let g = generators::path(n).unwrap();
    let mut table = Table::new(&["cost model", "BF rounds", "Thm 33 rounds", "ratio"]);
    for (label, cost) in
        [("unit", CostModel::unit()), ("conservative (16/10)", CostModel::conservative())]
    {
        let mut c_bf = Clique::with_cost_model(n, cost);
        let bf = sssp::bellman_ford(&mut c_bf, &g, 0, None).expect("bf");
        let mut c_fast = Clique::with_cost_model(n, cost);
        let fast = sssp::exact_sssp(&mut c_fast, &g, 0).expect("fast");
        table.row(vec![
            label.into(),
            bf.rounds.to_string(),
            fast.rounds.to_string(),
            format!("{:.2}", fast.rounds as f64 / bf.rounds as f64),
        ]);
    }
    table.print();
    println!("the constants rescale both algorithms; crossover-n moves but the asymptotic ordering is unchanged.\n");
}

/// Ablation: what Theorem 14's output filtering buys inside k-nearest.
fn ablate_filter() {
    println!("### Ablation — filtered vs unfiltered squaring (star graph: dense squares)\n");
    let n = 128;
    let k = 8;
    let g = generators::star(n).unwrap();
    let w = g.augmented_weight_matrix();
    let mut table = Table::new(&["method", "rounds", "output entries"]);

    let mut clique = Clique::new(n);
    let rows = k_nearest(&mut clique, &g, k).expect("k-nearest");
    let nnz: usize = rows.iter().map(|r| r.nnz()).sum();
    table.row(vec![
        "Thm 14 filtered squaring (k-nearest)".into(),
        clique.rounds().to_string(),
        nnz.to_string(),
    ]);

    let mut clique = Clique::new(n);
    let w_cols = w.transpose();
    let (sq, _) = cc_matmul::sparse_multiply_auto::<cc_matrix::AugMinPlus>(
        &mut clique,
        w.rows(),
        w_cols.rows(),
    )
    .expect("square");
    let nnz: usize = sq.iter().map(|r| r.nnz()).sum();
    table.row(vec![
        "unfiltered W^2 (one squaring only)".into(),
        clique.rounds().to_string(),
        nnz.to_string(),
    ]);
    table.print();
    println!("the unfiltered square of a star is already dense (n^2 entries); iterating it is hopeless, which is why Theorem 14 exists.\n");
}

/// Ablation: the shortcut parameter k = n^{5/6} of Theorem 33.
fn ablate_shortcut() {
    println!("### Ablation — Theorem 33 shortcut parameter (path, n=256)\n");
    let n = 256;
    let g = generators::path(n).unwrap();
    let mut table = Table::new(&["k exponent", "k", "rounds", "exact"]);
    let exact = reference::dijkstra(&g, 0);
    for (label, exp) in [("1/2", 0.5), ("2/3", 2.0 / 3.0), ("5/6", 5.0 / 6.0), ("0.95", 0.95)] {
        let k = (n as f64).powf(exp).ceil() as usize;
        let mut clique = Clique::new(n);
        let run = sssp::exact_sssp_with_k(&mut clique, &g, 0, k).expect("sssp");
        let ok = (0..n).all(|v| run.dist[v].value() == exact[v]);
        table.row(vec![label.into(), k.to_string(), run.rounds.to_string(), ok.to_string()]);
    }
    table.print();
}
