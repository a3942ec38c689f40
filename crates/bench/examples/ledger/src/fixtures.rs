//! Inputs: pinned graphs and artifacts, seeded request streams.
//!
//! The graphs and artifacts are the same on every run, because two gated
//! metrics are exact properties of them (`cost_count`, `stretch_max`) and a
//! metric that moves with the seed cannot be told from a regression: over
//! seeds 1–10, seed-derived `gnp(48)` graphs moved the APSP time 292–365 ms
//! and the rounds 11 953–12 517, and seed-derived `road_like` artifacts
//! moved the capped-mode `stretch_max` 6.6–11.6. `--seed` feeds what may
//! vary freely: which pairs are asked, in which order, and the MSSP source
//! set.

use cc_graph::{generators, Graph};
use cc_matrix::{Dist, MinPlus, SparseMatrix};
use cc_oracle::{DirectBuilder, DistanceOracle};
use std::collections::HashSet;

/// Generator seed of the clique graphs and of serving artifact A.
pub const GRAPH_SEED: u64 = 42;
/// Nodes of the `clique_paper` graphs. A sample is one whole algorithm run,
/// and rule 3 needs samples short enough to fit between bursts of
/// interference: run alternately on the build host, n = 48 (op 165 ms, alt
/// 333 ms) spread 3.7% and 5.2% between first and third quartile of 14 runs
/// where n = 32 (52 and 89 ms) spread 0.9% and 1.8%; in a noisier hour
/// n = 48 spread 6.8% and 11.3% (ranges 35% and 46%) against 1.9% and 5.1%
/// (10% and 16%) for n = 24.
pub const CLIQUE_N: usize = 32;
/// Accuracy parameter of both `clique_paper` algorithms.
pub const CLIQUE_EPSILON: f64 = 0.5;
/// MSSP sources per operation.
pub const CLIQUE_SOURCES: usize = 8;
/// Side of the serving grid: `n = 2500`.
pub const SERVE_SIDE: usize = 50;
/// Pairs per `/batch` request.
pub const BATCH_PAIRS: usize = 4096;

/// SplitMix64: the harness's own generator, so that request streams do not
/// change when the workspace's `rand` stand-in does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, purpose)`; distinct purposes are independent.
    pub fn new(seed: u64, purpose: u64) -> Rng {
        let mut rng = Rng(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    /// Next 64 uniform bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias at these sizes is < 2⁻⁵⁰).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The weighted `clique_paper` graph (Theorem 3 input).
pub fn clique_weighted() -> Graph {
    generators::gnp_weighted(CLIQUE_N, 5.0 / CLIQUE_N as f64, 40, GRAPH_SEED).expect("gnp_weighted")
}

/// The unweighted `clique_paper` graph (Theorem 2/31 input).
pub fn clique_unweighted() -> Graph {
    generators::gnp(CLIQUE_N, 5.0 / CLIQUE_N as f64, GRAPH_SEED).expect("gnp")
}

/// `CLIQUE_SOURCES` distinct MSSP sources drawn from the seed.
pub fn mssp_sources(seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed, 1);
    let mut nodes: Vec<usize> = (0..CLIQUE_N).collect();
    for i in 0..CLIQUE_SOURCES {
        let j = i + rng.below(CLIQUE_N - i);
        nodes.swap(i, j);
    }
    nodes.truncate(CLIQUE_SOURCES);
    nodes
}

/// The serving graph: `which = 0` is artifact A's, `1` is B's.
pub fn serving_graph(which: u64) -> Graph {
    generators::road_like(SERVE_SIDE, SERVE_SIDE, 30, GRAPH_SEED + which).expect("road_like")
}

/// Rule 4: a 1 000 128-byte artifact that stays cache-resident. Capped mode
/// is sound but carries no `3(1+ε)` guarantee (docs/BUILDERS.md), so
/// verification asserts soundness and bit-identity, never the bound.
pub fn serving_builder() -> DirectBuilder {
    DirectBuilder::new().k(8).epsilon(0.25).seed(7).threads(1).max_landmarks(32)
}

/// Builds the serving artifact over `graph`.
pub fn serving_artifact(graph: &Graph) -> DistanceOracle {
    serving_builder().build(graph).expect("direct build")
}

/// `count` pairs, each endpoint uniform in `0..n`.
pub fn uniform_pairs(rng: &mut Rng, n: usize, count: usize) -> Vec<(u32, u32)> {
    (0..count).map(|_| (rng.below(n) as u32, rng.below(n) as u32)).collect()
}

/// `count` uniform pairs, pairwise distinct as unordered pairs (the result
/// cache keys on the unordered pair).
pub fn distinct_pairs(rng: &mut Rng, n: usize, count: usize) -> Vec<(u32, u32)> {
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
        if u != v && seen.insert((u.min(v), u.max(v))) {
            out.push((u, v));
        }
    }
    out
}

/// `count` draws from `hot` with rank `r` chosen with probability
/// proportional to `ln((r+2)/(r+1))`, i.e. Zipf-like with exponent 1.
pub fn zipf_pairs(rng: &mut Rng, hot: &[(u32, u32)], count: usize) -> Vec<(u32, u32)> {
    let span = hot.len() as f64 + 1.0;
    (0..count)
        .map(|_| {
            let rank = (span.powf(rng.unit()) as usize).saturating_sub(1);
            hot[rank.min(hot.len() - 1)]
        })
        .collect()
}

/// The text-plane `/batch` body for `pairs`.
pub fn text_batch_body(pairs: &[(u32, u32)]) -> Vec<u8> {
    let mut body = String::with_capacity(pairs.len() * 10);
    for (u, v) in pairs {
        body.push_str(&format!("{u} {v}\n"));
    }
    body.into_bytes()
}

/// `pairs` as the oracle API takes them.
pub fn as_usize_pairs(pairs: &[(u32, u32)]) -> Vec<(usize, usize)> {
    pairs.iter().map(|&(u, v)| (u as usize, v as usize)).collect()
}

/// The distance a `/distance` JSON body reports: `Some(INF)` for `null`,
/// `None` if the body is not the expected shape.
pub fn parse_distance_body(body: &[u8]) -> Option<Dist> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"distance\":")? + "\"distance\":".len()..];
    let value = &rest[..rest.find([',', '}'])?];
    parse_json_distance(value)
}

/// The distances a text-plane `/batch` JSON body reports.
pub fn parse_batch_body(body: &[u8]) -> Option<Vec<Dist>> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"distances\":[")? + "\"distances\":[".len()..];
    let list = &rest[..rest.find(']')?];
    if list.is_empty() {
        return Some(Vec::new());
    }
    list.split(',').map(parse_json_distance).collect()
}

fn parse_json_distance(value: &str) -> Option<Dist> {
    match value.trim() {
        "null" => Some(Dist::INF),
        number => number.parse::<u64>().ok().map(Dist::from_raw),
    }
}

/// The distances a binary-plane `/batch` frame reports.
pub fn parse_frame_body(body: &[u8]) -> Option<Vec<Dist>> {
    let raw = cc_reactor::frame::decode_response(body).ok()?;
    Some(raw.into_iter().map(Dist::from_raw).collect())
}

/// A random square min-plus matrix with roughly `rho·n` non-zeros.
pub fn random_sparse(n: usize, rho: usize, seed: u64) -> SparseMatrix<Dist> {
    let mut rng = Rng::new(seed, 2);
    let mut m = SparseMatrix::zeros(n);
    for _ in 0..rho * n {
        let (r, c) = (rng.below(n), rng.below(n));
        m.set_in::<MinPlus>(r, c, Dist::fin(1 + rng.below(999) as u64));
    }
    m
}
