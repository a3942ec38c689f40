//! Per-layer probes: direct calls into each crate's public functions,
//! timed as identical blocks with the rule-3 estimator, plus the exact
//! counts those calls report. The set is the same whatever workload the
//! traced run is for, so that every traced run prints every per-layer
//! metric. `README.md` lists which end-to-end metric each should move.

use crate::alloc;
use crate::clique_paper::{rounds_by_leaf, CliquePaper};
use crate::fixtures::{self, Rng, BATCH_PAIRS, CLIQUE_EPSILON, CLIQUE_N, GRAPH_SEED};
use crate::host;
use crate::measure::{self, ns, us, Samples, Steps, WARMUP_BLOCKS};
use crate::report::Metrics;
use crate::serve::{Call, Kind, Serving, BATCHES, ROUTED_CACHE, SHARDS, WORKERS};
use crate::trace::Tracer;
use crate::workload::{verification_sources, verify_from_sources, Phase, Tally, Workload};
use cc_clique::{Clique, Envelope, RoundReport};
use cc_core::{apsp, mssp, sssp};
use cc_distance::{distance_through_sets, hitting_set, k_nearest, source_detection_all};
use cc_graph::{generators, reference};
use cc_hopset::{build_hopset, HopsetConfig};
use cc_matrix::{Dist, MinPlus};
use cc_oracle::shard::{combine, HalfQuery};
use cc_oracle::{CachingOracle, OracleBuilder, ShardedArtifact};
use cc_server::{
    frame, http, AppState, BackendSpec, BlockingClient, Server, ServerConfig, Transport,
};
use cc_telemetry::{render_prometheus, BuildTrace, Histogram, Registry};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Share of `--seconds` one timed probe loop gets (0.12 s of a 20 s run).
const PROBE_SHARE: f64 = 0.006;

/// The timing loops, all with the same budget.
struct Probe {
    budget: Duration,
}

impl Probe {
    /// Rule-3 seconds per call of `f`, which a block calls `iters` times
    /// with the iteration index.
    fn time(&self, iters: usize, mut f: impl FnMut(usize)) -> f64 {
        measure::repeat_timed(self.budget, WARMUP_BLOCKS, iters, || (0..iters).for_each(&mut f))
            .p01()
    }

    /// [`Probe::time`] for calls of tens of milliseconds: one call per
    /// block, one warm-up.
    fn time_slow(&self, f: impl FnMut()) -> f64 {
        measure::repeat_timed(self.budget, 1, 1, f).p01()
    }

    /// Repeats `build` (which returns its own phase trace) and returns each
    /// span's third-fastest wall time, with the whole call under `total`.
    fn time_traced(&self, mut build: impl FnMut() -> BuildTrace, spans: &[&'static str]) -> Steps {
        let mut steps = Steps::default();
        let phase = Instant::now();
        while steps.reps() < measure::min_samples() || phase.elapsed() < self.budget {
            let t = Instant::now();
            let trace = build();
            steps.record("total", t.elapsed().as_secs_f64());
            for &name in spans {
                steps.record(name, trace.span(name).map_or(0.0, |s| s.wall_ns as f64 / 1e9));
            }
        }
        steps
    }
}

fn step(steps: &Steps, name: &str) -> f64 {
    steps.third_fastest().iter().find(|(n, _)| *n == name).map_or(0.0, |(_, s)| *s)
}

/// The report of one call on a fresh clique.
fn report_of(f: impl FnOnce(&mut Clique)) -> RoundReport {
    let mut clique = Clique::new(CLIQUE_N);
    f(&mut clique);
    clique.report()
}

/// Runs every probe and adds every per-layer metric to `m`.
pub fn run_all(seed: u64, seconds: f64, dir: &Path, m: &mut Metrics, tally: &mut Tally) {
    let p = Probe { budget: Duration::from_secs_f64(seconds * PROBE_SHARE) };
    paper_layers(&p, seed, m, tally);
    let dir = dir.join("probes");
    oracle_layers(&p, seed, m, tally);
    serving_layers(&p, seed, &dir, m, tally);
    std::fs::remove_dir_all(&dir).ok();
    out_of_cache(seed, m);
}

/// `cc-matrix`, `cc-matmul`, `cc-clique`, `cc-distance`, `cc-hopset`,
/// `cc-core` and the clique build of `cc-oracle`.
fn paper_layers(p: &Probe, seed: u64, m: &mut Metrics, tally: &mut Tally) {
    let n = CLIQUE_N;
    let paper = CliquePaper::set_up(seed, &mut Steps::default());
    let (gw, gu) = (&paper.weighted, &paper.unweighted);

    // cc-matrix: the local min-plus product every clique product ends in.
    let (s, t) = (fixtures::random_sparse(n, 8, 1), fixtures::random_sparse(n, 8, 2));
    let secs = p.time(8, |_| {
        black_box(black_box(&s).multiply::<MinPlus>(black_box(&t)));
    });
    m.set("matrix.minplus_multiply_us", "us", us(secs));

    // cc-matmul: the three distributed products, ρ = 8, fresh clique each.
    let t_cols = t.transpose();
    let rho_out = s.multiply::<MinPlus>(&t).density();
    let sparse = |c: &mut Clique| {
        black_box(
            cc_matmul::sparse_multiply::<MinPlus>(c, s.rows(), t_cols.rows(), rho_out)
                .expect("sparse"),
        );
    };
    let filtered = |c: &mut Clique| {
        black_box(
            cc_matmul::filtered_multiply::<MinPlus>(c, s.rows(), t_cols.rows(), 8)
                .expect("filtered"),
        );
    };
    let dense = |c: &mut Clique| {
        black_box(cc_matmul::dense_multiply::<MinPlus>(c, s.rows(), t_cols.rows()).expect("dense"));
    };
    m.set("matmul.sparse_multiply_us", "us", us(p.time(1, |_| sparse(&mut Clique::new(n)))));
    let r = report_of(sparse);
    m.set("matmul.sparse_multiply.rounds", "count", r.rounds as f64);
    m.set("matmul.sparse_multiply.messages", "count", r.messages as f64);
    m.set("matmul.filtered_multiply_us", "us", us(p.time(1, |_| filtered(&mut Clique::new(n)))));
    m.set("matmul.filtered_multiply.rounds", "count", report_of(filtered).rounds as f64);
    m.set("matmul.dense_multiply_us", "us", us(p.time(1, |_| dense(&mut Clique::new(n)))));
    m.set("matmul.dense_multiply.rounds", "count", report_of(dense).rounds as f64);

    // cc-clique: the three primitives at full load (n×n one-word items).
    let envelopes: Vec<Envelope<u64>> =
        (0..n).flat_map(|s| (0..n).map(move |d| Envelope::new(s, d, (s * n + d) as u64))).collect();
    let mut rng = Rng::new(seed, 3);
    let items: Vec<Vec<u64>> = (0..n).map(|_| (0..n).map(|_| rng.next()).collect()).collect();
    let words: Vec<u64> = (0..n as u64).collect();
    let secs = p.time(4, |_| {
        black_box(Clique::new(n).route(envelopes.clone()).expect("route"));
    });
    m.set("clique.route_us", "us", us(secs));
    let secs = p.time(4, |_| {
        black_box(Clique::new(n).sort(items.clone()).expect("sort"));
    });
    m.set("clique.sort_us", "us", us(secs));
    let secs = p.time(64, |_| {
        black_box(Clique::new(n).all_broadcast(words.clone()).expect("all_broadcast"));
    });
    m.set("clique.all_broadcast_us", "us", us(secs));

    // One op and one alt: the rounds behind `cost_count`, split by the
    // primitive that charged them.
    let (op, alt) = (paper.run_op(), paper.run_alt());
    tally.check(op.is_ok() && alt.is_ok(), || "probe run of mssp or unweighted_2eps failed".into());
    let (Ok(op), Ok(alt)) = (op, alt) else { return };
    for leaf in ["route", "sort", "all_broadcast"] {
        let rounds = rounds_by_leaf(&op.report, leaf) + rounds_by_leaf(&alt.report, leaf);
        m.set(&format!("clique.{leaf}.rounds"), "count", rounds as f64);
    }

    // cc-distance: the four tools, on the inputs the paper algorithms give
    // them (k = ⌈√n⌉ as in Theorem 2/31; hop-β detection over G ∪ H as in
    // Theorem 3).
    let k = (n as f64).sqrt().ceil() as usize;
    let hopset =
        build_hopset(&mut Clique::new(n), gw, HopsetConfig::new(CLIQUE_EPSILON)).expect("hopset");
    let union = hopset.union_with(gw);
    let near = k_nearest(&mut Clique::new(n), gu, k).expect("k_nearest");
    let through: Vec<Vec<(usize, Dist)>> =
        near.iter().map(|r| r.iter().map(|(c, a)| (c as usize, a.to_dist())).collect()).collect();
    let sets: Vec<Vec<usize>> =
        near.iter().map(|r| r.iter().map(|(c, _)| c as usize).collect()).collect();
    let knear = |c: &mut Clique| {
        black_box(k_nearest(c, gu, k).expect("k_nearest"));
    };
    let detect = |c: &mut Clique| {
        black_box(source_detection_all(c, &union, &paper.sources, hopset.beta).expect("detection"));
    };
    let through_sets = |c: &mut Clique| {
        black_box(distance_through_sets(c, &through).expect("through sets"));
    };
    m.set("distance.k_nearest_us", "us", us(p.time_slow(|| knear(&mut Clique::new(n)))));
    m.set("distance.k_nearest.rounds", "count", report_of(knear).rounds as f64);
    let detection_secs = p.time_slow(|| detect(&mut Clique::new(n)));
    m.set("distance.source_detection_us", "us", us(detection_secs));
    m.set("distance.source_detection.rounds", "count", report_of(detect).rounds as f64);
    m.set("distance.through_sets_us", "us", us(p.time_slow(|| through_sets(&mut Clique::new(n)))));
    m.set("distance.through_sets.rounds", "count", report_of(through_sets).rounds as f64);
    let secs = p.time(4, |_| {
        black_box(hitting_set(&mut Clique::new(n), &sets, k, 0xB7).expect("hitting set"));
    });
    m.set("distance.hitting_set_us", "us", us(secs));
    let hitters = hitting_set(&mut Clique::new(n), &sets, k, 0xB7).expect("hitting set");
    m.set("distance.hitting_set.size", "count", hitters.len() as f64);

    // cc-hopset.
    let build = |c: &mut Clique| {
        black_box(build_hopset(c, gw, HopsetConfig::new(CLIQUE_EPSILON)).expect("hopset"));
    };
    let hopset_secs = p.time_slow(|| build(&mut Clique::new(n)));
    m.set("hopset.build_us", "us", us(hopset_secs));
    m.set("hopset.build.rounds", "count", report_of(build).rounds as f64);
    m.set("hopset.edges", "count", hopset.edges.len() as f64);
    m.set("hopset.beta", "count", hopset.beta as f64);

    // cc-core: Theorem 3 split into its halves, then the two controls.
    let secs = p.time_slow(|| {
        black_box(
            mssp::mssp_with_hopset(&mut Clique::new(n), gw, &paper.sources, &hopset).expect("mssp"),
        );
    });
    m.set("core.mssp_with_hopset_us", "us", us(secs));
    let op_secs = p.time_slow(|| {
        black_box(paper.run_op().expect("mssp"));
    });
    m.set("core.mssp.self_us", "us", us(op_secs - hopset_secs - detection_secs));
    m.set("core.mssp.rounds", "count", op.rounds as f64);
    m.set("core.mssp.messages", "count", op.report.messages as f64);
    m.set("core.apsp.rounds", "count", alt.rounds as f64);
    m.set("core.apsp.messages", "count", alt.report.messages as f64);
    let weighted = |c: &mut Clique| {
        black_box(apsp::weighted_2eps(c, gw, CLIQUE_EPSILON).expect("weighted_2eps"));
    };
    m.set("core.apsp_weighted_us", "us", us(p.time_slow(|| weighted(&mut Clique::new(n)))));
    m.set("core.apsp_weighted.rounds", "count", report_of(weighted).rounds as f64);
    let grid = generators::grid_weighted(8, CLIQUE_N / 8, 20, GRAPH_SEED).expect("grid");
    let exact_sssp = |c: &mut Clique| {
        black_box(sssp::exact_sssp(c, &grid, 0).expect("exact_sssp"));
    };
    m.set("core.sssp_us", "us", us(p.time_slow(|| exact_sssp(&mut Clique::new(n)))));
    m.set("core.sssp.rounds", "count", report_of(exact_sssp).rounds as f64);

    // cc-oracle, clique build: the same artifact the direct builder makes,
    // through the simulator.
    let mut rounds = 0;
    let steps = p.time_traced(
        || {
            let builder = OracleBuilder::new().epsilon(0.25).seed(7);
            let (oracle, trace) =
                builder.build_traced(&mut Clique::new(n), gw).expect("clique build");
            rounds = oracle.build_rounds();
            trace
        },
        &["k_nearest_balls", "mssp_columns"],
    );
    m.set("oracle.clique_build_us", "us", us(step(&steps, "total")));
    m.set("oracle.clique_build.rounds", "count", rounds as f64);
    m.set("oracle.clique_build.k_nearest_balls_us", "us", us(step(&steps, "k_nearest_balls")));
    m.set("oracle.clique_build.mssp_columns_us", "us", us(step(&steps, "mssp_columns")));
}

/// `cc-oracle`: direct build, query kernel, cache, router, serde.
fn oracle_layers(p: &Probe, seed: u64, m: &mut Metrics, tally: &mut Tally) {
    let graph = fixtures::serving_graph(0);
    let steps = p.time_traced(
        || fixtures::serving_builder().build_traced(&graph).expect("direct build").1,
        &["k_nearest_balls", "landmark_selection", "exact_columns"],
    );
    m.set("oracle.direct_build_us", "us", us(step(&steps, "total")));
    for span in ["k_nearest_balls", "landmark_selection", "exact_columns"] {
        m.set(&format!("oracle.direct_build.{span}_us"), "us", us(step(&steps, span)));
    }
    let oracle = fixtures::serving_artifact(&graph);
    let n = oracle.n();
    let secs = p.time(1, |_| {
        black_box(ShardedArtifact::partition(&oracle, SHARDS).expect("partition"));
    });
    m.set("oracle.partition_us", "us", us(secs));

    // Query kernel, its two regimes apart: pairs answered from a ball, and
    // pairs in neither endpoint's ball, which go through a landmark.
    let sample: Vec<usize> = (0..256).map(|i| i * n / 256).collect();
    let balls: Vec<Vec<usize>> = sample
        .iter()
        .map(|&u| reference::k_nearest(&graph, u, 8).into_iter().map(|(v, _, _)| v).collect())
        .collect();
    let mut ball_pairs = Vec::new();
    let mut landmark_pairs = Vec::new();
    for (i, &u) in sample.iter().enumerate() {
        ball_pairs.extend(balls[i].iter().filter(|&&v| v != u).map(|&v| (u, v)));
        for (j, &v) in sample.iter().enumerate().skip(i + 1) {
            if !balls[i].contains(&v) && !balls[j].contains(&u) {
                landmark_pairs.push((u, v));
            }
        }
    }
    landmark_pairs.truncate(4096);
    let query = |pairs: &[(usize, usize)]| {
        p.time(pairs.len(), |i| {
            black_box(oracle.try_query(pairs[i].0, pairs[i].1).ok());
        })
    };
    m.set("oracle.query_ball_ns", "ns", ns(query(&ball_pairs)));
    m.set("oracle.query_landmark_ns", "ns", ns(query(&landmark_pairs)));
    let mut rng = Rng::new(seed, 4);
    let uniform = fixtures::as_usize_pairs(&fixtures::uniform_pairs(&mut rng, n, BATCH_PAIRS));
    let secs = p.time(1, |_| {
        black_box(oracle.try_query_batch(&uniform).ok());
    });
    m.set("oracle.batch_ns_per_pair", "ns", ns(secs) / BATCH_PAIRS as f64);

    // Cache: a hot set that fits against a cyclic scan of twice the
    // capacity, which under LRU never hits.
    let hot = fixtures::as_usize_pairs(&fixtures::distinct_pairs(&mut rng, n, BATCH_PAIRS));
    let cold =
        fixtures::as_usize_pairs(&fixtures::distinct_pairs(&mut rng, n, BATCHES * BATCH_PAIRS));
    let cached = CachingOracle::new(oracle.clone(), ROUTED_CACHE);
    let secs = p.time(hot.len(), |i| {
        black_box(cached.try_query(hot[i].0, hot[i].1).ok());
    });
    m.set("oracle.cache_hit_ns", "ns", ns(secs));
    let secs = p.time(1, |_| {
        black_box(cached.try_query_batch(&hot).ok());
    });
    m.set("oracle.cache_batch_hit_ns_per_pair", "ns", ns(secs) / hot.len() as f64);
    let secs = p.time(cold.len(), |i| {
        black_box(cached.try_query(cold[i].0, cold[i].1).ok());
    });
    m.set("oracle.cache_miss_ns", "ns", ns(secs));
    let secs = p.time(BATCHES, |i| {
        black_box(cached.try_query_batch(&cold[i * BATCH_PAIRS..(i + 1) * BATCH_PAIRS]).ok());
    });
    m.set("oracle.cache_batch_miss_ns_per_pair", "ns", ns(secs) / BATCH_PAIRS as f64);

    // Router: the routed query, and its two parts alone.
    let router = ShardedArtifact::partition(&oracle, SHARDS)
        .and_then(ShardedArtifact::into_router)
        .expect("router");
    let secs = p.time(uniform.len(), |i| {
        black_box(router.try_query(uniform[i].0, uniform[i].1).ok());
    });
    m.set("oracle.router_query_ns", "ns", ns(secs));
    let secs = p.time(1, |_| {
        black_box(router.try_query_batch(&uniform).ok());
    });
    m.set("oracle.router_batch_ns_per_pair", "ns", ns(secs) / uniform.len() as f64);
    let plan = router.plan();
    let owners: Vec<usize> = uniform.iter().map(|&(u, _)| plan.owner(u)).collect();
    let secs = p.time(uniform.len(), |i| {
        black_box(router.shards()[owners[i]].half_query(uniform[i].0, uniform[i].1));
    });
    m.set("oracle.half_query_ns", "ns", ns(secs));
    let halves: Vec<(HalfQuery, HalfQuery)> = uniform
        .iter()
        .map(|&(u, v)| {
            (
                router.shards()[plan.owner(u)].half_query(u, v),
                router.shards()[plan.owner(v)].half_query(v, u),
            )
        })
        .collect();
    let secs = p.time(halves.len(), |i| {
        black_box(combine(black_box(halves[i].0), black_box(halves[i].1)));
    });
    m.set("oracle.combine_ns", "ns", ns(secs));

    // Serde: what a reload and a snapshot pay, and the sizes behind
    // `cost_count` and `peak_rss_mb`.
    let bytes = cc_oracle::serde::to_bytes(&oracle);
    let shard = &router.shards()[0];
    let shard_bytes = cc_oracle::serde::to_shard_bytes(shard);
    let secs = p.time(1, |_| {
        black_box(cc_oracle::serde::to_bytes(&oracle));
    });
    m.set("oracle.to_bytes_us", "us", us(secs));
    let secs = p.time(1, |_| {
        black_box(cc_oracle::serde::from_bytes(&bytes).expect("from_bytes"));
    });
    m.set("oracle.from_bytes_us", "us", us(secs));
    let secs = p.time(1, |_| {
        black_box(cc_oracle::serde::payload_checksum(&oracle));
    });
    m.set("oracle.payload_checksum_us", "us", us(secs));
    let secs = p.time(1, |_| {
        black_box(cc_oracle::serde::to_shard_bytes(shard));
    });
    m.set("oracle.to_shard_bytes_us", "us", us(secs));
    let secs = p.time(1, |_| {
        black_box(cc_oracle::serde::from_shard_bytes(&shard_bytes).expect("from_shard_bytes"));
    });
    m.set("oracle.from_shard_bytes_us", "us", us(secs));
    m.set("oracle.snapshot.bytes", "count", bytes.len() as f64);
    m.set("oracle.artifact.bytes", "count", oracle.artifact_bytes() as f64);
    let set_bytes: usize = router.shards().iter().map(|s| s.artifact_bytes()).sum();
    m.set("oracle.shard_set.bytes", "count", set_bytes as f64);
    let stretch = verify_from_sources(
        &graph,
        verification_sources(n),
        |u, v| oracle.try_query(u, v).ok(),
        tally,
    );
    m.set("oracle.stretch_mean", "ratio", stretch.sum / stretch.count as f64);
    m.set("oracle.exact_share", "ratio", stretch.exact as f64 / stretch.count as f64);
}

/// `cc-reactor`, `cc-server` and `cc-telemetry`, in process and over
/// loopback.
fn serving_layers(p: &Probe, seed: u64, dir: &Path, m: &mut Metrics, tally: &mut Tally) {
    let mut off = Tracer::new();
    let mut point = Serving::set_up(Kind::Point, seed, &dir.join("point"), &mut Steps::default());
    let mut batch = Serving::set_up(Kind::Batch, seed, &dir.join("batch"), &mut Steps::default());
    let mut routed =
        Serving::set_up(Kind::Routed, seed, &dir.join("routed"), &mut Steps::default());

    // cc-reactor: the binary codec alone.
    let frame_request = &batch.op.calls[0].body;
    let distances: Vec<u64> = (0..BATCH_PAIRS as u64).collect();
    let secs = p.time(1, |_| {
        black_box(frame::decode_request(black_box(frame_request)).ok());
    });
    m.set("reactor.frame_decode_request_ns_per_pair", "ns", ns(secs) / BATCH_PAIRS as f64);
    let secs = p.time(1, |_| {
        black_box(frame::encode_response(black_box(&distances)));
    });
    m.set("reactor.frame_encode_response_ns_per_pair", "ns", ns(secs) / BATCH_PAIRS as f64);

    // cc-server, HTTP: parsing the exact request bytes, writing the
    // responses the handlers produce.
    let wires = |calls: &[Call]| -> Vec<Vec<u8>> { calls.iter().map(Call::wire_bytes).collect() };
    let requests = |wires: &[Vec<u8>]| -> Vec<http::Request> {
        wires
            .iter()
            .map(|w| http::read_request(&mut Cursor::new(w), 1 << 20).expect("own request"))
            .collect()
    };
    let parse = |wires: &[Vec<u8>]| {
        p.time(wires.len(), |i| {
            black_box(http::read_request(&mut Cursor::new(&wires[i]), 1 << 20).ok());
        })
    };
    let (get_wires, bin_wires, text_wires) =
        (wires(&point.op.calls), wires(&batch.op.calls), wires(&batch.alt.calls));
    let parse_get = parse(&get_wires);
    m.set("server.http_parse_get_ns", "ns", ns(parse_get));
    m.set("server.http_parse_batch_bin_us", "us", us(parse(&bin_wires)));
    m.set("server.http_parse_batch_text_us", "us", us(parse(&text_wires)));

    let mono = AppState::new(point.oracle.clone(), 0);
    let (gets, bins, texts) = (requests(&get_wires), requests(&bin_wires), requests(&text_wires));
    let small = mono.handle(&gets[0]);
    let large = mono.handle(&bins[0]);
    let write = |response: &http::Response| {
        p.time(16, |_| {
            let mut out = Vec::with_capacity(response.body.len() + 128);
            http::write_response(&mut out, black_box(response), true, false).ok();
            black_box(out);
        })
    };
    let write_small = write(&small);
    m.set("server.http_write_small_ns", "ns", ns(write_small));
    m.set("server.http_write_batch_us", "us", us(write(&large)));

    // cc-server, handlers: the workloads' requests with no socket.
    let handle = |state: &AppState, requests: &[http::Request]| {
        p.time(requests.len(), |i| {
            black_box(state.handle(&requests[i]));
        })
    };
    let handle_distance = handle(&mono, &gets);
    m.set("server.handle_distance_ns", "ns", ns(handle_distance));
    m.set("server.handle_batch_bin_us", "us", us(handle(&mono, &bins)));
    m.set("server.handle_batch_text_us", "us", us(handle(&mono, &texts)));
    let shards =
        ShardedArtifact::partition(&point.oracle, SHARDS).expect("partition").into_shards();
    let router_state =
        AppState::with_in_process_shards(shards, ROUTED_CACHE).expect("router state");
    let hit_requests = requests(&wires(&routed.op.calls));
    let miss_requests = requests(&wires(&routed.alt.calls));
    m.set("server.handle_batch_routed_hit_us", "us", us(handle(&router_state, &hit_requests)));
    m.set("server.handle_batch_routed_miss_us", "us", us(handle(&router_state, &miss_requests)));
    let metrics_request = requests(&[b"GET /metrics HTTP/1.1\r\nHost: cc-serve\r\n\r\n".to_vec()]);
    m.set("server.handle_metrics_us", "us", us(handle(&mono, &metrics_request)));

    let reloadable = AppState::from_spec(BackendSpec::mono(&point.snapshot), 0).expect("mono spec");
    let other = point.snapshot.with_file_name("b.snap");
    let secs = p.time(2, |i| {
        let path = if i % 2 == 0 { &other } else { &point.snapshot };
        black_box(reloadable.reload_from(path).expect("reload"));
    });
    m.set("server.reload_mono_us", "us", us(secs));
    let shard_paths: Vec<_> =
        (0..SHARDS).map(|i| routed.snapshot.with_file_name(format!("shard-{i}.snap"))).collect();
    let rollable =
        AppState::from_spec(BackendSpec::sharded(shard_paths), ROUTED_CACHE).expect("sharded spec");
    let secs = p.time(1, |_| {
        black_box(rollable.reload_shard_from(0, &routed.snapshot).expect("shard reload"));
    });
    m.set("server.reload_shard_us", "us", us(secs));

    // cc-server, transport: everything between the client's call and the
    // handler, by subtraction and by removing one part at a time.
    let gets_per_block = point.ops(Phase::Op);
    let op = measure::repeat(p.budget * 4, WARMUP_BLOCKS, gets_per_block, || {
        point.block(Phase::Op, &mut off, false)
    });
    m.set("server.get.residual_us", "us", us(op.p01() - parse_get - handle_distance - write_small));
    let addr = point.served.handle.addr();
    let pipeline: Vec<u8> = get_wires[..16].concat();
    let mut stream = TcpStream::connect(addr).expect("raw connect");
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut answered = 0u64;
    let mut asked = 0u64;
    let secs = p.time(1, |_| {
        stream.write_all(&pipeline).expect("pipelined write");
        asked += 16;
        answered += (0..16).filter(|_| read_response(&mut reader) == Some(200)).count() as u64;
    });
    drop((stream, reader));
    tally.check(asked == answered, || {
        format!("{} of {asked} pipelined GETs failed", asked - answered)
    });
    m.set("server.get_pipelined16_us", "us", us(secs) / 16.0);
    let mut fresh_ok = true;
    let secs = p.time(50, |i| {
        let mut client = BlockingClient::connect(addr).expect("fresh connect");
        fresh_ok &= client.get(&point.op.calls[i].target).is_ok_and(|(status, _)| status == 200);
    });
    tally.check(fresh_ok, || "a GET on a fresh connection failed".into());
    m.set("server.get_fresh_conn_us", "us", us(secs));
    let poll_config = ServerConfig::default()
        .with_workers(WORKERS)
        .with_cache_capacity(0)
        .with_transport(Transport::Poll);
    let poll = Server::start_from_spec(&poll_config, BackendSpec::mono(&point.snapshot))
        .expect("poll server");
    let mut client = BlockingClient::connect(poll.addr()).expect("connect to poll server");
    let mut poll_ok = true;
    let secs = p.time(gets_per_block, |i| {
        poll_ok &= client.get(&point.op.calls[i].target).is_ok_and(|(status, _)| status == 200);
    });
    drop(client);
    poll.shutdown();
    tally.check(poll_ok, || "a GET on the poll transport failed".into());
    m.set("server.get_poll_us", "us", us(secs));

    // cc-server, allocation: whole-process counts over one block, per
    // request — client, transport and handler together.
    let mut count = |set: &mut crate::serve::CallSet, served: &mut crate::serve::Served| {
        set.run(served, &mut off);
        alloc::start();
        set.run(served, &mut off);
        let (allocations, bytes) = alloc::stop();
        let per = set.calls.len() as f64;
        (allocations as f64 / per, bytes as f64 / per)
    };
    let (get_allocs, get_bytes) = count(&mut point.op, &mut point.served);
    m.set("server.get.allocs", "count", get_allocs);
    m.set("server.get.alloc_bytes", "count", get_bytes);
    m.set("server.batch_bin.allocs", "count", count(&mut batch.op, &mut batch.served).0);
    m.set("server.batch_text.allocs", "count", count(&mut batch.alt, &mut batch.served).0);
    m.set("server.reload.allocs", "count", count(&mut point.alt, &mut point.served).0);

    // Cache effectiveness of the routed workload, from the server's own
    // counters over each phase; reported, not asserted.
    for (phase, name) in
        [(Phase::Op, "oracle.cache.hit_ratio_op"), (Phase::Alt, "oracle.cache.hit_ratio_alt")]
    {
        let ops = routed.ops(phase);
        for _ in 0..WARMUP_BLOCKS {
            routed.block(phase, &mut off, false);
        }
        let before = routed.cache_counts();
        measure::repeat(p.budget, 0, ops, || routed.block(phase, &mut off, false));
        let after = routed.cache_counts();
        let (hits, misses) = (after.0 - before.0, after.1 - before.1);
        m.set(name, "ratio", hits as f64 / (hits + misses).max(1) as f64);
    }

    // cc-telemetry: the primitives, the exposition, and what the registry
    // costs one request (enabled against disabled, interleaved blocks, so
    // that drift hits both sides alike).
    let histogram = Histogram::new();
    let secs = p.time(4096, |i| histogram.record(black_box(i as u64 * 37)));
    m.set("telemetry.hist_record_ns", "ns", ns(secs));
    let registry = Registry::new();
    let counter = registry.counter("ledger_probe_total", &[]);
    m.set("telemetry.counter_inc_ns", "ns", ns(p.time(4096, |_| counter.inc())));
    let snapshot = mono.registry().snapshot();
    let secs = p.time(1, |_| {
        black_box(render_prometheus(black_box(&snapshot)));
    });
    m.set("telemetry.render_prometheus_us", "us", us(secs));
    let mut silent = AppState::new(point.oracle.clone(), 0);
    silent.disable_telemetry();
    let (mut enabled, mut disabled) = (Vec::new(), Vec::new());
    let phase = Instant::now();
    while enabled.len() < measure::min_samples() || phase.elapsed() < p.budget * 2 {
        for (state, samples) in [(&mono, &mut enabled), (&silent, &mut disabled)] {
            let t = Instant::now();
            for request in &gets {
                black_box(state.handle(request));
            }
            samples.push(t.elapsed().as_secs_f64() / gets.len() as f64);
        }
    }
    let overhead = Samples::new(enabled).p01() - Samples::new(disabled).p01();
    m.set("telemetry.request_overhead_ns", "ns", ns(overhead));

    for serving in [point, batch, routed] {
        tally.absorb(serving.stop());
    }
}

/// Reads one `Content-Length`-framed response; returns its status.
fn read_response(reader: &mut BufReader<TcpStream>) -> Option<u16> {
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    let status = line.split_whitespace().nth(1)?.parse().ok()?;
    let mut length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line).ok()?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().ok()?;
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).ok()?;
    Some(status)
}

/// Out of cache, ungated: the same builder at n = 10⁵ (a 38 MiB artifact
/// against a 2 MiB L2). Evidence for the layout work, never a gate on a
/// shared host: 200k uniform queries drifted 13 → 27 ms with no code change,
/// while the ratio to an interleaved plain gather over a buffer of the same
/// size held 3.29–3.49.
fn out_of_cache(seed: u64, m: &mut Metrics) {
    const QUERIES: usize = 200_000;
    let graph = generators::road_like(400, 250, 30, GRAPH_SEED).expect("road_like");
    let t = Instant::now();
    let oracle = fixtures::serving_artifact(&graph);
    m.set("oracle.n1e5.direct_build_ms", "ms", t.elapsed().as_secs_f64() * 1e3);
    drop(graph);
    let n = oracle.n();
    let mut rng = Rng::new(seed, 5);
    let pairs = fixtures::as_usize_pairs(&fixtures::uniform_pairs(&mut rng, n, QUERIES));
    // Four dependent-free loads per pair (two balls, two columns is what a
    // landmark query touches) over a buffer the artifact's size.
    let buffer: Vec<u64> = vec![1; oracle.artifact_bytes() / 8];
    let slots: Vec<[usize; 4]> =
        (0..QUERIES).map(|_| std::array::from_fn(|_| rng.below(buffer.len()))).collect();
    let (mut query, mut gather) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        for &(u, v) in &pairs {
            black_box(oracle.try_query(u, v).ok());
        }
        query.push(t.elapsed().as_secs_f64() / QUERIES as f64);
        let t = Instant::now();
        let mut sum = 0u64;
        for s in &slots {
            sum = sum.wrapping_add(buffer[s[0]] + buffer[s[1]] + buffer[s[2]] + buffer[s[3]]);
        }
        black_box(sum);
        gather.push(t.elapsed().as_secs_f64() / QUERIES as f64);
    }
    drop((buffer, slots));
    let (query, gather) = (Samples::new(query).p01(), Samples::new(gather).p01());
    m.set("oracle.n1e5.query_ns", "ns", ns(query));
    m.set("oracle.n1e5.query_gather_ratio", "ratio", query / gather);
    let bytes = cc_oracle::serde::to_bytes(&oracle);
    let before = host::rss_mb();
    let t = Instant::now();
    let reloaded = cc_oracle::serde::from_bytes(&bytes).expect("from_bytes");
    m.set("oracle.n1e5.from_bytes_ms", "ms", t.elapsed().as_secs_f64() * 1e3);
    // What holding the incoming generation next to the serving one costs.
    m.set("oracle.n1e5.reload_rss_delta_mb", "MB", host::rss_mb() - before);
    black_box(reloaded.n());
}
