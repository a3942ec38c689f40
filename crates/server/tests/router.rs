//! Router-tier end-to-end over a real TCP socket: three per-shard
//! snapshots served by `Server::start_from_spec`, checked against Dijkstra
//! ground truth and the monolithic oracle, hammered while a single shard
//! hot-reloads (zero non-200s), and startup / reload failure modes pinned
//! down (a broken shard set never serves; a failed shard reload keeps the
//! old generation).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use cc_clique::Clique;
use cc_graph::{generators, reference, Graph};
use cc_oracle::shard::combine;
use cc_oracle::{serde, DistanceOracle, OracleBuilder, ShardedArtifact};
use cc_server::{BackendSpec, BlockingClient, Server, ServerConfig, ServerHandle};

const N: usize = 30;
const SHARDS: usize = 3;

fn build_oracle(seed: u64) -> (Graph, DistanceOracle) {
    let g = generators::gnp_weighted(N, 0.15, 30, seed).unwrap();
    let mut clique = Clique::new(N);
    let oracle = OracleBuilder::new().seed(seed).build(&mut clique, &g).unwrap();
    (g, oracle)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cc-serve-router-e2e").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `oracle`'s shard set into `dir` and starts a router over it.
fn start_router(
    oracle: &DistanceOracle,
    dir: &std::path::Path,
    workers: usize,
) -> (Vec<PathBuf>, ServerHandle) {
    let paths = cc_server::source::write_shard_snapshots(oracle, SHARDS, dir).unwrap();
    let config = ServerConfig::default().with_addr("127.0.0.1:0").with_workers(workers);
    let handle = Server::start_from_spec(&config, BackendSpec::sharded(paths.clone()))
        .expect("router start");
    (paths, handle)
}

/// Extracts `"distance":<number|null>` from a `/distance` response body.
fn parse_distance(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).expect("utf-8 body");
    let rest = text.split_once("\"distance\":").expect("distance key").1;
    let token: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == 'n' || *c == 'u' || *c == 'l')
        .collect();
    if token.starts_with("null") {
        None
    } else {
        Some(token.parse().expect("numeric distance"))
    }
}

#[test]
fn cross_shard_distance_and_mixed_batch_match_monolith_and_dijkstra() {
    let (g, oracle) = build_oracle(11);
    let (paths, handle) = start_router(&oracle, &temp_dir("verify"), 4);
    let mut client = BlockingClient::connect(handle.addr()).unwrap();
    let bound = oracle.stretch_bound();

    // Every pair over the wire: bit-identical to the monolith, and sound
    // against Dijkstra ground truth. With 3 shards over 30 nodes this
    // covers same-shard, adjacent-shard, and far-shard pairs.
    for u in 0..N {
        let exact = reference::dijkstra(&g, u);
        for v in (0..N).step_by(3) {
            let (status, body) = client.get(&format!("/distance?u={u}&v={v}")).unwrap();
            assert_eq!(status, 200);
            let served = parse_distance(&body);
            assert_eq!(served, oracle.try_query(u, v).unwrap().value(), "pair ({u},{v})");
            let d = exact[v].expect("gnp(30, 0.15) is connected");
            let est = served.expect("connected pair must be finite over the wire");
            assert!(est >= d, "underestimate over the wire: {est} < {d}");
            assert!(
                est as f64 <= bound * d as f64 + 1e-9,
                "stretch violated over the wire: {est} > {bound} * {d}"
            );
        }
    }

    // A batch deliberately mixing same-shard and cross-shard pairs.
    let pairs: Vec<(usize, usize)> = (0..60).map(|i| (i % N, (i * 17 + 7) % N)).collect();
    let body: String = pairs.iter().map(|&(u, v)| format!("{u} {v}\n")).collect();
    let (status, resp) = client.post("/batch", body.as_bytes()).unwrap();
    assert_eq!(status, 200);
    let want: Vec<String> = oracle
        .try_query_batch(&pairs)
        .unwrap()
        .iter()
        .map(|d| d.value().map_or("null".into(), |x| x.to_string()))
        .collect();
    assert_eq!(
        String::from_utf8(resp).unwrap(),
        format!("{{\"count\":60,\"distances\":[{}]}}", want.join(","))
    );

    // Router /stats and /artifact identify the tier and the set.
    let (_, stats) = client.get("/stats").unwrap();
    let stats = String::from_utf8(stats).unwrap();
    assert!(stats.contains("\"mode\":\"router\""), "stats: {stats}");
    assert!(stats.contains("\"shard_count\":3"), "stats: {stats}");
    assert!(stats.contains("\"set_uniform\":true"), "stats: {stats}");
    let set_id = format!("{:016x}", serde::payload_checksum(&oracle));
    assert!(stats.contains(&set_id), "stats must carry the set id: {stats}");
    let (_, artifact) = client.get("/artifact").unwrap();
    let artifact = String::from_utf8(artifact).unwrap();
    assert!(artifact.contains(&format!("\"n\":{N}")), "artifact: {artifact}");
    assert!(artifact.contains("\"owned_start\":20"), "artifact: {artifact}");

    // Out-of-range and malformed requests are clean 400s through the tier.
    assert_eq!(client.get(&format!("/distance?u=0&v={N}")).unwrap().0, 400);
    assert_eq!(client.post("/batch", b"0 nope\n").unwrap().0, 400);

    for p in paths {
        std::fs::remove_file(p).ok();
    }
    handle.shutdown();
}

/// The acceptance scenario: concurrent `/distance` traffic while shard 1
/// alternates between two artifact generations through `/reload?shard=1`.
/// Zero non-200s; pairs not touching shard 1 keep answering exactly the
/// base artifact; pairs touching shard 1 answer one of the two valid
/// combinations (never a blend of anything else).
#[test]
fn traffic_survives_single_shard_reloads_with_zero_errors() {
    let (_, a) = build_oracle(21);
    let (_, b) = build_oracle(47);
    let dir = temp_dir("rolling");
    let (paths, handle) = start_router(&a, &dir, 8);
    let addr = handle.addr();

    // Shard 1's replacement slice from artifact B, at a separate path.
    let b_shards = ShardedArtifact::partition(&b, SHARDS).unwrap().into_shards();
    let b1_path = dir.join("b-shard-1.snap");
    std::fs::write(&b1_path, serde::to_shard_bytes(&b_shards[1])).unwrap();
    let a_shards = ShardedArtifact::partition(&a, SHARDS).unwrap().into_shards();

    // Probe pairs: (u, v), both the untouched-shards kind and the
    // shard-1-crossing kind, with every acceptable answer precomputed.
    let plan = a_shards[0].plan();
    let pairs: Vec<(usize, usize)> = (0..N).map(|i| (i, (i * 13 + 5) % N)).collect();
    let acceptable: Vec<Vec<Option<u64>>> = pairs
        .iter()
        .map(|&(u, v)| {
            if u == v {
                return vec![Some(0)];
            }
            let (ou, ov) = (plan.owner(u), plan.owner(v));
            // Only shard 1 ever swaps, so a half owned by any other shard
            // always comes from set A; a half owned by shard 1 may come
            // from A or B — and the two halves are fetched independently,
            // so for a pair entirely inside shard 1 a swap can land
            // between the fetches (every mix is acceptable).
            let near_options: Vec<_> =
                if ou == 1 { vec![&a_shards[1], &b_shards[1]] } else { vec![&a_shards[ou]] };
            let far_options: Vec<_> =
                if ov == 1 { vec![&a_shards[1], &b_shards[1]] } else { vec![&a_shards[ov]] };
            let mut answers = Vec::new();
            for near in &near_options {
                for far in &far_options {
                    answers.push(combine(near.half_query(u, v), far.half_query(v, u)).value());
                }
            }
            answers
        })
        .collect();

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for t in 0..6usize {
            let (stop, pairs, acceptable) = (&stop, &pairs, &acceptable);
            scope.spawn(move || {
                let mut client = BlockingClient::connect(addr).unwrap();
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let at = i % pairs.len();
                    let (u, v) = pairs[at];
                    let (status, body) = client.get(&format!("/distance?u={u}&v={v}")).unwrap();
                    assert_eq!(status, 200, "no request may fail during a shard reload");
                    let served = parse_distance(&body);
                    assert!(
                        acceptable[at].contains(&served),
                        "pair ({u},{v}) answered {served:?}, expected one of {:?}",
                        acceptable[at]
                    );
                    i += 1;
                }
            });
        }

        // The reloader: roll shard 1 back and forth between sets A and B.
        let reloads = 8usize;
        let mut reload_client = BlockingClient::connect(addr).unwrap();
        for round in 0..reloads {
            let path = if round % 2 == 0 { &b1_path } else { &paths[1] };
            let (status, body) = reload_client
                .post(&format!("/reload?shard=1&path={}", path.display()), b"")
                .unwrap();
            assert_eq!(
                status,
                200,
                "shard reload {round} failed: {}",
                String::from_utf8_lossy(&body)
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);

        // After an odd number of B-swaps... round 7 reloaded A1, so the
        // set is uniform again; the history is on the books.
        let (_, stats) = reload_client.get("/stats").unwrap();
        let stats = String::from_utf8(stats).unwrap();
        assert!(stats.contains(&format!("\"reloads\":{reloads}")), "stats: {stats}");
        assert!(stats.contains("\"reload_failures\":0"), "stats: {stats}");
        assert!(stats.contains("\"set_uniform\":true"), "stats: {stats}");
    });

    // While B's slice was in, /stats must have been able to say the set
    // was mixed: swap B1 in once more and check.
    let mut client = BlockingClient::connect(addr).unwrap();
    let (status, _) =
        client.post(&format!("/reload?shard=1&path={}", b1_path.display()), b"").unwrap();
    assert_eq!(status, 200);
    let (_, stats) = client.get("/stats").unwrap();
    let stats = String::from_utf8(stats).unwrap();
    assert!(stats.contains("\"set_uniform\":false"), "stats: {stats}");

    for p in paths {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_file(&b1_path).ok();
    handle.shutdown();
}

#[test]
fn broken_shard_sets_are_clean_startup_errors_never_a_serving_process() {
    let (_, oracle) = build_oracle(5);
    let dir = temp_dir("startup");
    let paths = cc_server::source::write_shard_snapshots(&oracle, SHARDS, &dir).unwrap();

    // A missing shard file.
    let missing = vec![paths[0].clone(), dir.join("gone.snap"), paths[2].clone()];
    let err = cc_server::source::load_shard_set(&missing).unwrap_err().to_string();
    assert!(err.contains("gone.snap"), "error must name the file: {err}");

    // A corrupt shard file (bit flip in the payload).
    let corrupt_path = dir.join("corrupt.snap");
    let mut bytes = std::fs::read(&paths[1]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&corrupt_path, &bytes).unwrap();
    let corrupt = vec![paths[0].clone(), corrupt_path.clone(), paths[2].clone()];
    let err = cc_server::source::load_shard_set(&corrupt).unwrap_err().to_string();
    assert!(err.contains("checksum"), "error must name the checksum: {err}");

    // Shard files in the wrong order.
    let swapped = vec![paths[1].clone(), paths[0].clone(), paths[2].clone()];
    let err = cc_server::source::load_shard_set(&swapped).unwrap_err().to_string();
    assert!(err.contains("declares index"), "error must name the slot: {err}");

    // An incomplete set.
    assert!(cc_server::source::load_shard_set(&paths[..2]).is_err());

    // Server::start_from_spec validates and refuses a mixed set (shards
    // individually valid, but from two different artifact generations):
    // an Err before the socket ever accepts, never a serving process.
    let (_, other) = build_oracle(6);
    let other_dir = temp_dir("startup-other");
    let other_paths = cc_server::source::write_shard_snapshots(&other, SHARDS, &other_dir).unwrap();
    let mixed = vec![paths[0].clone(), other_paths[1].clone(), paths[2].clone()];
    for (i, path) in mixed.iter().enumerate() {
        let shard =
            cc_server::source::load_slice(path, serde::from_shard_bytes_with_header).unwrap();
        assert_eq!((shard.artifact.index(), shard.artifact.count()), (i, SHARDS));
    }
    let config = ServerConfig::default().with_addr("127.0.0.1:0");
    let err = match Server::start_from_spec(&config, BackendSpec::sharded(mixed)) {
        Err(e) => e,
        Ok(_) => panic!("mixed set must not start"),
    };
    assert!(err.to_string().contains("set id"), "error must name the field: {err}");

    for p in paths.into_iter().chain(other_paths) {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_file(corrupt_path).ok();
}

#[test]
fn failed_shard_reload_keeps_the_old_generation_serving() {
    let (_, oracle) = build_oracle(33);
    let dir = temp_dir("failed-reload");
    let (paths, handle) = start_router(&oracle, &dir, 4);
    let mut client = BlockingClient::connect(handle.addr()).unwrap();

    let want: Vec<Option<u64>> = (0..N).map(|v| oracle.try_query(0, v).unwrap().value()).collect();
    let check_serving = |client: &mut BlockingClient| {
        for (v, expect) in want.iter().enumerate() {
            let (status, body) = client.get(&format!("/distance?u=0&v={v}")).unwrap();
            assert_eq!(status, 200);
            assert_eq!(parse_distance(&body), *expect, "old set must keep serving");
        }
    };

    // 1. Corrupt bytes at shard 2's own path, then reload it.
    let clean = std::fs::read(&paths[2]).unwrap();
    let mut corrupt = clean.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x10;
    std::fs::write(&paths[2], &corrupt).unwrap();
    let (status, body) = client.post("/reload?shard=2", b"").unwrap();
    assert_eq!(status, 400, "body: {}", String::from_utf8_lossy(&body));
    check_serving(&mut client);

    // 2. Shard 0's file offered for slot 2.
    let (status, body) =
        client.post(&format!("/reload?shard=2&path={}", paths[0].display()), b"").unwrap();
    assert_eq!(status, 400);
    assert!(
        String::from_utf8_lossy(&body).contains("declares index 0"),
        "body: {}",
        String::from_utf8_lossy(&body)
    );
    check_serving(&mut client);

    // 3. A different-n artifact's shard for slot 2.
    let small = {
        let g = generators::gnp_weighted(12, 0.3, 30, 9).unwrap();
        let mut clique = Clique::new(12);
        OracleBuilder::new().seed(9).build(&mut clique, &g).unwrap()
    };
    let small_shards = ShardedArtifact::partition(&small, SHARDS).unwrap().into_shards();
    let small_path = dir.join("small-2.snap");
    std::fs::write(&small_path, serde::to_shard_bytes(&small_shards[2])).unwrap();
    let (status, body) =
        client.post(&format!("/reload?shard=2&path={}", small_path.display()), b"").unwrap();
    assert_eq!(status, 400);
    assert!(
        String::from_utf8_lossy(&body).contains("cannot change n"),
        "body: {}",
        String::from_utf8_lossy(&body)
    );
    check_serving(&mut client);

    // 4. A full-set reload with one broken file swaps nothing.
    let (status, _) = client.post("/reload", b"").unwrap();
    assert_eq!(status, 400, "shard 2's file on disk is still corrupt");
    check_serving(&mut client);

    // All four failures on the books, still zero successful swaps.
    let (_, stats) = client.get("/stats").unwrap();
    let stats = String::from_utf8(stats).unwrap();
    assert!(stats.contains("\"reloads\":0"), "stats: {stats}");
    assert!(stats.contains("\"reload_failures\":4"), "stats: {stats}");
    assert!(!stats.contains("\"last_reload_error\":null"), "stats: {stats}");

    // Repair the file: the next bare /reload rolls the full set cleanly.
    std::fs::write(&paths[2], &clean).unwrap();
    let (status, body) = client.post("/reload", b"").unwrap();
    assert_eq!(status, 200, "body: {}", String::from_utf8_lossy(&body));
    assert!(String::from_utf8_lossy(&body).contains("\"shards\":3"));
    check_serving(&mut client);
    let (_, stats) = client.get("/stats").unwrap();
    let stats = String::from_utf8(stats).unwrap();
    assert!(stats.contains(&format!("\"reloads\":{SHARDS}")), "stats: {stats}");
    assert!(stats.contains("\"last_reload_error\":null"), "stats: {stats}");

    for p in paths {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_file(small_path).ok();
    handle.shutdown();
}

/// What a routed generation reports as its footprint.
fn served_bytes(handle: &ServerHandle) -> usize {
    handle.state().generation().descriptor().artifact_bytes
}

/// A set loaded from its files holds one column matrix, not one per file:
/// its footprint is the monolith's plus what each further shard repeats
/// (its landmark list and one ball offset). Rolling one slot to another
/// build's shard adds that build's matrix; rolling every slot leaves one.
#[test]
fn a_loaded_set_holds_one_column_matrix_until_a_roll_mixes_builds() {
    let (_, a) = build_oracle(61);
    let (_, b) = build_oracle(62);
    let dir = temp_dir("footprint");
    let (paths, handle) = start_router(&a, &dir, 2);
    let one_matrix =
        |o: &DistanceOracle| o.artifact_bytes() + (SHARDS - 1) * (o.landmarks().len() * 4 + 4);
    assert_eq!(served_bytes(&handle), one_matrix(&a));

    let a_shards = ShardedArtifact::partition(&a, SHARDS).unwrap().into_shards();
    let b_shards = ShardedArtifact::partition(&b, SHARDS).unwrap().into_shards();
    let a_columns = N * a.landmarks().len() * 8;
    let b_paths: Vec<PathBuf> = b_shards
        .iter()
        .map(|shard| {
            let path = dir.join(format!("b-shard-{}.snap", shard.index()));
            std::fs::write(&path, serde::to_shard_bytes(shard)).unwrap();
            path
        })
        .collect();
    let mut client = BlockingClient::connect(handle.addr()).unwrap();
    let mut roll = |slot: usize| {
        let url = format!("/reload?shard={slot}&path={}", b_paths[slot].display());
        let (status, body) = client.post(&url, b"").unwrap();
        assert_eq!(status, 200, "roll of slot {slot}: {}", String::from_utf8_lossy(&body));
    };

    // Slot 1 from B: B's slice counts in full, A's rows leave, A's matrix
    // stays for slots 0 and 2.
    roll(1);
    let mixed =
        one_matrix(&a) - (a_shards[1].artifact_bytes() - a_columns) + b_shards[1].artifact_bytes();
    assert_eq!(served_bytes(&handle), mixed);

    // The other slots adopt B's matrix from slot 1: one matrix again.
    roll(0);
    roll(2);
    assert_eq!(served_bytes(&handle), one_matrix(&b));

    for p in paths.into_iter().chain(b_paths) {
        std::fs::remove_file(p).ok();
    }
    handle.shutdown();
}
