//! Hot-reload end-to-end over a real socket: `/distance` traffic hammers
//! the server while `/reload` swaps versioned snapshots underneath it.
//! Every response must be a `200` whose answer is consistent with one of
//! the two artifacts (never a blend, never a 5xx, never a dropped
//! request), and a rejected snapshot must leave the old artifact serving.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use cc_clique::Clique;
use cc_graph::generators;
use cc_oracle::{serde, DistanceOracle, OracleBuilder};
use cc_server::{BackendSpec, BlockingClient, Server, ServerConfig, ServerHandle};

fn build_oracle(n: usize, seed: u64) -> DistanceOracle {
    let g = generators::gnp_weighted(n, 0.15, 30, seed).unwrap();
    let mut clique = Clique::new(n);
    OracleBuilder::new().seed(seed).build(&mut clique, &g).unwrap()
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cc-serve-reload-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Starts a server on the snapshot file at `path` with `path` as the
/// default reload source.
///
/// A keep-alive connection pins a worker for its lifetime, so the worker
/// count must exceed the maximum concurrent connections any test opens (6
/// hammer clients + 1 reloader) — otherwise the reloader can queue behind
/// hammer clients that only stop when the reloader finishes.
fn start_on_snapshot(path: &Path) -> ServerHandle {
    let config = ServerConfig::default().with_addr("127.0.0.1:0").with_workers(8);
    Server::start_from_spec(&config, BackendSpec::mono(path)).expect("server start")
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

/// The acceptance scenario: concurrent `/distance` clients while snapshots
/// A and B alternate through `/reload`. Zero non-200s; every answer equals
/// A's or B's; `/stats` and `/artifact` track the active build id.
#[test]
fn distance_traffic_survives_reloads_with_zero_errors_and_consistent_answers() {
    let n = 32;
    let a = build_oracle(n, 11);
    let b = build_oracle(n, 47);
    let a_id = format!("{:016x}", serde::payload_checksum(&a));
    let b_id = format!("{:016x}", serde::payload_checksum(&b));
    assert_ne!(a_id, b_id, "the two artifacts must be distinguishable");

    let path = temp_path("swap-under-load.snap");
    std::fs::write(&path, serde::to_bytes(&a)).unwrap();
    let handle = start_on_snapshot(&path);
    let addr = handle.addr();

    let pairs: Vec<(usize, usize)> = (0..n).map(|i| (i, (i * 13 + 5) % n)).collect();
    let a_ans: Vec<_> = pairs.iter().map(|&(u, v)| a.try_query(u, v).unwrap().value()).collect();
    let b_ans: Vec<_> = pairs.iter().map(|&(u, v)| b.try_query(u, v).unwrap().value()).collect();

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // 6 hammering clients.
        for t in 0..6usize {
            let (stop, pairs, a_ans, b_ans) = (&stop, &pairs, &a_ans, &b_ans);
            scope.spawn(move || {
                let mut client = BlockingClient::connect(addr).unwrap();
                let mut i = t; // offset each client into the pair stream
                while !stop.load(Ordering::Relaxed) {
                    let at = i % pairs.len();
                    let (u, v) = pairs[at];
                    let (status, body) = client.get(&format!("/distance?u={u}&v={v}")).unwrap();
                    assert_eq!(status, 200, "no request may fail during a reload");
                    let served = parse_distance(&body);
                    assert!(
                        served == a_ans[at] || served == b_ans[at],
                        "pair ({u},{v}) answered {served:?}, which is neither \
                         artifact A's {:?} nor artifact B's {:?}",
                        a_ans[at],
                        b_ans[at],
                    );
                    i += 1;
                }
            });
        }

        // The reloader: alternate B, A, B, ... through POST /reload.
        let reloads = 8usize;
        let mut reload_client = BlockingClient::connect(addr).unwrap();
        for round in 0..reloads {
            let next = if round % 2 == 0 { &b } else { &a };
            std::fs::write(&path, serde::to_bytes(next)).unwrap();
            let (status, body) = reload_client.post("/reload", b"").unwrap();
            assert_eq!(status, 200, "reload {round} failed: {}", String::from_utf8_lossy(&body));
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);

        // After the final reload (even rounds wrote B... last round index 7
        // wrote A), the reported identity must match the file on disk.
        let (status, body) = reload_client.get("/artifact").unwrap();
        assert_eq!(status, 200);
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains(&format!("\"build_id\":\"{a_id}\"")), "artifact: {text}");
        assert!(text.contains(&format!("\"reloads\":{reloads}")), "artifact: {text}");

        let (_, stats) = reload_client.get("/stats").unwrap();
        let stats = String::from_utf8(stats).unwrap();
        assert!(stats.contains(&format!("\"reloads\":{reloads}")), "stats: {stats}");
        assert!(stats.contains("\"reload_failures\":0"), "stats: {stats}");
        assert!(stats.contains("\"last_reload_error\":null"), "stats: {stats}");
    });

    std::fs::remove_file(&path).ok();
    handle.shutdown();
}

#[test]
fn corrupt_and_mismatched_version_snapshots_are_rejected_old_artifact_keeps_serving() {
    let n = 24;
    let a = build_oracle(n, 5);
    let path = temp_path("reject.snap");
    std::fs::write(&path, serde::to_bytes(&a)).unwrap();
    let handle = start_on_snapshot(&path);
    let mut client = BlockingClient::connect(handle.addr()).unwrap();

    let want_answers: Vec<_> = (0..n).map(|v| a.try_query(0, v).unwrap().value()).collect();
    let check_still_serving_a = |client: &mut BlockingClient| {
        for (v, want) in want_answers.iter().enumerate() {
            let (status, body) = client.get(&format!("/distance?u=0&v={v}")).unwrap();
            assert_eq!(status, 200);
            assert_eq!(parse_distance(&body), *want, "old artifact must keep serving");
        }
    };

    // 1. Payload corruption (checksum failure).
    let mut corrupt = serde::to_bytes(&a);
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    std::fs::write(&path, &corrupt).unwrap();
    let (status, body) = client.post("/reload", b"").unwrap();
    assert_eq!(status, 400);
    assert!(
        String::from_utf8_lossy(&body).contains("checksum"),
        "error must name the checksum: {}",
        String::from_utf8_lossy(&body)
    );
    check_still_serving_a(&mut client);

    // 2. Version from a different format generation.
    let mut wrong_version = serde::to_bytes(&a);
    wrong_version[4..8].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&path, &wrong_version).unwrap();
    let (status, body) = client.post("/reload", b"").unwrap();
    assert_eq!(status, 400);
    assert!(
        String::from_utf8_lossy(&body).contains("version 99"),
        "error must name the version: {}",
        String::from_utf8_lossy(&body)
    );
    check_still_serving_a(&mut client);

    // 3. Legacy (v1) bytes: the reader was removed, the magic is enough to
    // reject with the dedicated error.
    let mut legacy = b"CCO1".to_vec();
    legacy.extend_from_slice(&1u32.to_le_bytes());
    legacy.extend_from_slice(&[0u8; 56]);
    std::fs::write(&path, &legacy).unwrap();
    let (status, body) = client.post("/reload", b"").unwrap();
    assert_eq!(status, 400);
    assert!(
        String::from_utf8_lossy(&body).contains("legacy"),
        "error must say legacy: {}",
        String::from_utf8_lossy(&body)
    );
    check_still_serving_a(&mut client);

    // 3b. A per-shard snapshot where the monolith is expected: rejected
    // with the shard-specific guidance, old artifact untouched.
    let shard_bytes = serde::to_shard_bytes(
        &cc_oracle::ShardedArtifact::partition(&a, 2).unwrap().into_shards()[0],
    );
    std::fs::write(&path, &shard_bytes).unwrap();
    let (status, body) = client.post("/reload", b"").unwrap();
    assert_eq!(status, 400);
    assert!(
        String::from_utf8_lossy(&body).contains("per-shard"),
        "error must say shard: {}",
        String::from_utf8_lossy(&body)
    );
    check_still_serving_a(&mut client);

    // 4. Missing file.
    std::fs::remove_file(&path).ok();
    let (status, _) = client.post("/reload", b"").unwrap();
    assert_eq!(status, 400);
    check_still_serving_a(&mut client);

    // All five failures are on the books; zero successes.
    let (_, stats) = client.get("/stats").unwrap();
    let stats = String::from_utf8(stats).unwrap();
    assert!(stats.contains("\"reloads\":0"), "stats: {stats}");
    assert!(stats.contains("\"reload_failures\":5"), "stats: {stats}");
    assert!(!stats.contains("\"last_reload_error\":null"), "stats: {stats}");

    handle.shutdown();
}

#[test]
fn reload_can_change_graph_size() {
    // Serving a 24-node artifact, hot-swap to a 40-node one: the whole
    // point of reload is picking up a rebuilt (possibly larger) graph.
    let small = build_oracle(24, 2);
    let big = build_oracle(40, 3);
    let path = temp_path("grow.snap");
    std::fs::write(&path, serde::to_bytes(&small)).unwrap();

    let handle = start_on_snapshot(&path);
    let mut client = BlockingClient::connect(handle.addr()).unwrap();

    // Node 30 is out of range on the small artifact...
    let (status, _) = client.get("/distance?u=0&v=30").unwrap();
    assert_eq!(status, 400);

    // ...swap in the big artifact...
    std::fs::write(&path, serde::to_bytes(&big)).unwrap();
    let (status, body) = client.post("/reload", b"").unwrap();
    assert_eq!(status, 200, "reload: {}", String::from_utf8_lossy(&body));

    // ...and the same query now answers from the 40-node artifact.
    let (status, body) = client.get("/distance?u=0&v=30").unwrap();
    assert_eq!(status, 200);
    assert_eq!(parse_distance(&body), big.try_query(0, 30).unwrap().value());

    std::fs::remove_file(&path).ok();
    handle.shutdown();
}

/// An explicit `/reload?path=...` targets a file other than the default
/// reload source.
#[test]
fn reload_with_explicit_path_overrides_the_default() {
    let a = build_oracle(20, 7);
    let b = build_oracle(20, 8);
    let default_path = temp_path("default.snap");
    let other_path = temp_path("other.snap");
    std::fs::write(&default_path, serde::to_bytes(&a)).unwrap();
    std::fs::write(&other_path, serde::to_bytes(&b)).unwrap();

    let handle = start_on_snapshot(&default_path);
    let mut client = BlockingClient::connect(handle.addr()).unwrap();
    let (status, body) =
        client.post(&format!("/reload?path={}", other_path.display()), b"").unwrap();
    assert_eq!(status, 200, "body: {}", String::from_utf8_lossy(&body));
    let b_id = format!("{:016x}", serde::payload_checksum(&b));
    assert!(
        String::from_utf8_lossy(&body).contains(&b_id),
        "reload response must carry the new build id: {}",
        String::from_utf8_lossy(&body)
    );
    for v in 0..20 {
        let (status, resp) = client.get(&format!("/distance?u=1&v={v}")).unwrap();
        assert_eq!(status, 200);
        assert_eq!(parse_distance(&resp), b.try_query(1, v).unwrap().value());
    }

    std::fs::remove_file(&default_path).ok();
    std::fs::remove_file(&other_path).ok();
    handle.shutdown();
}
