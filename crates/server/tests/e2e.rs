//! End-to-end tests over a real TCP socket: a `Server` serving a built
//! oracle, exercised with the blocking client, checked against Dijkstra
//! ground truth and against abuse (bad ids, garbage paths, oversized
//! bodies, parallel clients).

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use cc_clique::Clique;
use cc_graph::{generators, reference, Graph};
use cc_oracle::{DistanceOracle, OracleBuilder};
use cc_server::{BlockingClient, Server, ServerConfig, ServerHandle};

fn build_oracle(n: usize, seed: u64) -> (Graph, DistanceOracle) {
    let g = generators::gnp_weighted(n, 0.15, 30, seed).unwrap();
    let mut clique = Clique::new(n);
    let oracle = OracleBuilder::new().seed(seed).build(&mut clique, &g).unwrap();
    (g, oracle)
}

fn start(oracle: DistanceOracle, config: ServerConfig) -> ServerHandle {
    Server::start(&config.with_addr("127.0.0.1:0"), oracle).expect("server start")
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
fn distance_over_a_real_socket_matches_dijkstra_ground_truth() {
    let n = 40;
    let (g, oracle) = build_oracle(n, 11);
    let expected_oracle = oracle.clone();
    let bound = oracle.stretch_bound();
    let handle = start(oracle, ServerConfig::default());
    let mut client = BlockingClient::connect(handle.addr()).unwrap();

    for u in 0..n {
        let exact = reference::dijkstra(&g, u);
        for v in (0..n).step_by(3) {
            let (status, body) = client.get(&format!("/distance?u={u}&v={v}")).unwrap();
            assert_eq!(status, 200);
            let served = parse_distance(&body);
            // Identical to the in-process oracle...
            assert_eq!(served, expected_oracle.try_query(u, v).unwrap().value(), "pair ({u},{v})");
            // ...and sound + within the stretch bound of the ground truth.
            let d = exact[v].expect("gnp(40, 0.15) is connected");
            let est = served.expect("connected pair must be finite over the wire");
            assert!(est >= d, "underestimate over the wire: {est} < {d}");
            assert!(
                est as f64 <= bound * d as f64 + 1e-9,
                "stretch violated over the wire: {est} > {bound} * {d}"
            );
        }
    }
    handle.shutdown();
}

#[test]
fn batch_endpoint_matches_query_batch() {
    let (_, oracle) = build_oracle(32, 5);
    let expected = oracle.clone();
    let handle = start(oracle, ServerConfig::default());
    let mut client = BlockingClient::connect(handle.addr()).unwrap();

    let pairs: Vec<(usize, usize)> = (0..64).map(|i| (i % 32, (i * 11 + 3) % 32)).collect();
    let body: String = pairs.iter().map(|&(u, v)| format!("{u} {v}\n")).collect();
    let (status, resp) = client.post("/batch", body.as_bytes()).unwrap();
    assert_eq!(status, 200);
    let want: Vec<String> = expected
        .try_query_batch(&pairs)
        .unwrap()
        .iter()
        .map(|d| d.value().map_or("null".into(), |x| x.to_string()))
        .collect();
    assert_eq!(
        String::from_utf8(resp).unwrap(),
        format!("{{\"count\":64,\"distances\":[{}]}}", want.join(","))
    );
    handle.shutdown();
}

#[test]
fn edge_validation_out_of_range_garbage_and_oversized_bodies() {
    let (_, oracle) = build_oracle(24, 2);
    let config =
        ServerConfig::default().with_max_body_bytes(256).with_read_timeout(Duration::from_secs(2));
    let handle = start(oracle, config);
    let mut client = BlockingClient::connect(handle.addr()).unwrap();

    // Out-of-range ids: 400 with the offending range named, no panic.
    let (status, body) = client.get("/distance?u=0&v=9999").unwrap();
    assert_eq!(status, 400);
    assert!(String::from_utf8(body).unwrap().contains("outside 0..24"));

    // Garbage ids and paths on the same keep-alive connection.
    assert_eq!(client.get("/distance?u=zero&v=1").unwrap().0, 400);
    assert_eq!(client.get("/distance").unwrap().0, 400);
    assert_eq!(client.get("/no/such/route").unwrap().0, 404);
    assert_eq!(client.post("/batch", b"1 2\nbogus\n").unwrap().0, 400);

    // Oversized body: 413, connection closed, server stays up.
    let (status, _) = client.post("/batch", &vec![b'1'; 1024]).unwrap();
    assert_eq!(status, 413);
    let mut fresh = BlockingClient::connect(handle.addr()).unwrap();
    assert_eq!(fresh.get("/healthz").unwrap().0, 200);

    // Raw protocol garbage: answered (or dropped) without killing serving.
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(b"\x00\x01\x02 utterly not http\r\n\r\n").unwrap();
    drop(raw);
    let mut again = BlockingClient::connect(handle.addr()).unwrap();
    assert_eq!(again.get("/healthz").unwrap().0, 200);

    handle.shutdown();
}

#[test]
fn stats_healthz_and_artifact_round_trip_over_the_wire() {
    let (_, oracle) = build_oracle(24, 8);
    let (n, landmarks, bound) = (oracle.n(), oracle.landmarks().len(), oracle.stretch_bound());
    let handle = start(oracle, ServerConfig::default());
    let mut client = BlockingClient::connect(handle.addr()).unwrap();

    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!((status, body.as_slice()), (200, &b"ok\n"[..]));

    client.get("/distance?u=0&v=1").unwrap();
    client.get("/distance?u=0&v=1").unwrap();
    let (status, body) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("\"distance_requests\":2"), "stats: {text}");
    assert!(text.contains("\"hits\":1"), "stats: {text}");

    let (status, body) = client.get("/artifact").unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains(&format!("\"n\":{n}")), "artifact: {text}");
    assert!(text.contains(&format!("\"landmarks\":{landmarks}")), "artifact: {text}");
    assert!(text.contains(&format!("\"stretch_bound\":{bound}")), "artifact: {text}");
    handle.shutdown();
}

#[test]
fn concurrent_clients_all_get_consistent_answers() {
    let (_, oracle) = build_oracle(32, 13);
    let expected = oracle.clone();
    let handle = start(oracle, ServerConfig::default().with_workers(4));
    let addr = handle.addr();

    std::thread::scope(|scope| {
        for t in 0..8usize {
            let expected = &expected;
            scope.spawn(move || {
                let mut client = BlockingClient::connect(addr).unwrap();
                for i in 0..50 {
                    let (u, v) = ((i * 7 + t) % 32, (i * 13 + 2 * t) % 32);
                    let (status, body) = client.get(&format!("/distance?u={u}&v={v}")).unwrap();
                    assert_eq!(status, 200);
                    assert_eq!(parse_distance(&body), expected.try_query(u, v).unwrap().value());
                }
            });
        }
    });
    assert!(handle.state().requests() >= 400);
    handle.shutdown();
}

#[test]
fn snapshot_loaded_server_serves_identically_to_the_builder() {
    let (_, oracle) = build_oracle(28, 21);
    let dir = std::env::temp_dir().join("cc-serve-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("e2e-oracle.snap");
    cc_server::source::write_snapshot(&oracle, &path).unwrap();
    let reloaded = cc_server::source::load_slice(&path, cc_oracle::serde::from_bytes_with_header)
        .unwrap()
        .artifact;
    std::fs::remove_file(&path).ok();

    let handle = start(reloaded, ServerConfig::default());
    let mut client = BlockingClient::connect(handle.addr()).unwrap();
    for u in (0..28).step_by(5) {
        for v in (0..28).step_by(3) {
            let (status, body) = client.get(&format!("/distance?u={u}&v={v}")).unwrap();
            assert_eq!(status, 200);
            assert_eq!(
                parse_distance(&body),
                oracle.try_query(u, v).unwrap().value(),
                "pair ({u},{v})"
            );
        }
    }
    handle.shutdown();
}
