//! Transport-level end-to-end tests: the epoll reactor versus the
//! portable poll loop over real TCP sockets. Both transports must be
//! indistinguishable to clients (same answers, same framing); the reactor
//! must additionally multiplex more live connections than it has workers,
//! which the poll transport (one worker pinned per connection) cannot.

use std::time::{Duration, Instant};

use cc_clique::Clique;
use cc_graph::{generators, Graph};
use cc_oracle::{DistanceOracle, OracleBuilder};
use cc_server::{frame, BlockingClient, Server, ServerConfig, ServerHandle, Transport};

fn build_oracle(n: usize, seed: u64) -> (Graph, DistanceOracle) {
    let g = generators::gnp_weighted(n, 0.15, 30, seed).unwrap();
    let mut clique = Clique::new(n);
    let oracle = OracleBuilder::new().seed(seed).build(&mut clique, &g).unwrap();
    (g, oracle)
}

fn start(oracle: DistanceOracle, config: ServerConfig) -> ServerHandle {
    Server::start(&config.with_addr("127.0.0.1:0"), oracle).expect("server start")
}

/// The label `/stats` must report when `Transport::Auto` resolves.
fn auto_label() -> &'static str {
    if cfg!(target_os = "linux") {
        "epoll"
    } else {
        "poll"
    }
}

#[test]
fn both_transports_serve_byte_identical_answers_and_report_their_label() {
    let (_g, oracle) = build_oracle(30, 17);
    let auto = start(oracle.clone(), ServerConfig::default().with_transport(Transport::Auto));
    let poll = start(oracle, ServerConfig::default().with_transport(Transport::Poll));
    let mut on_auto = BlockingClient::connect(auto.addr()).unwrap();
    let mut on_poll = BlockingClient::connect(poll.addr()).unwrap();

    // Text plane: byte-identical /distance responses.
    for (u, v) in [(0u32, 29u32), (5, 5), (12, 3), (0, 1000)] {
        let target = format!("/distance?u={u}&v={v}");
        let a = on_auto.get(&target).unwrap();
        let p = on_poll.get(&target).unwrap();
        assert_eq!(a, p, "transports disagree on {target}");
    }

    // Binary plane: byte-identical /batch frames.
    let pairs: Vec<(u32, u32)> = (0..30).map(|u| (u, (u * 7 + 1) % 30)).collect();
    let req = frame::encode_request(&pairs);
    let a = on_auto.post_with_content_type("/batch", frame::CONTENT_TYPE, &req).unwrap();
    let p = on_poll.post_with_content_type("/batch", frame::CONTENT_TYPE, &req).unwrap();
    assert_eq!(a.0, 200);
    assert_eq!(a, p, "binary batch frames must match across transports");
    assert_eq!(frame::decode_response(&a.1).unwrap().len(), pairs.len());

    // /stats reports the transport actually running.
    let (_, stats) = on_auto.get("/stats").unwrap();
    let stats = String::from_utf8(stats).unwrap();
    assert!(
        stats.contains(&format!("\"transport\":\"{}\"", auto_label())),
        "auto must resolve to {}: {stats}",
        auto_label()
    );
    let (_, stats) = on_poll.get("/stats").unwrap();
    assert!(String::from_utf8(stats).unwrap().contains("\"transport\":\"poll\""));

    auto.shutdown();
    poll.shutdown();
}

/// The reactor's reason to exist: many live keep-alive connections served
/// by a handful of workers. Under the poll transport each of these
/// connections would pin a worker for its lifetime, so 24 concurrent
/// keep-alive clients against 2 workers could never all get answers.
#[test]
fn reactor_multiplexes_more_connections_than_workers() {
    if !cfg!(target_os = "linux") {
        return; // Auto resolves to the poll transport: the premise is gone.
    }
    let n = 24;
    let (_g, oracle) = build_oracle(n, 29);
    let expected = oracle.clone();
    let handle =
        start(oracle, ServerConfig::default().with_workers(2).with_transport(Transport::Auto));

    // Connect everything first: all clients are parked simultaneously.
    let mut clients: Vec<BlockingClient> =
        (0..n).map(|_| BlockingClient::connect(handle.addr()).unwrap()).collect();

    // Several rounds over every client, interleaved, on 2 workers.
    for round in 0..3 {
        for (i, client) in clients.iter_mut().enumerate() {
            let (u, v) = (i, (i + round + 1) % n);
            let (status, body) = client.get(&format!("/distance?u={u}&v={v}")).unwrap();
            assert_eq!(status, 200, "client {i} round {round}");
            let want = expected.try_query(u, v).unwrap().value();
            let text = String::from_utf8(body).unwrap();
            match want {
                Some(d) => assert!(text.contains(&format!("\"distance\":{d}")), "{text}"),
                None => assert!(text.contains("\"distance\":null"), "{text}"),
            }
        }
    }
    handle.shutdown();
}

/// HEAD must answer like GET minus the body *without desyncing keep-alive
/// framing*: a GET on the same connection right after a HEAD only works if
/// the server really omitted the body it declared in `Content-Length`.
#[test]
fn head_keeps_framing_and_the_connection_in_sync() {
    let (_g, oracle) = build_oracle(16, 7);
    let handle = start(oracle, ServerConfig::default());
    let mut client = BlockingClient::connect(handle.addr()).unwrap();

    let (get_status, get_body) = client.get("/healthz").unwrap();
    let (head_status, declared) = client.head("/healthz").unwrap();
    assert_eq!(head_status, get_status);
    assert_eq!(declared, get_body.len(), "HEAD must declare GET's Content-Length");

    // The very next exchange on the same socket parses cleanly: no stray
    // body bytes followed the HEAD response.
    let (status, body) = client.get("/artifact").unwrap();
    assert_eq!(status, 200);
    assert!(!body.is_empty());
    handle.shutdown();
}

/// Shutdown with idle parked connections must not wait out the read
/// timeout: the waker interrupts the reactor, which drops parked peers.
#[test]
fn shutdown_is_prompt_with_parked_connections() {
    let (_g, oracle) = build_oracle(16, 13);
    let handle = start(oracle, ServerConfig::default().with_read_timeout(Duration::from_secs(30)));
    let mut clients: Vec<BlockingClient> =
        (0..4).map(|_| BlockingClient::connect(handle.addr()).unwrap()).collect();
    for (i, client) in clients.iter_mut().enumerate() {
        let (status, _) = client.get(&format!("/distance?u={i}&v={}", i + 1)).unwrap();
        assert_eq!(status, 200);
    }
    // All four connections are now idle (parked, under the reactor).
    let started = Instant::now();
    handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "shutdown must not wait for the 30s read timeout"
    );
}
