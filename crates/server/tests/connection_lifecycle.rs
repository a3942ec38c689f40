//! Connection lifecycle over raw TCP sockets, pinned on **both**
//! transports: pipelining, keep-alive past the reactor's re-park grace
//! window, idle-timeout close, half-close, `Connection: close`, HTTP/1.0,
//! and shutdown with an idle peer. Every case runs under
//! [`Transport::Auto`] (the epoll reactor on Linux) and [`Transport::Poll`]
//! and must look the same from the client's side of the socket.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use cc_clique::Clique;
use cc_graph::generators;
use cc_oracle::{DistanceOracle, OracleBuilder};
use cc_server::{BlockingClient, Server, ServerConfig, ServerHandle, Transport};

const N: usize = 24;
const TRANSPORTS: [Transport; 2] = [Transport::Auto, Transport::Poll];

fn build_oracle(seed: u64) -> DistanceOracle {
    let g = generators::gnp_weighted(N, 0.2, 30, seed).unwrap();
    let mut clique = Clique::new(N);
    OracleBuilder::new().seed(seed).build(&mut clique, &g).unwrap()
}

fn start(oracle: &DistanceOracle, transport: Transport, read_timeout: Duration) -> ServerHandle {
    let config = ServerConfig::default()
        .with_addr("127.0.0.1:0")
        .with_workers(4)
        .with_transport(transport)
        .with_read_timeout(read_timeout);
    Server::start(&config, oracle.clone()).expect("server start")
}

/// A raw client socket: the write half plus a buffered read half, with a
/// generous client-side read timeout so a server that wrongly keeps a
/// connection open fails the test instead of hanging it.
fn connect(handle: &ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn get_wire(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: cc-serve\r\n\r\n").into_bytes()
}

/// Reads one `Content-Length`-framed response: `(status, body)`, or `None`
/// on a clean EOF before the status line.
fn read_response(reader: &mut BufReader<TcpStream>) -> Option<(u16, Vec<u8>)> {
    let mut line = String::new();
    if reader.read_line(&mut line).unwrap() == 0 {
        return None;
    }
    let status: u16 = line.split_whitespace().nth(1).expect("status code").parse().unwrap();
    let mut content_length = 0usize;
    loop {
        line.clear();
        assert_ne!(reader.read_line(&mut line).unwrap(), 0, "EOF inside response headers");
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    Some((status, body))
}

/// Asserts the server has closed the connection: the next read is a clean
/// EOF (never more bytes, never the client-side timeout).
fn assert_eof(reader: &mut BufReader<TcpStream>, what: &str) {
    let mut rest = Vec::new();
    let read = reader.read_to_end(&mut rest);
    assert!(matches!(read, Ok(0)), "{what}: expected EOF, got {read:?} ({} bytes)", rest.len());
}

#[test]
fn sixteen_pipelined_gets_are_answered_in_order() {
    let oracle = build_oracle(3);
    for transport in TRANSPORTS {
        let handle = start(&oracle, transport, Duration::from_secs(5));
        let targets: Vec<String> =
            (0..16).map(|i| format!("/distance?u={i}&v={}", (i * 7 + 3) % N)).collect();

        // What sequential requests get, one round trip each.
        let mut sequential = BlockingClient::connect(handle.addr()).unwrap();
        let want: Vec<(u16, Vec<u8>)> =
            targets.iter().map(|t| sequential.get(t).unwrap()).collect();

        // All sixteen requests in one write, then read sixteen responses.
        let (mut stream, mut reader) = connect(&handle);
        let wire: Vec<u8> = targets.iter().flat_map(|t| get_wire(t)).collect();
        stream.write_all(&wire).unwrap();
        for (i, expected) in want.iter().enumerate() {
            let got = read_response(&mut reader)
                .unwrap_or_else(|| panic!("{transport:?}: EOF before pipelined response {i}"));
            assert_eq!(&got, expected, "{transport:?}: pipelined response {i}");
        }
        // The connection is still usable afterwards.
        stream.write_all(&get_wire("/healthz")).unwrap();
        assert_eq!(read_response(&mut reader).map(|r| r.0), Some(200), "{transport:?}");
        // Closed peers first: the poll transport's shutdown waits out the
        // read timeout of any connection still open.
        drop((sequential, stream, reader));
        handle.shutdown();
    }
}

#[test]
fn a_follow_up_request_after_a_pause_is_answered_on_the_same_connection() {
    let oracle = build_oracle(5);
    for transport in TRANSPORTS {
        let handle = start(&oracle, transport, Duration::from_secs(5));
        let (mut stream, mut reader) = connect(&handle);
        for round in 0..3 {
            stream.write_all(&get_wire("/distance?u=0&v=7")).unwrap();
            let (status, body) = read_response(&mut reader)
                .unwrap_or_else(|| panic!("{transport:?}: connection closed in round {round}"));
            assert_eq!(status, 200, "{transport:?} round {round}");
            assert!(String::from_utf8(body).unwrap().contains("\"u\":0,\"v\":7"));
            // Longer than the reactor's re-park grace window: the epoll
            // transport has parked the connection by the next request.
            std::thread::sleep(Duration::from_millis(20));
        }
        drop((stream, reader));
        handle.shutdown();
    }
}

#[test]
fn an_idle_connection_is_closed_after_the_read_timeout() {
    let oracle = build_oracle(7);
    for transport in TRANSPORTS {
        let handle = start(&oracle, transport, Duration::from_millis(300));
        // Idle after one served request, and idle from the start.
        let (mut served, mut served_reader) = connect(&handle);
        served.write_all(&get_wire("/healthz")).unwrap();
        assert_eq!(read_response(&mut served_reader).map(|r| r.0), Some(200), "{transport:?}");
        let (_silent, mut silent_reader) = connect(&handle);

        let started = Instant::now();
        assert_eof(&mut served_reader, "idle keep-alive connection");
        assert_eof(&mut silent_reader, "connection that never sent a byte");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "{transport:?}: idle close took {:?} with a 300 ms read timeout",
            started.elapsed()
        );
        handle.shutdown();
    }
}

#[test]
fn a_half_closed_client_still_gets_its_response_then_eof() {
    let oracle = build_oracle(9);
    for transport in TRANSPORTS {
        let handle = start(&oracle, transport, Duration::from_secs(5));
        let (mut stream, mut reader) = connect(&handle);
        stream.write_all(&get_wire("/distance?u=1&v=2")).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let (status, body) = read_response(&mut reader)
            .unwrap_or_else(|| panic!("{transport:?}: no response after half-close"));
        assert_eq!(status, 200, "{transport:?}");
        assert!(String::from_utf8(body).unwrap().contains("\"u\":1,\"v\":2"));
        assert_eof(&mut reader, "half-closed connection");
        handle.shutdown();
    }
}

#[test]
fn connection_close_and_http_1_0_get_one_response_then_eof() {
    let oracle = build_oracle(11);
    for transport in TRANSPORTS {
        let handle = start(&oracle, transport, Duration::from_secs(5));
        let requests: [&[u8]; 2] = [
            b"GET /healthz HTTP/1.1\r\nHost: cc-serve\r\nConnection: close\r\n\r\n",
            b"GET /healthz HTTP/1.0\r\n\r\n",
        ];
        for wire in requests {
            let (mut stream, mut reader) = connect(&handle);
            stream.write_all(wire).unwrap();
            let (status, body) = read_response(&mut reader)
                .unwrap_or_else(|| panic!("{transport:?}: no response to a closing request"));
            assert_eq!((status, body.as_slice()), (200, &b"ok\n"[..]), "{transport:?}");
            assert_eof(&mut reader, "connection the request asked to close");
        }
        handle.shutdown();
    }
}

/// The poll transport pins a worker on the idle connection, blocked in a
/// read; shutdown must return once that read times out. (The epoll case —
/// parked connections are dropped at once — lives in `tests/transport.rs`.)
#[test]
fn poll_shutdown_with_an_idle_keep_alive_connection_is_bounded_by_the_read_timeout() {
    let oracle = build_oracle(13);
    let read_timeout = Duration::from_millis(500);
    let handle = start(&oracle, Transport::Poll, read_timeout);
    let (mut stream, mut reader) = connect(&handle);
    stream.write_all(&get_wire("/healthz")).unwrap();
    assert_eq!(read_response(&mut reader).map(|r| r.0), Some(200));

    let started = Instant::now();
    handle.shutdown();
    assert!(
        started.elapsed() < read_timeout + Duration::from_secs(3),
        "shutdown took {:?} with one idle connection and a {read_timeout:?} read timeout",
        started.elapsed()
    );
    assert_eof(&mut reader, "connection open across shutdown");
}
