//! Workloads `serve_point`, `serve_batch` and `serve_routed`: one real
//! `cc-serve` instance on a loopback socket, one keep-alive
//! [`BlockingClient`], closed loop (rule 7).
//!
//! * `serve_point` — `GET /distance` against `POST /reload`. Fixed
//!   per-request cost (wake-ups, HTTP parse/format, dispatch, telemetry) is
//!   ~1000× the ~25 ns query, so only `cc-server`/`cc-reactor`/
//!   `cc-telemetry` can move `op`; `alt` is the write path of the same
//!   serving state (file read, `from_bytes`, checksum, generation swap), so
//!   a read-optimised layout that costs load time shows.
//! * `serve_batch` — binary against text `POST /batch` of the same pairs on
//!   a monolith with the cache off: per-pair work (codec, query kernel,
//!   response build) dominates, transport is amortised over 4096 pairs, and
//!   the two planes share the handler and kernel and differ in codec.
//! * `serve_routed` — binary batches on a 4-shard router behind a
//!   16 384-entry cache. `op`'s working set (a 4096-pair hot set) fits the
//!   cache and `alt`'s (32 768 distinct pairs, cyclic) does not, so a
//!   hit-path gain that costs the miss path, or the reverse, shows;
//!   `CachingOracle` and `ShardRouter` do most of the work here and none in
//!   `serve_batch`.

use crate::fixtures::{self, Rng, BATCH_PAIRS};
use crate::measure::Steps;
use crate::trace::{SpanId, Tracer};
use crate::workload::{
    verification_sources, verify_from_sources, verify_served_pairs, Finished, Phase, Tally,
    Workload,
};
use cc_graph::Graph;
use cc_matrix::Dist;
use cc_oracle::DistanceOracle;
use cc_server::{
    frame, http, AppState, BackendSpec, BlockingClient, Server, ServerConfig, ServerHandle,
};
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Worker threads of every benchmark server (rule 7).
pub const WORKERS: usize = 2;
/// `GET`s per `serve_point` op block.
pub const POINT_GETS: usize = 200;
/// Reloads per `serve_point` alt block (B, A, B, A).
pub const POINT_RELOADS: usize = 4;
/// Distinct batches per op block of `serve_batch` and per block of
/// `serve_routed`.
pub const BATCHES: usize = 8;
/// Text batches per `serve_batch` alt block.
pub const TEXT_BATCHES: usize = 4;
/// Shards of the routed set.
pub const SHARDS: usize = 4;
/// Result-cache capacity of the routed server.
pub const ROUTED_CACHE: usize = 16_384;
/// Pairs in the routed hot set.
pub const HOT_PAIRS: usize = 4096;

/// What a response must say.
#[derive(Debug, Clone)]
enum Expect {
    /// `/distance`: one JSON distance.
    Distance(Dist),
    /// Binary `/batch`: a `CCBR` frame of these distances.
    Frame(Vec<Dist>),
    /// Text `/batch`: a JSON array of these distances.
    Json(Vec<Dist>),
    /// `/reload`: a success report (its reload counter differs every time).
    Reloaded,
}

/// One request: what the client sends and what must come back.
#[derive(Debug, Clone)]
pub struct Call {
    method: &'static str,
    /// Request target, query string included.
    pub target: String,
    content_type: Option<&'static str>,
    /// Request body.
    pub body: Vec<u8>,
    /// The pairs the request asks about (empty for a reload).
    pub pairs: Vec<(usize, usize)>,
    expect: Expect,
}

impl Call {
    /// `GET /distance?u=&v=`, expecting `oracle`'s in-process answer.
    pub fn get(oracle: &DistanceOracle, (u, v): (u32, u32)) -> Call {
        let pair = (u as usize, v as usize);
        Call {
            method: "GET",
            target: format!("/distance?u={u}&v={v}"),
            content_type: None,
            body: Vec::new(),
            pairs: vec![pair],
            expect: Expect::Distance(oracle.try_query(pair.0, pair.1).expect("pair in range")),
        }
    }

    /// `POST /batch` of `pairs` on the binary or the text plane, expecting
    /// `oracle`'s in-process batch answer.
    pub fn batch(oracle: &DistanceOracle, pairs: &[(u32, u32)], binary: bool) -> Call {
        let usize_pairs = fixtures::as_usize_pairs(pairs);
        let answers = oracle.try_query_batch(&usize_pairs).expect("pairs in range");
        let (content_type, body, expect) = if binary {
            (Some(frame::CONTENT_TYPE), frame::encode_request(pairs), Expect::Frame(answers))
        } else {
            (None, fixtures::text_batch_body(pairs), Expect::Json(answers))
        };
        Call {
            method: "POST",
            target: "/batch".to_owned(),
            content_type,
            body,
            pairs: usize_pairs,
            expect,
        }
    }

    /// `POST /reload?path=`.
    pub fn reload(path: &Path) -> Call {
        Call {
            method: "POST",
            target: format!("/reload?path={}", path.display()),
            content_type: None,
            body: Vec::new(),
            pairs: Vec::new(),
            expect: Expect::Reloaded,
        }
    }

    /// Name of the span around the client's call.
    fn span_name(&self) -> &'static str {
        match self.expect {
            Expect::Distance(_) => "client.get",
            Expect::Frame(_) => "client.batch_binary",
            Expect::Json(_) => "client.batch_text",
            Expect::Reloaded => "client.reload",
        }
    }

    /// The exact bytes [`BlockingClient`] puts on the wire for this call.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut bytes =
            format!("{} {} HTTP/1.1\r\nHost: cc-serve\r\n", self.method, self.target).into_bytes();
        if let Some(ct) = self.content_type {
            bytes.extend_from_slice(format!("Content-Type: {ct}\r\n").as_bytes());
        }
        bytes.extend_from_slice(format!("Content-Length: {}\r\n\r\n", self.body.len()).as_bytes());
        bytes.extend_from_slice(&self.body);
        bytes
    }

    fn send(&self, client: &mut BlockingClient) -> std::io::Result<(u16, Vec<u8>)> {
        match (self.method, self.content_type) {
            ("GET", _) => client.get(&self.target),
            (_, Some(ct)) => client.post_with_content_type(&self.target, ct, &self.body),
            (_, None) => client.post(&self.target, &self.body),
        }
    }

    /// Whether `(status, body)` is `200` and says what the in-process
    /// answer says.
    fn accepts(&self, status: u16, body: &[u8]) -> bool {
        status == 200
            && match &self.expect {
                Expect::Distance(d) => fixtures::parse_distance_body(body) == Some(*d),
                Expect::Frame(ds) => fixtures::parse_frame_body(body).as_ref() == Some(ds),
                Expect::Json(ds) => fixtures::parse_batch_body(body).as_ref() == Some(ds),
                Expect::Reloaded => {
                    std::str::from_utf8(body).is_ok_and(|b| b.contains("\"reloaded\":true"))
                }
            }
    }

    /// The expected distances, in pair order.
    fn expected(&self) -> &[Dist] {
        match &self.expect {
            Expect::Distance(d) => std::slice::from_ref(d),
            Expect::Frame(ds) | Expect::Json(ds) => ds,
            Expect::Reloaded => &[],
        }
    }
}

/// A running server and the one client connection to it.
pub struct Served {
    /// The server.
    pub handle: ServerHandle,
    client: BlockingClient,
}

impl Served {
    /// Starts a server on an ephemeral loopback port and connects, timing
    /// the two steps; `first` is the request that proves it serves.
    pub fn start(
        config: &ServerConfig,
        spec: BackendSpec,
        first: &Call,
        steps: &mut Steps,
    ) -> Served {
        let handle = steps
            .time("start_server", || Server::start_from_spec(config, spec).expect("server start"));
        let client = steps.time("connect_first_request", || {
            let mut client = BlockingClient::connect(handle.addr()).expect("connect");
            let (status, body) = first.send(&mut client).expect("first request");
            assert!(first.accepts(status, &body), "first request answered {status}");
            client
        });
        Served { handle, client }
    }

    /// Sends `call`; a transport error reads as status 0 and reconnects.
    pub fn send(&mut self, call: &Call) -> (u16, Vec<u8>) {
        match call.send(&mut self.client) {
            Ok(response) => response,
            Err(_) => {
                self.client = BlockingClient::connect(self.handle.addr()).expect("reconnect");
                (0, Vec::new())
            }
        }
    }

    /// Closes the connection, then stops the server and joins its threads.
    pub fn stop(self) {
        drop(self.client);
        self.handle.shutdown();
    }
}

/// The fixed requests of one phase with their reference responses.
pub struct CallSet {
    /// The block: these calls, in this order, every time.
    pub calls: Vec<Call>,
    /// Response bodies of the first checked block; later blocks must match
    /// byte for byte (not kept for reloads, whose counter moves).
    reference: Vec<Option<Vec<u8>>>,
    responses: Vec<(u16, Vec<u8>)>,
    spans: Vec<(SpanId, u32)>,
}

impl CallSet {
    /// A block of `calls`.
    pub fn new(calls: Vec<Call>) -> CallSet {
        let reference = vec![None; calls.len()];
        CallSet { calls, reference, responses: Vec::new(), spans: Vec::new() }
    }

    /// Sends every call, keeping the responses; returns the elapsed time.
    pub fn run(&mut self, served: &mut Served, tracer: &mut Tracer) -> Duration {
        self.responses.clear();
        self.spans.clear();
        let t = Instant::now();
        for call in &self.calls {
            let request = if tracer.enabled() { tracer.new_request() } else { 0 };
            let span = tracer.begin(call.span_name(), None, request);
            self.responses.push(served.send(call));
            tracer.end(span);
            self.spans.push((span, request));
        }
        t.elapsed()
    }

    /// Checks the kept responses: the first time against the in-process
    /// answers, afterwards byte for byte against that first block.
    pub fn check(&mut self, tally: &mut Tally) {
        for ((call, (status, body)), reference) in
            self.calls.iter().zip(&self.responses).zip(&mut self.reference)
        {
            let ok = match reference {
                Some(first) => *status == 200 && first == body,
                None => {
                    let ok = call.accepts(*status, body);
                    if ok && !matches!(call.expect, Expect::Reloaded) {
                        *reference = Some(body.clone());
                    }
                    ok
                }
            };
            tally.check(ok, || format!("{} {} answered {status}", call.method, call.target));
        }
    }

    /// Re-executes the block in process — `read_request` on the same
    /// bytes, `AppState::handle`, the backend query, `write_response` — as
    /// children of the spans the last [`CallSet::run`] recorded.
    pub fn replay(&self, state: &AppState, tracer: &mut Tracer) {
        for (call, &(span, request)) in self.calls.iter().zip(&self.spans) {
            let parent = Some(span);
            let wire = call.wire_bytes();
            let parsed = tracer.scope("http.read_request", parent, request, || {
                http::read_request(&mut Cursor::new(&wire), 1 << 20)
            });
            let Ok(parsed) = parsed else { continue };
            let handle = tracer.begin("server.handle", parent, request);
            let response = state.handle(&parsed);
            tracer.end(handle);
            let generation = state.generation();
            match call.pairs.as_slice() {
                [] => {}
                &[(u, v)] => tracer.scope("oracle.backend_query", Some(handle), request, || {
                    std::hint::black_box(generation.backend().try_query(u, v).ok());
                }),
                pairs => tracer.scope("oracle.backend_query", Some(handle), request, || {
                    std::hint::black_box(generation.backend().try_query_batch(pairs).ok());
                }),
            }
            tracer.scope("http.write_response", parent, request, || {
                let mut out = Vec::with_capacity(response.body.len() + 128);
                http::write_response(&mut out, &response, true, false).ok();
                std::hint::black_box(out.len())
            });
        }
    }
}

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `serve_point`.
    Point,
    /// `serve_batch`.
    Batch,
    /// `serve_routed`.
    Routed,
}

/// A serving workload after set-up; see the module docs.
pub struct Serving {
    /// The workload's own directory, removed on stop.
    dir: PathBuf,
    /// The served graph (artifact A's).
    pub graph: Graph,
    /// Artifact A, in process: the source of every expected answer.
    pub oracle: DistanceOracle,
    /// Artifact B (`serve_point` only).
    other: Option<DistanceOracle>,
    /// Snapshot file of artifact A (`serve_routed`: of shard 0).
    pub snapshot: PathBuf,
    /// The server and client.
    pub served: Served,
    /// The `op` block.
    pub op: CallSet,
    /// The `alt` block.
    pub alt: CallSet,
    cost_count: u64,
    seed: u64,
    tally: Tally,
}

impl Serving {
    /// The complete set-up of `kind`, each step timed into `steps`. The
    /// workload owns `dir`: created here, removed by [`Serving::stop`].
    pub fn set_up(kind: Kind, seed: u64, dir: &Path, steps: &mut Steps) -> Serving {
        std::fs::create_dir_all(dir).expect("benchmark temp dir");
        let graph = steps.time("generate_graph_a", || fixtures::serving_graph(0));
        let oracle = steps.time("build_artifact_a", || fixtures::serving_artifact(&graph));
        let other = (kind == Kind::Point).then(|| {
            let graph_b = steps.time("generate_graph_b", || fixtures::serving_graph(1));
            steps.time("build_artifact_b", || fixtures::serving_artifact(&graph_b))
        });
        let n = oracle.n();
        let mut rng = Rng::new(seed, 10 + kind as u64);
        let config = ServerConfig::default().with_workers(WORKERS);

        let (spec, snapshot, config, op, alt): (_, _, _, Vec<Call>, Vec<Call>) = match kind {
            Kind::Point => {
                let (a, b) = (dir.join("a.snap"), dir.join("b.snap"));
                steps.time("write_snapshots", || {
                    cc_server::source::write_snapshot(&oracle, &a).expect("write snapshot A");
                    let other = other.as_ref().expect("artifact B");
                    cc_server::source::write_snapshot(other, &b).expect("write snapshot B");
                });
                let gets = fixtures::uniform_pairs(&mut rng, n, POINT_GETS);
                let op = gets.iter().map(|&p| Call::get(&oracle, p)).collect();
                let alt = (0..POINT_RELOADS)
                    .map(|i| Call::reload(if i % 2 == 0 { &b } else { &a }))
                    .collect();
                (BackendSpec::mono(&a), a, config.with_cache_capacity(0), op, alt)
            }
            Kind::Batch => {
                let a = dir.join("a.snap");
                steps.time("write_snapshots", || {
                    cc_server::source::write_snapshot(&oracle, &a).expect("write snapshot A");
                });
                let batches: Vec<Vec<(u32, u32)>> = (0..BATCHES)
                    .map(|_| fixtures::uniform_pairs(&mut rng, n, BATCH_PAIRS))
                    .collect();
                let op = batches.iter().map(|b| Call::batch(&oracle, b, true)).collect();
                let alt = batches[..TEXT_BATCHES]
                    .iter()
                    .map(|b| Call::batch(&oracle, b, false))
                    .collect();
                (BackendSpec::mono(&a), a, config.with_cache_capacity(0), op, alt)
            }
            Kind::Routed => {
                let paths = steps.time("write_snapshots", || {
                    cc_server::source::write_shard_snapshots(&oracle, SHARDS, dir)
                        .expect("write shard snapshots")
                });
                let hot = fixtures::distinct_pairs(&mut rng, n, HOT_PAIRS);
                let op = (0..BATCHES)
                    .map(|_| {
                        let batch = fixtures::zipf_pairs(&mut rng, &hot, BATCH_PAIRS);
                        Call::batch(&oracle, &batch, true)
                    })
                    .collect();
                // 2× the cache capacity in distinct pairs, visited cyclically:
                // under LRU every lookup misses.
                let cold = fixtures::distinct_pairs(&mut rng, n, BATCHES * BATCH_PAIRS);
                let alt = cold.chunks(BATCH_PAIRS).map(|b| Call::batch(&oracle, b, true)).collect();
                let first = paths[0].clone();
                let config = config.with_cache_capacity(ROUTED_CACHE);
                (BackendSpec::sharded(paths), first, config, op, alt)
            }
        };
        let served = Served::start(&config, spec, &op[0], steps);
        let cost_count = match kind {
            Kind::Point => std::fs::metadata(&snapshot).expect("snapshot A").len(),
            // Monolith: the artifact's heap bytes; router: summed over shards.
            Kind::Batch | Kind::Routed => {
                served.handle.state().generation().descriptor().artifact_bytes as u64
            }
        };
        Serving {
            dir: dir.to_owned(),
            graph,
            oracle,
            other,
            snapshot,
            served,
            op: CallSet::new(op),
            alt: CallSet::new(alt),
            cost_count,
            seed,
            tally: Tally::default(),
        }
    }

    /// After `serve_point`'s reload phase the live artifact must be the one
    /// reloaded last (A: every block ends on it). Asked with pairs whose A
    /// and B answers differ, so a swap that did not happen cannot pass.
    fn check_live_artifact(&mut self) {
        let Some(other) = &self.other else { return };
        let mut rng = Rng::new(self.seed, 20);
        let n = self.oracle.n();
        let mut asked = 0;
        for _ in 0..100_000 {
            let (u, v) = (rng.below(n), rng.below(n));
            if self.oracle.try_query(u, v).ok() == other.try_query(u, v).ok() {
                continue;
            }
            let call = Call::get(&self.oracle, (u as u32, v as u32));
            let (status, body) = self.served.send(&call);
            self.tally.check(call.accepts(status, &body), || {
                format!("after the reload phase ({u},{v}) is not answered from artifact A")
            });
            asked += 1;
            if asked == 64 {
                return;
            }
        }
        self.tally.check(false, || "artifacts A and B answer alike; reloads cannot be told".into());
    }

    /// Cache hits and misses of the serving generation so far.
    pub fn cache_counts(&self) -> (u64, u64) {
        let cache = self.served.handle.state().generation().descriptor().cache;
        cache.map_or((0, 0), |c| (c.hits, c.misses))
    }

    /// Stops the server, removes the workload's directory and hands back
    /// the operations checked so far.
    pub fn stop(self) -> Tally {
        self.served.stop();
        std::fs::remove_dir_all(&self.dir).ok();
        self.tally
    }
}

impl Workload for Serving {
    fn ops(&self, phase: Phase) -> usize {
        match phase {
            Phase::Op => self.op.calls.len(),
            Phase::Alt => self.alt.calls.len(),
        }
    }

    fn block(&mut self, phase: Phase, tracer: &mut Tracer, replay: bool) -> Duration {
        let set = match phase {
            Phase::Op => &mut self.op,
            Phase::Alt => &mut self.alt,
        };
        let elapsed = set.run(&mut self.served, tracer);
        set.check(&mut self.tally);
        if replay {
            set.replay(self.served.handle.state(), tracer);
        }
        elapsed
    }

    fn after_phase(&mut self, phase: Phase) {
        if phase == Phase::Alt {
            self.check_live_artifact();
        }
    }

    fn finish(mut self: Box<Self>) -> Finished {
        // Served answers are bit-identical to the in-process ones (checked
        // per block); here those are checked against exact distances.
        let oracle = &self.oracle;
        let stretch = verify_from_sources(
            &self.graph,
            verification_sources(oracle.n()),
            |u, v| oracle.try_query(u, v).ok(),
            &mut self.tally,
        );
        let mut served: Vec<((usize, usize), Dist)> = [&self.op, &self.alt]
            .iter()
            .flat_map(|set| &set.calls)
            .flat_map(|call| call.pairs.iter().copied().zip(call.expected().iter().copied()))
            .collect();
        served.sort_unstable();
        served.dedup();
        verify_served_pairs(&self.graph, &served, &mut self.tally);
        let (cost_count, stretch_max) = (self.cost_count, stretch.max);
        Finished { cost_count, stretch_max, tally: self.stop() }
    }

    fn tear_down(self: Box<Self>) {
        self.stop();
    }
}
