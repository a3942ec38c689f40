//! Routing and endpoint handlers: pure functions from a parsed [`Request`]
//! to a [`Response`], so every route is unit-testable without a socket.
//!
//! Every endpoint is written **once against [`cc_oracle::Backend`]**: the
//! serving state is a single hot-swappable [`Generation`] holding one (a
//! monolithic oracle or a shard router) behind its result cache. Queries,
//! stats, and artifact metadata never branch on which tier is serving —
//! the backend describes itself through
//! [`cc_oracle::CachingOracle::descriptor`].
//!
//! All id validation goes through the backend's **fallible** query API
//! (`try_query` / `try_query_batch`): a malformed or out-of-range request
//! is a `400` at the edge, never a panic inside the serving process.
//!
//! Every request clones the current generation (an `Arc` refcount bump)
//! and answers entirely on that clone, so `POST /reload` can validate and
//! swap a new snapshot while traffic is in flight (see [`crate::reload`];
//! the state the handlers read — [`AppState`], its metric handles, the
//! reload operation — lives in [`crate::state`]).
//!
//! Both `GET /stats` and `GET /metrics` render from **one** registry
//! snapshot taken after refreshing the point-in-time gauges (cache,
//! uptime) — so the human view and the scrape view can never disagree
//! about the same instant.

use std::path::PathBuf;
use std::sync::{Arc, PoisonError};

use cc_matrix::Dist;
use cc_oracle::{BackendDescriptor, ShardDescriptor};
use cc_reactor::frame;
use cc_telemetry::{render_prometheus, Json, JsonObject, RegistrySnapshot};

use crate::http::{Request, Response};
use crate::reload::{Generation, ReloadTarget, SnapshotInfo};
use crate::state::AppState;

/// `Content-Type` of the `GET /metrics` exposition.
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Maps a request path to its endpoint class — the `endpoint` label on
/// `cc_request_duration_ns` / `cc_endpoint_requests_total` and the
/// `"endpoint"` field of the access log.
pub fn endpoint_of(path: &str) -> &'static str {
    match path {
        "/distance" => "distance",
        "/batch" => "batch",
        "/reload" => "reload",
        _ => "other",
    }
}

impl AppState {
    /// Routes one request and maintains the counters.
    pub fn handle(&self, req: &Request) -> Response {
        self.metrics.requests.inc();
        let resp = self.route(req);
        if (400..500).contains(&resp.status) {
            self.metrics.client_errors.inc();
        }
        resp
    }

    fn route(&self, req: &Request) -> Response {
        // HEAD answers exactly like GET minus the body (load-balancer
        // health probes commonly send it); the transport layer omits the
        // body when serializing, so handlers never see the difference.
        let method = if req.method == "HEAD" { "GET" } else { req.method.as_str() };
        match (method, req.path.as_str()) {
            ("GET", "/healthz") => Response::text(200, "ok\n"),
            ("GET", "/distance") => self.distance(req),
            ("POST", "/batch") => self.batch(req),
            ("POST", "/reload") => self.reload_endpoint(req),
            ("GET", "/stats") => self.stats(),
            ("GET", "/metrics") => self.metrics_exposition(),
            ("GET", "/artifact") => self.artifact(),
            (
                _,
                "/healthz" | "/distance" | "/batch" | "/stats" | "/metrics" | "/artifact"
                | "/reload",
            ) => Response::error_json(405, format!("method {} not allowed here", req.method)),
            _ => Response::error_json(404, format!("no route for '{}'", req.path)),
        }
    }

    /// Refreshes the point-in-time gauges (cache counters, warmed keys,
    /// uptime) from the current generation, then takes **one** registry
    /// snapshot. `/stats` and `/metrics` both render from the result, so
    /// the two views can never disagree about the same instant.
    fn observe(&self) -> (Arc<Generation>, BackendDescriptor, RegistrySnapshot) {
        let generation = self.generation();
        let desc = generation.descriptor();
        if let Some(cache) = &desc.cache {
            self.metrics.cache_hits.set(cache.hits as f64);
            self.metrics.cache_misses.set(cache.misses as f64);
            self.metrics.cache_hit_rate.set(cache.hit_rate());
            self.metrics.cache_len.set(cache.len as f64);
            self.metrics.cache_capacity.set(cache.capacity as f64);
        }
        self.metrics.cache_warmed_keys.set(generation.warmed_keys() as f64);
        self.metrics.uptime.set(self.started.elapsed().as_secs_f64());
        (generation, desc, self.registry.snapshot())
    }

    /// `GET /metrics` — Prometheus text exposition (version 0.0.4) of the
    /// same registry snapshot `/stats` renders from.
    fn metrics_exposition(&self) -> Response {
        let (_generation, _desc, snap) = self.observe();
        Response {
            status: 200,
            content_type: METRICS_CONTENT_TYPE,
            body: render_prometheus(&snap).into_bytes(),
        }
    }

    /// `GET /distance?u=&v=` — one pair, through the current generation's
    /// cached backend, whatever tier it is.
    fn distance(&self, req: &Request) -> Response {
        self.metrics.distance_requests.inc();
        let (u, v) = match (parse_id(req, "u"), parse_id(req, "v")) {
            (Ok(u), Ok(v)) => (u, v),
            (Err(resp), _) | (_, Err(resp)) => return resp,
        };
        match self.generation().cached().try_query(u, v) {
            Ok(d) => Response::json(200, distance_body(u, v, d)),
            // QueryOutOfRange is the only query error today; any future
            // variant is still a client-input problem by construction here.
            Err(e) => Response::error_json(400, e.to_string()),
        }
    }

    /// `POST /batch` — newline-separated `u v` (or `u,v`) pairs as text,
    /// or a [`cc_reactor::frame`] request (`CCBQ` frame in, `CCBR` frame
    /// out, zero decimal parsing/formatting on the hot path) when the
    /// client negotiates the binary content type. The planes differ only
    /// in decode and encode: both answer from the same `try_query_batch`
    /// call, so they are answer-identical by construction (and pinned so
    /// by the differential suite), and every malformed body or frame is a
    /// 400 with a JSON error naming the defect on either.
    fn batch(&self, req: &Request) -> Response {
        self.metrics.batch_requests.inc();
        let binary = is_binary_batch(req);
        let decoded = if binary {
            frame::decode_request_map(&req.body, |u, v| (u as usize, v as usize))
                .map_err(|e| e.to_string())
        } else {
            parse_text_pairs(&req.body)
        };
        let pairs = match decoded {
            Ok(pairs) => pairs,
            Err(msg) => return Response::error_json(400, msg),
        };
        self.metrics.batch_pairs.add(pairs.len() as u64);
        match self.generation().cached().try_query_batch(&pairs) {
            Ok(answers) if binary => Response {
                status: 200,
                content_type: frame::CONTENT_TYPE,
                body: frame::encode_response_from(
                    answers.iter().map(|d| d.value().unwrap_or(frame::UNREACHABLE)),
                ),
            },
            Ok(answers) => {
                let mut body = Vec::with_capacity(32 + answers.len() * 8);
                body.extend_from_slice(b"{\"count\":");
                push_decimal(&mut body, answers.len() as u64);
                body.extend_from_slice(b",\"distances\":[");
                for (i, d) in answers.iter().enumerate() {
                    if i > 0 {
                        body.push(b',');
                    }
                    push_dist(&mut body, *d);
                }
                body.extend_from_slice(b"]}");
                Response::json(200, body)
            }
            Err(e) => Response::error_json(400, e.to_string()),
        }
    }

    /// `POST /reload[?path=...][&shard=i]` — load, validate, and atomically
    /// swap in a new snapshot ([`AppState::reload`]). A monolithic
    /// generation swaps the whole artifact; a sharded one swaps shard `i`
    /// (or, with no `shard` parameter, rolls the full set from its
    /// manifest or startup files). A refused reload answers `400` and
    /// leaves the old generation serving: the serving process is healthy
    /// and still answering on the old artifact — the *request* failed.
    fn reload_endpoint(&self, req: &Request) -> Response {
        self.metrics.reload_requests.inc();
        let target = match reload_target(req) {
            Ok(target) => target,
            Err(resp) => return resp,
        };
        let outcome = match self.reload(&target) {
            Ok(outcome) => outcome,
            Err(e) => return Response::error_json(400, e.to_string()),
        };
        let installed = &outcome.generation;
        let mut o = JsonObject::new();
        o.set("reloaded", true);
        match target {
            ReloadTarget::Shard { index, .. } => {
                o.set("shard", index);
                o.set("snapshot", snapshot_obj(&installed.shard_infos()[index]));
            }
            _ if installed.is_sharded() => {
                o.set("shards", installed.backend().shards().len());
            }
            _ => {
                o.set("snapshot", snapshot_obj(installed.info()));
                o.set("n", installed.n());
            }
        }
        o.set("reloads", outcome.reloads);
        Response::json(200, o.render())
    }

    /// `GET /stats` — request counters plus what the current generation
    /// says about itself: tier, snapshot identities, cache effectiveness
    /// (including the keys warmed into it at the last reload), and the
    /// reload history. Every number is read back from the same
    /// [`RegistrySnapshot`] `/metrics` exposes, rendered with the
    /// [`JsonObject`] writer (a stray quote in an error can never emit
    /// invalid JSON).
    fn stats(&self) -> Response {
        let (generation, desc, snap) = self.observe();
        let counter =
            |family: &str, labels: &[(&str, &str)]| snap.counter_value(family, labels).unwrap_or(0);
        let gauge = |family: &str| snap.gauge_value(family, &[]).unwrap_or(0.0);

        let mut o = JsonObject::new();
        o.set("requests", counter("cc_requests_total", &[]));
        o.set(
            "distance_requests",
            counter("cc_endpoint_requests_total", &[("endpoint", "distance")]),
        );
        o.set("batch_requests", counter("cc_endpoint_requests_total", &[("endpoint", "batch")]));
        o.set("batch_pairs", counter("cc_batch_pairs_total", &[]));
        o.set("client_errors", counter("cc_client_errors_total", &[]));
        o.set("load_shed", counter("cc_load_shed_total", &[]));
        o.set("accept_errors", counter("cc_accept_errors_total", &[]));
        o.set("transport", self.transport);
        o.set("uptime_secs", Json::Raw(format!("{:.3}", gauge("cc_uptime_seconds"))));
        tier_members(&mut o, &generation, &desc, |_, _| {});
        o.set("reload_requests", counter("cc_endpoint_requests_total", &[("endpoint", "reload")]));
        o.set("reloads", counter("cc_reloads_total", &[]));
        o.set("reload_failures", counter("cc_reload_failures_total", &[]));
        o.set(
            "last_reload_error",
            self.last_reload_error.lock().unwrap_or_else(PoisonError::into_inner).clone(),
        );
        let mut cache = JsonObject::new();
        cache.set("hits", gauge("cc_cache_hits") as u64);
        cache.set("misses", gauge("cc_cache_misses") as u64);
        cache.set("hit_rate", Json::Raw(format!("{:.4}", gauge("cc_cache_hit_rate"))));
        cache.set("len", gauge("cc_cache_len") as u64);
        cache.set("capacity", gauge("cc_cache_capacity") as u64);
        cache.set("warmed_keys", gauge("cc_cache_warmed_keys") as u64);
        o.set("cache", cache);
        Response::json(200, o.render())
    }

    /// `GET /artifact` — what is being served, where it came from, and its
    /// guarantee; per-shard identities for a routed set. Driven entirely by
    /// [`cc_oracle::BackendDescriptor`].
    fn artifact(&self) -> Response {
        let generation = self.generation();
        let desc = generation.descriptor();
        let mut o = JsonObject::new();
        tier_members(&mut o, &generation, &desc, |e, s| {
            e.set("owned_start", s.owned_start);
            e.set("owned_len", s.owned_len);
            e.set("artifact_bytes", s.artifact_bytes);
        });
        o.set("n", desc.n);
        o.set("k", desc.k);
        o.set("epsilon", desc.epsilon);
        o.set("landmarks", desc.landmark_count);
        o.set("artifact_bytes", desc.artifact_bytes);
        o.set("stretch_bound", desc.stretch_bound);
        o.set("build_rounds", desc.build_rounds);
        o.set("seed", desc.seed);
        o.set("reloads", self.reloads());
        Response::json(200, o.render())
    }
}

/// Appends the tier-specific members of `/stats` and `/artifact`: the
/// active snapshot for a monolith, the per-shard identities + uniformity
/// for a routed set (`layout` adds an endpoint's extra per-shard members
/// after `index`).
fn tier_members(
    o: &mut JsonObject,
    generation: &Generation,
    desc: &BackendDescriptor,
    layout: impl Fn(&mut JsonObject, &ShardDescriptor),
) {
    o.set("mode", desc.mode);
    if desc.shards.is_empty() {
        o.set("snapshot", snapshot_obj(generation.info()));
    } else {
        o.set("shard_count", desc.shards.len());
        o.set("set_uniform", desc.set_uniform());
        let shards: Vec<Json> = desc
            .shards
            .iter()
            .zip(generation.shard_infos())
            .map(|(s, info)| {
                let mut e = JsonObject::new();
                e.set("index", s.index);
                layout(&mut e, s);
                e.set("set_build_id", format!("{:016x}", s.set_id));
                e.set("snapshot", snapshot_obj(info));
                Json::from(e)
            })
            .collect();
        o.set("shards", shards);
    }
}

/// Renders a [`SnapshotInfo`] as a JSON object; every served artifact is
/// in the current snapshot format.
fn snapshot_obj(info: &SnapshotInfo) -> JsonObject {
    let mut o = JsonObject::new();
    o.set("version", cc_oracle::serde::SNAPSHOT_VERSION);
    o.set("build_id", info.build_id.as_str());
    o.set("created_unix_secs", info.created_unix_secs);
    o.set("source", info.source.as_str());
    o
}

/// The body of a `GET /distance` answer.
fn distance_body(u: usize, v: usize, d: Dist) -> Vec<u8> {
    let mut body = Vec::with_capacity(80);
    body.extend_from_slice(b"{\"u\":");
    push_decimal(&mut body, u as u64);
    body.extend_from_slice(b",\"v\":");
    push_decimal(&mut body, v as u64);
    body.extend_from_slice(b",\"distance\":");
    push_dist(&mut body, d);
    let connected: &[u8] =
        if d.is_finite() { b",\"connected\":true}" } else { b",\"connected\":false}" };
    body.extend_from_slice(connected);
    body
}

/// Appends a distance as JSON: its value, or `null` when unreachable.
fn push_dist(out: &mut Vec<u8>, d: Dist) {
    match d.value() {
        Some(x) => push_decimal(out, x),
        None => out.extend_from_slice(b"null"),
    }
}

/// Appends `x` in decimal, as `{x}` would print it.
fn push_decimal(out: &mut Vec<u8>, mut x: u64) {
    // `u64::MAX` has 20 digits.
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// True when the request negotiated the binary batch plane. Matches the
/// media type case-insensitively and ignores any `;`-separated parameters.
fn is_binary_batch(req: &Request) -> bool {
    req.content_type.as_deref().is_some_and(|ct| {
        let media = ct.split(';').next().unwrap_or(ct).trim();
        media.eq_ignore_ascii_case(frame::CONTENT_TYPE)
    })
}

/// Decodes the text plane of `POST /batch`: one `u v` (or `u,v`) pair per
/// non-blank line. [`scan_text_pairs`] decides the bodies it can in one
/// byte scan; every other body, and so every error, goes to
/// [`parse_text_lines`].
fn parse_text_pairs(body: &[u8]) -> Result<Vec<(usize, usize)>, String> {
    scan_text_pairs(body).map_or_else(|| parse_text_lines(body), Ok)
}

/// One pass over a text batch body. It reads ASCII digits, the separators
/// `' '`, `\t`, `\x0B`, `\x0C`, `\r` (the ASCII bytes besides `\n` that
/// `char::is_whitespace` accepts) and `,`, and `\n` as the line end. A line
/// with two ids is a pair and a line of separators without a comma is
/// blank; anything else (another byte, an id that overflows, one or three
/// ids, a line of commas) is `None`, for [`parse_text_lines`] to decide, so
/// the two accept exactly the same bodies.
fn scan_text_pairs(body: &[u8]) -> Option<Vec<(usize, usize)>> {
    let mut pairs = Vec::with_capacity(body.len() / 8);
    let mut ids = [0usize; 2];
    // Ids finished on this line, the one being read, and whether a line
    // without ids holds a comma.
    let mut count = 0;
    let mut id: Option<usize> = None;
    let mut comma = false;
    for &b in body.iter().chain(std::iter::once(&b'\n')) {
        if b.is_ascii_digit() {
            let digit = usize::from(b - b'0');
            id = Some(id.unwrap_or(0).checked_mul(10)?.checked_add(digit)?);
            continue;
        }
        if let Some(done) = id.take() {
            *ids.get_mut(count)? = done;
            count += 1;
        }
        match b {
            b' ' | b'\t' | b'\x0B' | b'\x0C' | b'\r' => {}
            b',' => comma = true,
            b'\n' => {
                match (count, comma) {
                    (2, _) => pairs.push(ids.into()),
                    (0, false) => {}
                    _ => return None,
                }
                count = 0;
                comma = false;
            }
            _ => return None,
        }
    }
    Some(pairs)
}

/// The line-by-line decoder of the text plane, and the only one that
/// names a defect: a body [`scan_text_pairs`] cannot decide comes here.
fn parse_text_lines(body: &[u8]) -> Result<Vec<(usize, usize)>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "batch body must be UTF-8".to_owned())?;
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut ids = line.split(|c: char| c == ',' || c.is_whitespace()).filter(|t| !t.is_empty());
        let pair = match (ids.next(), ids.next(), ids.next()) {
            (Some(a), Some(b), None) => a.parse().ok().zip(b.parse().ok()),
            _ => None,
        };
        match pair {
            Some(p) => pairs.push(p),
            None => return Err(format!("line {}: expected 'u v', got '{line}'", lineno + 1)),
        }
    }
    Ok(pairs)
}

/// Parses a node-id query parameter, mapping every failure mode to a `400`
/// that names the parameter.
fn parse_id(req: &Request, name: &str) -> Result<usize, Response> {
    let raw = req
        .param(name)
        .ok_or_else(|| Response::error_json(400, format!("missing query parameter '{name}'")))?;
    raw.parse().map_err(|_| {
        Response::error_json(400, format!("parameter '{name}' must be a node id, got '{raw}'"))
    })
}

/// Parses the query of `POST /reload` into what to load. Whether the
/// target fits the serving mode is [`AppState::reload`]'s call, made under
/// the reload lock; only malformed parameters are refused here.
fn reload_target(req: &Request) -> Result<ReloadTarget, Response> {
    let decoded = req.param("path").filter(|raw| !raw.is_empty()).map(|raw| {
        percent_decode(raw).map(PathBuf::from).map_err(|what| {
            Response::error_json(400, format!("parameter 'path' {what}, got '{raw}'"))
        })
    });
    let path = decoded.transpose()?;
    match req.param("shard") {
        Some(raw) => match raw.parse() {
            Ok(index) => Ok(ReloadTarget::Shard { index, path }),
            Err(_) => Err(Response::error_json(
                400,
                format!("parameter 'shard' must be a shard index, got '{raw}'"),
            )),
        },
        None => Ok(path.map_or(ReloadTarget::Configured, ReloadTarget::Snapshot)),
    }
}

/// Percent-decodes a query value that names a file (`%XX` → byte), the one
/// parameter for which [`Request::query`]'s raw values are wrong: clients
/// that encode query values send `/` as `%2F`. `+` is left alone — RFC 3986
/// gives it no meaning in a query and it is a legal file-name character.
fn percent_decode(raw: &str) -> Result<String, &'static str> {
    let mut out = Vec::with_capacity(raw.len());
    let mut bytes = raw.bytes();
    while let Some(b) = bytes.next() {
        if b != b'%' {
            out.push(b);
            continue;
        }
        let mut hex = || bytes.next().and_then(|h| char::from(h).to_digit(16));
        match (hex(), hex()) {
            (Some(hi), Some(lo)) => out.push((hi * 16 + lo) as u8),
            _ => return Err("has a malformed %XX escape"),
        }
    }
    String::from_utf8(out).map_err(|_| "does not percent-decode to UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{self, BackendSpec};
    use cc_clique::Clique;
    use cc_graph::generators;
    use cc_oracle::{DistanceOracle, OracleBuilder, ShardedArtifact};

    fn oracle(n: usize, seed: u64) -> DistanceOracle {
        let g = generators::gnp_weighted(n, 0.2, 20, seed).unwrap();
        let mut clique = Clique::new(n);
        OracleBuilder::new().seed(seed).build(&mut clique, &g).unwrap()
    }

    fn state() -> AppState {
        AppState::new(oracle(24, 9), 256)
    }

    fn sharded_state(n: usize, seed: u64, count: usize) -> (DistanceOracle, AppState) {
        let o = oracle(n, seed);
        let shards = ShardedArtifact::partition(&o, count).unwrap().into_shards();
        (o, AppState::with_in_process_shards(shards, 256).unwrap())
    }

    fn get(path: &str, query: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            query: query.iter().map(|&(k, v)| (k.to_owned(), v.to_owned())).collect(),
            body: Vec::new(),
            content_type: None,
            keep_alive: true,
        }
    }

    fn post(path: &str, body: &[u8]) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            query: Vec::new(),
            body: body.to_vec(),
            content_type: None,
            keep_alive: true,
        }
    }

    fn post_binary(path: &str, body: &[u8]) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            query: Vec::new(),
            body: body.to_vec(),
            content_type: Some(frame::CONTENT_TYPE.to_owned()),
            keep_alive: true,
        }
    }

    fn body_str(resp: &Response) -> &str {
        std::str::from_utf8(&resp.body).unwrap()
    }

    #[test]
    fn distance_answers_match_the_oracle() {
        let want = oracle(24, 9);
        let s = AppState::new(oracle(24, 9), 256);
        let resp = s.handle(&get("/distance", &[("u", "0"), ("v", "5")]));
        assert_eq!(resp.status, 200);
        let expected = want.try_query(0, 5).unwrap().value().unwrap();
        assert!(
            body_str(&resp).contains(&format!("\"distance\":{expected}")),
            "body: {}",
            body_str(&resp)
        );
        assert!(body_str(&resp).contains("\"connected\":true"));
    }

    #[test]
    fn out_of_range_ids_are_400_not_panic() {
        let s = state();
        let resp = s.handle(&get("/distance", &[("u", "0"), ("v", "24")]));
        assert_eq!(resp.status, 400);
        assert!(body_str(&resp).contains("outside 0..24"), "body: {}", body_str(&resp));
        // The server keeps serving afterwards.
        assert_eq!(s.handle(&get("/healthz", &[])).status, 200);
    }

    #[test]
    fn malformed_ids_and_missing_params_are_400() {
        let s = state();
        for query in [
            &[("u", "zero"), ("v", "1")][..],
            &[("u", "0"), ("v", "-3")][..],
            &[("u", "0")][..],
            &[][..],
            &[("u", "0"), ("v", "1e9")][..],
        ] {
            let resp = s.handle(&get("/distance", query));
            assert_eq!(resp.status, 400, "query {query:?} must be rejected");
        }
    }

    #[test]
    fn garbage_paths_are_404_and_wrong_methods_405() {
        let s = state();
        assert_eq!(s.handle(&get("/nope", &[])).status, 404);
        assert_eq!(s.handle(&get("/../etc/passwd", &[])).status, 404);
        assert_eq!(s.handle(&post("/distance", b"")).status, 405);
        assert_eq!(s.handle(&get("/batch", &[])).status, 405);
    }

    #[test]
    fn batch_routes_through_the_backend_and_validates_lines() {
        let want = oracle(24, 9);
        let s = AppState::new(oracle(24, 9), 256);
        let resp = s.handle(&post("/batch", b"0 1\n2,3\n\n  4   5  \n"));
        assert_eq!(resp.status, 200, "body: {}", body_str(&resp));
        let expected = want.try_query_batch(&[(0, 1), (2, 3), (4, 5)]).unwrap();
        let distances: Vec<String> =
            expected.iter().map(|d| d.value().map_or("null".into(), |x| x.to_string())).collect();
        assert_eq!(
            body_str(&resp),
            format!("{{\"count\":3,\"distances\":[{}]}}", distances.join(","))
        );

        assert_eq!(s.handle(&post("/batch", b"0 1\nfive 6\n")).status, 400);
        assert_eq!(s.handle(&post("/batch", b"0 1 2\n")).status, 400);
        assert_eq!(s.handle(&post("/batch", b"0 99\n")).status, 400, "out-of-range pair");
        assert_eq!(s.handle(&post("/batch", &[0xff, 0xfe])).status, 400, "non-UTF-8 body");
    }

    #[test]
    fn distance_bodies_are_pinned_to_the_byte() {
        assert_eq!(
            distance_body(0, 17, Dist::fin(12)),
            b"{\"u\":0,\"v\":17,\"distance\":12,\"connected\":true}"
        );
        assert_eq!(
            distance_body(3, 2, Dist::INF),
            b"{\"u\":3,\"v\":2,\"distance\":null,\"connected\":false}"
        );
        for x in [0, 7, 9, 10, 99, 100, 1_000_000_007, u64::MAX - 1, u64::MAX] {
            let mut out = b"[".to_vec();
            push_decimal(&mut out, x);
            assert_eq!(out, format!("[{x}").into_bytes());
        }
    }

    /// Bodies at the edges of the text plane, each with whether
    /// [`scan_text_pairs`] decides it without [`parse_text_lines`].
    const TEXT_EDGES: &[(&[u8], bool)] = &[
        (b"", true),
        (b"\n", true),
        (b"0 1\r\n2 3\r\n", true),
        (b"0 1\n2 3", true),
        (b"\n\n0 1\n  \t \n\r\n\n2 3\n\n", true),
        (b"0 1\r", true),
        (b"\r", true),
        (b" ,0,1, \n4,5\n6,,7\n", true),
        (b"0\x0B1\n2\x0C3\n\x0B\x0C\n", true),
        (b"007 8\n", true),
        (b"18446744073709551615 1\n", true),
        (b"0 1\n,\n2 3\n", false),
        (b",,\n", false),
        (b",", false),
        ("0\u{a0}1\n".as_bytes(), false),
        ("2\u{3000}3\n".as_bytes(), false),
        ("0 1\n\u{85}\n".as_bytes(), false),
        (b"+5 1\n", false),
        (b"18446744073709551616 1\n", false),
        (b"0 1 2\n", false),
        (b"0 1\n5\n", false),
        (b"0 1\nfive 6\n", false),
        (b"0 1\n\xff 2\n", false),
        (b"five 6\n\xff", false),
        (b"0 -1\n", false),
    ];

    #[test]
    fn the_byte_scan_decides_the_plain_bodies_and_defers_the_rest() {
        for &(body, decided) in TEXT_EDGES {
            let shown = String::from_utf8_lossy(body);
            assert_eq!(scan_text_pairs(body).is_some(), decided, "{shown:?}");
            assert_eq!(parse_text_pairs(body), parse_text_lines(body), "{shown:?}");
        }
        let errors = [
            (&b"0 1\n,\n"[..], "line 2: expected 'u v', got ','"),
            (b"\n0 1 2\r\n", "line 2: expected 'u v', got '0 1 2'"),
            (b"0 1\n\xff", "batch body must be UTF-8"),
        ];
        for (body, message) in errors {
            assert_eq!(parse_text_pairs(body), Err(message.to_owned()));
        }
    }

    #[test]
    fn the_text_plane_parser_matches_the_line_parser_on_random_bodies() {
        // The edge cases above, cut into the pieces a body is drawn from.
        const IDS: &[&[u8]] = &[b"0", b"1", b"17", b"200", b"007"];
        const SEPARATORS: &[&[u8]] = &[b" ", b"\t", b"\x0B", b"\x0C", b"\r", b",", b",,"];
        const ENDS: &[&[u8]] = &[b"\n", b"\r\n"];
        const STRAYS: &[&[u8]] = &[
            b"+5",
            b"18446744073709551616",
            b"\xc2\xa0",
            b"\xe3\x80\x80",
            b"\xff",
            b"x",
            b",",
            b"\n",
            b"5",
        ];
        let all: Vec<&[u8]> = [IDS, SEPARATORS, ENDS, STRAYS].concat();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |below: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % below as u64) as usize
        };
        let (mut oks, mut errs, mut decided) = (0, 0, 0);
        for round in 0..4000 {
            let mut body = Vec::new();
            if round % 2 == 0 {
                // Free draws: mostly malformed.
                for _ in 0..next(12) {
                    body.extend_from_slice(all[next(all.len())]);
                }
            } else {
                // Pair lines, now and then a blank one or a stray piece.
                for _ in 0..next(8) {
                    let line = if next(8) == 0 {
                        [SEPARATORS[next(5)], b"", b"", b"", ENDS[next(2)]]
                    } else {
                        [
                            SEPARATORS[next(6)],
                            IDS[next(IDS.len())],
                            SEPARATORS[next(SEPARATORS.len())],
                            IDS[next(IDS.len())],
                            ENDS[next(2)],
                        ]
                    };
                    line.iter().for_each(|piece| body.extend_from_slice(piece));
                    if next(16) == 0 {
                        body.extend_from_slice(STRAYS[next(STRAYS.len())]);
                    }
                }
                if next(2) == 0 {
                    body.truncate(body.len().saturating_sub(1));
                }
            }
            let want = parse_text_lines(&body);
            assert_eq!(parse_text_pairs(&body), want, "{:?}", String::from_utf8_lossy(&body));
            decided += usize::from(scan_text_pairs(&body).is_some());
            if want.is_ok() {
                oks += 1;
            } else {
                errs += 1;
            }
        }
        assert!(oks >= 1000 && errs >= 1000 && decided >= 1000, "{oks} / {errs} / {decided}");
    }

    #[test]
    fn binary_batch_answers_match_the_text_plane_and_the_backend() {
        let want = oracle(24, 9);
        let s = AppState::new(oracle(24, 9), 256);
        let pairs = [(0usize, 1usize), (2, 3), (5, 5), (0, 23)];
        let pairs32: Vec<(u32, u32)> = pairs.iter().map(|&(u, v)| (u as u32, v as u32)).collect();

        let resp = s.handle(&post_binary("/batch", &frame::encode_request(&pairs32)));
        assert_eq!(resp.status, 200, "body: {:?}", resp.body);
        assert_eq!(resp.content_type, frame::CONTENT_TYPE);
        let got = frame::decode_response(&resp.body).unwrap();
        let expected: Vec<u64> = want
            .try_query_batch(&pairs)
            .unwrap()
            .iter()
            .map(|d| d.value().unwrap_or(frame::UNREACHABLE))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn binary_batch_content_type_negotiation_ignores_params_and_case() {
        let s = state();
        let mut req = post_binary("/batch", &frame::encode_request(&[(0, 1)]));
        req.content_type = Some("Application/X-CC-Batch; charset=binary".to_owned());
        assert_eq!(s.handle(&req).status, 200);
        // Without the content type, the same bytes hit the text parser and
        // are rejected — never misinterpreted as decimal ids.
        req.content_type = None;
        assert_eq!(s.handle(&req).status, 400);
    }

    #[test]
    fn malformed_binary_frames_are_400_not_panic() {
        let s = state();
        let valid = frame::encode_request(&[(0, 1), (2, 3)]);
        let cases: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"CCB".to_vec(),
            b"XXXX\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00".to_vec(),
            valid[..valid.len() - 3].to_vec(), // truncated payload
            frame::encode_response(&[7]),      // response magic on the request plane
            {
                let mut zero = valid.clone();
                zero[4..8].copy_from_slice(&0u32.to_le_bytes()); // declares 0 pairs
                zero
            },
            {
                let mut lying = valid.clone();
                lying[4..8].copy_from_slice(&9u32.to_le_bytes()); // declares 9, carries 2
                lying
            },
        ];
        for bytes in cases {
            let resp = s.handle(&post_binary("/batch", &bytes));
            assert_eq!(resp.status, 400, "frame {bytes:?} must be a 400");
            assert_eq!(resp.content_type, "application/json");
        }
        // Out-of-range ids (valid frame, bad content) are 400s too.
        let resp = s.handle(&post_binary("/batch", &frame::encode_request(&[(0, 999)])));
        assert_eq!(resp.status, 400);
        // The state keeps serving afterwards.
        assert_eq!(s.handle(&get("/healthz", &[])).status, 200);
    }

    #[test]
    fn head_routes_like_get_and_unknown_methods_stay_405() {
        let s = state();
        for path in ["/healthz", "/stats", "/metrics", "/artifact"] {
            let mut req = get(path, &[]);
            req.method = "HEAD".into();
            let head = s.handle(&req);
            assert_eq!(head.status, 200, "HEAD {path} must answer like GET");
        }
        let mut req = get("/distance", &[("u", "0"), ("v", "5")]);
        req.method = "HEAD".into();
        let head = s.handle(&req);
        let get_resp = s.handle(&get("/distance", &[("u", "0"), ("v", "5")]));
        assert_eq!((head.status, head.body), (get_resp.status, get_resp.body));
        // HEAD on a POST-only route is still a 405, and truly unknown
        // methods stay rejected.
        let mut req = post("/reload", b"");
        req.method = "HEAD".into();
        assert_eq!(s.handle(&req).status, 405);
        let mut req = get("/healthz", &[]);
        req.method = "BREW".into();
        assert_eq!(s.handle(&req).status, 405);
    }

    #[test]
    fn accept_errors_surface_in_stats_and_transport_is_labelled() {
        let mut s = state();
        s.set_transport_label("epoll");
        s.count_accept_error();
        s.count_accept_error();
        let stats = body_str(&s.handle(&get("/stats", &[]))).to_owned();
        assert!(stats.contains("\"accept_errors\":2"), "stats: {stats}");
        assert!(stats.contains("\"transport\":\"epoll\""), "stats: {stats}");
        let metrics = body_str(&s.handle(&get("/metrics", &[]))).to_owned();
        assert!(metrics.contains("cc_accept_errors_total 2"), "metrics: {metrics}");
        assert!(metrics.contains("# TYPE cc_accept_errors_total counter"), "metrics: {metrics}");
    }

    #[test]
    fn stats_and_artifact_report_the_serving_state() {
        let s = state();
        s.handle(&get("/distance", &[("u", "1"), ("v", "2")]));
        s.handle(&get("/distance", &[("u", "1"), ("v", "2")]));
        s.handle(&get("/distance", &[("u", "99"), ("v", "2")]));
        let stats = s.handle(&get("/stats", &[]));
        assert_eq!(stats.status, 200);
        let body = body_str(&stats).to_owned();
        assert!(body.contains("\"requests\":4"), "body: {body}");
        assert!(body.contains("\"distance_requests\":3"), "body: {body}");
        assert!(body.contains("\"client_errors\":1"), "body: {body}");
        assert!(body.contains("\"mode\":\"mono\""), "body: {body}");
        assert!(body.contains("\"hits\":1"), "body: {body}");
        assert!(body.contains("\"misses\":1"), "body: {body}");
        assert!(body.contains("\"warmed_keys\":0"), "body: {body}");

        let artifact = s.handle(&get("/artifact", &[]));
        assert_eq!(artifact.status, 200);
        let body = body_str(&artifact).to_owned();
        for key in ["\"n\":24", "\"k\":", "\"epsilon\":", "\"landmarks\":", "\"artifact_bytes\":"] {
            assert!(body.contains(key), "missing {key} in {body}");
        }
        // The bound the artifact certifies; a faithful build's is at most
        // `3+2ε`.
        let built = oracle(24, 9);
        let bound = built.stretch_bound();
        assert!(bound <= 3.0 + 2.0 * built.epsilon() + 1e-12, "certified {bound}");
        assert!(body.contains(&format!("\"stretch_bound\":{bound}")), "body: {body}");
        // The active snapshot's identity is reported on both endpoints.
        let expected_id = s.generation().info().build_id.clone();
        for text in [&body, &body_str(&s.handle(&get("/stats", &[]))).to_owned()] {
            assert!(text.contains(&format!("\"build_id\":\"{expected_id}\"")), "body: {text}");
            let version = format!("\"version\":{}", cc_oracle::serde::SNAPSHOT_VERSION);
            assert!(text.contains(&version), "body: {text}");
            assert!(text.contains("\"source\":\"in-process\""), "body: {text}");
        }
    }

    #[test]
    fn metrics_and_stats_render_the_same_registry_snapshot() {
        let s = state();
        s.handle(&get("/distance", &[("u", "1"), ("v", "2")]));
        s.handle(&get("/distance", &[("u", "1"), ("v", "2")]));
        s.handle(&get("/distance", &[("u", "99"), ("v", "2")]));
        s.record_request("distance", 1_500);
        s.record_request("nonsense", 10);

        let resp = s.handle(&get("/metrics", &[]));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, METRICS_CONTENT_TYPE);
        let text = body_str(&resp).to_owned();
        // 3 /distance + this /metrics request itself.
        assert!(text.contains("# TYPE cc_requests_total counter"), "metrics: {text}");
        assert!(text.contains("cc_requests_total 4"), "metrics: {text}");
        assert!(
            text.contains("cc_endpoint_requests_total{endpoint=\"distance\"} 3"),
            "metrics: {text}"
        );
        assert!(text.contains("cc_client_errors_total 1"), "metrics: {text}");
        // 1 hit / 1 miss on the repeated pair (the 400 never reached the
        // cache).
        assert!(text.contains("cc_cache_hit_rate 0.5"), "metrics: {text}");
        assert!(text.contains("cc_pool_queue_depth 0"), "metrics: {text}");
        // The 1500ns recording lands in the (1024, 2048] bucket...
        assert!(
            text.contains("cc_request_duration_ns_bucket{endpoint=\"distance\",le=\"2048\"} 1"),
            "metrics: {text}"
        );
        assert!(
            text.contains("cc_request_duration_ns_sum{endpoint=\"distance\"} 1500"),
            "metrics: {text}"
        );
        assert!(
            text.contains("cc_request_duration_ns_count{endpoint=\"distance\"} 1"),
            "metrics: {text}"
        );
        // ...and the unknown endpoint class fell back to `other`.
        assert!(
            text.contains("cc_request_duration_ns_count{endpoint=\"other\"} 1"),
            "metrics: {text}"
        );

        // /stats reads the very same counters back from the registry.
        let stats = body_str(&s.handle(&get("/stats", &[]))).to_owned();
        assert!(stats.contains("\"requests\":5"), "stats: {stats}");
        assert!(stats.contains("\"distance_requests\":3"), "stats: {stats}");
        assert!(stats.contains("\"hit_rate\":0.5000"), "stats: {stats}");
    }

    #[test]
    fn wrong_method_on_metrics_is_405() {
        let s = state();
        assert_eq!(s.handle(&post("/metrics", b"")).status, 405);
    }

    #[test]
    fn disabled_telemetry_serves_but_records_nothing() {
        let mut s = state();
        s.disable_telemetry();
        assert_eq!(s.handle(&get("/distance", &[("u", "0"), ("v", "5")])).status, 200);
        s.record_request("distance", 1_500);
        let metrics = body_str(&s.handle(&get("/metrics", &[]))).to_owned();
        // The families are still registered (a scrape target never
        // disappears) but every value stays zero.
        assert!(metrics.contains("cc_requests_total 0"), "metrics: {metrics}");
        assert!(
            metrics.contains("cc_request_duration_ns_count{endpoint=\"distance\"} 0"),
            "metrics: {metrics}"
        );
        let stats = body_str(&s.handle(&get("/stats", &[]))).to_owned();
        assert!(stats.contains("\"requests\":0"), "stats: {stats}");
    }

    fn temp_snapshot_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cc-serve-handler-tests").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn reload_swaps_the_artifact_and_reports_the_new_identity() {
        let s = state();
        let before = s.generation().info().build_id.clone();

        // A different graph (different seed) at a temp path.
        let next = oracle(24, 77);
        let path = temp_snapshot_dir("swap").join("next.snap");
        std::fs::write(&path, cc_oracle::serde::to_bytes(&next)).unwrap();

        let req = Request {
            method: "POST".into(),
            path: "/reload".into(),
            query: vec![("path".to_owned(), path.display().to_string())],
            body: Vec::new(),
            content_type: None,
            keep_alive: true,
        };
        let resp = s.handle(&req);
        assert_eq!(resp.status, 200, "body: {}", body_str(&resp));
        assert!(body_str(&resp).contains("\"reloaded\":true"));
        let after = s.generation();
        assert_ne!(after.info().build_id, before, "artifact identity must change");
        assert_eq!(after.info().source, path.display().to_string());
        assert_eq!(s.reloads(), 1);
        // Served answers now come from the new artifact.
        let resp = s.handle(&get("/distance", &[("u", "0"), ("v", "5")]));
        let want = next.try_query(0, 5).unwrap().value().unwrap();
        assert!(body_str(&resp).contains(&format!("\"distance\":{want}")));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reload_warms_the_new_cache_from_the_old_one() {
        let s = state();
        // Heat up some pairs on the serving generation.
        let hot = [(0usize, 5usize), (1, 7), (2, 9), (3, 11)];
        for &(u, v) in &hot {
            s.handle(&get("/distance", &[("u", &u.to_string()), ("v", &v.to_string())]));
        }
        let resident = s.generation().descriptor().cache.unwrap().len;
        assert_eq!(resident, hot.len());

        let next = oracle(24, 77);
        let path = temp_snapshot_dir("warm").join("next.snap");
        std::fs::write(&path, cc_oracle::serde::to_bytes(&next)).unwrap();
        let req = Request {
            method: "POST".into(),
            path: "/reload".into(),
            query: vec![("path".to_owned(), path.display().to_string())],
            body: Vec::new(),
            content_type: None,
            keep_alive: true,
        };
        assert_eq!(s.handle(&req).status, 200);

        // The new generation starts with the hot keys resident...
        let generation = s.generation();
        assert_eq!(generation.warmed_keys(), hot.len() as u64);
        assert_eq!(generation.descriptor().cache.unwrap().len, hot.len());
        // ...reported in /stats...
        let stats = body_str(&s.handle(&get("/stats", &[]))).to_owned();
        assert!(stats.contains(&format!("\"warmed_keys\":{}", hot.len())), "stats: {stats}");
        // ...and re-asking a hot pair hits immediately with the NEW
        // artifact's answer.
        let misses_before = s.generation().descriptor().cache.unwrap().misses;
        let resp = s.handle(&get("/distance", &[("u", "0"), ("v", "5")]));
        let want = next.try_query(0, 5).unwrap().value().unwrap();
        assert!(body_str(&resp).contains(&format!("\"distance\":{want}")));
        assert_eq!(s.generation().descriptor().cache.unwrap().misses, misses_before);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_reload_is_400_keeps_old_artifact_and_surfaces_in_stats() {
        let s = state();
        let before = s.generation().info().build_id.clone();
        let answer_before = s.generation().cached().try_query(1, 2).unwrap();

        let path = temp_snapshot_dir("corrupt").join("bad.snap");
        std::fs::write(&path, b"these are not oracle bytes").unwrap();
        let req = Request {
            method: "POST".into(),
            path: "/reload".into(),
            query: vec![("path".to_owned(), path.display().to_string())],
            body: Vec::new(),
            content_type: None,
            keep_alive: true,
        };
        let resp = s.handle(&req);
        assert_eq!(resp.status, 400, "body: {}", body_str(&resp));

        // Old generation untouched, error visible in /stats.
        assert_eq!(s.generation().info().build_id, before);
        assert_eq!(s.generation().cached().try_query(1, 2).unwrap(), answer_before);
        assert_eq!((s.reloads(), s.reload_failures()), (0, 1));
        let stats = body_str(&s.handle(&get("/stats", &[]))).to_owned();
        assert!(stats.contains("\"reload_failures\":1"), "stats: {stats}");
        assert!(stats.contains("\"last_reload_error\":\"reload from"), "stats: {stats}");

        // A later successful reload clears the recorded error.
        let same = oracle(24, 9);
        std::fs::write(&path, cc_oracle::serde::to_bytes(&same)).unwrap();
        let resp = s.handle(&req);
        assert_eq!(resp.status, 200, "body: {}", body_str(&resp));
        let stats = body_str(&s.handle(&get("/stats", &[]))).to_owned();
        assert!(stats.contains("\"last_reload_error\":null"), "stats: {stats}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reload_without_a_source_is_a_400_with_guidance() {
        let s = state();
        let resp = s.handle(&post("/reload", b""));
        assert_eq!(resp.status, 400);
        assert!(body_str(&resp).contains("no reload source"), "body: {}", body_str(&resp));
        assert_eq!(s.handle(&get("/reload", &[])).status, 405, "GET /reload is not allowed");
    }

    #[test]
    fn sharded_distance_and_batch_answer_bit_identically_to_the_monolith() {
        let (mono, s) = sharded_state(25, 3, 3);
        assert!(s.is_sharded());
        for (u, v) in [(0usize, 24usize), (24, 0), (5, 5), (0, 8), (9, 17), (12, 13)] {
            let resp = s.handle(&get("/distance", &[("u", &u.to_string()), ("v", &v.to_string())]));
            assert_eq!(resp.status, 200, "body: {}", body_str(&resp));
            let want =
                mono.try_query(u, v).unwrap().value().map_or("null".to_owned(), |x| x.to_string());
            assert!(
                body_str(&resp).contains(&format!("\"distance\":{want}")),
                "pair ({u},{v}): body {}",
                body_str(&resp)
            );
        }
        // A batch mixing same-shard and cross-shard pairs.
        let resp = s.handle(&post("/batch", b"0 1\n0 24\n20 4\n12 12\n"));
        assert_eq!(resp.status, 200, "body: {}", body_str(&resp));
        let want: Vec<String> = mono
            .try_query_batch(&[(0, 1), (0, 24), (20, 4), (12, 12)])
            .unwrap()
            .iter()
            .map(|d| d.value().map_or("null".into(), |x| x.to_string()))
            .collect();
        assert_eq!(body_str(&resp), format!("{{\"count\":4,\"distances\":[{}]}}", want.join(",")));
        // Out-of-range pairs are 400s through the router too.
        assert_eq!(s.handle(&get("/distance", &[("u", "0"), ("v", "25")])).status, 400);
        assert_eq!(s.handle(&post("/batch", b"0 25\n")).status, 400);
    }

    #[test]
    fn sharded_stats_and_artifact_report_per_shard_identities_and_a_cache() {
        let (mono, s) = sharded_state(25, 3, 3);
        // Repeat a pair: the router-level cache must hit.
        s.handle(&get("/distance", &[("u", "0"), ("v", "24")]));
        s.handle(&get("/distance", &[("u", "0"), ("v", "24")]));
        let stats = body_str(&s.handle(&get("/stats", &[]))).to_owned();
        assert!(stats.contains("\"mode\":\"router\""), "stats: {stats}");
        assert!(stats.contains("\"shard_count\":3"), "stats: {stats}");
        assert!(stats.contains("\"set_uniform\":true"), "stats: {stats}");
        assert!(stats.contains("\"index\":2"), "stats: {stats}");
        assert!(stats.contains("\"hits\":1"), "router cache must count hits: {stats}");
        let set_id = format!("{:016x}", cc_oracle::serde::payload_checksum(&mono));
        assert!(stats.contains(&set_id), "stats must carry the set id: {stats}");

        let artifact = body_str(&s.handle(&get("/artifact", &[]))).to_owned();
        assert!(artifact.contains("\"mode\":\"router\""), "artifact: {artifact}");
        assert!(artifact.contains("\"n\":25"), "artifact: {artifact}");
        assert!(artifact.contains("\"owned_start\":0"), "artifact: {artifact}");
        assert!(artifact.contains("\"owned_len\":9"), "artifact: {artifact}");
        // Per-shard build ids are all distinct (different slices).
        let ids: Vec<&str> = artifact.split("\"build_id\":\"").skip(1).collect();
        assert_eq!(ids.len(), 3, "artifact: {artifact}");
        assert_ne!(ids[0][..16], ids[1][..16], "artifact: {artifact}");
    }

    #[test]
    fn sharded_reload_swaps_one_shard_and_rejects_bad_requests() {
        let (mono, s) = sharded_state(25, 3, 3);
        let dir = temp_snapshot_dir("shard-reload");
        let paths = source::write_shard_snapshots(&mono, 3, &dir).unwrap();

        // Reload shard 1 from an explicit path: only its identity moves.
        let before: Vec<String> =
            s.generation().shard_infos().iter().map(|i| i.source.clone()).collect();
        let req = Request {
            method: "POST".into(),
            path: "/reload".into(),
            query: vec![
                ("shard".to_owned(), "1".to_owned()),
                ("path".to_owned(), paths[1].display().to_string()),
            ],
            body: Vec::new(),
            content_type: None,
            keep_alive: true,
        };
        let resp = s.handle(&req);
        assert_eq!(resp.status, 200, "body: {}", body_str(&resp));
        assert!(body_str(&resp).contains("\"shard\":1"));
        let after: Vec<String> =
            s.generation().shard_infos().iter().map(|i| i.source.clone()).collect();
        assert_eq!(after[0], before[0]);
        assert_ne!(after[1], before[1]);
        assert_eq!(after[2], before[2]);
        assert_eq!(s.reloads(), 1);

        // Having been loaded from a file once, shard 1 now has a default
        // reload source: /reload?shard=1 without a path works.
        let req = Request {
            method: "POST".into(),
            path: "/reload".into(),
            query: vec![("shard".to_owned(), "1".to_owned())],
            body: Vec::new(),
            content_type: None,
            keep_alive: true,
        };
        assert_eq!(s.handle(&req).status, 200);
        assert_eq!(s.reloads(), 2);

        // Shard 0's file into slot 2: index mismatch, 400, nothing swapped.
        let req = Request {
            method: "POST".into(),
            path: "/reload".into(),
            query: vec![
                ("shard".to_owned(), "2".to_owned()),
                ("path".to_owned(), paths[0].display().to_string()),
            ],
            body: Vec::new(),
            content_type: None,
            keep_alive: true,
        };
        let resp = s.handle(&req);
        assert_eq!(resp.status, 400, "body: {}", body_str(&resp));
        assert!(body_str(&resp).contains("declares index 0"), "body: {}", body_str(&resp));
        assert_eq!(s.reload_failures(), 1);

        // Out-of-range shard index and garbage index are 400s.
        for bad in ["9", "x"] {
            let req = Request {
                method: "POST".into(),
                path: "/reload".into(),
                query: vec![("shard".to_owned(), bad.to_owned())],
                body: Vec::new(),
                content_type: None,
                keep_alive: true,
            };
            assert_eq!(s.handle(&req).status, 400, "shard='{bad}' must be rejected");
        }

        // Queries still answer identically to the monolith afterwards.
        for (u, v) in [(0usize, 24usize), (10, 3)] {
            let resp = s.handle(&get("/distance", &[("u", &u.to_string()), ("v", &v.to_string())]));
            let want = mono.try_query(u, v).unwrap().value().unwrap();
            assert!(body_str(&resp).contains(&format!("\"distance\":{want}")));
        }
        for p in paths {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn mono_reload_rejects_shard_parameter_and_vice_versa() {
        let s = state();
        let req = Request {
            method: "POST".into(),
            path: "/reload".into(),
            query: vec![("shard".to_owned(), "0".to_owned())],
            body: Vec::new(),
            content_type: None,
            keep_alive: true,
        };
        let resp = s.handle(&req);
        assert_eq!(resp.status, 400);
        assert!(body_str(&resp).contains("no 'shard' parameter"), "body: {}", body_str(&resp));

        // In-process sharded state has no files: a shard reload without a
        // path explains, and a bare /reload names the missing source.
        let (_, sharded) = sharded_state(25, 3, 2);
        let req = Request {
            method: "POST".into(),
            path: "/reload".into(),
            query: vec![("shard".to_owned(), "0".to_owned())],
            body: Vec::new(),
            content_type: None,
            keep_alive: true,
        };
        let resp = sharded.handle(&req);
        assert_eq!(resp.status, 400);
        assert!(body_str(&resp).contains("no default snapshot file"), "body: {}", body_str(&resp));
        let resp = sharded.handle(&post("/reload", b""));
        assert_eq!(resp.status, 400);
        assert!(body_str(&resp).contains("no reload source"), "body: {}", body_str(&resp));
    }

    #[test]
    fn manifest_reload_can_change_mode_and_capacity() {
        // Start monolithic from a manifest, then edit the manifest to a
        // 2-shard set of a different build: one bare /reload moves the
        // server across modes atomically.
        let dir = temp_snapshot_dir("manifest-reload");
        let mono = oracle(20, 9);
        let snap = dir.join("mono.snap");
        std::fs::write(&snap, cc_oracle::serde::to_bytes(&mono)).unwrap();
        let manifest = dir.join("set.toml");
        std::fs::write(&manifest, "mode = \"mono\"\nsnapshot = \"mono.snap\"\n").unwrap();

        let spec = BackendSpec::from_manifest(&manifest).unwrap();
        let s = AppState::from_spec(spec, 256).unwrap();
        assert!(!s.is_sharded());

        let next = oracle(20, 31);
        source::write_shard_snapshots(&next, 2, &dir).unwrap();
        std::fs::write(
            &manifest,
            format!(
                "mode = \"sharded\"\nshards = [\"shard-0.snap\", \"shard-1.snap\"]\n\
                 set_id = \"{:016x}\"\ncache_capacity = 64\n",
                cc_oracle::serde::payload_checksum(&next)
            ),
        )
        .unwrap();
        let resp = s.handle(&post("/reload", b""));
        assert_eq!(resp.status, 200, "body: {}", body_str(&resp));
        assert!(s.is_sharded());
        assert_eq!(s.reloads(), 2, "a 2-shard roll books two swaps");
        let stats = body_str(&s.handle(&get("/stats", &[]))).to_owned();
        assert!(stats.contains("\"mode\":\"router\""), "stats: {stats}");
        // 64 requested, rounded up to 22 whole three-way sets.
        assert!(stats.contains("\"capacity\":66"), "manifest capacity must apply: {stats}");

        // A manifest-declared capacity is the new default: a later
        // single-shard reload must not silently revert it.
        let shard_path = dir.join("shard-0.snap");
        let req = Request {
            method: "POST".into(),
            path: "/reload".into(),
            query: vec![
                ("shard".to_owned(), "0".to_owned()),
                ("path".to_owned(), shard_path.display().to_string()),
            ],
            body: Vec::new(),
            content_type: None,
            keep_alive: true,
        };
        assert_eq!(s.handle(&req).status, 200);
        let stats = body_str(&s.handle(&get("/stats", &[]))).to_owned();
        assert!(
            stats.contains("\"capacity\":66"),
            "manifest capacity must survive a shard reload: {stats}"
        );

        // A bare /reload with a path parameter on a routed set is a 400,
        // not a silent reload of the default source.
        let req = Request {
            method: "POST".into(),
            path: "/reload".into(),
            query: vec![("path".to_owned(), shard_path.display().to_string())],
            body: Vec::new(),
            content_type: None,
            keep_alive: true,
        };
        let resp = s.handle(&req);
        assert_eq!(resp.status, 400, "body: {}", body_str(&resp));
        assert!(body_str(&resp).contains("shard=i&path="), "body: {}", body_str(&resp));

        // A wrong set id in the manifest is a rejected reload, old set
        // keeps serving.
        std::fs::write(
            &manifest,
            "mode = \"sharded\"\nshards = [\"shard-0.snap\", \"shard-1.snap\"]\n\
             set_id = \"00000000deadbeef\"\n",
        )
        .unwrap();
        let resp = s.handle(&post("/reload", b""));
        assert_eq!(resp.status, 400, "body: {}", body_str(&resp));
        assert!(body_str(&resp).contains("expects set_id"), "body: {}", body_str(&resp));
        assert!(s.is_sharded());
        assert_eq!(s.reload_failures(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explicit_path_reload_respects_the_manifest_set_id_pin() {
        let dir = temp_snapshot_dir("pin");
        let pinned = oracle(20, 9);
        let snap = dir.join("pinned.snap");
        std::fs::write(&snap, cc_oracle::serde::to_bytes(&pinned)).unwrap();
        let manifest = dir.join("mono.toml");
        std::fs::write(
            &manifest,
            format!(
                "mode = \"mono\"\nsnapshot = \"pinned.snap\"\nset_id = \"{:016x}\"\n",
                cc_oracle::serde::payload_checksum(&pinned)
            ),
        )
        .unwrap();
        let s = AppState::from_spec(BackendSpec::from_manifest(&manifest).unwrap(), 256).unwrap();

        // An explicit-path reload naming a different build is rejected by
        // the pin; the pinned artifact keeps serving.
        let other = oracle(20, 31);
        let other_path = dir.join("other.snap");
        std::fs::write(&other_path, cc_oracle::serde::to_bytes(&other)).unwrap();
        let req = Request {
            method: "POST".into(),
            path: "/reload".into(),
            query: vec![("path".to_owned(), other_path.display().to_string())],
            body: Vec::new(),
            content_type: None,
            keep_alive: true,
        };
        let resp = s.handle(&req);
        assert_eq!(resp.status, 400, "body: {}", body_str(&resp));
        assert!(body_str(&resp).contains("pinned set_id"), "body: {}", body_str(&resp));
        assert_eq!(s.reload_failures(), 1);
        let expected = format!("{:016x}", cc_oracle::serde::payload_checksum(&pinned));
        assert_eq!(s.generation().info().build_id, expected);

        // The pinned build itself reloads fine by explicit path too.
        let req = Request {
            method: "POST".into(),
            path: "/reload".into(),
            query: vec![("path".to_owned(), snap.display().to_string())],
            body: Vec::new(),
            content_type: None,
            keep_alive: true,
        };
        assert_eq!(s.handle(&req).status, 200);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explicit_path_reload_checks_the_pin_of_the_manifest_last_applied() {
        let dir = temp_snapshot_dir("repin");
        let (a, b) = (oracle(20, 9), oracle(20, 31));
        let id = |o: &DistanceOracle| format!("{:016x}", cc_oracle::serde::payload_checksum(o));
        let file = |name: &str, o: &DistanceOracle| {
            let path = dir.join(name);
            std::fs::write(&path, cc_oracle::serde::to_bytes(o)).unwrap();
            path.display().to_string()
        };
        let (a_path, _, b_copy) = (file("a.snap", &a), file("b.snap", &b), file("b-copy.snap", &b));
        let manifest = dir.join("mono.toml");
        let pin = |snapshot: &str, set_id: &str| {
            let text =
                format!("mode = \"mono\"\nsnapshot = \"{snapshot}\"\nset_id = \"{set_id}\"\n");
            std::fs::write(&manifest, text).unwrap();
        };
        pin("a.snap", &id(&a));
        let s = AppState::from_spec(BackendSpec::from_manifest(&manifest).unwrap(), 256).unwrap();

        // The manifest moves to build B and a bare /reload applies it.
        pin("b.snap", &id(&b));
        let resp = s.handle(&post("/reload", b""));
        assert_eq!(resp.status, 200, "body: {}", body_str(&resp));

        // From now on B's pin gates explicit paths: a copy of B loads, A
        // is refused and B keeps serving.
        let resp = s.handle(&reload_request(&[("path", &b_copy)]));
        assert_eq!(resp.status, 200, "body: {}", body_str(&resp));
        let resp = s.handle(&reload_request(&[("path", &a_path)]));
        assert_eq!(resp.status, 400, "body: {}", body_str(&resp));
        let named_pin = format!("expects set_id {}", id(&b));
        assert!(body_str(&resp).contains(&named_pin), "body: {}", body_str(&resp));
        assert_eq!(s.reload_failures(), 1);
        assert_eq!(s.generation().info().build_id, id(&b));

        // A manifest re-read that is rejected leaves B's pin in force.
        pin("a.snap", "00000000deadbeef");
        assert_eq!(s.handle(&post("/reload", b"")).status, 400);
        let resp = s.handle(&reload_request(&[("path", &a_path)]));
        assert!(body_str(&resp).contains(&named_pin), "body: {}", body_str(&resp));
        assert_eq!(s.handle(&reload_request(&[("path", &b_copy)])).status, 200);
        assert_eq!(s.reload_failures(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn reload_request(query: &[(&str, &str)]) -> Request {
        Request { method: "POST".into(), ..get("/reload", query) }
    }

    /// What a URL-encoding client (`requests`' `params=`, Go's
    /// `url.Values`, `curl --data-urlencode`) puts on the wire for `path`.
    fn percent_encode(path: &std::path::Path) -> String {
        path.display()
            .to_string()
            .bytes()
            .map(|b| match b {
                b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                    char::from(b).to_string()
                }
                _ => format!("%{b:02X}"),
            })
            .collect()
    }

    #[test]
    fn reload_path_is_percent_decoded_for_mono_and_shard_reloads() {
        // Monolith: the encoded and the raw spelling load the same file.
        let s = state();
        let next = oracle(24, 77);
        let path = temp_snapshot_dir("percent+path").join("next snapshot.snap");
        std::fs::write(&path, cc_oracle::serde::to_bytes(&next)).unwrap();
        let (raw, encoded) = (path.display().to_string(), percent_encode(&path));
        assert!(encoded.contains("%2F") && encoded.contains("%20") && encoded.contains("%2B"));
        for (i, spelling) in [encoded.as_str(), raw.as_str()].into_iter().enumerate() {
            let resp = s.handle(&reload_request(&[("path", spelling)]));
            assert_eq!(resp.status, 200, "path={spelling}: {}", body_str(&resp));
            assert_eq!(s.generation().info().source, raw, "the decoded file is what loaded");
            assert_eq!(s.reloads(), i as u64 + 1);
        }

        // Router: the same for one slot.
        let (mono, sharded) = sharded_state(25, 3, 3);
        let dir = temp_snapshot_dir("percent+shard dir");
        let paths = source::write_shard_snapshots(&mono, 3, &dir).unwrap();
        let (raw, encoded) = (paths[1].display().to_string(), percent_encode(&paths[1]));
        for (i, spelling) in [encoded.as_str(), raw.as_str()].into_iter().enumerate() {
            let resp = sharded.handle(&reload_request(&[("shard", "1"), ("path", spelling)]));
            assert_eq!(resp.status, 200, "path={spelling}: {}", body_str(&resp));
            assert_eq!(sharded.generation().shard_infos()[1].source, raw);
            assert_eq!(sharded.reloads(), i as u64 + 1);
        }

        // Ids stay raw: an encoded shard index is malformed, not decoded.
        let resp = sharded.handle(&reload_request(&[("shard", "%31"), ("path", &raw)]));
        assert_eq!(resp.status, 400, "body: {}", body_str(&resp));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_path_escapes_are_400s_that_attempt_nothing() {
        let (_, sharded) = sharded_state(25, 3, 2);
        for (state, shard) in [(&state(), None), (&sharded, Some("0"))] {
            for bad in ["%zz", "%ff", "/tmp/x%2", "%", "/tmp/%c3%28.snap"] {
                let mut query = vec![("path", bad)];
                query.extend(shard.map(|i| ("shard", i)));
                let resp = state.handle(&reload_request(&query));
                assert_eq!(resp.status, 400, "path={bad}: {}", body_str(&resp));
                assert!(body_str(&resp).contains("parameter 'path'"), "{}", body_str(&resp));
            }
            assert_eq!((state.reloads(), state.reload_failures()), (0, 0));
            let stats = body_str(&state.handle(&get("/stats", &[]))).to_owned();
            assert!(stats.contains("\"last_reload_error\":null"), "stats: {stats}");
        }
    }
}
