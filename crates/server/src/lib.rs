//! # `cc-serve`: a snapshot-serving network front-end for the distance oracle
//!
//! `cc-oracle` turned the algorithms of *Fast Approximate Shortest Paths
//! in the Congested Clique* (PODC 2019) into a build-once / query-many
//! artifact; this crate puts that artifact on the network. A [`Server`]
//! takes a [`cc_oracle::DistanceOracle`] already in memory
//! ([`Server::start`]) or the versioned [`cc_oracle::serde`] snapshot
//! files a [`BackendSpec`] names ([`Server::start_from_spec`]) and serves
//! it over HTTP/1.1 on `std::net`.
//!
//! The entire data plane is written once against [`cc_oracle::Backend`]:
//! one hot-swappable [`Generation`] holds a backend — a monolithic oracle
//! or a [`cc_oracle::ShardRouter`] over a sharded artifact
//! (`docs/SHARDING.md`) — behind a [`cc_oracle::CachingOracle`], so
//! **every tier gets the same result cache** and no endpoint branches on
//! what it is serving. The contract is documented in `docs/BACKENDS.md`.
//!
//! What to serve is declared by a [`source::BackendSpec`] — a **manifest
//! file** (`--manifest set.toml`) naming the mode, artifact files,
//! expected set id (a startup gate against serving the wrong build), and
//! cache capacity.
//!
//! The stack is **observable end to end** via `cc-telemetry`: every
//! request lands in a lock-free per-endpoint latency histogram, the
//! worker pool publishes its queue depth, the cache its hit rate, and
//! reloads their durations — all in one process-wide
//! [`cc_telemetry::Registry`]. `GET /metrics` renders the registry in
//! Prometheus text exposition format and `GET /stats` renders **the same
//! snapshot** as JSON, so the two views can never disagree; an optional
//! [`cc_telemetry::AccessLog`] ([`ServerConfig::with_access_log`], or
//! `cc-serve --slow-query-ns`) emits JSON-lines request/slow-query
//! records. The metric catalog lives in `docs/OBSERVABILITY.md`.
//!
//! The artifact is **hot-swappable under traffic**: [`AppState::reload`],
//! behind `POST /reload` and `SIGHUP` to the `cc-serve` binary, loads +
//! validates a new snapshot off the request path and swaps one pointer to
//! it — in-flight queries finish on the old [`Generation`], a snapshot
//! that fails validation (bad magic/version/checksum, see
//! `docs/SNAPSHOT_FORMAT.md`) changes nothing, and both `/stats` and
//! `/artifact` report the active artifact's [`SnapshotInfo`] (build id,
//! source) plus the reload history. On every successful swap the hottest
//! keys of the outgoing cache are **replayed against the new artifact**
//! ([`Generation::warmed_from`]), so the hit rate survives the reload;
//! `/stats` reports the count as `warmed_keys`. A manifest server
//! re-reads its manifest on every bare `/reload`, so a rollout is "update
//! files + manifest, poke the endpoint", and the manifest last applied is
//! the one whose `set_id` pin gates `/reload?path=`. The operator's
//! handbook is `docs/OPERATIONS.md`.
//!
//! In router mode `/distance` and `/batch` run the monolith's kernel over
//! the two owning shards, **bit-identically to the monolithic oracle**,
//! `/reload?shard=i` rolls one slice at a time (sharing the rest), and
//! `/stats` reports per-shard build ids plus whether the set is uniform.
//! Startup passes the set through one gate (matching `n`/`k`/`ε`/
//! landmarks/set id, every shard in its declared slot; a rejection names
//! the file to fix), so a mixed or mis-slotted set never serves.
//!
//! The build image has no tokio/hyper, so the transport is deliberately
//! simple and fully owned, with two interchangeable front ends feeding one
//! **bounded worker thread-pool** ([`pool::WorkerPool`]) whose workers run
//! **one connection loop**: on Linux an **epoll reactor** (`cc-reactor`)
//! owns the listener plus all idle keep-alive connections and hands only
//! *ready* sockets to the pool — a worker lingers on a served connection
//! for a few milliseconds, then gives it back to be parked — so accepts
//! are event-driven and an idle connection costs no worker; the portable
//! fallback is a sleep-polling accept loop whose workers linger for the
//! whole read timeout, i.e. one worker pinned per connection.
//! [`Transport`] (default `Auto`) selects between them — `cc-serve
//! --transport poll` forces the fallback — and `/stats` reports the
//! resolved choice. Both shed load (`503`) when the queue is full and
//! shut down gracefully; the HTTP and handler layers cannot tell them
//! apart.
//!
//! `POST /batch` additionally speaks a **length-prefixed binary frame
//! format** (`Content-Type: application/x-cc-batch`, `cc_reactor::frame`):
//! `CCBQ` + pair count + little-endian `u32` id pairs in, `CCBR` + `u64`
//! distances (`u64::MAX` = unreachable) out — the same answers as the text
//! plane without parse/format overhead, and the frame `cc-shard`'s RPC
//! plane will reuse. `docs/OPERATIONS.md` specifies the wire bytes.
//!
//! **All request validation happens at the edge** via the oracle's fallible
//! `try_query` / `try_query_batch` API: a malformed or out-of-range request
//! is answered with `400` (or `413`/`404`/`405`), never by panicking the
//! serving process.
//!
//! # Endpoints
//!
//! | Route | Answer |
//! |---|---|
//! | `GET /distance?u=&v=` | one estimate: `{"u":0,"v":5,"distance":12,"connected":true}` |
//! | `POST /batch` | newline `u v` (or `u,v`) pairs → `{"count":n,"distances":[...]}`; binary frames with `Content-Type: application/x-cc-batch` |
//! | `POST /reload[?path=][&shard=]` | validate + atomically swap in a new snapshot (`400` keeps the old one serving); `path` is percent-decoded |
//! | `GET /stats` | request + cache + reload counters, active snapshot identity |
//! | `GET /metrics` | the same registry snapshot in Prometheus text exposition 0.0.4 |
//! | `GET /healthz` | liveness: `ok` |
//! | `GET /artifact` | `n`, `k`, `ε`, landmark count, `artifact_bytes`, `stretch_bound`, snapshot identity |
//!
//! Disconnected pairs serve `"distance": null` (binary plane: `u64::MAX`).
//! `HEAD` is answered like `GET` minus the body, with identical headers.
//!
//! # Quickstart
//!
//! ```text
//! $ cargo run --release -p cc-server --bin cc-serve -- --demo 256 --addr 127.0.0.1:8317
//! cc-serve listening on http://127.0.0.1:8317 (n=256, landmarks=28, 165 KiB)
//!
//! $ curl 'http://127.0.0.1:8317/distance?u=0&v=199'
//! {"u":0,"v":199,"distance":31,"connected":true}
//! $ printf '0 1\n17 200\n' | curl -s --data-binary @- 'http://127.0.0.1:8317/batch'
//! {"count":2,"distances":[12,29]}
//! $ curl 'http://127.0.0.1:8317/distance?u=0&v=10000'
//! {"error":"query (0, 10000) outside 0..256"}        # HTTP 400, no panic
//! $ curl 'http://127.0.0.1:8317/stats'
//! {"requests":3,...,"cache":{"hits":0,"misses":2,...}}
//! ```
//!
//! To serve a prebuilt artifact instead of building one, snapshot it
//! first (`--write-snapshot`), declare it in a manifest, and point the
//! server at that:
//!
//! ```text
//! $ cc-serve --demo 256 --write-snapshot /tmp/oracle.snap
//! $ printf 'mode = "mono"\nsnapshot = "oracle.snap"\n' > /tmp/set.toml
//! $ cc-serve --manifest /tmp/set.toml --addr 127.0.0.1:8317
//! ```
//!
//! # In-process example
//!
//! ```
//! use cc_server::{BlockingClient, Server, ServerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let oracle = cc_server::source::build_demo(32, 7, 0.25)?;
//! let expected = oracle.try_query(0, 31)?;
//! let handle = Server::start(&ServerConfig::default(), oracle)?;
//! let mut client = BlockingClient::connect(handle.addr())?;
//! let (status, body) = client.get("/distance?u=0&v=31")?;
//! assert_eq!(status, 200);
//! assert!(String::from_utf8(body)?.contains(&format!("{expected}")));
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! Unsafe code is forbidden in this library (`#![forbid(unsafe_code)]`);
//! the epoll syscalls live behind `cc-reactor`'s audited shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod config;
mod handlers;
pub mod http;
pub mod pool;
mod reactor;
mod reload;
mod server;
pub mod source;
mod state;

pub use cc_reactor::frame;
pub use client::BlockingClient;
pub use config::{ServerConfig, Transport};
pub use reload::{Generation, ReloadError, ReloadOutcome, ReloadTarget, SnapshotInfo, WARM_KEYS};
pub use server::{Server, ServerHandle};
pub use source::{BackendSpec, LoadedBackend};
pub use state::AppState;
