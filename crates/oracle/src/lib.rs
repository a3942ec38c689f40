//! # `cc-oracle`: a build-once / query-many distance oracle
//!
//! The rest of the workspace *computes* the approximations of *Fast
//! Approximate Shortest Paths in the Congested Clique* (PODC 2019); this
//! crate *serves* them. It separates the expensive distributed **build
//! phase** from a cheap, purely local **query phase**:
//!
//! * [`OracleBuilder`] runs once in the clique. It combines the paper's own
//!   substrates — `k`-nearest balls (Theorem 18), a hitting-set landmark
//!   selection (Lemma 4), and MSSP distance columns from the landmark set
//!   (Theorem 3) — into an immutable [`DistanceOracle`] artifact. This is a
//!   Thorup–Zwick-style sketch: per-node exact balls plus approximate
//!   landmark columns. The artifact has **one definition**,
//!   [`ArtifactSlice`] — the rows of a contiguous node range plus the
//!   landmark list and the column matrix every slice needs whole (behind
//!   an `Arc`, so a shard set shares one allocation), held as flat sections
//!   (balls in CSR form) that are also the snapshot's layout: a
//!   [`DistanceOracle`] is the `0..n` slice, an [`OracleShard`] any other
//!   slot, both come out of one validating constructor, and both are
//!   written and read by one codec ([`serde`]).
//! * [`DirectBuilder`] computes the **same artifact without the clique**:
//!   plain (optionally multithreaded) graph algorithms over the same
//!   schedules, byte-identical to the clique build by construction and
//!   proven so by the differential suite (`tests/build_equivalence.rs`).
//!   Its capped mode (`max_landmarks`) trades the identity contract for
//!   `10⁵`–`10⁶`-node artifacts. See `docs/BUILDERS.md`.
//! * [`DistanceOracle::try_query`] answers `d(u, v)` with **zero clique
//!   rounds**: exact when one endpoint lies in the other's ball, and
//!   otherwise (routing through the nearest landmark) within the
//!   [`stretch_bound`](ArtifactSlice::stretch_bound) the artifact certifies
//!   from its rows — at most `3+2ε` for a faithful build.
//!   Queries take `O(log k)` time, need only `&self`, and are lock-free
//!   (see *Query contract* below).
//! * [`DistanceOracle::try_query_batch`] answers a batch serially on the
//!   calling thread — a serving worker is already one of a pool. A caller
//!   that wants fan-out wraps `pairs.chunks(..)` in its own
//!   `std::thread::scope`.
//! * [`Backend`] is the closed set of serving shapes — `Mono` (a
//!   [`DistanceOracle`]) or `Router` (a [`ShardRouter`]) — with one query
//!   contract, so a serving layer holds one value and still reaches the
//!   router's slices. See `docs/BACKENDS.md`.
//! * [`CachingOracle`] adds a bounded, lock-free, set-associative result
//!   cache — over either [`Backend`] variant — with hit/miss counters for
//!   repeated-query traffic and a warm-up API
//!   ([`CachingOracle::hottest_keys`] / [`CachingOracle::warm`]) so a hot
//!   reload does not restart from a cold cache.
//! * [`serde::to_bytes`] / [`serde::from_bytes`] snapshot a built oracle so
//!   a serving process (like `cc-serve`, which hot-swaps them under
//!   traffic) can load it without re-running the clique. Snapshots are
//!   **versioned and self-describing**: an 80-byte header carries the
//!   format version, graph size, `ε`, landmark count, build metadata and a
//!   payload checksum ([`serde::SnapshotHeader`]), so a stale or corrupt
//!   artifact is rejected ([`OracleError::SnapshotVersionMismatch`],
//!   [`OracleError::SnapshotChecksumMismatch`]) instead of silently
//!   served; the payload is the artifact's own sections written out whole,
//!   so a load is a checksum pass and one bulk copy per section. The byte
//!   layout is specified in `docs/SNAPSHOT_FORMAT.md`.
//! * [`shard::ShardedArtifact`] partitions a built oracle by contiguous
//!   node range — per-shard balls and nearest-landmark rows, one shared
//!   landmark column matrix — and [`shard::ShardRouter`] answers queries
//!   over the set **bit-identically to the monolith** by running the
//!   monolith's kernel over the two shards owning the endpoints
//!   ([`shard::HalfQuery`] + [`shard::combine`] give the same answer for a
//!   router that cannot read both slices). Per-shard snapshots
//!   ([`serde::to_shard_bytes`]) are the same file plus a [`ShardSlot`] —
//!   shard index/count and a shared set id — so a router tier (a
//!   sharded-manifest `cc-serve`) can load, verify, and hot-swap each
//!   slice independently. See `docs/SHARDING.md`.
//!
//! # Stretch guarantee
//!
//! For connected `u, v` the returned estimate `est` always satisfies
//! `d(u, v) ≤ est`, and:
//!
//! * `est = d(u, v)` exactly, if `v ∈ B_k(u)` or `u ∈ B_k(v)` (the balls
//!   store exact distances);
//! * `est ≤ stretch_bound()·d(u, v)` otherwise: with `p(u)` the nearest
//!   landmark of `u` and `d̃` the `(1+ε)` MSSP column, the estimate
//!   `d(u, p(u)) + d̃(p(u), v)` is at most `(1+ε)·d(u, v) + (2+ε)·d(u, p(u))`,
//!   and `v ∉ B_k(u)` puts `d(u, v) ≥ r(u)`, the ball's radius. So the
//!   artifact certifies `max_u [(1+ε) + (2+ε)·d(u, p(u))/r(u)]`, computed
//!   when it is built or loaded, capped builds included. In a faithful
//!   build `p(u)` lies inside `B_k(u)` by the hitting-set property, so
//!   `d(u, p(u)) ≤ r(u)` and the bound is at most `3+2ε ≤ 3(1+ε)`.
//!
//! Disconnected pairs report [`cc_matrix::Dist::INF`]. A connected pair is
//! **never** reported as infinite: a landmark-path sum that would reach or
//! overflow the `u64::MAX` sentinel is clamped to [`MAX_FINITE_DISTANCE`]
//! (`u64::MAX - 1`), trading an (astronomically large) exact value for a
//! correct reachability verdict.
//!
//! # Query contract: fallible-first
//!
//! The query contract is **fallible-first**, shared by every serving
//! shape:
//!
//! * [`DistanceOracle::try_query`] / [`DistanceOracle::try_query_batch`]
//!   (and the same pair on [`Backend`], [`CachingOracle`] and
//!   [`ShardRouter`]) return `Result<_, OracleError>`: an endpoint outside
//!   `0..n` is [`OracleError::QueryOutOfRange`]. **Network front-ends must use
//!   these** — validation happens at the edge, and a malformed request
//!   becomes a client error instead of a crashed (or lock-poisoned)
//!   serving process. This is what `cc-serve` does. (The panicking
//!   `query` / `query_batch` wrappers served their one-release
//!   deprecation window and are gone.)
//!
//! # Build observability
//!
//! [`OracleBuilder::build_traced`] and [`DirectBuilder::build_traced`]
//! additionally return a [`cc_telemetry::BuildTrace`] with one span per
//! construction phase (k-nearest balls, hitting-set landmarks, MSSP
//! columns, extraction) carrying the phase's simulated clique rounds, wall
//! time, and message volume — the numbers `cc-serve --demo` logs at
//! startup and the benchmark ledger reports per phase as
//! `oracle.clique_build.*_us` / `oracle.direct_build.*_us`. Partitioning
//! into shards is one local copy per slice and is not traced.
//!
//! # Example
//!
//! ```
//! use cc_clique::Clique;
//! use cc_graph::generators;
//! use cc_oracle::OracleBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 64;
//! let g = generators::gnp_weighted(n, 0.1, 20, 7)?;
//! let mut clique = Clique::new(n);
//!
//! // Build once in the clique...
//! let oracle = OracleBuilder::new().epsilon(0.25).seed(42).build(&mut clique, &g)?;
//! println!("build cost: {} rounds", oracle.build_rounds());
//!
//! // ...then query for free, forever.
//! let exact = cc_graph::reference::dijkstra(&g, 0)[n - 1].unwrap();
//! let est = oracle.try_query(0, n - 1)?.value().unwrap();
//! assert!(est >= exact);
//! assert!(est as f64 <= oracle.stretch_bound() * exact as f64);
//!
//! // Snapshot and reload without touching the clique again.
//! let bytes = cc_oracle::serde::to_bytes(&oracle);
//! let reloaded = cc_oracle::serde::from_bytes(&bytes)?;
//! assert_eq!(oracle, reloaded);
//! # Ok(())
//! # }
//! ```
//!
//! Unsafe code is forbidden (`#![forbid(unsafe_code)]`), as across the
//! whole workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Distributed extraction indexes many parallel per-node vectors by node id;
// iterator zips would obscure which node each access belongs to.
#![allow(clippy::needless_range_loop)]

pub mod backend;
mod builder;
mod cache;
pub mod direct;
mod error;
mod oracle;
pub mod serde;
pub mod shard;
#[doc(hidden)]
pub mod testkit;

pub use backend::{Backend, BackendDescriptor, ShardDescriptor};
pub use builder::OracleBuilder;
pub use cache::{CacheStats, CachingOracle};
pub use direct::DirectBuilder;
pub use error::OracleError;
pub use oracle::{ArtifactSlice, DistanceOracle, MAX_FINITE_DISTANCE};
pub use shard::{OracleShard, ShardPlan, ShardRouter, ShardSlot, ShardedArtifact};
