//! # Congested Clique shortest paths
//!
//! Facade crate re-exporting the full reproduction of *Fast Approximate
//! Shortest Paths in the Congested Clique* (Censor-Hillel, Dory, Korhonen,
//! Leitersdorf; PODC 2019, arXiv:1903.05956).
//!
//! The workspace implements, from scratch:
//!
//! * a message-accurate **Congested Clique simulator** ([`clique`]),
//! * **semirings and sparse matrices** ([`matrix`]),
//! * **output-sensitive sparse matrix multiplication** (Theorem 8) and
//!   **filtered multiplication** (Theorem 14) ([`matmul`]),
//! * the paper's **distance tools**: `k`-nearest, source detection, distance
//!   through sets, hitting sets ([`distance`]),
//! * deterministic **hopsets** (Theorem 25) ([`hopset`]),
//! * and the headline algorithms: **MSSP** (Theorem 3), three **APSP**
//!   approximations (Theorems 28, 31 and the `(3+eps)` variant), **exact
//!   SSSP** (Theorem 33), **diameter approximation**, witnessed products
//!   with **shortest-path reconstruction** (§3.1), and the Bellman-Ford /
//!   dense-squaring / spanner baselines ([`core`]),
//! * a **build-once / query-many distance oracle** on top of the paper's
//!   substrates ([`oracle`]): one distributed build extracts a purely local
//!   Thorup–Zwick-style artifact that then serves distance queries with
//!   zero clique rounds,
//! * **`cc-serve`**, an HTTP/1.1 network front-end over that oracle
//!   ([`serve`]): snapshot loading, a bounded worker pool on `std::net`,
//!   and request validation at the edge via the oracle's fallible
//!   `try_query` API (malformed requests are `400`s, never panics).
//!
//! # Quickstart: one-shot computation
//!
//! ```
//! use congested_clique::clique::Clique;
//! use congested_clique::core::apsp;
//! use congested_clique::graph::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::gnp(32, 0.15, 7)?;
//! let mut clique = Clique::new(32);
//! let run = apsp::unweighted_2eps(&mut clique, &g, 0.5)?;
//! println!("rounds used: {}", run.rounds);
//! # Ok(())
//! # }
//! ```
//!
//! # Quickstart: build once, query many
//!
//! Re-running an `O(log² n/ε)`-round algorithm per distance request is
//! exactly backwards for serving workloads. The [`oracle`] subsystem splits
//! the cost: the **build phase** pays the distributed rounds once, the
//! **query phase** is local, lock-free and `O(log k)` per request (exact
//! inside each node's `k`-nearest ball, and via the nearest landmark
//! otherwise within the `stretch_bound()` the artifact certifies from its
//! rows, at most `3+2ε ≤ 3(1+ε)` for a clique build).
//!
//! ```
//! use congested_clique::clique::Clique;
//! use congested_clique::graph::generators;
//! use congested_clique::oracle::OracleBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::gnp(32, 0.15, 7)?;
//! let mut clique = Clique::new(32);
//! let oracle = OracleBuilder::new().epsilon(0.25).build(&mut clique, &g)?;
//! // The clique is done; queries cost zero rounds from here on.
//! let d = oracle.try_query(0, 31)?;
//! let snapshot = congested_clique::oracle::serde::to_bytes(&oracle);
//! let reloaded = congested_clique::oracle::serde::from_bytes(&snapshot)?;
//! assert_eq!(reloaded.try_query(0, 31)?, d);
//! # Ok(())
//! # }
//! ```
//!
//! Unsafe code is forbidden (`#![forbid(unsafe_code)]`) here and in every
//! algorithmic crate; the one exception in the workspace is `cc-reactor`'s
//! confined, individually-annotated `epoll`/`eventfd` syscall shim (and the
//! matching SIGHUP hook in the `cc-serve` binary), which the serving tier's
//! event-driven transport is built on.

#![forbid(unsafe_code)]

pub use cc_clique as clique;
pub use cc_core as core;
pub use cc_distance as distance;
pub use cc_graph as graph;
pub use cc_hopset as hopset;
pub use cc_matmul as matmul;
pub use cc_matrix as matrix;
pub use cc_oracle as oracle;
pub use cc_server as serve;
