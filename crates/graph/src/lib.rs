//! # `cc-graph`: graphs, workload generators and sequential references
//!
//! Support crate for the Congested Clique shortest-paths reproduction:
//!
//! * [`DiGraph`] — the one adjacency store, non-negative integer arc
//!   weights, plus the weight matrices the distributed algorithms consume;
//!   the §3 distance tools and every [`mod@reference`] function take arcs;
//! * [`Graph`] — undirected graphs (the paper's input class, §1.5), which
//!   deref to their symmetric `DiGraph` of two arcs per edge. The
//!   hopset-based algorithms take a `Graph`: the type enforces undirectedness;
//! * [`generators`] — deterministic, seeded workload generators covering the
//!   regimes that drive the paper's case analyses (dense/sparse, low/high
//!   diameter, high-degree vs. low-degree shortest paths);
//! * [`mod@reference`] — sequential ground truth (Dijkstra, BFS, hop-bounded
//!   distances, exact diameter, shortest-path diameter) that every
//!   distributed algorithm is differentially tested against.
//!
//! # Example
//!
//! ```
//! use cc_graph::{generators, reference};
//!
//! # fn main() -> Result<(), cc_graph::GraphError> {
//! let g = generators::grid(4, 4)?;
//! let dist = reference::dijkstra(&g, 0);
//! assert_eq!(dist[15], Some(6)); // corner to corner of a 4x4 grid
//! # Ok(())
//! # }
//! ```
//!
//! Unsafe code is forbidden (`#![forbid(unsafe_code)]`), as across the
//! whole workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Distributed algorithms index many parallel per-node vectors by NodeId;
// iterator zips would obscure which node each access belongs to.
#![allow(clippy::needless_range_loop)]

mod digraph;
mod error;
#[allow(clippy::module_inception)]
mod graph;

pub mod generators;
pub mod reference;

pub use digraph::{gnp_directed, DiGraph};
pub use error::GraphError;
pub use graph::Graph;
