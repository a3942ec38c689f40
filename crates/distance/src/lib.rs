//! # `cc-distance`: the paper's distance tools (§3) and hitting sets
//!
//! Built on the sparse/filtered matrix multiplication of [`cc_matmul`],
//! this crate implements the output-sensitive distance primitives that all
//! shortest-path algorithms of *Fast Approximate Shortest Paths in the
//! Congested Clique* (PODC 2019) compose:
//!
//! * [`k_nearest`] — **Theorem 18**: every node learns its `k` nearest
//!   nodes with exact distances, in `O((k/n^{2/3} + log n)·log k)` rounds,
//!   by iterated ρ-filtered squaring of the augmented weight matrix;
//! * [`source_detection_k`] / [`source_detection_all`] — **Theorem 19**:
//!   the `(S, d, k)`-source detection problem (distances to the nearest
//!   sources within `d` hops), the hop-bounded engine behind hopset-based
//!   approximation;
//! * [`distance_through_sets`] — **Theorem 20**: combine per-node distance
//!   sets `{δ(v, w)}_{w ∈ W_v}` into `min_w δ(v,w) + δ(w,u)` estimates via
//!   one sparse product;
//! * [`hitting_set`] — **Lemma 4**: deterministic-given-seed hitting sets of
//!   size `O(n log n / k)` with guaranteed coverage (pseudorandom sampling
//!   plus a one-round repair step; the round cost `O((log log n)³)` of the
//!   cited construction \[PY18\] is charged explicitly where `k > 2·ln n`,
//!   as [`hitting_set`] states; where `k ≤ 2·ln n` the set is `V`, known
//!   from `n` and `k`, and costs nothing). [`hitting_set_of`] and the
//!   clique-free kernel [`hitting_set_local`] read each node's set in place
//!   through a closure, so `k`-nearest rows are hit without a copy.
//!
//! The tools that repeat a product stop when the iterate stops changing,
//! after at most the theorem's number of products. `k_nearest`'s squarings
//! run through [`fixpoint::iterate_to_fixpoint`], which detects termination
//! itself: before each later step every node broadcasts whether the last
//! one changed its part, and the loop ends once no node did. Source
//! detection's hops are semi-naive — each multiplies only the entries the
//! last one changed — and stop once the counts of those show none.
//!
//! The tools take arcs: [`k_nearest`] and both source detections accept a
//! [`cc_graph::DiGraph`] with non-negative integer weights, as the paper
//! states them (§3). An undirected [`cc_graph::Graph`] derefs to its own
//! symmetric arcs, so the hopset-based algorithms pass their `&Graph`
//! unchanged.
//!
//! Unsafe code is forbidden (`#![forbid(unsafe_code)]`), as across the
//! whole workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Distributed algorithms index many parallel per-node vectors by NodeId;
// iterator zips would obscure which node each access belongs to.
#![allow(clippy::needless_range_loop)]

mod error;
#[cfg(test)]
mod fixed_count;
pub mod fixpoint;
mod hitting;
mod knearest;
mod source_detection;
mod through_sets;
mod witness;

pub use error::{check_epsilon, check_size, DistanceError};
pub use hitting::{hitting_set, hitting_set_local, hitting_set_of, HittingSet};
pub use knearest::k_nearest;
pub use source_detection::{source_detection_all, source_detection_k};
pub use through_sets::distance_through_sets;
pub use witness::product_with_witnesses;
