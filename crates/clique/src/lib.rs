//! # `cc-clique`: a message-accurate Congested Clique simulator
//!
//! The **Congested Clique** is a synchronous distributed model: `n` nodes,
//! every pair connected, and in each round every node may send one message of
//! `O(log n)` bits over each of its `n - 1` links (and receives accordingly).
//! Local computation is free.
//!
//! This crate provides the substrate on which the rest of the workspace runs
//! the algorithms of *Fast Approximate Shortest Paths in the Congested
//! Clique* (PODC 2019). Algorithms keep per-node state in ordinary `Vec`s and
//! move information between nodes **only** through the primitives of
//! [`Clique`]:
//!
//! * [`Clique::route`] — Lenzen's routing: any message pattern in which every
//!   node sends at most `n` words and receives at most `n` words is delivered
//!   in `O(1)` rounds; larger patterns are charged proportionally
//!   (`ceil(load/n)` round-units).
//! * [`Clique::route_together`] — independent message patterns in shared
//!   rounds: Lenzen's routing of their union, charged once on the per-node
//!   loads summed over the batches (not a sum of per-batch ceilings), with
//!   each batch's inboxes returned apart. [`Clique::route`] is its one-batch
//!   case.
//! * [`Clique::all_broadcast`] — all-to-all broadcast of `O(1)` words per
//!   node per round.
//! * [`Clique::sort`] — Lenzen's sorting: `≤ n` words per node are globally
//!   sorted in `O(1)` rounds, with node `i` receiving the `i`-th batch;
//!   `L > n` words per node are charged `ceil(L/n)`.
//! * [`Clique::charge`] — explicit round charge for a primitive whose cost is
//!   cited from the literature (Lemma 4 hitting sets where `k > 2·ln n` —
//!   below that the set is every node and nothing is charged — the spanner
//!   baseline's construction, diameter's `N_k(w)` announcement).
//!
//! Every primitive *physically moves the data* (so algorithms cannot cheat),
//! *validates* the model's bandwidth constraints, and *accounts* rounds (by
//! the [`CostModel`]'s rules), messages and words into a [`RoundReport`].
//!
//! # Example
//!
//! ```
//! use cc_clique::{Clique, Envelope};
//!
//! # fn main() -> Result<(), cc_clique::CliqueError> {
//! let mut clique = Clique::new(4);
//! // Every node sends its id squared to node 0.
//! let msgs = (0..4).map(|v| Envelope::new(v, 0, (v * v) as u64)).collect();
//! let inboxes = clique.route(msgs)?;
//! assert_eq!(inboxes[0].len(), 4);
//! assert_eq!(clique.metrics().rounds, 1);
//! # Ok(())
//! # }
//! ```
//!
//! # Host cost
//!
//! Rounds are what the model charges; *host* time is what running the
//! simulation costs, and every reproduced claim is a long loop over these
//! primitives. Each one is `O(messages)` host time and touches a message
//! once:
//!
//! * [`Clique::route_together`] (and so [`Clique::route`]) makes **one
//!   pass** over the batches that validates both endpoints, sums the
//!   per-node send/receive loads, counts each inbox and notices whether each
//!   batch already is in `src` order; then one pass per batch that moves
//!   every envelope into an inbox allocated at its exact final capacity (an
//!   inbox never grows, an empty one is never allocated). Delivery order is
//!   `(src, insertion)`: a batch whose sources are non-decreasing — how
//!   callers emit almost always, looping over nodes — is delivered as is,
//!   and only an out-of-order batch pays one stable comparison sort by
//!   `src`. An invalid endpoint anywhere in any batch returns the error
//!   before any metric is touched. Per call it allocates two `n`-sized load
//!   vectors, one `n`-sized count vector per batch and the non-empty
//!   inboxes, nothing per message.
//! * [`Clique::sort`] measures the loads in one pass, moves all items into
//!   one buffer reserved at the total, runs the one (stable) comparison sort
//!   the primitive is for — `O(m log m)`, linear on pre-sorted input — and
//!   cuts the result into `n` runs, each allocated at its exact length.
//! * [`Clique::all_broadcast`] only measures and hands the payload back:
//!   no copy, no allocation.
//! * Recording a primitive into the [`RoundReport`] allocates nothing: the
//!   joined phase prefix is kept incrementally by [`Clique::with_phase`]
//!   (push on entry, truncate on exit), the leaf is appended in place for
//!   the lookup, and a label is copied only the first time it is seen.
//!
//! None of this is observable in [`RoundReport`]: `tests/golden_rounds.rs`
//! pins rounds, messages, words and every phase of two full algorithm runs.
//!
//! Unsafe code is forbidden (`#![forbid(unsafe_code)]`), as across the
//! whole workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod error;
mod metrics;
mod payload;
mod sim;

pub use cost::CostModel;
pub use error::CliqueError;
pub use metrics::{PhaseStats, RoundReport};
pub use payload::Payload;
pub use sim::{Clique, Envelope};

/// Identifier of a node in the clique, in `0..n`.
pub type NodeId = usize;

/// Convenience alias for results returned by simulator primitives.
pub type Result<T> = std::result::Result<T, CliqueError>;
