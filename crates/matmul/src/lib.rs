//! # `cc-matmul`: sparse matrix multiplication in the Congested Clique
//!
//! The matrix-multiplication engine of *Fast Approximate Shortest Paths in
//! the Congested Clique* (PODC 2019), §2:
//!
//! * [`sparse_multiply`] — **Theorem 8**: output-sensitive sparse
//!   multiplication over any semiring in
//!   `O((ρS·ρT·ρ̂)^{1/3}/n^{2/3} + 1)` rounds;
//! * [`sparse_multiply_auto`] — the same without knowing the output density
//!   (doubling search, `O(log n)` overhead);
//! * [`filtered_multiply`] — **Theorem 14**: ρ-filtered multiplication,
//!   keeping only the `ρ` smallest entries per output row, in
//!   `O((ρS·ρT·ρ)^{1/3}/n^{2/3} + log W)` rounds;
//! * [`dense_multiply`] — the classical 3D dense algorithm
//!   (`O(n^{1/3})` rounds for dense inputs), used as the baseline the paper
//!   compares against conceptually.
//!
//! All three are one pipeline, written once (`pipeline.rs`); a
//! multiplication is a *plan* that says which of its steps run and with what:
//!
//! | step | licensed by | Theorem 8 | Theorem 14 | dense | phase label |
//! |------|-------------|-----------|------------|-------|-------------|
//! | prepare operands | §2.1 | unless prepared; a right operand handed over by rows only if the pipeline runs or its row counts cannot choose | same | — | `counts`, `transpose` |
//! | owner product, if it fits (then no later step runs) | Lenzen routing | yes; one rule asked after each fact, load words only where the counts straddle the floor; routes whole rows of `T` | same, then the final row filter | — | `owner/loads`, `owner/route` |
//! | cube partition | Lemma 9 | for `ρ̂`, free if `c = 1` | for `ρ`, free if `c = 1` | uniform, free | `cube/*` |
//! | `σ1` delivery | Lemmas 10 + 11, balancing only the sides whose balance pays | yes | yes | yes, plus a count broadcast per side | `deliver_s/balance/sort`, `deliver_t/balance/sort`, `deliver/{balance,fanout}/route`; dense: `deliver_{s,t}/counts` |
//! | local products | free | yes | yes | yes | — |
//! | thinning | Lemma 15 | — | per-row cutoffs if `2ρ < n` | — | `cutoff_search` |
//! | helper assignment | Lemma 12 / 16 | one pool `0..n`, chunk `ρ̂·c` | if `2ρ < n` a pool per group `B_ik`, chunk `ρ·α_i·c`; else Lemma 12's at `ρ̂ = n` | — | `sizes` (Theorem 8; Theorem 14 if `2ρ ≥ n`) / `weights` |
//! | `σ2` delivery | Lemmas 10 + 11, both sides balanced | if the split lowers the summation's `⌈load/n⌉` | same | — | as `σ1` delivery |
//! | responsibility split | Lemma 12, step 3 | with the `σ2` delivery | same | — | — |
//! | summation | Lemma 13 | yes | yes | yes | `sum/sort`, `sum/route` |
//! | final row filter | Theorem 14 | — | yes | — | — |
//!
//! Before the cube, a product may skip the pipeline: if the row owners can
//! compute it cheaper, node `u` sends row `u` of `T` to every `v` with
//! `S[v,u] ≠ 0` in one route and node `v` multiplies its row locally — the
//! same exact product, so the same output. The owner product runs only when
//! its route charges no more rounds than a floor the pipeline cannot go
//! below: the cube's broadcasts, the `σ1` delivery as the plan below places
//! it, the helper sizes broadcast, and one summation sort and route. Each
//! node's route load is the larger of what it would send and receive, and
//! what the nodes know of the largest is an interval: the broadcast counts
//! — `S`'s row and column counts and `T`'s row counts, which ride in the
//! counts word beside `T`'s column counts — bound it on both sides, and one
//! load word a node pins it. One rule decides from the interval: the owners
//! if the route at its most fits under the floor, the pipeline if the route
//! at its least exceeds it and both operands' per-node counts are known,
//! else the nodes learn the next fact; the summation term counts toward the
//! first floor only if it surely runs and toward the second unless it
//! surely does not. Only a product the counts straddle broadcasts the load
//! words, and those always settle it. A right operand handed over by rows
//! ([`Operand::from_opposite`]: source detection's frontier) reaches the
//! owner route without its columns, which the route does not read; it is
//! transposed, and its column counts broadcast, only if the pipeline runs
//! or the floor needs them to decide.
//! Products that do not fit — a dense square, the hopset's k-nearest
//! squarings — run the pipeline unchanged.
//!
//! The route always sends whole rows of `T`. Theorem 19's hop steps keep
//! it short by what they hand over: not the iterate `U_i` but its frontier
//! `Δ_i`, the entries the last step changed, which they multiply by one
//! prepared `W` and fold into `U_i` locally (`cc_distance`'s source
//! detection). So the choice's counts, the route and, where the pipeline
//! runs, its cube all see the frontier.
//!
//! Lemma 12's helpers (and Lemma 16's) pay only where they lower the
//! summation's largest load: every node is already a subtask node, so a
//! helper's part lands beside a whole product of its own. After the sizes
//! broadcast and the helper assignment, every node computes the largest
//! load with the responsibility split and without it; the `σ2` delivery
//! and the split run only if the split lowers `⌈load/n⌉`, and otherwise
//! each subtask node sums its whole product, at no more rounds. The
//! assignment still runs, so a hint too small is reported as before.
//!
//! A Theorem 14 product with `2ρ ≥ n` runs the pipeline without Lemma 15:
//! thinning cannot halve a row there, so the search's `log W` rounds buy
//! little. Its slices are summed whole, balanced by Lemma 12 at `ρ̂ = n`,
//! which no output exceeds, and the final filter alone thins; the cube
//! stays Theorem 14's, shaped for `ρ`. Every node knows `ρ` and `n`, so the
//! choice costs no message, and the output is the same.
//!
//! A `σ1` delivery first decides which operands Lemma 10 balances. Under
//! `σ1` every entry of `S` goes to `a` nodes and every entry of `T` to `b`,
//! so the broadcast slice sizes tell every node what each side's fan-out
//! would send from the input layout and from a balanced one. The plan
//! predicts each choice's sort, deal and fan-out-send rounds and takes the
//! cheapest, balancing less on a tie; the fan-out's receive load is the same
//! for every choice, so the plan never costs more than balancing both sides.
//! A balanced side sorts on its own, laid out by the operand's total entry
//! count, and then both sides move together: the Lemma 10 deals share the
//! rounds of one route, skipped when nothing is dealt, and the two Lemma 11
//! fan-outs those of another ([`cc_clique::Clique::route_together`]). A
//! side that is not balanced fans out from where it is held, and a side
//! whose balanced `σ1` placement an earlier delivery kept reuses it. A `σ2`
//! delivery balances both sides, as only an entry's holder knows its weight.
//! Nothing the nodes already know is sent again: a prepared operand's
//! counts come from the broadcast made when it was prepared (only the dense
//! baseline's unprepared operands broadcast theirs in the delivery); each
//! member of a Lemma 9 group broadcasts one word, the end of its middle
//! range, and every node rebuilds the ranges from those ends; and a cube
//! with `c = 1` has the one middle range `0..n`, so it sends nothing. The
//! summation is one pass: one sort of every node's whole list of
//! intermediate values and one route to the row owners.
//!
//! [`sparse_multiply`] and [`filtered_multiply`] take the paper's input
//! layout and have the pipeline prepare both operands. A caller that holds
//! more hands [`Operand`]s — broadcast counts, the layouts the nodes hold,
//! and the `σ1` placement of Lemma 10 once a delivery balanced it — to
//! [`sparse_multiply_prepared`] / [`filtered_multiply_prepared`], built in
//! one of three shapes:
//!
//! * [`Operand::prepare`], either side: a matrix multiplied by again, such
//!   as Theorem 19's `W`, prepared once (one transpose, one counts
//!   broadcast);
//! * [`Operand::from_opposite`]: a right operand held by rows with their
//!   broadcast counts, such as the frontier `Δ_i` of Theorem 19's iterate;
//! * [`Operand::prepare_square`]: both operands of `X ⋆ X`, such as Theorem
//!   18's squarings, from one transpose and one counts broadcast.
//!
//! Every prepared operand knows the slice sizes of both its layouts, so the
//! owner product's choice always starts from the counts.
//!
//! All algorithms run on the [`cc_clique::Clique`] simulator and account
//! every word they move; differential tests check them against
//! [`cc_matrix::SparseMatrix::multiply`].
//!
//! Local computation is free in the model but not on the host, so the
//! per-node kernels are written to touch each entry once: a subtask's block
//! product is a **sparse-accumulator (Gustavson) product** — `T` indexed by
//! the contraction dimension, one dense accumulator row as wide as the
//! block's column span, the touched columns sorted once per output row —
//! whose scratch buffers are shared by all the products of one
//! multiplication; fan-out targets are written into one reused buffer and
//! read from a column → middle-block table built with the cube partition;
//! the Lemma 15 search keeps its per-row state in vectors indexed by the
//! row's slot in its row block. None of it changes a simulated message.
//!
//! Unsafe code is forbidden (`#![forbid(unsafe_code)]`), as across the
//! whole workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Distributed algorithms index many parallel per-node vectors by NodeId;
// iterator zips would obscure which node each access belongs to.
#![allow(clippy::needless_range_loop)]

mod cube;
mod deliver;
mod dense_mm;
mod error;
mod filtered_mm;
mod key_index;
mod keyed;
pub mod layout;
mod operand;
pub mod partition;
mod pipeline;
mod sparse_mm;
mod sum;

pub use dense_mm::dense_multiply;
pub use error::MatmulError;
pub use filtered_mm::{filtered_multiply, filtered_multiply_prepared};
pub use operand::{Operand, Side};
#[doc(hidden)]
pub use pipeline::{audit, ProductAudit};
pub use sparse_mm::{sparse_multiply, sparse_multiply_auto, sparse_multiply_prepared, AutoProduct};
