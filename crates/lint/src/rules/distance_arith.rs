//! Rule `distance_arith`: distance arithmetic in the distance kernels goes
//! through one of two rules. A path is extended in the semiring
//! (`Dist::checked_add`, `AugDist::combine`), where a length that does not
//! fit a word is no path; a serving estimate is summed with `checked_add`
//! and clamped to `MAX_FINITE_DISTANCE`, so it never turns a connected pair
//! into ∞.
//!
//! Originating bug (PR 2): `to_landmark.saturating_add(col)` saturated two
//! near-`u64::MAX` finite distances to exactly `u64::MAX` — the ∞ sentinel —
//! so connected pairs were reported unreachable. `saturating_add`,
//! `wrapping_add`, and bare `+` on distance-typed operands are all banned in
//! the kernels.

use super::{
    next_operand_ident, prev_operand_ident, scan_tokens, segment_match, Rule, KERNEL_FILES,
};
use crate::findings::Finding;
use crate::graph::Workspace;

/// Identifier segments that mark an operand as distance-typed.
const DISTANCE_SEGMENTS: &[&str] = &[
    "dist",
    "distance",
    "distances",
    "weight",
    "weights",
    "landmark",
    "col",
    "via",
    "best",
    "d",
    "w",
];

/// The two rules a finding points to.
const ADVICE: &str = "extend a path with the semiring's `Dist::checked_add` / \
     `AugDist::combine` (a length that overflows is no path), or sum a serving estimate with \
     `checked_add` and clamp it to `MAX_FINITE_DISTANCE` (it stays finite)";

pub struct DistanceArith;

impl Rule for DistanceArith {
    fn name(&self) -> &'static str {
        "distance_arith"
    }

    fn summary(&self) -> &'static str {
        "no saturating/wrapping/bare `+` on distances in the distance kernels; extend a path with the semiring's checked_add/combine, or clamp an estimate to MAX_FINITE_DISTANCE"
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        scan_tokens(
            ws,
            self.name(),
            |path| KERNEL_FILES.contains(&path),
            |toks, i| {
                let tok = &toks[i];
                let method_banned = (tok.is_ident("saturating_add")
                    || tok.is_ident("wrapping_add"))
                    && i > 0
                    && toks[i - 1].is_punct(".");
                if method_banned {
                    return Some(format!(
                        "`{}` on a distance saturates into the `u64::MAX` infinity sentinel \
                     (the originating bug); {ADVICE}",
                        tok.text
                    ));
                }
                if !(tok.is_punct("+") || tok.is_punct("+=")) {
                    return None;
                }
                let lhs = (i > 0).then(|| prev_operand_ident(toks, i - 1)).flatten();
                let rhs = next_operand_ident(toks, i + 1);
                let name = [lhs, rhs]
                    .into_iter()
                    .flatten()
                    .find(|n| segment_match(n, DISTANCE_SEGMENTS))?;
                Some(format!(
                    "bare `{}` on distance-typed operand `{name}` can overflow into the infinity \
                 sentinel; {ADVICE}",
                    tok.text
                ))
            },
        )
    }
}
