//! Rule `sentinel`: no literal `u64::MAX` / `u64::MAX - 1` comparisons
//! outside the canonical constants modules.
//!
//! The ∞ sentinel is defined exactly twice: `Dist::INF` in
//! `crates/matrix/src/elem.rs` and `MAX_FINITE_DISTANCE` in
//! `crates/oracle/src/oracle.rs`. Everywhere else, comparing against the
//! literal restates the encoding inline — which is how the PR 2 saturation
//! bug hid in plain sight: the clamp boundary and the sentinel were the
//! same magic number in two files. Compare against the named constants
//! (`Dist::INF.raw()`, `MAX_FINITE_DISTANCE`) or a locally-documented
//! `const` marker instead.

use super::{scan_tokens, Rule, CANONICAL_FILES};
use crate::findings::Finding;
use crate::graph::Workspace;

/// Operators that make an adjacent `u64::MAX` a comparison (match arms
/// count: `u64::MAX => ...` is a comparison in disguise).
const COMPARISONS: &[&str] = &["==", "!=", "<", "<=", ">", ">=", "=>"];

pub struct Sentinel;

impl Rule for Sentinel {
    fn name(&self) -> &'static str {
        "sentinel"
    }

    fn summary(&self) -> &'static str {
        "no literal u64::MAX comparisons outside the canonical constants modules"
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        scan_tokens(
            ws,
            self.name(),
            |path| !CANONICAL_FILES.contains(&path),
            |toks, i| {
                let is_max = toks[i].is_ident("u64")
                    && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
                    && toks.get(i + 2).is_some_and(|t| t.is_ident("MAX"));
                if !is_max {
                    return None;
                }
                // Extend over an optional `- 1` so `u64::MAX - 1 == x` is seen
                // as one literal.
                let mut end = i + 2;
                if toks.get(end + 1).is_some_and(|t| t.is_punct("-"))
                    && toks.get(end + 2).is_some_and(|t| t.text == "1")
                {
                    end += 2;
                }
                let before = i.checked_sub(1).and_then(|j| toks.get(j));
                let after = toks.get(end + 1);
                let compared = [before, after]
                    .into_iter()
                    .flatten()
                    .any(|t| COMPARISONS.contains(&t.text.as_str()));
                compared.then(|| {
                    "comparison against literal `u64::MAX` restates the infinity encoding inline; \
                 compare against `Dist::INF.raw()`, `MAX_FINITE_DISTANCE`, or a named local \
                 sentinel const"
                        .to_owned()
                })
            },
        )
    }
}
