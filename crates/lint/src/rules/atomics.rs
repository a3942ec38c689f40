//! Rule `atomics_ordering`: control-flow atomics don't get `Relaxed`.
//!
//! Originating bug (PR 6): the pool's queue-depth gauge was incremented
//! *after* `try_send`, so a worker could decrement first and a scrape read
//! −1. The fix reordered the operations — but the reason the race was easy
//! to write is that `Relaxed` on a control-flow-ish atomic (a depth, a
//! shutdown flag, a "done" latch) *looks* fine locally. This rule flags
//! `Ordering::Relaxed` whenever the atomic's name matches a control-flow /
//! depth / shutdown pattern; plain counters (hits, misses, bytes) stay
//! unflagged.

use super::{receiver_key, scan_tokens, segment_match, Rule};
use crate::findings::Finding;
use crate::graph::Workspace;
use crate::lexer::TokenKind;

/// Atomic methods that take an `Ordering` argument.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Name segments that mark an atomic as control-flow-bearing.
const CONTROL_SEGMENTS: &[&str] = &[
    "depth", "queue", "shutdown", "stop", "stopping", "stopped", "closed", "closing", "done",
    "running", "alive", "drain", "draining", "exit", "halt", "pending", "inflight",
];

pub struct AtomicsOrdering;

impl Rule for AtomicsOrdering {
    fn name(&self) -> &'static str {
        "atomics_ordering"
    }

    fn summary(&self) -> &'static str {
        "no Ordering::Relaxed on control-flow/depth/shutdown atomics"
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        scan_tokens(
            ws,
            self.name(),
            |_| true,
            |toks, i| {
                let relaxed = toks[i].is_ident("Ordering")
                    && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
                    && toks.get(i + 2).is_some_and(|t| t.is_ident("Relaxed"));
                if !relaxed {
                    return None;
                }
                // Walk back to the atomic method this ordering is an argument
                // of, stopping at a statement boundary.
                let method = (0..i)
                    .rev()
                    .take_while(|&j| {
                        !(toks[j].is_punct(";") || toks[j].is_punct("{") || toks[j].is_punct("}"))
                    })
                    .find(|&j| {
                        toks[j].kind == TokenKind::Ident
                            && ATOMIC_METHODS.contains(&toks[j].text.as_str())
                            && j > 0
                            && toks[j - 1].is_punct(".")
                    })?;
                let (_, field) = receiver_key(toks, method.saturating_sub(2));
                let name = field.filter(|name| segment_match(name, CONTROL_SEGMENTS))?;
                Some(format!(
                    "`Ordering::Relaxed` on control-flow atomic `{name}` (the PR 6 gauge-race \
                 shape); use Acquire/Release/SeqCst"
                ))
            },
        )
    }
}
