//! Rule `lock_order`: one acquisition per lock per function, and no
//! conflicting acquisition order anywhere in the call graph.
//!
//! Two shapes, one set of facts (`FnItem::locks`: each acquisition with
//! the guards held when it was made):
//!
//! - **Re-acquisition** (originating bug, PR 2): the query cache did `if
//!   !map.lock().contains(k)` then `map.lock().insert(k, v)` — a
//!   check-then-insert across two separate acquisitions, so two threads
//!   could both miss and both compute. Any second `.lock()` / `.read()` /
//!   `.write()` on the same receiver inside one function body means the
//!   state observed under the first guard may be stale by the second. Hold
//!   one guard across the whole decision.
//! - **Order cycles**: thread 1 runs `fn ab` (alpha, then beta) while
//!   thread 2 runs `fn ba` (beta, then alpha) — each function is
//!   individually well-behaved. The rule builds the global lock-order
//!   graph (an edge `A -> B` whenever some function acquires `B` directly
//!   or through a callee while holding `A`) and reports every cycle with
//!   the full path: which functions, which files, which lines, and through
//!   which calls the conflicting orders arise. Same-key self-edges are
//!   excluded — index-collapsed keys like `shards[]` make `shards[i]` then
//!   `shards[j]` look identical, and that is the first shape's beat.

use std::collections::BTreeMap;

use super::Rule;
use crate::findings::Finding;
use crate::graph::{find_lock_cycles, Workspace};

pub struct LockOrder;

impl Rule for LockOrder {
    fn name(&self) -> &'static str {
        "lock_order"
    }

    fn summary(&self) -> &'static str {
        "no second .lock()/.read()/.write() on one receiver within a function, and no conflicting lock-acquisition cycles across the call graph"
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        let mut out = Vec::new();
        for id in 0..ws.fn_table.len() {
            let mut first_line: BTreeMap<&str, u32> = BTreeMap::new();
            for acq in &ws.fn_item(id).locks {
                if let Some(first) = first_line.get(acq.key.as_str()) {
                    out.push(Finding {
                        rule: self.name(),
                        file: ws.fn_path(id).to_owned(),
                        line: acq.line,
                        message: format!(
                            "second acquisition of `{}` in one function (first at line \
                             {first}) — the check-then-act state may be stale (PR 2 cache \
                             race); hold one guard across the decision",
                            acq.key
                        ),
                    });
                } else {
                    first_line.insert(&acq.key, acq.line);
                }
            }
        }
        for cycle in find_lock_cycles(&ws.lock_order_edges()) {
            let legs: Vec<String> = cycle
                .witnesses
                .iter()
                .zip(cycle.keys.windows(2))
                .map(|(w, pair)| {
                    let via =
                        w.via.as_deref().map(|v| format!(" via call to `{v}`")).unwrap_or_default();
                    format!(
                        "`{}` holds {} then takes {}{} ({}:{})",
                        w.func, pair[0], pair[1], via, w.file, w.line
                    )
                })
                .collect();
            let first = cycle.witnesses.first();
            out.push(Finding {
                rule: self.name(),
                file: first.map(|w| w.file.clone()).unwrap_or_default(),
                line: first.map_or(0, |w| w.line),
                message: format!(
                    "lock-order cycle {}: {}; two threads interleaving these orders deadlock \
                     — pick one global order",
                    cycle.keys.join(" -> "),
                    legs.join("; ")
                ),
            });
        }
        out
    }
}
