//! Rule `reactor_blocking`: the reactor thread never blocks.
//!
//! The epoll transport's whole value is that one thread multiplexes the
//! listener and every parked keep-alive connection; a single
//! `thread::sleep`, unbounded `.recv()`, `.join()`, or a `.wait(...)`
//! made with a lock guard in hand stalls *every* connection at once (the
//! PR 9 overload backoff slept the reactor for up to a second per
//! overloaded accept). This rule takes every function defined in the
//! reactor files as a root and walks the resolved call graph: any
//! blocking fact in a reachable function is a finding, with the call
//! chain from the root named in the message. Worker-pool handler bodies
//! are closures: closures are not roots here and get no incoming edges, so
//! work the reactor merely *schedules* is not "reachable from the reactor".

use super::{Rule, REACTOR_FILES};
use crate::findings::Finding;
use crate::graph::Workspace;

pub struct ReactorBlocking;

impl Rule for ReactorBlocking {
    fn name(&self) -> &'static str {
        "reactor_blocking"
    }

    fn summary(&self) -> &'static str {
        "no sleep/unbounded recv/join/lock-held wait reachable from the reactor dispatch loop"
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        let mut roots = ws.fns_in_files(REACTOR_FILES);
        roots.retain(|&id| !ws.fn_item(id).is_closure);
        ws.reachable_sites(&roots, |f| &f.blocking)
            .into_iter()
            .map(|r| {
                let route = if r.chain.len() > 1 {
                    format!("reachable from the reactor via {}", r.chain.join(" -> "))
                } else {
                    format!("on the reactor thread in `{}`", r.chain[0])
                };
                Finding {
                    rule: self.name(),
                    file: r.file.to_owned(),
                    line: r.site.line,
                    message: format!(
                        "{} — {route}; every parked connection stalls while the reactor is \
                         blocked (defer with a deadline and return to the event loop instead)",
                        r.site.what
                    ),
                }
            })
            .collect()
    }
}
