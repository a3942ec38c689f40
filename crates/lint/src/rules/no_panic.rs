//! Rule `no_panic`: the serving paths never panic — in their own bodies or
//! anywhere they call.
//!
//! `cc-serve`'s contract (PR 2) is that malformed input is a `400` and
//! overload is a `503` — never a worker falling over. A panic in a handler
//! kills a pool thread; a panic while a reload lock is held poisons it and
//! takes the whole reload path down with it. `.unwrap()`, `.expect(...)`,
//! the panicking macros and the `assert` family (`debug_assert*` compiles
//! out and stays legal) are therefore banned in the request parser,
//! the connection loop, the request handlers and their state, the worker
//! pool, the reload plumbing, and the oracle query kernel — and in
//! everything those call: a handler calling into `cache.rs` or
//! `registry.rs` still dies if the callee `.expect(...)`s. Every function
//! and every carved-out closure defined in the serving files is a root;
//! any panic fact in a root's own body or in a function reachable from one
//! is a finding, anchored at the panic site with the call chain in the
//! message. Startup is no exception: a failure there is returned to the
//! caller, never `.expect`ed.

use super::{Rule, SERVING_FILES};
use crate::findings::Finding;
use crate::graph::Workspace;

pub struct NoPanic;

impl Rule for NoPanic {
    fn name(&self) -> &'static str {
        "no_panic"
    }

    fn summary(&self) -> &'static str {
        "no .unwrap()/.expect()/panic!/assert! in, or reachable from, the serving paths (handlers, state, http parser, connection loop, pool, reload, reactor, query kernel, frame codec)"
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        let roots = ws.fns_in_files(SERVING_FILES);
        ws.reachable_sites(&roots, |f| &f.panics)
            .into_iter()
            .map(|r| {
                let route = if r.chain.len() > 1 {
                    format!(
                        "is reachable from serving entry `{}` (call chain {})",
                        r.chain[0],
                        r.chain.join(" -> ")
                    )
                } else {
                    format!("sits on a serving path, in `{}`", r.chain[0])
                };
                Finding {
                    rule: self.name(),
                    file: r.file.to_owned(),
                    line: r.site.line,
                    message: format!(
                        "{} can panic and {route}; a panic here kills a pool worker — and \
                         poisons any lock held — return an error, degrade to an error \
                         response, or recover from poison with `PoisonError::into_inner`",
                        r.site.what
                    ),
                }
            })
            .collect()
    }
}
