//! Rule `determinism`: query kernels read no clocks.
//!
//! The shard-equivalence suites pin router answers bit-identical to the
//! monolith; that only holds while a query's result is a pure function of
//! the artifact and the input pair. `Instant::now` / `SystemTime::now` in a
//! kernel file is either dead weight or a time-dependent answer waiting to
//! happen. Build-phase tracing in the same files times itself through
//! `cc_telemetry::BuildTrace::time_local`, which holds the clock.

use super::{scan_tokens, Rule, KERNEL_FILES};
use crate::findings::Finding;
use crate::graph::Workspace;

pub struct Determinism;

impl Rule for Determinism {
    fn name(&self) -> &'static str {
        "determinism"
    }

    fn summary(&self) -> &'static str {
        "no Instant::now/SystemTime::now in query-kernel files"
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        scan_tokens(
            ws,
            self.name(),
            |path| KERNEL_FILES.contains(&path),
            |toks, i| {
                let t = &toks[i];
                let clock = (t.is_ident("Instant") || t.is_ident("SystemTime"))
                    && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                    && toks.get(i + 2).is_some_and(|n| n.is_ident("now"));
                clock.then(|| {
                    format!(
                        "`{}::now()` in a query-kernel file breaks answer determinism \
                     (router/monolith bit-equivalence); move timing to the caller, or time \
                     a build phase with `BuildTrace::time_local`",
                        t.text
                    )
                })
            },
        )
    }
}
