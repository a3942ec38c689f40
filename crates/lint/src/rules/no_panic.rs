//! Rule `no_panic`: the serving paths never panic.
//!
//! `cc-serve`'s contract (PR 2) is that malformed input is a `400` and
//! overload is a `503` — never a worker falling over. A panic in a handler
//! kills a pool thread; a panic while a reload lock is held poisons it and
//! takes the whole reload path down with it. `.unwrap()`, `.expect(...)`
//! and the panicking macros are therefore banned in the request parser,
//! the connection loop, the request handlers and their state, the worker
//! pool, the reload plumbing, and the oracle query kernel.
//! Genuinely-unreachable startup-time cases use the allow escape hatch with
//! a stated reason.

use super::{path_in, FileContext, RawFinding, Rule, PANIC_MACROS, SERVING_FILES};

pub struct NoPanic;

impl Rule for NoPanic {
    fn name(&self) -> &'static str {
        "no_panic"
    }

    fn summary(&self) -> &'static str {
        "no .unwrap()/.expect()/panic! in serving paths (handlers, state, http parser, connection loop, pool, reload, reactor, query kernel, frame codec)"
    }

    fn applies_to(&self, path: &str) -> bool {
        path_in(path, SERVING_FILES)
    }

    fn check(&self, ctx: &FileContext<'_>) -> Vec<RawFinding> {
        let mut out = Vec::new();
        let toks = ctx.tokens;
        for i in 0..toks.len() {
            if !ctx.is_code(i) {
                continue;
            }
            let t = &toks[i];
            // `.unwrap()` / `.expect(`: exact method names only, so
            // `unwrap_or` / `unwrap_or_else` stay legal.
            let panicking_method = (t.is_ident("unwrap") || t.is_ident("expect"))
                && i > 0
                && toks[i - 1].is_punct(".")
                && toks.get(i + 1).is_some_and(|n| n.is_punct("("));
            if panicking_method {
                out.push(RawFinding {
                    line: t.line,
                    message: format!(
                        "`.{}(...)` can panic on a serving path (poisoning locks, killing \
                         pool workers); return an error, use `unwrap_or_else`, or recover \
                         from poison with `PoisonError::into_inner`",
                        t.text
                    ),
                });
                continue;
            }
            let panicking_macro = PANIC_MACROS.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|n| n.is_punct("!"));
            if panicking_macro {
                out.push(RawFinding {
                    line: t.line,
                    message: format!(
                        "`{}!` panics on a serving path; degrade to an error response instead",
                        t.text
                    ),
                });
            }
        }
        out
    }
}
