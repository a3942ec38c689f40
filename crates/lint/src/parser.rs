//! Item recovery over the token stream: the front half of the workspace
//! analyzer.
//!
//! A lightweight recursive-descent pass walks one file's tokens and
//! recovers its `fn`s (with their `impl`/`trait` owner) and, per function,
//! the facts the call-graph rules consume: every call made (with the lock
//! guards held at the call site), every lock acquisition and its guard
//! scope, blocking calls (`thread::sleep`, unbounded `recv`, `join`,
//! `wait` under a lock), and panic sites (`.unwrap()`, `.expect(`, the
//! panicking macros and the `assert` family).
//!
//! Like the lexer it feeds on, the parser is total: any token soup parses
//! to *some* list of fns without panicking (see `tests/parser_props.rs`).
//! Two masks carve regions out of the IR entirely:
//!
//! - `#[cfg(test)]` items (the lexer's existing test mask), and
//! - platform-negated items (`#[cfg(not(unix))]`, `#[cfg(not(target_os =
//!   "linux"))]` ...): fallback stand-ins that never run on the deployment
//!   target and would otherwise wire false edges into the call graph (the
//!   off-unix `reactor_loop` calls the sleep-polling `accept_loop`).
//!
//! Closures get a deliberate carve-out: a `|...| { ... }` block becomes a
//! *separate* anonymous function item with no incoming call edges, because
//! the code inside runs on whatever thread invokes the closure, not on the
//! thread that constructed it. This is what keeps the worker-pool handler
//! closure built inside `reactor_loop` from making the whole serving stack
//! "reachable from the reactor".

use crate::lexer::{attr_item_mask, matching_bracket, Token, TokenKind};

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct LockAcq {
    /// Normalized, qualified lock key (`Owner::self.field[]` for fields of
    /// `self`, `fn_name::local` for locals — see [`FnItem::locks`]).
    pub key: String,
    /// 1-based line of the acquisition.
    pub line: u32,
    /// Keys of the guards already held when this lock was taken, in
    /// acquisition order. Non-empty entries are lock-order edges.
    pub held: Vec<String>,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// The called name (`serve_ready`, `lock`, `try_query`, ...).
    pub name: String,
    /// `Foo` in `Foo::bar(...)`, `imp` in `imp::bar(...)`; `None` for bare
    /// and method calls.
    pub qualifier: Option<String>,
    /// True for `.name(...)` method syntax.
    pub method: bool,
    /// True for a direct `self.name(...)` call (resolves within the owner
    /// type first).
    pub recv_self: bool,
    /// 1-based line of the call.
    pub line: u32,
    /// Lock keys held at the call site (these propagate ordering edges
    /// into the callee's effective lock set).
    pub held: Vec<String>,
}

/// A blocking or panicking expression inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// 1-based line.
    pub line: u32,
    /// What happens there (`` `.unwrap(...)` ``, `` `thread::sleep` blocks
    /// the thread ``, ...), for messages.
    pub what: String,
}

/// One recovered function (or carved-out closure body).
#[derive(Debug, Clone, Default)]
pub struct FnItem {
    /// The function name; closures get `{closure@<line>}`.
    pub name: String,
    /// The `impl`/`trait` type the fn is defined on, if any.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword (or closure opening).
    pub line: u32,
    /// True for carved-out closure bodies: they exist in the IR (their
    /// facts are real code) but receive no incoming call edges.
    pub is_closure: bool,
    /// Calls made in the body, in source order.
    pub calls: Vec<Call>,
    /// Lock acquisitions in the body, in source order.
    pub locks: Vec<LockAcq>,
    /// Blocking facts in the body: `thread::sleep`, a no-argument `.recv()`
    /// or `.join()`, a `.wait(...)` made with a lock guard in hand.
    pub blocking: Vec<Site>,
    /// Panic facts in the body: exact `.unwrap()` / `.expect(` methods (so
    /// `unwrap_or_else` stays legal) and the macros of
    /// [`crate::rules::PANIC_MACROS`].
    pub panics: Vec<Site>,
}

impl FnItem {
    /// `Owner::name` or plain `name`, for messages.
    pub fn qualified_name(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Item keywords the body scanner must not mistake for calls.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "fn",
    "impl", "mod", "trait", "struct", "enum", "union", "use", "pub", "unsafe", "move", "as", "in",
    "where", "const", "static", "extern", "crate", "super", "Self", "self", "dyn", "ref", "mut",
    "type", "async", "await",
];

/// Method names that belong to std types; method calls with these names
/// never resolve to workspace functions (they would wire false edges from
/// every `map.insert(...)` to an unrelated workspace `insert`). Workspace
/// functions may still *define* these names — they are only skipped as
/// resolution targets of method syntax.
pub const STD_METHODS: &[&str] = &[
    "drop",
    "clone",
    "fmt",
    "default",
    "from",
    "into",
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "get",
    "get_mut",
    "remove",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "collect",
    "map",
    "filter",
    "find",
    "position",
    "any",
    "all",
    "fold",
    "rev",
    "zip",
    "chain",
    "and_then",
    "or_else",
    "map_or",
    "map_err",
    "ok",
    "err",
    "ok_or",
    "ok_or_else",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "as_ref",
    "as_mut",
    "as_str",
    "as_bytes",
    "as_slice",
    "to_owned",
    "to_string",
    "to_vec",
    "split",
    "splitn",
    "trim",
    "starts_with",
    "ends_with",
    "parse",
    "push_str",
    "extend",
    "clear",
    "take",
    "replace",
    "entry",
    "or_insert",
    "or_insert_with",
    "keys",
    "values",
    "drain",
    "sort",
    "sort_by",
    "sort_by_key",
    "min",
    "max",
    "sum",
    "count",
    "last",
    "first",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "compare_exchange",
    "lock",
    "try_lock",
    "read",
    "write",
    "recv",
    "try_recv",
    "recv_timeout",
    "send",
    "wait",
    "wait_timeout",
    "join",
    "sleep",
    "spawn",
    "abs",
    "floor",
    "ceil",
    "sqrt",
    "saturating_add",
    "saturating_sub",
    "checked_add",
    "checked_sub",
    "wrapping_add",
    "min_by_key",
    "max_by_key",
    "flush",
    "write_all",
    "write_fmt",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "rem_euclid",
    "unwrap",
    "expect",
    "elapsed",
    "duration_since",
    "saturating_duration_since",
    "chunks",
    "chunks_mut",
    "windows",
    "copy_from_slice",
    "clone_from_slice",
    "to_le_bytes",
    "to_be_bytes",
    "to_ne_bytes",
    "get_or_insert_with",
    "retain",
    "truncate",
    "resize",
    "reserve",
    "is_char_boundary",
];

/// Recovers every production fn (and carved-out closure) of one token
/// stream. `test_mask` is the lexer's `#[cfg(test)]` mask; platform-negated
/// regions are masked here.
pub fn parse_fns(toks: &[Token], test_mask: &[bool]) -> Vec<FnItem> {
    let negated = attr_item_mask(toks, attr_is_platform_negated);
    let skip: Vec<bool> =
        (0..toks.len()).map(|i| test_mask.get(i).copied().unwrap_or(false) || negated[i]).collect();
    let mut p = Parser { toks, skip: &skip, fns: Vec::new() };
    p.items(0, toks.len(), None);
    p.fns
}

struct Parser<'a> {
    toks: &'a [Token],
    skip: &'a [bool],
    fns: Vec<FnItem>,
}

impl Parser<'_> {
    fn masked(&self, i: usize) -> bool {
        self.skip.get(i).copied().unwrap_or(false)
    }

    /// Walks an item-position region (file top level, `mod`/`impl` body),
    /// recovering fns and recursing into containers.
    fn items(&mut self, start: usize, end: usize, owner: Option<&str>) {
        let mut i = start;
        while i < end {
            let t = &self.toks[i];
            if self.masked(i) {
                i += 1;
                continue;
            }
            if t.is_ident("impl") || t.is_ident("trait") {
                // `impl<T> Foo<T> { ... }` / `impl Trait for Foo { ... }` /
                // `trait Name { ... }`: recover the owner type, recurse.
                let Some(open) = self.find_body_open(i + 1, end) else {
                    i += 1;
                    continue;
                };
                let close = matching_bracket(self.toks, open, "{", "}").unwrap_or(end - 1);
                let name = impl_owner(&self.toks[i + 1..open]);
                self.items(open + 1, close.min(end), name.as_deref());
                i = close.min(end) + 1;
            } else if t.is_ident("mod")
                && self.toks.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident)
                && self.toks.get(i + 2).is_some_and(|b| b.is_punct("{"))
            {
                // Module fns are free fns: owner resets.
                let close = matching_bracket(self.toks, i + 2, "{", "}").unwrap_or(end - 1);
                self.items(i + 3, close.min(end), None);
                i = close.min(end) + 1;
            } else if t.is_ident("fn") {
                i = self.fn_item(i, end, owner);
            } else {
                i += 1;
            }
        }
    }

    /// First `{` from `from` that is not preceded by a `;` (an `impl`/`fn`
    /// body opener, stepping over where-clauses).
    fn find_body_open(&self, from: usize, end: usize) -> Option<usize> {
        (from..end)
            .find(|&k| self.toks[k].is_punct("{"))
            .filter(|&k| !(from..k).any(|j| self.toks[j].is_punct(";")))
    }

    /// Parses `fn name ... { body }` starting at the `fn` keyword; returns
    /// the index to resume scanning at.
    fn fn_item(&mut self, fn_idx: usize, end: usize, owner: Option<&str>) -> usize {
        let name_tok = self.toks.get(fn_idx + 1);
        let Some(name_tok) = name_tok.filter(|t| t.kind == TokenKind::Ident) else {
            return fn_idx + 1; // `fn(` pointer type or truncated stream
        };
        // Body opens at the first `{` unless a `;` ends the item first
        // (trait method / extern declaration: no body, no facts). A `;`
        // inside brackets is an array length (`-> [u8; 4]`), not the end.
        let mut j = fn_idx + 2;
        let mut nest: i64 = 0;
        while j < end {
            let t = &self.toks[j];
            if t.is_punct("(") || t.is_punct("[") {
                nest += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                nest -= 1;
            } else if nest <= 0 && (t.is_punct("{") || t.is_punct(";")) {
                break;
            }
            j += 1;
        }
        if j >= end || self.toks[j].is_punct(";") {
            return j + 1;
        }
        let close = matching_bracket(self.toks, j, "{", "}").unwrap_or(end - 1);
        let mut item = FnItem {
            name: name_tok.text.clone(),
            owner: owner.map(str::to_owned),
            line: self.toks[fn_idx].line,
            ..FnItem::default()
        };
        self.body(j + 1, close.min(end), &mut item, owner);
        self.fns.push(item);
        close.min(end) + 1
    }

    /// Scans one function body for facts, carving out nested fns and
    /// block-bodied closures as separate items.
    fn body(&mut self, start: usize, end: usize, item: &mut FnItem, owner: Option<&str>) {
        let toks = self.toks;
        // Guards currently held: (lock key, brace depth at acquisition,
        // true when the guard is a statement temporary dying at `;`).
        let mut guards: Vec<(String, i64, bool)> = Vec::new();
        let mut depth: i64 = 0;
        // Inside a `let` statement (between `let` and its `;`): guards
        // acquired here are block-scoped bindings, not temporaries.
        let mut in_let: bool = false;
        let mut let_underscore = false;
        let mut i = start;
        while i < end {
            if self.masked(i) {
                i += 1;
                continue;
            }
            let t = &toks[i];
            if t.is_punct("{") {
                depth += 1;
                i += 1;
                continue;
            }
            if t.is_punct("}") {
                depth -= 1;
                guards.retain(|g| g.1 <= depth);
                i += 1;
                continue;
            }
            if t.is_punct(";") {
                guards.retain(|g| !(g.2 && g.1 == depth));
                in_let = false;
                i += 1;
                continue;
            }
            // Nested fn item: its body is separate facts.
            if t.is_ident("fn") {
                i = self.fn_item(i, end, owner);
                continue;
            }
            // Closure carve-out: `|params| { ... }` / `move || { ... }`.
            if (t.is_punct("|") || t.is_punct("||")) && closure_position(toks, i) {
                if let Some(body_open) = closure_block(toks, i, end) {
                    let close = matching_bracket(toks, body_open, "{", "}").unwrap_or(end - 1);
                    let mut closure = FnItem {
                        name: format!("{{closure@{}}}", t.line),
                        line: t.line,
                        is_closure: true,
                        ..FnItem::default()
                    };
                    self.body(body_open + 1, close.min(end), &mut closure, owner);
                    self.fns.push(closure);
                    i = close.min(end) + 1;
                    continue;
                }
                // Expression-bodied closure: scan inline (short, and the
                // facts still belong to whoever runs the expression).
                i += 1;
                continue;
            }
            if t.is_ident("let") {
                in_let = true;
                let_underscore = toks.get(i + 1).is_some_and(|n| n.is_ident("_"))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct("="));
                i += 1;
                continue;
            }
            // `.name(` method syntax, and whether its argument list is empty.
            let method = i > 0
                && toks[i - 1].is_punct(".")
                && toks.get(i + 1).is_some_and(|n| n.is_punct("("));
            let no_args = toks.get(i + 2).is_some_and(|n| n.is_punct(")"));
            // Lock acquisition: `.lock()` / `.read()` / `.write()` with empty
            // argument lists, so `io::Read::read(&mut buf)` never matches.
            let is_acq = method
                && no_args
                && (t.is_ident("lock") || t.is_ident("read") || t.is_ident("write"));
            if is_acq && i >= 2 {
                let (raw, _field) = crate::rules::receiver_key(toks, i - 2);
                if !raw.is_empty() {
                    let key = qualify_lock_key(&raw, owner, &item.name);
                    item.locks.push(LockAcq {
                        key: key.clone(),
                        line: t.line,
                        held: guards.iter().map(|g| g.0.clone()).collect(),
                    });
                    // A `let`-bound guard lives to the end of its block; a
                    // `let _ =` or expression temporary dies at the `;`.
                    let temporary = !in_let || let_underscore;
                    guards.push((key, depth, temporary));
                }
                i += 3;
                continue;
            }
            // Blocking facts.
            let site = |what: String| Site { line: t.line, what };
            if t.is_ident("sleep")
                && i >= 2
                && toks[i - 1].is_punct("::")
                && toks[i - 2].is_ident("thread")
                && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            {
                item.blocking.push(site("`thread::sleep` blocks the thread".into()));
                i += 1;
                continue;
            }
            if method && no_args && t.is_ident("recv") {
                item.blocking.push(site("unbounded `.recv()` blocks until a sender acts".into()));
                i += 1;
                continue;
            }
            if method && no_args && t.is_ident("join") {
                item.blocking.push(site("`.join()` blocks until another thread exits".into()));
                i += 1;
                continue;
            }
            if method && t.is_ident("wait") && !guards.is_empty() {
                item.blocking.push(site("`.wait(...)` called while a lock guard is held".into()));
                i += 1;
                continue;
            }
            // Panic facts.
            if method && (t.is_ident("unwrap") || t.is_ident("expect")) {
                item.panics.push(site(format!("`.{}(...)`", t.text)));
                i += 1;
                continue;
            }
            if crate::rules::PANIC_MACROS.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            {
                item.panics.push(site(format!("`{}!`", t.text)));
                i += 2;
                continue;
            }
            // Calls: `name(...)` where name is not a keyword or macro.
            if t.kind == TokenKind::Ident
                && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
                && !KEYWORDS.contains(&t.text.as_str())
                && t.text != "drop"
            {
                let qualifier = (!method
                    && i >= 2
                    && toks[i - 1].is_punct("::")
                    && toks[i - 2].kind == TokenKind::Ident)
                    .then(|| toks[i - 2].text.clone());
                let recv_self = method && i >= 2 && toks[i - 2].is_ident("self");
                item.calls.push(Call {
                    name: t.text.clone(),
                    qualifier,
                    method,
                    recv_self,
                    line: t.line,
                    held: guards.iter().map(|g| g.0.clone()).collect(),
                });
                i += 1;
                continue;
            }
            i += 1;
        }
    }
}

/// Owner type of an `impl`/`trait` header (tokens between the keyword and
/// the body `{`): the ident after `for` if present, else the first ident
/// outside a generic parameter list.
fn impl_owner(header: &[Token]) -> Option<String> {
    let mut angle: i64 = 0;
    let mut fallback: Option<String> = None;
    let mut after_for = false;
    for t in header {
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            "<<" => angle += 2,
            ">>" => angle -= 2,
            _ => {}
        }
        if t.kind == TokenKind::Ident && angle <= 0 {
            if after_for {
                return Some(t.text.clone());
            }
            if t.is_ident("for") {
                after_for = true;
            } else if fallback.is_none() && t.text != "dyn" {
                fallback = Some(t.text.clone());
            }
        }
    }
    fallback
}

/// True if the `|` at `i` opens a closure rather than a binary-or: it must
/// follow a token that can only precede an expression.
fn closure_position(toks: &[Token], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    let p = &toks[i - 1];
    p.is_ident("move")
        || p.is_ident("return")
        || p.is_punct("(")
        || p.is_punct(",")
        || p.is_punct("=")
        || p.is_punct("{")
        || p.is_punct(";")
        || p.is_punct(":")
        || p.is_punct("=>")
        || p.is_punct("&&")
        || p.is_punct("||")
}

/// For a closure opening at `i`, finds its block body: returns the index
/// of the opening brace when the closure body is a `{ ... }` block, `None`
/// for expression-bodied closures (scanned inline).
fn closure_block(toks: &[Token], i: usize, end: usize) -> Option<usize> {
    // Find the closing `|` of the parameter list.
    let params_end = if toks[i].is_punct("||") {
        i
    } else {
        let mut j = i + 1;
        loop {
            if j >= end {
                return None;
            }
            if toks[j].is_punct("|") {
                break j;
            }
            if toks[j].is_punct("{") || toks[j].is_punct(";") {
                return None; // not a closure after all
            }
            j += 1;
        }
    };
    // Optional `-> Type` before the block.
    let mut k = params_end + 1;
    if toks.get(k).is_some_and(|t| t.is_punct("->")) {
        while k < end && !toks[k].is_punct("{") {
            if toks[k].is_punct(";") {
                return None;
            }
            k += 1;
        }
    }
    toks.get(k).filter(|t| t.is_punct("{")).map(|_| k)
}

/// Qualifies a raw receiver key: `self.*` keys attach to the owner type
/// (shared across every method of the type), everything else is local to
/// the function.
fn qualify_lock_key(raw: &str, owner: Option<&str>, fn_name: &str) -> String {
    if raw == "self" || raw.starts_with("self.") {
        format!("{}::{raw}", owner.unwrap_or(fn_name))
    } else {
        format!("{fn_name}::{raw}")
    }
}

/// True for attrs like `cfg(not(unix))` or `cfg(not(target_os = "linux"))`:
/// a `cfg` whose tokens contain `not` alongside a platform name. Items behind
/// them are dead code on the deployment target and must not contribute
/// call-graph edges; `cfg(not(test))` and friends are deliberately NOT masked.
fn attr_is_platform_negated(attr: &[Token]) -> bool {
    const PLATFORMS: &[&str] = &["unix", "windows", "linux", "macos", "target_os", "target_arch"];
    attr.first().is_some_and(|t| t.is_ident("cfg"))
        && attr.iter().any(|t| t.is_ident("not"))
        && attr.iter().any(|t| {
            PLATFORMS.contains(&t.text.as_str())
                || (t.kind == TokenKind::Str && PLATFORMS.iter().any(|p| t.text.contains(p)))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_code_mask};

    fn parse(src: &str) -> Vec<FnItem> {
        let toks = lex(src);
        parse_fns(&toks, &test_code_mask(&toks))
    }

    #[test]
    fn recovers_fns_with_impl_owner() {
        let fns = parse("impl Foo { fn a(&self) {} }\nfn free() {}\nimpl X for Bar { fn b() {} }");
        let names: Vec<String> = fns.iter().map(FnItem::qualified_name).collect();
        assert_eq!(names, vec!["Foo::a", "free", "Bar::b"]);
    }

    #[test]
    fn an_array_length_in_the_signature_does_not_end_the_item() {
        let fns = parse("fn header(magic: [u8; 4]) -> [u8; 4] { magic.first().unwrap(); magic }");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].panics.len(), 1);
    }

    #[test]
    fn records_calls_with_held_locks() {
        let fns = parse(
            "impl S { fn f(&self) { let g = self.m.lock(); helper(); } fn g(&self) { other(); } }",
        );
        let f = &fns[0];
        assert_eq!(f.locks.len(), 1);
        assert_eq!(f.locks[0].key, "S::self.m");
        let call = f.calls.iter().find(|c| c.name == "helper").unwrap();
        assert_eq!(call.held, vec!["S::self.m"]);
        let g = &fns[1];
        assert!(g.calls.iter().find(|c| c.name == "other").unwrap().held.is_empty());
    }

    #[test]
    fn statement_temporary_guard_dies_at_semicolon() {
        let fns = parse("fn f(m: M) { m.lock().bump(); after(); }");
        let after = fns[0].calls.iter().find(|c| c.name == "after").unwrap();
        assert!(after.held.is_empty(), "temporary guard must not survive its statement");
    }

    #[test]
    fn closures_are_carved_out() {
        let fns = parse("fn f() { run(move |x| { x.unwrap(); }); tail(); }");
        let f = fns.iter().find(|f| f.name == "f").unwrap();
        assert!(f.panics.is_empty(), "closure panic must not attach to the builder fn");
        assert!(f.calls.iter().any(|c| c.name == "tail"));
        let closure = fns.iter().find(|f| f.is_closure).unwrap();
        assert_eq!(closure.panics.len(), 1);
    }

    #[test]
    fn platform_negated_items_are_invisible() {
        let src = "#[cfg(not(unix))]\nfn fallback() { std::thread::sleep(d); }\nfn real() {}";
        let fns = parse(src);
        assert!(fns.iter().all(|f| f.name != "fallback"));
        assert!(fns.iter().any(|f| f.name == "real"));
    }

    #[test]
    fn blocking_and_panic_facts_are_recorded() {
        let fns = parse(
            "fn f(rx: R, h: H) { std::thread::sleep(d); let v = rx.recv(); h.join(); x.expect(\"m\"); panic!(\"no\"); }",
        );
        let blocking: Vec<&str> = fns[0].blocking.iter().map(|b| b.what.as_str()).collect();
        assert_eq!(blocking.len(), 3, "{blocking:?}");
        assert!(blocking[0].contains("sleep") && blocking[1].contains("recv"));
        assert!(blocking[2].contains("join"));
        assert_eq!(fns[0].panics.len(), 2);
    }

    #[test]
    fn wait_is_blocking_only_under_a_guard() {
        let free = parse("fn f(p: P) { p.wait(e); }");
        assert!(free[0].blocking.is_empty());
        let held = parse("fn f(&self, p: P) { let g = self.m.lock(); p.wait(e); }");
        assert_eq!(held[0].blocking.len(), 1);
        assert!(held[0].blocking[0].what.contains("while a lock guard is held"));
    }
}
