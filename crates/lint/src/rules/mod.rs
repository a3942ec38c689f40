//! The rule trait, the rule registry, the scope lists, and shared
//! token-pattern helpers.
//!
//! Every rule is named after the bug class it makes unwritable (see
//! `docs/LINTS.md` for the catalog with the originating PRs). All rules see
//! the same thing — the whole [`Workspace`] — and take what they need from
//! it: the pattern bans walk each in-scope file's tokens ([`scan_tokens`]),
//! the call-graph rules walk reachability and lock order across function
//! boundaries.

mod atomics;
mod determinism;
mod distance_arith;
mod lock_order;
mod no_panic;
mod reactor_blocking;
mod sentinel;

use crate::findings::Finding;
use crate::graph::Workspace;
use crate::lexer::{Token, TokenKind};

/// One named invariant.
pub trait Rule {
    /// Stable rule name, used in findings and fixture directories.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn summary(&self) -> &'static str;
    /// Checks the assembled workspace.
    fn check(&self, ws: &Workspace) -> Vec<Finding>;
}

/// The rule registry, in catalog order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(distance_arith::DistanceArith),
        Box::new(sentinel::Sentinel),
        Box::new(no_panic::NoPanic),
        Box::new(atomics::AtomicsOrdering),
        Box::new(determinism::Determinism),
        Box::new(lock_order::LockOrder),
        Box::new(reactor_blocking::ReactorBlocking),
    ]
}

/// The shape the pattern bans share: visits every production (non-test)
/// token of every file `in_scope` accepts and files a `rule` finding, on
/// that token's line, for each one `check` returns a message for.
pub fn scan_tokens(
    ws: &Workspace,
    rule: &'static str,
    in_scope: impl Fn(&str) -> bool,
    check: impl Fn(&[Token], usize) -> Option<String>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in ws.files.iter().filter(|f| in_scope(&f.path)) {
        for (i, tok) in file.tokens.iter().enumerate() {
            if file.test_mask[i] {
                continue;
            }
            if let Some(message) = check(&file.tokens, i) {
                out.push(Finding { rule, file: file.path.clone(), line: tok.line, message });
            }
        }
    }
    out
}

/// Macros that panic when reached: the unconditional ones and the `assert`
/// family, which ships in release builds. `debug_assert*` compiles out and
/// stays legal.
pub const PANIC_MACROS: &[&str] =
    &["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

/// The serving-path files: every function and closure defined in them is a
/// `no_panic` root that must not contain *or reach* a panic.
pub const SERVING_FILES: &[&str] = &[
    "crates/server/src/handlers.rs",
    "crates/server/src/state.rs",
    "crates/server/src/http.rs",
    "crates/server/src/server.rs",
    "crates/server/src/pool.rs",
    "crates/server/src/reload.rs",
    "crates/server/src/reactor.rs",
    "crates/oracle/src/oracle.rs",
    "crates/reactor/src/poller.rs",
    "crates/reactor/src/frame.rs",
];

/// The distance kernels — the oracle's build/query/combine/shard files,
/// `cc_graph::reference` (the sequential searches the direct builder and
/// the spanner baseline run), `cc-matrix`'s elements and semirings (which
/// own the length rule) and the baselines: the files where distance
/// arithmetic happens and where outputs must be pure functions of their
/// inputs (the direct builder's bit-identity contract rides on this).
pub const KERNEL_FILES: &[&str] = &[
    "crates/oracle/src/oracle.rs",
    "crates/oracle/src/shard.rs",
    "crates/oracle/src/cache.rs",
    "crates/oracle/src/direct.rs",
    "crates/graph/src/reference.rs",
    "crates/matrix/src/elem.rs",
    "crates/matrix/src/semiring.rs",
    "crates/core/src/baselines.rs",
];

/// The files whose functions make up the reactor dispatch path.
pub const REACTOR_FILES: &[&str] =
    &["crates/server/src/reactor.rs", "crates/reactor/src/poller.rs"];

/// The two modules allowed to spell the ∞ sentinel literally: where it is
/// defined.
pub const CANONICAL_FILES: &[&str] = &["crates/matrix/src/elem.rs", "crates/oracle/src/oracle.rs"];

/// Every scope list above.
const SCOPE_LISTS: [&[&str]; 4] = [SERVING_FILES, KERNEL_FILES, REACTOR_FILES, CANONICAL_FILES];

/// The first scope-list entry that is not among the workspace's files. The
/// lists are plain strings: rename or split a file, or start a run from the
/// wrong root, and a rule would otherwise silently guard nothing.
pub fn missing_scope_file(ws: &Workspace) -> Option<&'static str> {
    SCOPE_LISTS
        .into_iter()
        .flatten()
        .copied()
        .find(|listed| !ws.files.iter().any(|f| f.path == *listed))
}

/// True if any `_`-separated segment of `name` (lowercased) is in `pats`,
/// or contains `"dist"` (so `to_landmark` and `best_dist` match while
/// `columns` and `landmarks_len` do not accidentally over-match).
pub fn segment_match(name: &str, pats: &[&str]) -> bool {
    name.to_lowercase().split('_').any(|seg| pats.contains(&seg) || seg.contains("dist"))
}

/// Resolves the operand *ending* at token `end` (exclusive of the operator
/// at `end + 1`) to a representative identifier: the last identifier of the
/// postfix chain. `self.balls.len()` resolves to `len` (a count, not a
/// distance); `to_landmark` resolves to itself.
pub fn prev_operand_ident(tokens: &[Token], end: usize) -> Option<String> {
    let mut j = end as isize;
    let t = tokens.get(j as usize)?;
    if t.is_punct(")") || t.is_punct("]") {
        let (open, close) = if t.text == ")" { ("(", ")") } else { ("[", "]") };
        j = matching_bracket_rev(tokens, j as usize, open, close)? as isize - 1;
    }
    let t = tokens.get(usize::try_from(j).ok()?)?;
    (t.kind == TokenKind::Ident).then(|| t.text.clone())
}

/// Resolves the operand *starting* at token `start` to the last identifier
/// of its member chain: `self.nearest_landmark.len` resolves to `len`,
/// `col` to `col`.
pub fn next_operand_ident(tokens: &[Token], start: usize) -> Option<String> {
    let mut j = start;
    while tokens.get(j).is_some_and(|t| t.is_punct("&") || t.is_punct("*") || t.is_punct("(")) {
        j += 1;
    }
    let first = tokens.get(j)?;
    if first.kind != TokenKind::Ident {
        return None;
    }
    let mut last = j;
    while tokens.get(last + 1).is_some_and(|t| t.is_punct(".") || t.is_punct("::"))
        && tokens.get(last + 2).is_some_and(|t| t.kind == TokenKind::Ident)
    {
        last += 2;
    }
    Some(tokens[last].text.clone())
}

/// Walks a receiver expression backward from its last token, producing a
/// normalized key (`self.shards[]`) and the name of its final field
/// (`shards`). Call and index argument lists collapse to `()` / `[]` so two
/// locks of `shards[i]` and `shards[j]` compare equal (conservatively).
pub fn receiver_key(tokens: &[Token], end: usize) -> (String, Option<String>) {
    let mut parts: Vec<String> = Vec::new();
    let mut field: Option<String> = None;
    let mut j = end as isize;
    while j >= 0 {
        let t = &tokens[j as usize];
        if t.is_punct(")") || t.is_punct("]") {
            let (open, close) = if t.text == ")" { ("(", ")") } else { ("[", "]") };
            match matching_bracket_rev(tokens, j as usize, open, close) {
                Some(o) => {
                    parts.push(if close == ")" { "()".into() } else { "[]".into() });
                    j = o as isize - 1;
                }
                None => break,
            }
        } else if t.kind == TokenKind::Ident {
            if field.is_none() {
                field = Some(t.text.clone());
            }
            parts.push(t.text.clone());
            let sep = j >= 1
                && (tokens[(j - 1) as usize].is_punct(".")
                    || tokens[(j - 1) as usize].is_punct("::"));
            if sep {
                parts.push(tokens[(j - 1) as usize].text.clone());
                j -= 2;
            } else {
                break;
            }
        } else {
            break;
        }
    }
    parts.reverse();
    (parts.join(""), field)
}

/// Index of the bracket opening the one at `close_idx`, scanning backward.
fn matching_bracket_rev(
    tokens: &[Token],
    close_idx: usize,
    open: &str,
    close: &str,
) -> Option<usize> {
    let mut depth = 0i64;
    for k in (0..=close_idx).rev() {
        if tokens[k].is_punct(close) {
            depth += 1;
        } else if tokens[k].is_punct(open) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SourceFile;
    use crate::lexer::lex;

    #[test]
    fn a_scope_list_naming_a_file_the_walk_did_not_read_is_reported() {
        let listed = SCOPE_LISTS.concat();
        let all = |skip: &str| {
            let files = listed.iter().filter(|p| **p != skip).map(|p| SourceFile::new(p, ""));
            Workspace::build(files.collect())
        };
        assert_eq!(missing_scope_file(&all("")), None);
        // As after PR 19's split of `handlers.rs`, had the list not followed.
        assert_eq!(missing_scope_file(&all(SERVING_FILES[1])), Some(SERVING_FILES[1]));
        assert_eq!(missing_scope_file(&all(CANONICAL_FILES[0])), Some(CANONICAL_FILES[0]));
    }

    #[test]
    fn operand_resolution_takes_the_last_postfix_ident() {
        let toks = lex("self.nearest_landmark.len() + to_landmark");
        let plus = toks.iter().position(|t| t.is_punct("+")).unwrap();
        assert_eq!(prev_operand_ident(&toks, plus - 1).as_deref(), Some("len"));
        assert_eq!(next_operand_ident(&toks, plus + 1).as_deref(), Some("to_landmark"));
    }

    #[test]
    fn receiver_keys_collapse_index_arguments() {
        let toks = lex("self.shards[(key % N) as usize].lock()");
        let lock = toks.iter().position(|t| t.is_ident("lock")).unwrap();
        let (key, field) = receiver_key(&toks, lock - 2);
        assert_eq!(key, "self.shards[]");
        assert_eq!(field.as_deref(), Some("shards"));
    }

    #[test]
    fn segment_matching_is_exact_per_segment() {
        assert!(segment_match("to_landmark", &["landmark"]));
        assert!(segment_match("best_dist", &[]));
        assert!(!segment_match("landmarks", &["landmark"]));
        assert!(!segment_match("columns", &["col"]));
    }
}
