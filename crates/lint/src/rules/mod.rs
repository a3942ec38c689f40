//! The rule trait, the rule registry, and shared token-pattern helpers.
//!
//! Every rule is named after the bug class it makes unwritable (see
//! `docs/LINTS.md` for the catalog with the originating PRs). Rules see one
//! file at a time as a [`FileContext`]: the token stream, a mask of
//! `#[cfg(test)]` regions, and the file's workspace-relative path for
//! scoping decisions.

mod atomics;
mod determinism;
mod distance_arith;
mod lock_order;
mod locks;
mod no_panic;
mod panic_path;
mod reactor_blocking;
mod sentinel;
mod unsafe_audit;

use crate::graph::WorkspaceIr;
use crate::lexer::{Token, TokenKind};

/// Everything a rule gets to look at for one file.
pub struct FileContext<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    /// The token stream (comments already stripped by the lexer).
    pub tokens: &'a [Token],
    /// One flag per token: true when inside `#[cfg(test)]` code.
    pub test_mask: &'a [bool],
}

impl FileContext<'_> {
    /// True when token `i` is production (non-test) code.
    pub fn is_code(&self, i: usize) -> bool {
        !self.test_mask.get(i).copied().unwrap_or(false)
    }
}

/// A violation before severity assignment and allow filtering.
#[derive(Debug)]
pub struct RawFinding {
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human explanation, including what to write instead.
    pub message: String,
}

/// One named, individually-suppressible invariant.
pub trait Rule {
    /// Stable rule name, used in `--deny`/`--warn` and allow-comments.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn summary(&self) -> &'static str;
    /// Whether this rule scans the given workspace-relative file.
    fn applies_to(&self, path: &str) -> bool;
    /// Scans one file.
    fn check(&self, ctx: &FileContext<'_>) -> Vec<RawFinding>;
}

/// The full rule registry, in catalog order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(distance_arith::DistanceArith),
        Box::new(sentinel::Sentinel),
        Box::new(no_panic::NoPanic),
        Box::new(atomics::AtomicsOrdering),
        Box::new(locks::LockDiscipline),
        Box::new(determinism::Determinism),
    ]
}

/// A violation found by a workspace rule (it knows its own file).
#[derive(Debug)]
pub struct WsFinding {
    /// Workspace-relative path the finding anchors to.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human explanation, including the cross-function evidence.
    pub message: String,
}

/// A rule that runs once over the whole workspace IR instead of one file
/// at a time — the call-graph rules.
pub trait WorkspaceRule {
    /// Stable rule name, used in `--deny`/`--warn` and allow-comments.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn summary(&self) -> &'static str;
    /// Scans the assembled workspace.
    fn check(&self, ws: &WorkspaceIr) -> Vec<WsFinding>;
}

/// The workspace-rule registry, in catalog order.
pub fn workspace_rules() -> Vec<Box<dyn WorkspaceRule>> {
    vec![
        Box::new(lock_order::LockOrder),
        Box::new(reactor_blocking::ReactorBlocking),
        Box::new(unsafe_audit::UnsafeAudit),
        Box::new(panic_path::PanicPath),
    ]
}

/// Macros that unconditionally panic when reached (shared by `no_panic`,
/// `panic_path` and the parser's fact extraction).
pub const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// The serving-path files: `no_panic` polices their bodies directly and
/// `panic_path` treats every function defined in them as a root that must
/// not *reach* a panic.
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

/// The oracle's build/query/combine/shard kernels: the files where distance
/// arithmetic happens and where outputs must be pure functions of their
/// inputs (the direct builder's bit-identity contract rides on this).
pub const KERNEL_FILES: &[&str] = &[
    "crates/oracle/src/oracle.rs",
    "crates/oracle/src/shard.rs",
    "crates/oracle/src/cache.rs",
    "crates/oracle/src/direct.rs",
];

/// True if `path` is one of the listed workspace-relative files.
pub fn path_in(path: &str, list: &[&str]) -> bool {
    list.contains(&path)
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
    use crate::lexer::lex;

    #[test]
    fn operand_resolution_takes_the_last_postfix_ident() {
        let toks = lex("self.nearest_landmark.len() + to_landmark").tokens;
        let plus = toks.iter().position(|t| t.is_punct("+")).unwrap();
        assert_eq!(prev_operand_ident(&toks, plus - 1).as_deref(), Some("len"));
        assert_eq!(next_operand_ident(&toks, plus + 1).as_deref(), Some("to_landmark"));
    }

    #[test]
    fn receiver_keys_collapse_index_arguments() {
        let toks = lex("self.shards[(key % N) as usize].lock()").tokens;
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
