//! # cc-lint — the workspace invariant checker
//!
//! Every headline bugfix this codebase has shipped was an instance of a
//! mechanically-detectable pattern: the saturating-add that turned connected
//! pairs into the ∞ sentinel (PR 2), the cache's check-then-insert
//! double-lock race (PR 2), the queue-depth gauge racing its own decrement
//! (PR 6), the reactor thread sleeping through an overloaded accept (PR 9).
//! cc-lint encodes those invariants as named rules (no `syn`; the build
//! image has no registry access) so the next occurrence fails CI instead of
//! shipping. A finding is fixed, never suppressed: there is no allow-comment.
//!
//! There is one of everything. The lexer ([`lexer`]) and the parser
//! ([`parser`]) turn each file into a [`graph::SourceFile`] — tokens, test
//! mask, functions with their facts — and [`graph::Workspace`] resolves
//! calls across all of them. Every rule ([`rules::Rule`]) checks that one
//! workspace, whether it is a pattern ban over tokens (`distance_arith`,
//! `sentinel`) or a walk over the call graph (`no_panic`, `lock_order`,
//! `reactor_blocking`). One driver ([`lint`]) runs the registry; the fixture
//! corpus goes through it one file at a time.
//!
//! See `docs/LINTS.md` for the catalog and `crates/lint/fixtures/` for the
//! known-bad corpus each rule is proven against.

#![forbid(unsafe_code)]

pub mod findings;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod walk;

use std::path::Path;

use findings::Report;
use graph::{SourceFile, Workspace};

/// Reads every production source file under `root` into the workspace IR.
///
/// # Errors
///
/// Names the scope-list path the walk did not find, if any: `root` is not
/// this workspace, or a listed file was renamed and its rule guards nothing.
pub fn load_workspace(root: &Path) -> Result<Workspace, String> {
    let files = walk::workspace_files(root)
        .iter()
        .filter_map(|rel| Some(SourceFile::new(rel, &walk::read_source(root, rel).ok()?)))
        .collect();
    let ws = Workspace::build(files);
    match rules::missing_scope_file(&ws) {
        Some(path) => Err(format!(
            "a rule's scope list names `{path}`, which is not under {}; wrong workspace root, \
             or the file moved and crates/lint/src/rules/mod.rs did not follow",
            root.display()
        )),
        None => Ok(ws),
    }
}

/// Lints a workspace: every rule in the registry, in catalog order. Nothing
/// suppresses a finding; the fix is to change the code.
pub fn lint(ws: &Workspace) -> Report {
    let findings = rules::all_rules().iter().flat_map(|rule| rule.check(ws)).collect();
    Report { findings, files_checked: ws.files.len() }
}
