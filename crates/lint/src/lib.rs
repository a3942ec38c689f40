//! # cc-lint — the workspace invariant checker
//!
//! Every headline bugfix this codebase has shipped was an instance of a
//! mechanically-detectable pattern: the saturating-add that turned connected
//! pairs into the ∞ sentinel (PR 2), the cache's check-then-insert
//! double-lock race (PR 2), the queue-depth gauge racing its own decrement
//! (PR 6), the reactor thread sleeping through an overloaded accept (PR 9).
//! cc-lint encodes those invariants as named, individually suppressible
//! rules (no `syn`; the build image has no registry access) so the next
//! occurrence fails CI instead of shipping.
//!
//! There is one of everything. The lexer ([`lexer`]) and the parser
//! ([`parser`]) turn each file into a [`graph::SourceFile`] — tokens, test
//! mask, allow-comments, functions with their facts — and
//! [`graph::Workspace`] resolves calls across all of them. Every rule
//! ([`rules::Rule`]) checks that one workspace, whether it is a pattern ban
//! over tokens (`distance_arith`, `sentinel`) or a walk over the call graph
//! (`no_panic`, `lock_order`, `reactor_blocking`). One driver ([`lint`])
//! runs the registry, applies the allow-comments and polices them; the
//! fixture corpus goes through it one file at a time.
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

use std::collections::BTreeMap;
use std::path::Path;

use findings::{Finding, Report, UsedAllow};
use graph::{SourceFile, Workspace};
use lexer::Allow;

/// Name of the built-in rule that polices allow-comments themselves.
pub const ALLOW_HYGIENE: &str = "allow_hygiene";

/// True if `name` is a known rule name (the registry's, or hygiene).
pub fn known_rule(name: &str) -> bool {
    name == ALLOW_HYGIENE || rules::all_rules().iter().any(|r| r.name() == name)
}

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

/// Lints a workspace: every rule, then the allow-comments. A well-formed
/// allow listing a finding's rule, on the finding's line or the line above,
/// suppresses it; what the allows themselves get wrong — malformed, naming
/// no known rule, giving no reason, or suppressing nothing (with the
/// file:line span, so they are removable one-click) — is reported under
/// [`ALLOW_HYGIENE`].
pub fn lint(ws: &Workspace) -> Report {
    let mut findings: Vec<Finding> =
        rules::all_rules().iter().flat_map(|rule| rule.check(ws)).collect();
    let mut suppressed: BTreeMap<(&str, u32), usize> = BTreeMap::new();
    findings.retain(|f| {
        let covering = ws.files.iter().filter(|file| file.path == f.file).find_map(|file| {
            let covers = |a: &&Allow| {
                a.well_formed
                    && (f.line == a.line || f.line == a.line + 1)
                    && a.rules.iter().any(|r| r == f.rule)
            };
            file.allows.iter().find(covers).map(|a| (file.path.as_str(), a.line))
        });
        if let Some(allow) = covering {
            *suppressed.entry(allow).or_default() += 1;
        }
        covering.is_none()
    });
    let mut report = Report { findings, allows: Vec::new(), files_checked: ws.files.len() };
    for file in &ws.files {
        for a in &file.allows {
            let count = suppressed.get(&(file.path.as_str(), a.line)).copied().unwrap_or(0);
            let malformed = allow_problem(a);
            let usable = malformed.is_none();
            let problem = malformed.or_else(|| {
                (count == 0).then(|| {
                    format!(
                        "unused allow({}) at {}:{} — it suppressed nothing this run; delete \
                         the comment",
                        a.rules.join(", "),
                        file.path,
                        a.line
                    )
                })
            });
            if let Some(message) = problem {
                report.findings.push(Finding {
                    rule: ALLOW_HYGIENE,
                    file: file.path.clone(),
                    line: a.line,
                    message,
                });
            }
            if usable {
                report.allows.push(UsedAllow {
                    file: file.path.clone(),
                    line: a.line,
                    rules: a.rules.clone(),
                    reason: a.reason.clone().unwrap_or_default(),
                    suppressed: count,
                });
            }
        }
    }
    report
}

/// Why an allow-comment is unacceptable, if it is.
fn allow_problem(a: &Allow) -> Option<String> {
    if !a.well_formed {
        return Some(
            "malformed cc-lint comment; expected `// cc-lint: allow(rule, ...) -- reason`"
                .to_owned(),
        );
    }
    if let Some(unknown) = a.rules.iter().find(|r| !known_rule(r)) {
        return Some(format!("allow names unknown rule `{unknown}`"));
    }
    if a.reason.is_none() {
        return Some("allow-comment without a reason; append `-- <why this is safe>`".to_owned());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_allow_naming_a_retired_rule_is_a_hygiene_finding() {
        for retired in ["panic_path", "lock_discipline", "unsafe_audit"] {
            let src = format!("fn f() {{}} // cc-lint: allow({retired}) -- kept from before\n");
            let ws = Workspace::build(vec![SourceFile::new("crates/x/src/lib.rs", &src)]);
            let report = lint(&ws);
            assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
            assert_eq!(report.findings[0].rule, ALLOW_HYGIENE);
            assert!(report.findings[0].message.contains(retired));
        }
    }
}
