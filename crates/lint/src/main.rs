//! The `cc-lint` binary: finds the workspace root above the current
//! directory, lints every production source file under it against the rule
//! catalog, prints the report, and exits nonzero on any finding.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
cc-lint: workspace invariant checker

USAGE:
    cc-lint               lint every production source file of the workspace
                          around the current directory
    cc-lint --list-rules  print the rule catalog and exit

Exit codes: 0 clean; 1 findings; 2 a run that checked nothing it can vouch for
(bad usage, no workspace root, or a rule's scope list names a file that the
walk did not find).
";

/// Walks up from `start` to the directory whose `Cargo.toml` declares the
/// workspace.
fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if std::fs::read_to_string(&manifest).is_ok_and(|text| text.contains("[workspace]")) {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => {}
        ["--list-rules"] => {
            for rule in cc_lint::rules::all_rules() {
                println!("{:<18} {}", rule.name(), rule.summary());
            }
            return ExitCode::SUCCESS;
        }
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let Some(root) = find_workspace_root(&cwd) else {
        eprintln!("cc-lint: no workspace root found (run inside the repo)");
        return ExitCode::from(2);
    };
    let ws = match cc_lint::load_workspace(&root) {
        Ok(ws) => ws,
        Err(msg) => {
            eprintln!("cc-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    let report = cc_lint::lint(&ws);
    print!("{}", report.render());
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
