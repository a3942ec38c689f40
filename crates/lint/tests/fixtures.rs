//! The gate tests the gate: every rule must fire on its known-bad corpus
//! (including the literal pre-fix PR 2 and PR 6 code) and stay silent on
//! the minimized fixed versions, and the catalog in `docs/LINTS.md` must
//! name exactly the rules the binary runs.
//!
//! Layout: `fixtures/<rule>/bad_*.rs` must each produce at least one
//! `<rule>` finding; `fixtures/<rule>/good_*.rs` must produce none. Each
//! fixture is linted as a one-file workspace by the same driver the binary
//! uses; a `// cc-lint-fixture-path: crates/...` comment lets it impersonate
//! a real workspace path for the path-scoped rules (serving roots, kernel
//! files, the reactor).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use cc_lint::findings::Finding;
use cc_lint::graph::{SourceFile, Workspace};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// File names directly under `dir`, sorted.
fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// The `rule` findings of `fixtures/<rule>/<name>` linted on its own.
fn findings_of(rule: &str, name: &str) -> Vec<Finding> {
    let src = std::fs::read_to_string(fixtures_dir().join(rule).join(name)).expect("fixture");
    let path = src
        .lines()
        .find_map(|l| l.trim().strip_prefix("// cc-lint-fixture-path:"))
        .map_or(name, str::trim);
    let ws = Workspace::build(vec![SourceFile::new(path, &src)]);
    cc_lint::lint(&ws).findings.into_iter().filter(|f| f.rule == rule).collect()
}

/// Every rule name in the registry.
fn rule_names() -> BTreeSet<String> {
    cc_lint::rules::all_rules().iter().map(|r| r.name().to_owned()).collect()
}

#[test]
fn every_rule_fires_on_bad_and_stays_silent_on_good() {
    let mut failures = Vec::new();
    for rule in entries(&fixtures_dir()) {
        for name in entries(&fixtures_dir().join(&rule)) {
            let want_bad = name.starts_with("bad_");
            assert!(want_bad || name.starts_with("good_"), "{rule}/{name}: neither bad_ nor good_");
            let hits = findings_of(&rule, &name);
            if want_bad == hits.is_empty() {
                failures.push(format!("{rule}/{name}: {} findings {hits:?}", hits.len()));
            }
        }
    }
    assert!(failures.is_empty(), "fixture corpus failed:\n{}", failures.join("\n"));
}

#[test]
fn every_rule_has_both_bad_and_good_fixtures() {
    let dirs: BTreeSet<String> = entries(&fixtures_dir()).into_iter().collect();
    assert_eq!(dirs, rule_names(), "one fixture directory per rule, and no others");
    for rule in dirs {
        let files = entries(&fixtures_dir().join(&rule));
        for prefix in ["bad_", "good_"] {
            assert!(files.iter().any(|n| n.starts_with(prefix)), "`{rule}` has no {prefix}* file");
        }
    }
}

/// The catalog table in `docs/LINTS.md` (rows opening with a back-quoted
/// rule name) cannot drift from what `--list-rules` prints.
#[test]
fn the_documented_catalog_is_the_registry() {
    let doc = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/LINTS.md");
    let documented: BTreeSet<String> = std::fs::read_to_string(doc)
        .expect("docs/LINTS.md")
        .lines()
        .filter_map(|l| l.strip_prefix("| `")?.split_once('`').map(|(name, _)| name.to_owned()))
        .collect();
    assert_eq!(documented, rule_names());
}

/// Regression pin for the lock-order analysis: the hand-built AB/BA cycle
/// fixture must produce a `lock_order` finding whose message spells out the
/// full cycle — both functions and both locks — so a reader can fix the
/// ordering without re-deriving the graph.
#[test]
fn lock_order_cycle_message_names_the_full_cycle() {
    let findings = findings_of("lock_order", "bad_ab_ba_cycle.rs");
    assert_eq!(findings.len(), 1, "expected exactly one cycle finding: {findings:?}");
    for needle in ["Pair::ab", "Pair::ba", "alpha", "beta", "deadlock"] {
        assert!(
            findings[0].message.contains(needle),
            "lock_order message must name `{needle}`; got: {}",
            findings[0].message
        );
    }
}

/// Every serving fn is a root, so a panic in one that another calls is
/// reached twice — in its own body and through the call — and filed once.
#[test]
fn a_panic_site_is_filed_once_however_many_roots_reach_it() {
    let findings = findings_of("no_panic", "bad_root_reached_from_root.rs");
    assert_eq!(findings.len(), 1, "{findings:?}");
}
