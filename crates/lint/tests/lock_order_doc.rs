//! The `lock_order` row of `docs/LINTS.md` names the workspace's whole
//! acquired-before relation. This test lints the real tree and fails when
//! the relation and the sentence that states it differ, so a lock added,
//! renamed or dropped in production code cannot leave the catalog stale.

use std::collections::BTreeSet;
use std::path::Path;

/// Marks the sentence of the `lock_order` row that states the relation:
/// one or more `;`-separated clauses, each naming a held lock key first and
/// then every key taken while it is held, all in backquotes.
const MARKER: &str = "The relation today:";

/// The `(held, taken)` pairs the `lock_order` row of `docs/LINTS.md` names.
fn documented_edges(doc: &str) -> BTreeSet<(String, String)> {
    let row = doc.lines().find(|l| l.starts_with("| `lock_order` |")).expect("lock_order row");
    let (_, rest) = row.split_once(MARKER).expect("the lock_order row states the relation");
    let sentence = rest.split_once(". ").map_or(rest, |(s, _)| s);
    let mut edges = BTreeSet::new();
    for clause in sentence.split(';') {
        let mut keys = clause.split('`').skip(1).step_by(2);
        let held = keys.next().expect("a clause names the held lock first");
        for taken in keys {
            edges.insert((held.to_owned(), taken.to_owned()));
        }
    }
    edges
}

#[test]
fn the_documented_lock_order_relation_is_the_workspace_relation() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let doc = std::fs::read_to_string(root.join("docs/LINTS.md")).expect("docs/LINTS.md");
    let ws = cc_lint::load_workspace(&root).expect("workspace");
    let actual: BTreeSet<(String, String)> = ws
        .lock_order_edges()
        .into_iter()
        .flat_map(|(held, taken)| taken.into_keys().map(move |t| (held.clone(), t)))
        .collect();
    assert_eq!(actual, documented_edges(&doc), "docs/LINTS.md's lock_order relation is stale");
}
