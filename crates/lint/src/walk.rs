//! Workspace file discovery.
//!
//! The walker enumerates every production `.rs` file under the workspace
//! root, skipping build output, vendored shims, lint fixtures, and test-only
//! trees (`tests/`, `benches/`, `examples/` — integration tests may use
//! whatever idioms they like; the rules police shipping code).

use std::fs;
use std::path::Path;

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &[".git", "target", "shim", "fixtures", "tests", "benches", "examples"];

/// Collects workspace source files, returning workspace-relative paths with
/// `/` separators (stable across platforms for rule scoping and output).
pub fn workspace_files(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    collect(root, root, &mut files);
    files.sort();
    files
}

fn collect(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect(root, &path, out);
            }
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(normalize(rel));
            }
        }
    }
}

/// Rewrites a relative path to use `/` separators.
fn normalize(rel: &Path) -> String {
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Reads a source file leniently: invalid UTF-8 is replaced, not fatal.
pub fn read_source(root: &Path, rel: &str) -> std::io::Result<String> {
    let bytes = fs::read(root.join(rel))?;
    Ok(String::from_utf8_lossy(&bytes).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_skips_shims_fixtures_and_tests() {
        // The crate's own manifest dir sits inside the workspace; walk two
        // levels up (the workspace root) and check the exclusions hold.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = workspace_files(&root);
        assert!(files.iter().any(|f| f == "crates/lint/src/walk.rs"));
        assert!(!files.iter().any(|f| f.contains("shim/")));
        assert!(!files.iter().any(|f| f.contains("fixtures/")));
        assert!(!files.iter().any(|f| f.contains("/tests/")));
        assert!(!files.iter().any(|f| f.contains("target/")));
    }
}
