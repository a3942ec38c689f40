//! Property tests for the lexer and the rule pipeline.
//!
//! The lexer is the one component every rule trusts; these pin the two
//! properties the tool's soundness rests on: it never panics, whatever
//! bytes it is fed, and rule-looking text *inside* strings and comments
//! never produces findings.

use cc_lint::graph::{SourceFile, Workspace};
use cc_lint::lexer::{lex, test_code_mask};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lexing_arbitrary_bytes_never_panics(
        bytes in prop::collection::vec(0u16..256, 0usize..400),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let tokens = lex(&src);
        // The mask pass walks the same stream; it must be total too.
        let _ = test_code_mask(&tokens);
    }

    #[test]
    fn lexing_rust_flavored_soup_never_panics(
        picks in prop::collection::vec(0usize..16, 0usize..60),
    ) {
        // Adversarial fragments: quote states, raw-string fences, escapes.
        const FRAGMENTS: &[&str] = &[
            "\"", "r#\"", "\"#", "'", "\\", "//", "/*", "*/", "b\"",
            "u64::MAX", ".unwrap()", "fn f() {", "}", "'a", "'x'", "\n",
        ];
        let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let tokens = lex(&src);
        let _ = test_code_mask(&tokens);
    }

    #[test]
    fn rule_text_inside_strings_and_comments_is_invisible(
        which in 0usize..6,
        quoted in 0usize..2,
    ) {
        // Each payload would fire a rule if it were code; entombed in a
        // string literal or a comment it must produce zero findings.
        const PAYLOADS: &[&str] = &[
            "x.unwrap()",
            "d == u64::MAX",
            "a.saturating_add(b)",
            "Ordering::Relaxed",
            "Instant::now()",
            "m.lock() m.lock()",
        ];
        let payload = PAYLOADS[which];
        let src = if quoted == 0 {
            format!("fn f() {{ let s = \"{payload}\"; use_it(s); }}\n")
        } else {
            format!("fn f() {{ // {payload}\n    use_it();\n}}\n")
        };
        // Two paths so that scoping cannot mask a leak: the first is a
        // kernel and a serving file, the second a kernel outside the
        // sentinel's canonical modules.
        for path in ["crates/oracle/src/oracle.rs", "crates/oracle/src/shard.rs"] {
            let ws = Workspace::build(vec![SourceFile::new(path, &src)]);
            let findings = cc_lint::lint(&ws).findings;
            prop_assert_eq!(findings.len(), 0, "findings from literal text: {:?}", findings);
        }
    }
}

#[test]
fn tokens_reconstruct_known_kernel_shapes() {
    // A smoke check that the real fixed kernel shape lexes the way the
    // distance rule expects: checked_add present, no banned method tokens.
    let src = "let via = to_landmark.checked_add(col).map_or(MAX, |s| s.min(MAX));";
    let tokens = lex(src);
    assert!(tokens.iter().any(|t| t.is_ident("checked_add")));
    assert!(!tokens.iter().any(|t| t.is_ident("saturating_add")));
}
