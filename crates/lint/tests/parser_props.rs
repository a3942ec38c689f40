//! Property tests for the item parser and the workspace pipeline.
//!
//! The parser is recovery-oriented: it walks raw tokens with no grammar to
//! fall back on, so its two load-bearing properties are pinned the same way
//! the lexer's are. It must be total — arbitrary bytes, half-open braces,
//! and quote soup never panic it — and it must actually *recover*: every
//! `fn` item in well-formed input shows up in the IR by name, with its
//! impl owner attached, no matter how the surrounding items are shuffled.

use cc_lint::lexer::{lex, test_code_mask};
use cc_lint::parser::{parse_fns, FnItem};
use proptest::prelude::*;

fn parse(src: &str) -> Vec<FnItem> {
    let toks = lex(src);
    parse_fns(&toks, &test_code_mask(&toks))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parsing_arbitrary_bytes_never_panics(
        bytes in prop::collection::vec(0u16..256, 0usize..400),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let _ = parse(&src);
    }

    #[test]
    fn parsing_rust_flavored_soup_never_panics(
        picks in prop::collection::vec(0usize..20, 0usize..80),
    ) {
        // Adversarial fragments: item keywords in broken positions,
        // unbalanced braces, closures, guard idioms, attribute openers.
        const FRAGMENTS: &[&str] = &[
            "fn", "impl", "mod", "unsafe", "{", "}", "(", ")", "||", "|x|",
            ".lock()", ".unwrap()", "let g =", ";", "#[cfg(not(unix))]",
            "move", "for", "Self::", "\"fn f(){\"", "\n",
        ];
        let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect::<Vec<_>>().join(" ");
        let _ = parse(&src);
    }

    #[test]
    fn parser_recovers_every_fn_by_name(
        order in prop::collection::vec(0usize..5, 1usize..6),
        impl_flag in 0usize..2,
    ) {
        let with_impl = impl_flag == 1;
        // Distinct item bodies with deliberately messy interiors; whatever
        // subset and order they appear in, each must be recovered by name
        // exactly where its `fn` keyword sits.
        const ITEMS: &[(&str, &str)] = &[
            ("alpha", "fn alpha() { let g = m.lock(); g.touch(); }"),
            ("beta", "fn beta(x: u64) -> u64 { x.checked_add(1).unwrap_or(0) }"),
            ("gamma", "fn gamma() { helper(|| { inner.call(); }); }"),
            ("delta", "fn delta() { if a { b() } else { c() } }"),
            ("epsilon", "fn epsilon() { loop { break; } }"),
        ];
        let mut picked: Vec<usize> = order;
        picked.sort_unstable();
        picked.dedup();
        let mut src = String::new();
        if with_impl {
            src.push_str("impl Widget {\n");
        }
        for &i in &picked {
            src.push_str(ITEMS[i].1);
            src.push('\n');
        }
        if with_impl {
            src.push_str("}\n");
        }
        let fns = parse(&src);
        let named: Vec<&str> = fns
            .iter()
            .filter(|f| !f.is_closure)
            .map(|f| f.name.as_str())
            .collect();
        for &i in &picked {
            prop_assert!(
                named.contains(&ITEMS[i].0),
                "fn `{}` not recovered; got {named:?} from:\n{src}",
                ITEMS[i].0
            );
            if with_impl {
                let f = fns
                    .iter()
                    .find(|f| f.name == ITEMS[i].0)
                    .expect("present per assertion above");
                prop_assert_eq!(
                    f.owner.as_deref(),
                    Some("Widget"),
                    "fn `{}` lost its impl owner",
                    ITEMS[i].0
                );
            }
        }
        // Recovery is exact, not merely inclusive: no phantom named items.
        prop_assert_eq!(named.len(), picked.len(), "phantom fns in {named:?}");
    }

    #[test]
    fn unbalanced_braces_cannot_leak_items_past_eof(
        extra_open in 0usize..4,
        extra_close in 0usize..4,
    ) {
        // Truncated or over-closed files (mid-edit saves) must still parse
        // and still find the one well-formed fn.
        let mut src = String::new();
        for _ in 0..extra_open {
            src.push_str("{ ");
        }
        src.push_str("fn solo() { body.call(); }\n");
        for _ in 0..extra_close {
            src.push_str("} ");
        }
        let fns = parse(&src);
        prop_assert!(fns.iter().any(|f| f.name == "solo"), "solo not recovered");
    }
}
