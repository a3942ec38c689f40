//! A small, panic-free Rust lexer.
//!
//! cc-lint cannot use `syn` (the build image has no registry access), and it
//! does not need to: every rule in the catalog is expressible over a token
//! stream that understands strings, char literals, lifetimes and comments.
//! The lexer therefore produces exactly that — a flat `Vec<Token>` with line
//! numbers, comments consumed (never tokenized).
//!
//! The input is arbitrary bytes: invalid UTF-8, unterminated strings and
//! stray quotes must all lex to *something* without panicking (see the
//! property tests in `tests/lexer_props.rs`).

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `u64`, `saturating_add`, ...).
    Ident,
    /// A numeric literal (`0`, `0xFF`, `1_000`); the fractional part of a
    /// float lexes as a separate `.`+`Number` pair, which is fine for the
    /// token patterns the rules match.
    Number,
    /// A string literal: `"..."`, `r"..."`, `r#"..."#`, `b"..."`.
    Str,
    /// A char literal: `'a'`, `'\n'`, `b'x'`.
    Char,
    /// A lifetime: `'a`, `'static`.
    Lifetime,
    /// Punctuation, with common multi-char operators joined (`::`, `==`,
    /// `!=`, `<=`, `>=`, `->`, `=>`, `&&`, `||`, `..`, `+=`, ...).
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token kind.
    pub kind: TokenKind,
    /// The token text. For `Str`/`Char` this is the raw source slice
    /// including quotes, so rules never mistake literal *content* for code.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// True if this is an identifier with exactly the text `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// True if this is punctuation with exactly the text `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == s
    }
}

/// Lexes `src` into tokens. Never panics, whatever the input.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer { chars: src.chars().collect(), pos: 0, line: 1, out: Vec::new() }.run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0);
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32) {
        self.out.push(Token { kind, text, line });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(line),
                'r' | 'b' if self.starts_raw_or_byte_literal() => self.raw_or_byte(line),
                '\'' => self.char_or_lifetime(line),
                c if c.is_alphabetic() || c == '_' => self.ident(line),
                c if c.is_ascii_digit() => self.number(line),
                _ => self.punct(line),
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.bump();
        }
    }

    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break, // unterminated: swallow to EOF
            }
        }
    }

    fn string(&mut self, line: u32) {
        let mut text = String::new();
        text.push(self.bump().unwrap_or('"'));
        while let Some(c) = self.bump() {
            text.push(c);
            match c {
                '\\' => {
                    if let Some(esc) = self.bump() {
                        text.push(esc);
                    }
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokenKind::Str, text, line);
    }

    /// True if the cursor sits on `r"`, `r#...#"`, `b"`, `br"`, `b'`...
    fn starts_raw_or_byte_literal(&self) -> bool {
        let mut i = 1;
        if self.peek(0) == Some('b') {
            match self.peek(1) {
                Some('"') | Some('\'') => return true,
                Some('r') => i = 2,
                _ => return false,
            }
        }
        // `r` or `br`: zero or more `#` then `"`.
        loop {
            match self.peek(i) {
                Some('#') => i += 1,
                Some('"') => return true,
                _ => return false,
            }
        }
    }

    fn raw_or_byte(&mut self, line: u32) {
        let mut text = String::new();
        if self.peek(0) == Some('b') {
            text.push(self.bump().unwrap_or('b'));
        }
        if self.peek(0) == Some('\'') {
            // b'x' byte char: delegate to the char scanner, keep the prefix.
            self.char_literal(&mut text);
            self.push(TokenKind::Char, text, line);
            return;
        }
        let raw = self.peek(0) == Some('r');
        if raw {
            text.push(self.bump().unwrap_or('r'));
        }
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            text.push(self.bump().unwrap_or('#'));
            hashes += 1;
        }
        if self.peek(0) != Some('"') {
            // `r#foo` raw identifier: lex the rest as an ident.
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokenKind::Ident, text, line);
            return;
        }
        text.push(self.bump().unwrap_or('"'));
        if raw {
            // Raw string: no escapes; ends at `"` followed by `hashes` #s.
            loop {
                match self.bump() {
                    None => break,
                    Some('"') => {
                        text.push('"');
                        let mut seen = 0usize;
                        while seen < hashes && self.peek(0) == Some('#') {
                            text.push(self.bump().unwrap_or('#'));
                            seen += 1;
                        }
                        if seen == hashes {
                            break;
                        }
                    }
                    Some(c) => text.push(c),
                }
            }
        } else {
            // b"...": ordinary escape rules.
            while let Some(c) = self.bump() {
                text.push(c);
                match c {
                    '\\' => {
                        if let Some(esc) = self.bump() {
                            text.push(esc);
                        }
                    }
                    '"' => break,
                    _ => {}
                }
            }
        }
        self.push(TokenKind::Str, text, line);
    }

    fn char_or_lifetime(&mut self, line: u32) {
        // `'a` / `'static` are lifetimes when the quote is followed by an
        // ident char that is not itself closed by a quote (`'a'` is a char).
        let is_lifetime = matches!(self.peek(1), Some(c) if c.is_alphabetic() || c == '_')
            && self.peek(2) != Some('\'');
        if is_lifetime {
            let mut text = String::new();
            text.push(self.bump().unwrap_or('\''));
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokenKind::Lifetime, text, line);
        } else {
            let mut text = String::new();
            self.char_literal(&mut text);
            self.push(TokenKind::Char, text, line);
        }
    }

    fn char_literal(&mut self, text: &mut String) {
        text.push(self.bump().unwrap_or('\''));
        match self.bump() {
            None => {}
            Some('\\') => {
                text.push('\\');
                if let Some(esc) = self.bump() {
                    text.push(esc);
                    // \u{...} escapes run until the closing brace.
                    if esc == 'u' && self.peek(0) == Some('{') {
                        while let Some(c) = self.bump() {
                            text.push(c);
                            if c == '}' {
                                break;
                            }
                        }
                    }
                }
                if self.peek(0) == Some('\'') {
                    text.push(self.bump().unwrap_or('\''));
                }
            }
            Some(c) => {
                text.push(c);
                if c != '\'' && self.peek(0) == Some('\'') {
                    text.push(self.bump().unwrap_or('\''));
                }
            }
        }
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident, text, line);
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Number, text, line);
    }

    fn punct(&mut self, line: u32) {
        const JOINED: &[&str] = &[
            "..=", "==", "!=", "<=", ">=", "::", "->", "=>", "&&", "||", "..", "+=", "-=", "*=",
            "/=", "%=", "<<", ">>", "&=", "|=", "^=",
        ];
        for op in JOINED {
            let chars: Vec<char> = op.chars().collect();
            if (0..chars.len()).all(|i| self.peek(i) == Some(chars[i])) {
                for _ in 0..chars.len() {
                    self.bump();
                }
                self.push(TokenKind::Punct, (*op).to_owned(), line);
                return;
            }
        }
        if let Some(c) = self.bump() {
            self.push(TokenKind::Punct, c.to_string(), line);
        }
    }
}

/// Marks tokens that live inside `#[cfg(test)]` modules or functions, so
/// rules only fire on production code. Returns one flag per token.
pub fn test_code_mask(tokens: &[Token]) -> Vec<bool> {
    attr_item_mask(tokens, attr_is_cfg_test)
}

/// Marks every token of each brace-bodied item carrying an attribute that
/// `selects` accepts (it sees the tokens between `#[` and `]`), from the
/// attribute through the item's closing brace. Returns one flag per token.
pub fn attr_item_mask(tokens: &[Token], selects: fn(&[Token]) -> bool) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let close = match matching_bracket(tokens, i + 1, "[", "]") {
                Some(c) => c,
                None => break,
            };
            if selects(&tokens[i + 2..close]) {
                // Skip any further attributes between this one and the item.
                let mut j = close + 1;
                while j < tokens.len()
                    && tokens[j].is_punct("#")
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct("["))
                {
                    match matching_bracket(tokens, j + 1, "[", "]") {
                        Some(c) => j = c + 1,
                        None => return mask,
                    }
                }
                // Mark everything to the end of the item's brace block.
                let open = (j..tokens.len()).find(|&k| tokens[k].is_punct("{"));
                if let Some(open) = open {
                    let end = matching_bracket(tokens, open, "{", "}").unwrap_or(tokens.len() - 1);
                    for flag in mask.iter_mut().take(end + 1).skip(i) {
                        *flag = true;
                    }
                    i = end + 1;
                    continue;
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// True if the attribute tokens (between `#[` and `]`) are `cfg(test)` or a
/// `cfg(all(..))` with `test` among its direct arguments: only those gates
/// compile the item out of production. `cfg(not(test))` and
/// `cfg(any(test, ..))` items ship, so the rules must see them.
fn attr_is_cfg_test(attr: &[Token]) -> bool {
    let texts: Vec<&str> = attr.iter().map(|t| t.text.as_str()).collect();
    match texts[..] {
        ["cfg", "(", "test", ")"] => true,
        ["cfg", "(", "all", "(", ref args @ .., ")", ")"] => {
            let mut depth = 0;
            args.iter().any(|&t| {
                depth += i32::from(t == "(") - i32::from(t == ")");
                depth == 0 && t == "test"
            })
        }
        _ => false,
    }
}

/// Index of the bracket closing `tokens[open]`, for nesting-aware pairs.
pub fn matching_bracket(
    tokens: &[Token],
    open: usize,
    open_s: &str,
    close_s: &str,
) -> Option<usize> {
    let mut depth = 0i64;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_s) {
            depth += 1;
        } else if t.is_punct(close_s) {
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

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn joins_multi_char_operators() {
        assert_eq!(texts("a == u64::MAX"), vec!["a", "==", "u64", "::", "MAX"]);
        assert_eq!(texts("x += 1"), vec!["x", "+=", "1"]);
        assert_eq!(texts("0..n"), vec!["0", "..", "n"]);
    }

    #[test]
    fn strings_and_comments_hide_their_content() {
        let tokens =
            lex("let s = \"a.unwrap() // not code\"; // .unwrap()\n/* .expect( */ call();");
        assert!(!tokens.iter().any(|t| t.kind == TokenKind::Ident && t.text == "unwrap"));
        assert!(!tokens.iter().any(|t| t.is_ident("expect")));
        assert!(tokens.iter().any(|t| t.is_ident("call")));
    }

    #[test]
    fn raw_strings_and_byte_strings() {
        let tokens = lex(r##"let a = r#"u64::MAX "quoted""#; let b = b"panic!";"##);
        let strs: Vec<_> = tokens.iter().filter(|t| t.kind == TokenKind::Str).collect();
        assert_eq!(strs.len(), 2);
        assert!(!tokens.iter().any(|t| t.is_ident("panic")));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let tokens = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(tokens.iter().any(|t| t.kind == TokenKind::Lifetime && t.text == "'a"));
        assert!(tokens.iter().any(|t| t.kind == TokenKind::Char && t.text == "'x'"));
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "fn prod() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }";
        let tokens = lex(src);
        let mask = test_code_mask(&tokens);
        let unwraps: Vec<bool> = tokens
            .iter()
            .zip(&mask)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, m)| *m)
            .collect();
        assert_eq!(unwraps, vec![false, true]);
    }

    #[test]
    fn only_gates_that_compile_code_out_are_masked() {
        for (gate, masked) in [
            ("cfg(test)", true),
            ("cfg(all(test, target_os = \"linux\"))", true),
            ("cfg(all(unix, test))", true),
            ("cfg(not(test))", false),
            ("cfg(any(test, unix))", false),
            ("cfg(all(not(test), unix))", false),
            ("cfg(feature = \"test\")", false),
        ] {
            let tokens = lex(&format!("#[{gate}]\nfn f() {{ x.unwrap(); }}"));
            let mask = test_code_mask(&tokens);
            let unwrap = tokens.iter().position(|t| t.is_ident("unwrap")).unwrap();
            assert_eq!(mask[unwrap], masked, "{gate}");
        }
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "let a = \"line\none\";\nlet b = 1;\n";
        let tokens = lex(src);
        let b = tokens.iter().find(|t| t.is_ident("b")).map(|t| t.line);
        assert_eq!(b, Some(3));
    }

    #[test]
    fn never_panics_on_garbage() {
        for src in ["\"unterminated", "r#\"open", "'", "b", "/* open", "\\'\\'\\'", "#!["] {
            let _ = lex(src);
        }
    }
}
