//! A small hand-rolled Rust lexer.
//!
//! The build environment has no crates.io access, so `syn`/`proc-macro2`
//! are unavailable; the audit rules only need a token stream with line
//! numbers and byte spans, which this module produces. The lexer
//! understands everything that can *hide* tokens from a naive text scan —
//! nested block comments, raw strings with arbitrary `#` fences,
//! byte/char literals, raw identifiers, lifetimes — so that rule patterns
//! never fire inside a string or comment and never miss real code.
//!
//! Every token and comment carries its `[start, end)` byte span into the
//! original source. The spans are a checked invariant, not decoration:
//! `tests/lexer_props.rs` sweeps every workspace source file and asserts
//! that spans are in order, never overlap, and partition the file down to
//! whitespace — i.e. re-concatenating the spans (plus the whitespace gaps
//! between them) reconstructs the file byte for byte.
//!
//! Comments are not tokens: they are collected separately so the
//! `// audit:allow(rule): reason` escape hatch can be parsed from them.

/// What kind of token was lexed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers are normalized: `r#match`
    /// lexes as `match`, though its span still covers the `r#`).
    Ident,
    /// Any literal: number, string, raw string, byte string, char, byte.
    Literal,
    /// A lifetime such as `'a` (quote included in the text).
    Lifetime,
    /// A single punctuation character (`::` is two `:` tokens).
    Punct,
}

/// One lexed token with its 1-based source line and byte span.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token kind.
    pub kind: TokKind,
    /// Source text. Identifiers are normalized for raw-identifier
    /// prefixes; every other kind is the exact source slice (string
    /// literals keep their quotes and escapes, so rules can read their
    /// contents).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
    /// Byte offset of the token's first byte in the source.
    pub start: usize,
    /// Byte offset one past the token's last byte.
    pub end: usize,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// One comment (line or block) with its 1-based starting line and span.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text including the `//` / `/*` introducer.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Byte offset of the comment's first byte.
    pub start: usize,
    /// Byte offset one past the comment's last byte.
    pub end: usize,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

/// Lexes `src` into tokens and comments. Unterminated constructs (an
/// unclosed string or block comment) consume the rest of the file rather
/// than erroring: the auditor must keep scanning a file that rustc would
/// reject, and the worst case is a missed diagnostic at the broken tail.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        chars: src.chars().collect(),
        src,
        pos: 0,
        byte: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'s> {
    chars: Vec<char>,
    src: &'s str,
    pos: usize,
    /// Byte offset of `chars[pos]` in `src`.
    byte: usize,
    line: u32,
    out: Lexed,
}

/// Literal-capable prefixes: `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'x'`,
/// `c"…"`, `cr#"…"#`.
const STRING_PREFIXES: [&str; 5] = ["r", "b", "br", "c", "cr"];

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

impl Lexer<'_> {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        self.byte += c.len_utf8();
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek() {
            if c.is_whitespace() {
                self.bump();
            } else if c == '/' && self.peek_at(1) == Some('/') {
                self.line_comment();
            } else if c == '/' && self.peek_at(1) == Some('*') {
                self.block_comment();
            } else if is_ident_start(c) {
                self.ident_or_prefixed_literal();
            } else if c.is_ascii_digit() {
                self.number();
            } else if c == '"' {
                let (line, start) = (self.line, self.byte);
                self.string(line, start);
            } else if c == '\'' {
                self.lifetime_or_char();
            } else {
                let (line, start) = (self.line, self.byte);
                self.bump();
                self.push(TokKind::Punct, c.to_string(), line, start);
            }
        }
        self.out
    }

    /// Pushes a token ending at the current byte position.
    fn push(&mut self, kind: TokKind, text: String, line: u32, start: usize) {
        self.out.tokens.push(Token {
            kind,
            text,
            line,
            start,
            end: self.byte,
        });
    }

    /// Pushes a literal whose text is the exact source slice.
    fn push_slice_literal(&mut self, line: u32, start: usize) {
        let text = self.src[start..self.byte].to_string();
        self.push(TokKind::Literal, text, line, start);
    }

    fn line_comment(&mut self) {
        let (line, start) = (self.line, self.byte);
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment {
            text,
            line,
            start,
            end: self.byte,
        });
    }

    fn block_comment(&mut self) {
        let (line, start) = (self.line, self.byte);
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek() {
            if c == '/' && self.peek_at(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek_at(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.out.comments.push(Comment {
            text,
            line,
            start,
            end: self.byte,
        });
    }

    fn ident_text(&mut self) -> String {
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if is_ident_continue(c) {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        text
    }

    fn ident_or_prefixed_literal(&mut self) {
        let (line, start) = (self.line, self.byte);
        let text = self.ident_text();
        if STRING_PREFIXES.contains(&text.as_str()) {
            // `b"…"`, `c"…"`, `r"…"` — prefixed plain string.
            if self.peek() == Some('"') {
                self.string(line, start);
                return;
            }
            // `b'x'` — byte literal.
            if text == "b" && self.peek() == Some('\'') {
                self.char_literal(line, start);
                return;
            }
            // `r#"…"#` / `br##"…"##` — raw string; `r#ident` — raw ident.
            if text.ends_with('r') && self.peek() == Some('#') {
                let mut fence = 0;
                while self.peek_at(fence) == Some('#') {
                    fence += 1;
                }
                if self.peek_at(fence) == Some('"') {
                    self.raw_string(fence, line, start);
                    return;
                }
                if text == "r" && fence == 1 {
                    self.bump(); // the '#'
                    let raw = self.ident_text();
                    self.push(TokKind::Ident, raw, line, start);
                    return;
                }
            }
        }
        self.push(TokKind::Ident, text, line, start);
    }

    fn number(&mut self) {
        let (line, start) = (self.line, self.byte);
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if is_ident_continue(c) {
                text.push(c);
                self.bump();
            } else if c == '.' && self.peek_at(1).is_some_and(|d| d.is_ascii_digit()) {
                // Fraction — but never consume `1..2`'s range dots.
                text.push(c);
                self.bump();
            } else if (c == '+' || c == '-')
                && matches!(text.chars().last(), Some('e') | Some('E'))
                && self.peek_at(1).is_some_and(|d| d.is_ascii_digit())
            {
                // Signed exponent: `1e-3`.
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Literal, text, line, start);
    }

    /// Lexes a plain (possibly prefixed) string literal whose opening
    /// quote is at the current position; the span starts at `start`,
    /// which precedes any already-consumed `b`/`c`/`r` prefix.
    fn string(&mut self, line: u32, start: usize) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            if c == '\\' {
                self.bump(); // whatever is escaped, including `\"` and `\\`
            } else if c == '"' {
                break;
            }
        }
        self.push_slice_literal(line, start);
    }

    fn raw_string(&mut self, fence: usize, line: u32, start: usize) {
        for _ in 0..=fence {
            self.bump(); // the '#'s and the opening quote
        }
        while let Some(c) = self.bump() {
            if c == '"' {
                let closed = (0..fence).all(|i| self.peek_at(i) == Some('#'));
                if closed {
                    for _ in 0..fence {
                        self.bump();
                    }
                    break;
                }
            }
        }
        self.push_slice_literal(line, start);
    }

    fn char_literal(&mut self, line: u32, start: usize) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            if c == '\\' {
                self.bump();
            } else if c == '\'' {
                break;
            }
        }
        self.push_slice_literal(line, start);
    }

    fn lifetime_or_char(&mut self) {
        // A quote followed by an identifier is a lifetime — unless the
        // identifier is itself followed by a closing quote (`'a'`).
        let mut ahead = 1;
        let mut saw_ident = false;
        while self.peek_at(ahead).is_some_and(is_ident_continue) {
            saw_ident = true;
            ahead += 1;
        }
        let (line, start) = (self.line, self.byte);
        if saw_ident
            && self.peek_at(ahead) != Some('\'')
            && self.peek_at(1).is_some_and(is_ident_start)
        {
            self.bump(); // quote
            let name = self.ident_text();
            self.push(TokKind::Lifetime, format!("'{name}"), line, start);
        } else {
            self.char_literal(line, start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn idents_not_found_inside_strings_or_comments() {
        let src = r##"
            // HashMap in a comment
            /* Instant::now() in a block /* nested */ comment */
            let s = "HashMap::new()";
            let r = r#"thread_rng "quoted" here"#;
            let real = HashMap::new();
        "##;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|i| *i == "HashMap").count(), 1);
        assert!(!ids.iter().any(|i| i == "thread_rng"));
        assert!(!ids.iter().any(|i| i == "Instant"));
    }

    #[test]
    fn lifetimes_and_chars_disambiguate() {
        let lexed = lex("fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; }");
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "'a"));
    }

    #[test]
    fn raw_identifiers_normalize() {
        let ids = idents("let r#match = 1; let x = r#fn;");
        assert!(ids.contains(&"match".to_string()));
        assert!(ids.contains(&"fn".to_string()));
    }

    #[test]
    fn byte_and_raw_strings_are_single_literals() {
        let lexed = lex(r###"let a = b"bytes"; let b = br#"raw "b" # ok"#; let c = b'x';"###);
        let lits = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .count();
        assert_eq!(lits, 3);
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let src = "let a = \"two\nlines\";\nlet b = 1;";
        let lexed = lex(src);
        let b = lexed.tokens.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn comments_are_collected_with_lines() {
        let src = "let x = 1; // audit:allow(determinism): reason\n// plain\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].line, 1);
        assert!(lexed.comments[0].text.contains("audit:allow"));
        assert_eq!(lexed.comments[1].line, 2);
    }

    #[test]
    fn numbers_do_not_swallow_range_dots() {
        let lexed = lex("for i in 0..10 { let f = 1.5e-3; }");
        let dots = lexed.tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2);
        assert!(lexed
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Literal && t.text == "1.5e-3"));
    }

    #[test]
    fn string_literals_keep_exact_text_and_content() {
        let lexed = lex("let a = \"eval\"; let b = r#\"raw\"#;");
        let lits: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .collect();
        assert_eq!(lits[0].text, "\"eval\"");
        assert_eq!(lits[1].text, "r#\"raw\"#");
    }

    #[test]
    fn spans_partition_sources() {
        let src = "fn f<'a>(x: &'a str) -> u8 { let c = 'x'; b\"by\"; /* hi */ 0 } // t\n";
        let lexed = lex(src);
        let mut spans: Vec<(usize, usize)> = lexed
            .tokens
            .iter()
            .map(|t| (t.start, t.end))
            .chain(lexed.comments.iter().map(|c| (c.start, c.end)))
            .collect();
        spans.sort_unstable();
        let mut cursor = 0;
        for (s, e) in spans {
            assert!(s >= cursor, "overlap at byte {s}");
            assert!(
                src[cursor..s].chars().all(char::is_whitespace),
                "non-whitespace gap {:?}",
                &src[cursor..s]
            );
            cursor = e;
        }
        assert!(src[cursor..].chars().all(char::is_whitespace));
    }
}
