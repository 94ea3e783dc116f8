//! One scanned Rust source file: its token stream, its
//! `// audit:allow(rule): reason` escape hatches, and a mask of the
//! token ranges that only compile under `#[cfg(test)]` (audit rules skip
//! test-only code — tests may use wall clocks and skip fsyncs freely).

use crate::lexer::{lex, Lexed, Token};
use std::path::{Path, PathBuf};

/// A parsed `// audit:allow(rule): reason` comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule this allow suppresses.
    pub rule: String,
    /// The justification after the colon (never empty).
    pub reason: String,
    /// 1-based line of the comment.
    pub line: u32,
}

/// A malformed allow comment (missing rule, missing reason).
#[derive(Debug, Clone)]
pub struct BadAllow {
    /// Why the comment does not parse.
    pub problem: String,
    /// 1-based line of the comment.
    pub line: u32,
}

/// A lexed source file plus the audit-relevant views of it.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root (what diagnostics print).
    pub rel_path: PathBuf,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Well-formed allow comments.
    pub allows: Vec<Allow>,
    /// Malformed allow comments (reported by the `allow-syntax` rule).
    pub bad_allows: Vec<BadAllow>,
    /// `mask[i]` is true when token `i` is inside `#[cfg(test)]` code.
    test_mask: Vec<bool>,
}

impl SourceFile {
    /// Lexes `src` (already read from disk) into a source model.
    pub fn parse(rel_path: &Path, src: &str) -> Self {
        let Lexed { tokens, comments } = lex(src);
        let mut allows = Vec::new();
        let mut bad_allows = Vec::new();
        for c in &comments {
            match parse_allow(&c.text) {
                AllowParse::NotAnAllow => {}
                AllowParse::Ok { rule, reason } => allows.push(Allow {
                    rule,
                    reason,
                    line: c.line,
                }),
                AllowParse::Bad(problem) => bad_allows.push(BadAllow {
                    problem,
                    line: c.line,
                }),
            }
        }
        let test_mask = cfg_test_mask(&tokens);
        SourceFile {
            rel_path: rel_path.to_path_buf(),
            tokens,
            allows,
            bad_allows,
            test_mask,
        }
    }

    /// Whether token `i` is inside `#[cfg(test)]`-gated code.
    pub fn is_test_code(&self, i: usize) -> bool {
        self.test_mask.get(i).copied().unwrap_or(false)
    }
}

enum AllowParse {
    NotAnAllow,
    Ok { rule: String, reason: String },
    Bad(String),
}

/// Parses `audit:allow(rule): reason` out of a comment body.
fn parse_allow(comment: &str) -> AllowParse {
    let body = comment.trim_start_matches(['/', '*', '!']).trim_start();
    let Some(rest) = body.strip_prefix("audit:allow") else {
        // Catch near-misses like `audit: allow` so a typo cannot silently
        // disable itself.
        if body.starts_with("audit:") && body.contains("allow") {
            return AllowParse::Bad(
                "malformed allow: expected `audit:allow(rule): reason`".to_string(),
            );
        }
        return AllowParse::NotAnAllow;
    };
    let Some(rest) = rest.strip_prefix('(') else {
        return AllowParse::Bad("missing `(rule)` after audit:allow".to_string());
    };
    let Some(close) = rest.find(')') else {
        return AllowParse::Bad("unclosed `(` in audit:allow".to_string());
    };
    let rule = rest[..close].trim().to_string();
    if rule.is_empty() {
        return AllowParse::Bad("empty rule name in audit:allow".to_string());
    }
    let tail = rest[close + 1..].trim_start();
    let Some(reason) = tail.strip_prefix(':') else {
        return AllowParse::Bad(format!("audit:allow({rule}) is missing `: reason`"));
    };
    let reason = reason.trim().trim_end_matches("*/").trim().to_string();
    if reason.is_empty() {
        return AllowParse::Bad(format!("audit:allow({rule}) has an empty reason"));
    }
    AllowParse::Ok { rule, reason }
}

/// Marks the token ranges belonging to `#[cfg(test)]`-gated items.
///
/// Recognizes `#[cfg(test)]` (and any `cfg(...)` whose argument list
/// mentions `test`, e.g. `#[cfg(all(test, unix))]`), then masks the
/// following item: subsequent attributes are skipped, and the item body
/// extends to its matching closing brace (or to the first `;` for
/// body-less items).
fn cfg_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if let Some(after_attr) = cfg_test_attr_end(tokens, i) {
            let start = i;
            let end = item_end(tokens, after_attr);
            for flag in mask.iter_mut().take(end).skip(start) {
                *flag = true;
            }
            i = end;
        } else {
            i += 1;
        }
    }
    mask
}

/// If tokens at `i` start a `#[cfg(…test…)]` attribute, returns the index
/// one past its closing `]`.
fn cfg_test_attr_end(tokens: &[Token], i: usize) -> Option<usize> {
    if !(tokens.get(i)?.is_punct('#') && tokens.get(i + 1)?.is_punct('[')) {
        return None;
    }
    if !tokens.get(i + 2)?.is_ident("cfg") || !tokens.get(i + 3)?.is_punct('(') {
        return None;
    }
    let mut depth = 1usize;
    let mut saw_test = false;
    let mut j = i + 4;
    while j < tokens.len() && depth > 0 {
        let t = &tokens[j];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
        } else if t.is_ident("test") {
            saw_test = true;
        }
        j += 1;
    }
    if !saw_test || !tokens.get(j)?.is_punct(']') {
        return None;
    }
    Some(j + 1)
}

/// Returns the index one past the end of the item starting at `i`:
/// attributes are skipped, then everything up to the matching `}` of the
/// first top-level brace (or the first `;` before any brace).
fn item_end(tokens: &[Token], mut i: usize) -> usize {
    // Skip any further attributes (`#[test]`, `#[allow(…)]`, …).
    while i + 1 < tokens.len() && tokens[i].is_punct('#') && tokens[i + 1].is_punct('[') {
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < tokens.len() {
            if tokens[j].is_punct('[') {
                depth += 1;
            } else if tokens[j].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        i = (j + 1).min(tokens.len());
    }
    // Scan to the item's end.
    let mut j = i;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct(';') {
            return j + 1;
        }
        if t.is_punct('{') {
            let mut depth = 0usize;
            while j < tokens.len() {
                if tokens[j].is_punct('{') {
                    depth += 1;
                } else if tokens[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                j += 1;
            }
            return tokens.len();
        }
        j += 1;
    }
    tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_src(src: &str) -> SourceFile {
        SourceFile::parse(Path::new("x.rs"), src)
    }

    #[test]
    fn allow_comments_parse_with_rule_and_reason() {
        let f =
            parse_src("let a = 1; // audit:allow(determinism): wall clock feeds telemetry only\n");
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rule, "determinism");
        assert_eq!(f.allows[0].line, 1);
        assert!(f.bad_allows.is_empty());
    }

    #[test]
    fn malformed_allows_are_reported_not_ignored() {
        for bad in [
            "// audit:allow(determinism)\n",        // no reason
            "// audit:allow: forgot the rule\n",    // no (rule)
            "// audit:allow(layering):   \n",       // empty reason
            "// audit: allow(determinism): typo\n", // near-miss
        ] {
            let f = parse_src(bad);
            assert!(f.allows.is_empty(), "{bad:?} parsed as valid");
            assert_eq!(f.bad_allows.len(), 1, "{bad:?} not reported");
        }
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let f = parse_src(
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n",
        );
        let unwrap_pos = f.tokens.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(f.is_test_code(unwrap_pos));
        let live = f.tokens.iter().position(|t| t.is_ident("live")).unwrap();
        let after = f.tokens.iter().position(|t| t.is_ident("after")).unwrap();
        assert!(!f.is_test_code(live));
        assert!(!f.is_test_code(after));
    }

    #[test]
    fn cfg_all_test_and_item_attributes_are_masked() {
        let f = parse_src(
            "#[cfg(all(test, unix))]\n#[allow(dead_code)]\nfn helper() { y.unwrap(); }\n",
        );
        let unwrap_pos = f.tokens.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(f.is_test_code(unwrap_pos));
    }

    #[test]
    fn non_test_cfg_is_not_masked() {
        let f = parse_src("#[cfg(feature = \"faultinject\")]\nfn gated() { z.unwrap(); }\n");
        let unwrap_pos = f.tokens.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(!f.is_test_code(unwrap_pos));
    }
}
