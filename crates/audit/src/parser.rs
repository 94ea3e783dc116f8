//! A lightweight structural parser over the token stream.
//!
//! The flow-aware rules (durability-protocol, nondet-taint,
//! swallowed-result) need more than token matching: they reason about
//! *functions* (brace-matched bodies), *`let` bindings* (which names a
//! statement introduces and from what initializer) and *call sites*
//! (method calls with reconstructed receiver paths, and free/path
//! calls). This module recovers exactly that much structure — and no
//! more — from the lexer's tokens. It is not a Rust parser: expressions
//! stay flat token ranges, types are skipped by bracket matching, and
//! macros are opaque except for their argument tokens.
//!
//! Heuristics are byte-span assisted: `>=`/`=>`/`==` are distinguished
//! from a bare assignment `=` by checking whether adjacent punctuation
//! tokens touch in the source, which the lexer's spans make exact.

use crate::lexer::{TokKind, Token};
use crate::source::SourceFile;

/// One `fn` item (including nested fns, which also appear as their own
/// entries) in non-test code.
#[derive(Debug, Clone)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token indices of the body braces: `toks[body.0]` is `{`,
    /// `toks[body.1]` is the matching `}`.
    pub body: (usize, usize),
}

/// Finds every named `fn` with a body outside `#[cfg(test)]` code.
pub fn functions(src: &SourceFile) -> Vec<Function> {
    let toks = &src.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn")
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            && !src.is_test_code(i)
        {
            if let Some(body) = body_span(toks, i + 2) {
                out.push(Function {
                    name: toks[i + 1].text.clone(),
                    line: toks[i].line,
                    body,
                });
                // Step inside: nested fns become their own entries.
                i = body.0 + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Finds the `{ … }` body of a function whose signature starts at token
/// `i`; `None` for body-less declarations (`fn f();` in traits). Returns
/// the indices of the opening and closing braces.
pub fn body_span(toks: &[Token], mut i: usize) -> Option<(usize, usize)> {
    let mut paren_depth = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('(') {
            paren_depth += 1;
        } else if t.is_punct(')') {
            paren_depth = paren_depth.saturating_sub(1);
        } else if paren_depth == 0 {
            if t.is_punct(';') {
                return None;
            }
            if t.is_punct('{') {
                let start = i;
                let mut depth = 0usize;
                while i < toks.len() {
                    if toks[i].is_punct('{') {
                        depth += 1;
                    } else if toks[i].is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            return Some((start, i));
                        }
                    }
                    i += 1;
                }
                return Some((start, toks.len().saturating_sub(1)));
            }
        }
        i += 1;
    }
    None
}

/// Reconstructs the dotted receiver path ending at token `leaf`
/// (`self.shared.state` → `shared.state`); `None` when the receiver is
/// not a plain ident path (e.g. `make().lock()`).
fn receiver_path(toks: &[Token], leaf: usize) -> Option<String> {
    receiver_start(toks, leaf).map(|start| {
        let mut parts: Vec<&str> = (start..=leaf)
            .step_by(2)
            .map(|i| toks[i].text.as_str())
            .collect();
        if parts.first() == Some(&"self") && parts.len() > 1 {
            parts.remove(0);
        }
        parts.join(".")
    })
}

/// The first token of the dotted ident path ending at `leaf` (every
/// other token is a `.`).
fn receiver_start(toks: &[Token], leaf: usize) -> Option<usize> {
    if toks.get(leaf)?.kind != TokKind::Ident {
        return None;
    }
    let mut i = leaf;
    while i >= 2 && toks[i - 1].is_punct('.') && toks[i - 2].kind == TokKind::Ident {
        i -= 2;
    }
    Some(i)
}

/// Whether the tokens starting at `i` spell `path` (segments separated
/// by `::`), e.g. `Instant :: now` for `"Instant::now"`. A single-segment
/// `path` matches a bare ident.
pub fn matches_call_path(toks: &[Token], i: usize, path: &str) -> bool {
    let mut j = i;
    for (n, seg) in path.split("::").enumerate() {
        if n > 0 {
            if !(toks.get(j).is_some_and(|t| t.is_punct(':'))
                && toks.get(j + 1).is_some_and(|t| t.is_punct(':')))
            {
                return false;
            }
            j += 2;
        }
        if !toks.get(j).is_some_and(|t| t.is_ident(seg)) {
            return false;
        }
        j += 1;
    }
    true
}

/// Whether punct token `i` and punct token `j` touch in the source —
/// i.e. they form one multi-character operator (`==`, `=>`, `>=`…).
fn touching(toks: &[Token], i: usize, j: usize) -> bool {
    toks[i].end == toks[j].start
}

/// Whether token `i` is a *bare assignment* `=`: a `=` punct that is not
/// glued to a neighbor forming `==`, `=>`, `<=`, `>=`, `!=`, `+=` etc.
pub fn is_assign_eq(toks: &[Token], i: usize) -> bool {
    if !toks[i].is_punct('=') {
        return false;
    }
    if let Some(n) = toks.get(i + 1) {
        if (n.is_punct('=') || n.is_punct('>')) && touching(toks, i, i + 1) {
            return false;
        }
    }
    if i > 0 {
        let p = &toks[i - 1];
        let compound = ["=", "!", "<", ">", "+", "-", "*", "/", "%", "&", "|", "^"]
            .iter()
            .any(|c| p.kind == TokKind::Punct && p.text == *c);
        if compound && touching(toks, i - 1, i) {
            return false;
        }
    }
    true
}

/// One `let` binding statement.
#[derive(Debug, Clone)]
pub struct LetBinding {
    /// Lower-case-ish names the pattern introduces (`let (a, b) = …` →
    /// `["a", "b"]`; enum/struct constructors in the pattern are skipped
    /// by their leading capital).
    pub names: Vec<String>,
    /// Whether the pattern is exactly the wildcard `_`.
    pub is_wildcard: bool,
    /// Token index of the `let` keyword.
    pub let_idx: usize,
    /// Token range `(first, last)` of the initializer expression, both
    /// inclusive. Empty (`first > last`) for `let x;`.
    pub init: (usize, usize),
    /// Token index one past the end of the statement (past the `;`, or
    /// past the `else { … }` block of a let-else).
    pub stmt_end: usize,
    /// 1-based line of the `let`.
    pub line: u32,
}

/// Extracts the `let` bindings in the body span `(open, close)` (brace
/// token indices, exclusive of the braces themselves). Bindings inside
/// nested blocks are included; bindings inside nested `fn` items are
/// not (those fns are analyzed separately).
pub fn let_bindings(toks: &[Token], body: (usize, usize)) -> Vec<LetBinding> {
    let mut out = Vec::new();
    let mut i = body.0 + 1;
    while i < body.1 {
        if toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            if let Some((_, nested_close)) = body_span(toks, i + 2) {
                i = nested_close + 1;
                continue;
            }
        }
        // `if let` / `while let` are pattern matches, not bindings with
        // an initializer statement; skip the `let` keyword itself (the
        // scrutinee is ordinary expression tokens, still visible to
        // token-level scans).
        if toks[i].is_ident("let")
            && !(i > body.0 + 1 && (toks[i - 1].is_ident("if") || toks[i - 1].is_ident("while")))
        {
            if let Some(b) = parse_let(toks, i, body.1) {
                // Keep scanning from just past the `let` keyword, not
                // from `stmt_end`: block-valued initializers (`let r =
                // match … { … };`) can contain further `let` statements
                // of their own.
                out.push(b);
            }
        }
        i += 1;
    }
    out
}

/// Parses one `let` statement starting at the `let` keyword index.
fn parse_let(toks: &[Token], let_idx: usize, limit: usize) -> Option<LetBinding> {
    // Find the assignment `=` at bracket depth 0 (angle-depth aware for
    // type annotations like `let x: Map<K, V> = …`).
    let mut j = let_idx + 1;
    let (mut paren, mut bracket, mut brace, mut angle) = (0i32, 0i32, 0i32, 0i32);
    let mut eq = None;
    while j < limit {
        let t = &toks[j];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if t.is_punct('{') {
            brace += 1;
        } else if t.is_punct('}') {
            brace -= 1;
        } else if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            // `->` in an fn-pointer type annotation is not a closer.
            let arrow = j > 0 && toks[j - 1].is_punct('-') && touching(toks, j - 1, j);
            if !arrow && angle > 0 {
                angle -= 1;
            }
        } else if paren <= 0 && bracket <= 0 && brace <= 0 {
            if t.is_punct(';') {
                // `let x;` — no initializer.
                let names = pattern_names(toks, let_idx + 1, j);
                return Some(LetBinding {
                    is_wildcard: names.1,
                    names: names.0,
                    let_idx,
                    init: (j, j.saturating_sub(1)), // empty range
                    stmt_end: j + 1,
                    line: toks[let_idx].line,
                });
            }
            if angle <= 0 && is_assign_eq(toks, j) {
                eq = Some(j);
                break;
            }
        }
        if paren < 0 || brace < 0 || bracket < 0 {
            return None; // ran off the enclosing block — malformed
        }
        j += 1;
    }
    let eq = eq?;
    // Initializer runs to the `;` at depth 0 (or the `else` of let-else).
    let mut k = eq + 1;
    let (mut paren, mut bracket, mut brace) = (0i32, 0i32, 0i32);
    while k < limit {
        let t = &toks[k];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if t.is_punct('{') {
            brace += 1;
        } else if t.is_punct('}') {
            brace -= 1;
        } else if paren == 0 && bracket == 0 && brace == 0 {
            if t.is_punct(';') {
                let names = pattern_names(toks, let_idx + 1, eq);
                return Some(LetBinding {
                    is_wildcard: names.1,
                    names: names.0,
                    let_idx,
                    init: (eq + 1, k - 1),
                    stmt_end: k + 1,
                    line: toks[let_idx].line,
                });
            }
            if t.is_ident("else") {
                // let-else: the diverging block ends the statement.
                if let Some((_, close)) = body_span(toks, k + 1) {
                    let names = pattern_names(toks, let_idx + 1, eq);
                    return Some(LetBinding {
                        is_wildcard: names.1,
                        names: names.0,
                        let_idx,
                        init: (eq + 1, k - 1),
                        stmt_end: close + 1,
                        line: toks[let_idx].line,
                    });
                }
            }
        }
        if paren < 0 || brace < 0 || bracket < 0 {
            break;
        }
        k += 1;
    }
    None
}

/// Names bound by the pattern tokens in `[start, end)`, plus whether the
/// pattern is exactly `_`. The type annotation after a top-level `:` is
/// excluded; capitalized idents (enum variants, structs, types) and
/// pattern keywords are skipped.
fn pattern_names(toks: &[Token], start: usize, end: usize) -> (Vec<String>, bool) {
    // Cut the pattern at the top-level `:` (type annotation).
    let mut depth = 0i32;
    let mut pat_end = end;
    for i in start..end {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 && t.is_punct(':') {
            // `::` in a variant path is two touching colons.
            let double = toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && touching(toks, i, i + 1)
                || i > start && toks[i - 1].is_punct(':') && touching(toks, i - 1, i);
            if !double {
                pat_end = i;
                break;
            }
        }
    }
    let pat: Vec<&Token> = toks[start..pat_end].iter().collect();
    let is_wildcard = pat.len() == 1 && pat[0].is_ident("_");
    let mut names = Vec::new();
    for (off, t) in pat.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        if name == "_" || matches!(name, "mut" | "ref" | "box") {
            continue;
        }
        if name.chars().next().is_some_and(char::is_uppercase) {
            continue; // Some / Ok / a struct name in a pattern
        }
        // A path segment (`mod::name`) names a constant, not a binding.
        let i = start + off;
        let after_colons = i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');
        if after_colons {
            continue;
        }
        names.push(name.to_string());
    }
    (names, is_wildcard)
}

/// The token index one past the matching `)` for the `(` at `open`.
pub fn close_paren(toks: &[Token], open: usize) -> Option<usize> {
    if !toks.get(open)?.is_punct('(') {
        return None;
    }
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// One call site: a method call (`recv.path.method(args)`), a free or
/// path call (`rename(a, b)`, `std::fs::rename(a, b)`), or a macro
/// invocation (`write!(out, …)`).
#[derive(Debug, Clone)]
pub struct Call {
    /// Final name: the method, the last path segment, or the macro name.
    pub name: String,
    /// For method calls, the reconstructed dotted receiver path (leading
    /// `self.` stripped); `None` for free calls, macros, and method
    /// calls on non-path receivers (`make().lock()`).
    pub recv: Option<String>,
    /// Full `::`-joined path for path calls (`std::fs::rename`); equals
    /// `name` for bare calls; `None` for method calls.
    pub path: Option<String>,
    /// Token index where the whole call expression starts (first
    /// receiver/path token, or the macro name).
    pub start: usize,
    /// Token index of the call's name token.
    pub name_idx: usize,
    /// Token indices of the argument parens/brackets: `args.0` opens,
    /// `args.1` closes.
    pub args: (usize, usize),
    /// Whether this is a macro invocation (`name!`).
    pub is_macro: bool,
    /// 1-based line of the name token.
    pub line: u32,
}

impl Call {
    /// All identifier texts appearing in the argument list.
    pub fn arg_idents<'t>(&self, toks: &'t [Token]) -> impl Iterator<Item = &'t str> {
        toks[self.args.0 + 1..self.args.1]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
    }
}

/// Extracts every call site in `toks[range.0..=range.1]` in source
/// order. Nested `fn` bodies are skipped (they are analyzed as their
/// own functions).
pub fn calls_in(toks: &[Token], range: (usize, usize)) -> Vec<Call> {
    let mut out = Vec::new();
    let mut i = range.0;
    while i <= range.1 && i < toks.len() {
        if toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            if let Some((_, nested_close)) = body_span(toks, i + 2) {
                i = nested_close + 1;
                continue;
            }
        }
        if toks[i].kind == TokKind::Ident {
            if let Some(call) = call_at(toks, i) {
                i = call.name_idx + 1; // args still get scanned for nested calls
                out.push(call);
                continue;
            }
        }
        i += 1;
    }
    out
}

/// If the ident at `i` is the name of a call, builds the [`Call`].
fn call_at(toks: &[Token], i: usize) -> Option<Call> {
    let next = toks.get(i + 1)?;
    // Macro: `name!(…)` / `name![…]` — brace-form macros are item-like
    // (vec of statements), skip those.
    if next.is_punct('!') {
        let open = toks.get(i + 2)?;
        if open.is_punct('(') || open.is_punct('[') {
            let close = if open.is_punct('(') {
                close_paren(toks, i + 2)?
            } else {
                close_bracket(toks, i + 2)?
            };
            return Some(Call {
                name: toks[i].text.clone(),
                recv: None,
                path: None,
                start: i,
                name_idx: i,
                args: (i + 2, close),
                is_macro: true,
                line: toks[i].line,
            });
        }
        return None;
    }
    // Possibly `name::<T>(…)` — skip the turbofish.
    let open_idx = if next.is_punct('(') {
        i + 1
    } else if next.is_punct(':')
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.is_punct('<'))
    {
        let mut depth = 0i32;
        let mut j = i + 3;
        loop {
            let t = toks.get(j)?;
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        if !toks.get(j + 1)?.is_punct('(') {
            return None;
        }
        j + 1
    } else {
        return None;
    };
    let close = close_paren(toks, open_idx)?;

    // Method call: preceded by `.`.
    if i >= 1 && toks[i - 1].is_punct('.') {
        let recv = if i >= 2 {
            receiver_path(toks, i - 2)
        } else {
            None
        };
        let start = if i >= 2 {
            receiver_start(toks, i - 2).unwrap_or(i)
        } else {
            i
        };
        return Some(Call {
            name: toks[i].text.clone(),
            recv,
            path: None,
            start,
            name_idx: i,
            args: (open_idx, close),
            is_macro: false,
            line: toks[i].line,
        });
    }
    // Path or bare call: walk back over `seg::`.
    let mut first = i;
    while first >= 3
        && toks[first - 1].is_punct(':')
        && toks[first - 2].is_punct(':')
        && toks[first - 3].kind == TokKind::Ident
    {
        first -= 3;
    }
    let path: String = (first..=i)
        .step_by(3)
        .map(|k| toks[k].text.as_str())
        .collect::<Vec<_>>()
        .join("::");
    Some(Call {
        name: toks[i].text.clone(),
        recv: None,
        path: Some(path),
        start: first,
        name_idx: i,
        args: (open_idx, close),
        is_macro: false,
        line: toks[i].line,
    })
}

fn close_bracket(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse(Path::new("p.rs"), src)
    }

    /// Whether any token in `[range.0, range.1]` is the ident `name`.
    fn range_mentions(toks: &[Token], range: (usize, usize), name: &str) -> bool {
        if range.0 > range.1 {
            return false;
        }
        toks[range.0..=(range.1).min(toks.len() - 1)]
            .iter()
            .any(|t| t.is_ident(name))
    }

    #[test]
    fn functions_and_bodies_are_found() {
        let f = parse("fn a() { fn b() {} }\ntrait T { fn c(); }\nfn d(x: u8) -> u8 { x }\n");
        let fns = functions(&f);
        let names: Vec<_> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "d"]);
    }

    #[test]
    fn let_bindings_parse_names_inits_and_wildcards() {
        let f = parse(
            "fn f() {\n\
               let a = mk();\n\
               let (b, mut c) = pair();\n\
               let _ = file.sync_all();\n\
               let Some(d) = opt else { return; };\n\
               let e: Vec<u8> = Vec::new();\n\
               let g: std::collections::BTreeMap<K, V> = Default::default();\n\
             }\n",
        );
        let fns = functions(&f);
        let lets = let_bindings(&f.tokens, fns[0].body);
        assert_eq!(lets.len(), 6);
        assert_eq!(lets[0].names, vec!["a"]);
        assert_eq!(lets[1].names, vec!["b", "c"]);
        assert!(lets[2].is_wildcard && lets[2].names.is_empty());
        assert_eq!(lets[3].names, vec!["d"]);
        assert_eq!(lets[4].names, vec!["e"]);
        assert_eq!(lets[5].names, vec!["g"]);
        // Initializer of the wildcard binding mentions sync_all.
        assert!(range_mentions(&f.tokens, lets[2].init, "sync_all"));
        // The generic type annotation did not eat the `=`.
        assert!(range_mentions(&f.tokens, lets[5].init, "default"));
    }

    #[test]
    fn lets_nested_in_block_valued_inits_are_found() {
        // `let _ = term.trigger();` inside the match arm must be visible
        // — swallowed-result depends on it.
        let f = parse(
            "fn f() {\n\
               let reply = match cmd {\n\
                 Cmd::Stop => { let _ = term.trigger(); ok() }\n\
                 _ => err(),\n\
               };\n\
             }\n",
        );
        let fns = functions(&f);
        let lets = let_bindings(&f.tokens, fns[0].body);
        assert_eq!(lets.len(), 2, "{lets:?}");
        assert_eq!(lets[0].names, vec!["reply"]);
        assert!(lets[1].is_wildcard);
        assert!(range_mentions(&f.tokens, lets[1].init, "trigger"));
    }

    #[test]
    fn if_let_and_comparisons_are_not_bindings() {
        let f = parse(
            "fn f() {\n\
               if let Some(x) = opt { use_it(x); }\n\
               while let Ok(y) = rx.recv() {}\n\
               let ok = a <= b && c >= d && e == g;\n\
             }\n",
        );
        let fns = functions(&f);
        let lets = let_bindings(&f.tokens, fns[0].body);
        assert_eq!(lets.len(), 1, "{lets:?}");
        assert_eq!(lets[0].names, vec!["ok"]);
    }

    #[test]
    fn calls_extract_methods_paths_and_macros() {
        let f = parse(
            "fn f() {\n\
               self.out.write_all(buf)?;\n\
               std::fs::rename(tmp, fin)?;\n\
               writeln!(log, \"x\")?;\n\
               mk().lock();\n\
               bare(1);\n\
               Vec::<u8>::with_capacity(4);\n\
             }\n",
        );
        let fns = functions(&f);
        let calls = calls_in(&f.tokens, (fns[0].body.0 + 1, fns[0].body.1 - 1));
        let names: Vec<_> = calls.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"write_all"));
        assert!(names.contains(&"rename"));
        assert!(names.contains(&"writeln"));
        assert!(names.contains(&"lock"));
        assert!(names.contains(&"bare"));
        let wa = calls.iter().find(|c| c.name == "write_all").unwrap();
        assert_eq!(wa.recv.as_deref(), Some("out"));
        let rn = calls.iter().find(|c| c.name == "rename").unwrap();
        assert_eq!(rn.path.as_deref(), Some("std::fs::rename"));
        assert_eq!(
            rn.arg_idents(&f.tokens).collect::<Vec<_>>(),
            vec!["tmp", "fin"]
        );
        let lk = calls.iter().find(|c| c.name == "lock").unwrap();
        assert!(lk.recv.is_none(), "chained receiver is not a path");
        let wl = calls.iter().find(|c| c.name == "writeln").unwrap();
        assert!(wl.is_macro);
    }

    #[test]
    fn assign_eq_distinguishes_operators_via_spans() {
        let f = parse("fn f() { a = 1; b == 2; c <= 3; d => 4; e += 5; }\n");
        let toks = &f.tokens;
        let eqs: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(i, t)| t.is_punct('=') && is_assign_eq(toks, *i))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(eqs.len(), 1, "only `a = 1` has a bare =");
        assert!(toks[eqs[0] - 1].is_ident("a"));
    }
}
