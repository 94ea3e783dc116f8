//! Rule `nondet-taint`: nondeterminism must not *flow* into journaled,
//! objective, or wire surfaces.
//!
//! The question is not "does this file mention a clock?" but "does a
//! clock value *reach* a replayed surface?" — the actual invariant, and
//! precise enough that the covered paths can be entire crates.
//!
//! Mechanics, per function (intra-procedural, statement-ordered):
//!
//! - **Sources** ([`SOURCES`]): `Instant::now()`, `SystemTime::now()`,
//!   `thread_rng()`, `from_entropy()`, hasher constructions. A call
//!   expression containing a source is tainted.
//! - **Propagation**: `let x = <tainted>` taints `x`; `x = <tainted>`
//!   re-taints; any expression mentioning a tainted name is tainted.
//! - **Sinks** ([`SINKS`]): journal record constructors/appenders,
//!   frame writes, objective observations. A sink call with a tainted
//!   argument — or a source called directly in its arguments — is a
//!   violation.
//!
//! Two honest limits, by design: flows through `self` fields and across
//! function boundaries are not tracked (the journal/wire layer's own
//! narrow APIs keep those paths short), and *control*-flow taint (a
//! branch on a clock deciding *whether* to journal) is out of scope —
//! timing-dependent control flow is sanctioned policy for quotas and
//! deadlines.
//!
//! On the policy's `strict_paths` (the original deterministic core:
//! sim kernels, stats, the search loop) the old ident denylist still
//! applies to *unordered containers* — `HashMap` iteration order is a
//! type-level hazard no flow analysis can see past.

use crate::diagnostics::Diagnostic;
use crate::lexer::{TokKind, Token};
use crate::parser::{self};
use crate::policy::{DENY_IDENTS, SINKS, SOURCES};
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// Checks one file. `strict` additionally applies the container ident
/// denylist (the file is under `strict_paths`).
pub fn check(src: &SourceFile, strict: bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if strict {
        deny_idents(src, &mut out);
    }
    let toks = &src.tokens;
    for f in parser::functions(src) {
        if src.is_test_code(f.body.0) {
            continue;
        }
        let body = (f.body.0 + 1, f.body.1.saturating_sub(1));
        if body.0 > body.1 {
            continue;
        }
        let calls = parser::calls_in(toks, body);
        let lets = parser::let_bindings(toks, f.body);

        // Ordered worklist of (token position, action).
        enum Action<'a> {
            Bind(&'a parser::LetBinding),
            Assign { lhs: String, rhs: (usize, usize) },
            Sink(&'a parser::Call),
        }
        let mut actions: Vec<(usize, Action)> = Vec::new();
        for b in &lets {
            actions.push((b.stmt_end, Action::Bind(b)));
        }
        for (pos, lhs, rhs) in assignments(toks, body, &lets) {
            actions.push((pos, Action::Assign { lhs, rhs }));
        }
        for c in &calls {
            if !c.is_macro && SINKS.contains(&c.name.as_str()) {
                actions.push((c.name_idx, Action::Sink(c)));
            }
        }
        actions.sort_by_key(|(pos, _)| *pos);

        // Tainted name -> originating source description.
        let mut tainted: BTreeMap<String, String> = BTreeMap::new();
        for (_, action) in actions {
            match action {
                Action::Bind(b) => {
                    if let Some(origin) = range_taint(toks, b.init, &tainted) {
                        for n in &b.names {
                            tainted.insert(n.clone(), origin.clone());
                        }
                    }
                }
                Action::Assign { lhs, rhs } => {
                    if let Some(origin) = range_taint(toks, rhs, &tainted) {
                        tainted.insert(lhs, origin);
                    }
                }
                Action::Sink(c) => {
                    if src.is_test_code(c.name_idx) {
                        continue;
                    }
                    let arg_range = (c.args.0 + 1, c.args.1.saturating_sub(1));
                    if let Some(origin) = range_taint(toks, arg_range, &tainted) {
                        out.push(Diagnostic::new(
                            "nondet-taint",
                            &src.rel_path,
                            c.line,
                            format!(
                                "nondeterministic value (from `{origin}`) flows into \
                                 `{}` in `{}`: journaled/wire surfaces must be \
                                 replayable — derive this argument from config, \
                                 seeds, or recorded state instead",
                                c.name, f.name
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// If the token range is tainted, the human-readable origin: a source
/// called inside the range, or the source behind a mentioned tainted
/// name.
fn range_taint(
    toks: &[Token],
    range: (usize, usize),
    tainted: &BTreeMap<String, String>,
) -> Option<String> {
    if range.0 > range.1 {
        return None;
    }
    for i in range.0..=range.1.min(toks.len() - 1) {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        for s in SOURCES {
            if s.split("::").next() == Some(toks[i].text.as_str())
                && parser::matches_call_path(toks, i, s)
            {
                // Require it to actually be a call: the path is followed
                // by `(` (possibly after `::<…>`).
                let end = i + 3 * (s.matches("::").count());
                if toks.get(end + 1).is_some_and(|t| t.is_punct('(')) {
                    return Some(s.to_string());
                }
            }
        }
        if let Some(origin) = tainted.get(&toks[i].text) {
            // A field access `x.y` only taints via its root `x`; any
            // mention of a tainted root counts.
            return Some(origin.clone());
        }
    }
    None
}

/// Top-level re-assignments `x = expr;` (or `x.field = expr;`, which
/// taints the root `x`) in the body, excluding the `=` of `let`
/// statements. Returns (position, lhs root name, rhs token range).
fn assignments(
    toks: &[Token],
    body: (usize, usize),
    lets: &[parser::LetBinding],
) -> Vec<(usize, String, (usize, usize))> {
    let mut out = Vec::new();
    for i in body.0..=body.1 {
        if !parser::is_assign_eq(toks, i) {
            continue;
        }
        // Skip `=` that belongs to a let (pattern or init — struct
        // literal field inits inside a let are covered by the binding).
        if lets.iter().any(|b| i >= b.let_idx && i < b.stmt_end) {
            continue;
        }
        // lhs: walk back over an ident/dot path; root is the first ident.
        let mut j = i;
        let mut root = None;
        while j >= 1 {
            let t = &toks[j - 1];
            if t.kind == TokKind::Ident {
                root = Some(t.text.clone());
                if j >= 2 && toks[j - 2].is_punct('.') {
                    j -= 2;
                    continue;
                }
            }
            break;
        }
        let Some(root) = root else { continue };
        // rhs: to the `;` at depth 0.
        let (mut paren, mut bracket, mut brace) = (0i32, 0i32, 0i32);
        let mut k = i + 1;
        let mut end = None;
        while k <= body.1 {
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
            } else if paren == 0 && bracket == 0 && brace == 0 && t.is_punct(';') {
                end = Some(k - 1);
                break;
            }
            if paren < 0 || bracket < 0 || brace < 0 {
                break;
            }
            k += 1;
        }
        if let Some(end) = end {
            out.push((i, root, (i + 1, end)));
        }
    }
    out
}

/// The strict-path container denylist (`HashMap`, `HashSet`, hasher
/// types): unordered iteration is a hazard wherever the type appears.
fn deny_idents(src: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, t) in src.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || src.is_test_code(i) {
            continue;
        }
        if DENY_IDENTS.contains(&t.text.as_str()) {
            out.push(Diagnostic::new(
                "nondet-taint",
                &src.rel_path,
                t.line,
                format!(
                    "`{}` in a strict deterministic path: unordered/entropic \
                     state can leak into results (use BTreeMap/BTreeSet or a \
                     seeded RNG)",
                    t.text
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn run(src: &str) -> Vec<Diagnostic> {
        check(&SourceFile::parse(Path::new("f.rs"), src), false)
    }

    #[test]
    fn direct_flow_from_clock_to_sink_is_flagged() {
        let diags = run("fn f(j: &mut Journal) {\n\
               let started = Instant::now();\n\
               let elapsed = started.elapsed().as_micros();\n\
               j.eval(elapsed);\n\
             }\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("Instant::now"));
        assert!(diags[0].message.contains("`eval`"));
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn source_called_directly_in_sink_args_is_flagged() {
        let diags = run("fn f(c: &mut Conn) { c.write_frame(stamp(SystemTime::now())); }\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn clock_that_never_reaches_a_sink_is_clean() {
        let diags = run("fn f(j: &mut Journal, t: &Telemetry) {\n\
               let started = Instant::now();\n\
               t.record(started.elapsed());\n\
               j.eval(seeded_value);\n\
             }\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn reassignment_propagates_taint() {
        let diags = run("fn f(j: &mut Journal) {\n\
               let mut stamp = 0u64;\n\
               stamp = clock_us(Instant::now());\n\
               j.eval(stamp);\n\
             }\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn strict_paths_still_deny_unordered_containers() {
        let diags = check(
            &SourceFile::parse(
                Path::new("f.rs"),
                "use std::collections::HashMap;\nfn f() { let m: HashMap<u8, u8> = make(); }\n",
            ),
            true,
        );
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags[0].message.contains("strict deterministic path"));
    }

    #[test]
    fn wide_paths_do_not_deny_mere_mentions() {
        // The whole point of the taint rewrite: a clock used for
        // telemetry in a widened path is not a violation.
        let diags = run("fn f(t: &Telemetry) { let s = Instant::now(); t.record(s.elapsed()); }\n");
        assert!(diags.is_empty(), "{diags:?}");
    }
}
