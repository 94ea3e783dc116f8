//! Rule `wire-compat`: frame kinds, journal event kinds, and their
//! version constants, pinned by a committed lockfile.
//!
//! The dist protocol and the journal are *persistent* surfaces: frames
//! cross process boundaries between mixed binary versions, and journals
//! written months ago must replay today. Renumbering `Frame::EvalOk`,
//! reusing a retired kind byte, or adding a journal event without
//! bumping `WIRE_REVISION`/`JOURNAL_VERSION` silently breaks both — and
//! no test notices, because tests always run one binary against itself.
//!
//! This rule parses, from the configured files:
//!
//! - integer constants whose names end in `_VERSION` or `_REVISION`;
//! - string-array constants whose names end in `_EVENT_KINDS` (the
//!   registries of journal/WAL event kind strings);
//! - the `Variant => number` arms of any `fn kind` body (the dist frame
//!   kind mapping);
//!
//! and compares them against the committed `audit.wire.lock` baseline.
//! A kind change while every version constant in the same file is
//! unchanged is the headline violation: *wire surface changed without a
//! revision bump*. A version bump without a regenerated lock is the
//! lesser violation: *stale lock* (run `datamime-audit wire-lock
//! --update`). Either way the gate only opens when the revision and the
//! lockfile move together with the code — which is exactly the diff a
//! reviewer needs to see.

use crate::config::WireCompatConfig;
use crate::diagnostics::Diagnostic;
use crate::lexer::{TokKind, Token};
use crate::parser;
use crate::source::SourceFile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The wire-relevant facts extracted from one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireFacts {
    /// `_VERSION`/`_REVISION` constants: name -> (value, line).
    pub versions: BTreeMap<String, (String, u32)>,
    /// `fn kind` match arms: `Type::Variant` -> (number, line).
    pub kinds: BTreeMap<String, (String, u32)>,
    /// `_EVENT_KINDS` string arrays: name -> (sorted kinds, line).
    pub kindsets: BTreeMap<String, (Vec<String>, u32)>,
}

impl WireFacts {
    /// Whether nothing wire-relevant was found (config probably points
    /// at the wrong file).
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty() && self.kinds.is_empty() && self.kindsets.is_empty()
    }
}

/// Extracts wire facts from one source file.
pub fn extract(src: &SourceFile) -> WireFacts {
    let toks = &src.tokens;
    let mut facts = WireFacts::default();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_ident("const") && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) {
            let name = toks[i + 1].text.clone();
            if name.ends_with("_VERSION") || name.ends_with("_REVISION") {
                if let Some(v) = const_int_value(toks, i + 2) {
                    facts.versions.insert(name, (v, toks[i + 1].line));
                }
            } else if name.ends_with("_EVENT_KINDS") {
                let kinds = const_str_array(toks, i + 2);
                if !kinds.is_empty() {
                    facts.kindsets.insert(name, (kinds, toks[i + 1].line));
                }
            }
        }
        if t.is_ident("fn") && toks.get(i + 1).is_some_and(|n| n.is_ident("kind")) {
            if let Some(body) = parser::body_span(toks, i + 2) {
                kind_arms(toks, body, &mut facts);
                i = body.1 + 1;
                continue;
            }
        }
        i += 1;
    }
    facts
}

/// The integer literal a `const NAME: ty = <int>;` assigns, scanning
/// from just after the name.
fn const_int_value(toks: &[Token], mut i: usize) -> Option<String> {
    while i < toks.len() && !toks[i].is_punct(';') {
        if parser::is_assign_eq(toks, i) {
            let v = toks.get(i + 1)?;
            if v.kind == TokKind::Literal
                && v.text.chars().next().is_some_and(|c| c.is_ascii_digit())
            {
                // Strip a type suffix (`2u32` -> `2`).
                let digits: String = v.text.chars().take_while(|c| c.is_ascii_digit()).collect();
                return Some(digits);
            }
            return None;
        }
        i += 1;
    }
    None
}

/// The string literals of a `const NAME: &[&str] = &[ … ];` (or
/// `[&str; N]`), sorted. Scans from the assignment `=`, so the `;` of an
/// array type does not end the statement.
fn const_str_array(toks: &[Token], mut i: usize) -> Vec<String> {
    let mut out = Vec::new();
    while i < toks.len() && !parser::is_assign_eq(toks, i) {
        i += 1;
    }
    while i < toks.len() && !toks[i].is_punct(';') {
        if let Some(s) = toks[i].str_content() {
            out.push(s.to_string());
        }
        i += 1;
    }
    out.sort();
    out
}

/// Collects `Type::Variant … => <number>` arms inside a `fn kind` body.
fn kind_arms(toks: &[Token], body: (usize, usize), facts: &mut WireFacts) {
    let mut i = body.0 + 1;
    while i + 3 < body.1 {
        let is_variant = toks[i].kind == TokKind::Ident
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].kind == TokKind::Ident;
        if is_variant {
            let variant = format!("{}::{}", toks[i].text, toks[i + 3].text);
            let line = toks[i].line;
            // Skip the payload pattern (`{ .. }` / `( … )`) to `=>`.
            let mut j = i + 4;
            if toks
                .get(j)
                .is_some_and(|t| t.is_punct('{') || t.is_punct('('))
            {
                let close = if toks[j].is_punct('{') {
                    matching_brace(toks, j)
                } else {
                    parser::close_paren(toks, j)
                };
                if let Some(c) = close {
                    j = c + 1;
                }
            }
            let is_arrow = toks.get(j).is_some_and(|t| t.is_punct('='))
                && toks.get(j + 1).is_some_and(|t| t.is_punct('>'))
                && toks[j].end == toks[j + 1].start;
            if is_arrow {
                if let Some(num) = toks.get(j + 2).filter(|t| {
                    t.kind == TokKind::Literal
                        && t.text.chars().next().is_some_and(|c| c.is_ascii_digit())
                }) {
                    facts.kinds.insert(variant, (num.text.clone(), line));
                    i = j + 3;
                    continue;
                }
            }
        }
        i += 1;
    }
}

fn matching_brace(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Renders the canonical lockfile text for the extracted facts, in
/// config file order.
pub fn render_lock(files: &[(PathBuf, WireFacts)]) -> String {
    let mut out = String::from(
        "# audit.wire.lock — committed baseline of wire/journal compatibility\n\
         # surfaces: frame kinds, journal/WAL event kinds, and the version\n\
         # constants that must move when they do.\n\
         #\n\
         # Checked by `datamime-audit check` (rule: wire-compat).\n\
         # Regenerate with: cargo run -p datamime-audit -- wire-lock --update\n\
         # (which refuses to re-baseline kind changes unless the revision\n\
         # constant was bumped too).\n",
    );
    for (path, facts) in files {
        out.push_str(&format!("\nfile {}\n", path.display()));
        for (name, (value, _)) in &facts.versions {
            out.push_str(&format!("version {name} = {value}\n"));
        }
        for (variant, (num, _)) in &facts.kinds {
            out.push_str(&format!("kind {variant} = {num}\n"));
        }
        for (name, (kinds, _)) in &facts.kindsets {
            out.push_str(&format!("kindset {name} = {}\n", kinds.join(",")));
        }
    }
    out
}

/// Parses a lockfile back into per-file facts (lines are ignored: the
/// lock stores no source positions).
pub fn parse_lock(text: &str) -> BTreeMap<PathBuf, WireFacts> {
    let mut out = BTreeMap::new();
    let mut current: Option<PathBuf> = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(path) = line.strip_prefix("file ") {
            let p = PathBuf::from(path.trim());
            out.entry(p.clone()).or_insert_with(WireFacts::default);
            current = Some(p);
            continue;
        }
        let Some(cur) = current.as_ref().and_then(|p| out.get_mut(p)) else {
            continue;
        };
        if let Some(rest) = line.strip_prefix("version ") {
            if let Some((name, value)) = rest.split_once(" = ") {
                cur.versions
                    .insert(name.trim().to_string(), (value.trim().to_string(), 0));
            }
        } else if let Some(rest) = line.strip_prefix("kind ") {
            if let Some((variant, num)) = rest.split_once(" = ") {
                cur.kinds
                    .insert(variant.trim().to_string(), (num.trim().to_string(), 0));
            }
        } else if let Some(rest) = line.strip_prefix("kindset ") {
            if let Some((name, kinds)) = rest.split_once(" = ") {
                let mut list: Vec<String> = kinds
                    .trim()
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect();
                list.sort();
                cur.kindsets.insert(name.trim().to_string(), (list, 0));
            }
        }
    }
    out
}

/// Compares extracted facts against the lock and reports violations.
/// `lock_text` is `None` when the lockfile does not exist.
pub fn check_against_lock(
    current: &[(PathBuf, WireFacts)],
    lock_text: Option<&str>,
    cfg: &WireCompatConfig,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Some(lock_text) = lock_text else {
        out.push(Diagnostic::new(
            "wire-compat",
            &cfg.lock,
            0,
            format!(
                "wire lockfile `{}` is missing: run `datamime-audit wire-lock --update` \
                 and commit it",
                cfg.lock.display()
            ),
        ));
        return out;
    };
    let locked = parse_lock(lock_text);
    for (path, facts) in current {
        if facts.is_empty() {
            out.push(Diagnostic::new(
                "wire-compat",
                path,
                0,
                "configured as a wire surface but no version constants, \
                 `fn kind` arms, or `_EVENT_KINDS` registries were found \
                 (fix [wire-compat] files or restore the constants)",
            ));
            continue;
        }
        let Some(lock) = locked.get(path) else {
            out.push(Diagnostic::new(
                "wire-compat",
                path,
                0,
                format!(
                    "not present in `{}` (stale lock): run `datamime-audit \
                     wire-lock --update`",
                    cfg.lock.display()
                ),
            ));
            continue;
        };
        let versions_changed = keys_and_values(&facts.versions) != keys_and_values(&lock.versions);
        let mut kind_diffs: Vec<(String, u32)> = Vec::new();
        diff_map(&facts.kinds, &lock.kinds, "frame kind", &mut kind_diffs);
        diff_sets(&facts.kindsets, &lock.kindsets, &mut kind_diffs);
        if !kind_diffs.is_empty() && !versions_changed {
            for (what, line) in &kind_diffs {
                out.push(Diagnostic::new(
                    "wire-compat",
                    path,
                    *line,
                    format!(
                        "{what} without a revision bump: old readers/writers will \
                         misparse this surface — bump the `_REVISION`/`_VERSION` \
                         constant here and run `datamime-audit wire-lock --update`"
                    ),
                ));
            }
        } else if versions_changed || !kind_diffs.is_empty() {
            let line = facts.versions.values().map(|(_, l)| *l).min().unwrap_or(0);
            out.push(Diagnostic::new(
                "wire-compat",
                path,
                line,
                format!(
                    "wire surface changed and `{}` is stale: run `datamime-audit \
                     wire-lock --update` and commit the new baseline",
                    cfg.lock.display()
                ),
            ));
        }
    }
    for path in locked.keys() {
        if !current.iter().any(|(p, _)| p == path) {
            out.push(Diagnostic::new(
                "wire-compat",
                &cfg.lock,
                0,
                format!(
                    "`{}` is locked but no longer configured in [wire-compat] \
                     files: run `datamime-audit wire-lock --update`",
                    path.display()
                ),
            ));
        }
    }
    out
}

fn keys_and_values(m: &BTreeMap<String, (String, u32)>) -> Vec<(&str, &str)> {
    m.iter()
        .map(|(k, (v, _))| (k.as_str(), v.as_str()))
        .collect()
}

/// Describes additions, removals, and renumberings between two maps.
fn diff_map(
    cur: &BTreeMap<String, (String, u32)>,
    lock: &BTreeMap<String, (String, u32)>,
    what: &str,
    out: &mut Vec<(String, u32)>,
) {
    for (k, (v, line)) in cur {
        match lock.get(k) {
            None => out.push((format!("{what} `{k}` (= {v}) added"), *line)),
            Some((lv, _)) if lv != v => {
                out.push((format!("{what} `{k}` renumbered {lv} -> {v}"), *line));
            }
            _ => {}
        }
    }
    for (k, (v, _)) in lock {
        if !cur.contains_key(k) {
            out.push((format!("{what} `{k}` (= {v}) removed"), 0));
        }
    }
}

fn diff_sets(
    cur: &BTreeMap<String, (Vec<String>, u32)>,
    lock: &BTreeMap<String, (Vec<String>, u32)>,
    out: &mut Vec<(String, u32)>,
) {
    for (name, (kinds, line)) in cur {
        match lock.get(name) {
            None => out.push((format!("event-kind registry `{name}` added"), *line)),
            Some((locked, _)) => {
                for k in kinds {
                    if !locked.contains(k) {
                        out.push((format!("event kind `{k}` added to `{name}`"), *line));
                    }
                }
                for k in locked {
                    if !kinds.contains(k) {
                        out.push((format!("event kind `{k}` removed from `{name}`"), *line));
                    }
                }
            }
        }
    }
    for name in lock.keys() {
        if !cur.contains_key(name) {
            out.push((format!("event-kind registry `{name}` removed"), 0));
        }
    }
}

/// Loads the configured wire files directly from disk and extracts
/// their facts — used by both the engine (when a file is outside the
/// scan roots) and the `wire-lock` subcommand.
pub fn extract_configured(
    root: &Path,
    cfg: &WireCompatConfig,
) -> Result<Vec<(PathBuf, WireFacts)>, String> {
    let mut out = Vec::new();
    for rel in &cfg.files {
        let text = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("cannot read wire file {}: {e}", rel.display()))?;
        let src = SourceFile::parse(rel, &text);
        out.push((rel.clone(), extract(&src)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROTO: &str = "\
pub const PROTOCOL_VERSION: u16 = 1;
pub const WIRE_REVISION: u32 = 2;
impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::EvalOk { .. } => 4,
            Frame::Shutdown => 8,
        }
    }
}
pub const WAL_EVENT_KINDS: &[&str] = &[\"submit\", \"done\", \"gc\"];
";

    fn facts() -> WireFacts {
        extract(&SourceFile::parse(Path::new("p.rs"), PROTO))
    }

    #[test]
    fn extraction_finds_versions_kinds_and_kindsets() {
        let f = facts();
        assert_eq!(f.versions["PROTOCOL_VERSION"].0, "1");
        assert_eq!(f.versions["WIRE_REVISION"].0, "2");
        assert_eq!(f.kinds["Frame::Hello"].0, "1");
        assert_eq!(f.kinds["Frame::EvalOk"].0, "4");
        assert_eq!(f.kinds["Frame::Shutdown"].0, "8");
        assert_eq!(
            f.kindsets["WAL_EVENT_KINDS"].0,
            vec!["done", "gc", "submit"]
        );
    }

    /// A registry typed `[&str; N]` is collected too: the `;` inside the
    /// array type does not end the statement.
    #[test]
    fn fixed_length_kind_registry_is_extracted() {
        let src = "pub const JOURNAL_EVENT_KINDS: [&str; 3] = [\"header\", \"eval\", \"done\"];\n";
        let f = extract(&SourceFile::parse(Path::new("j.rs"), src));
        assert_eq!(
            f.kindsets["JOURNAL_EVENT_KINDS"].0,
            vec!["done", "eval", "header"]
        );
    }

    #[test]
    fn lock_round_trips_through_render_and_parse() {
        let files = vec![(PathBuf::from("p.rs"), facts())];
        let text = render_lock(&files);
        let parsed = parse_lock(&text);
        let stripped = |f: &WireFacts| {
            let mut f = f.clone();
            for v in f.versions.values_mut() {
                v.1 = 0;
            }
            for v in f.kinds.values_mut() {
                v.1 = 0;
            }
            for v in f.kindsets.values_mut() {
                v.1 = 0;
            }
            f
        };
        assert_eq!(parsed[Path::new("p.rs")], stripped(&files[0].1));
    }

    fn wire_cfg() -> WireCompatConfig {
        WireCompatConfig {
            files: vec![PathBuf::from("p.rs")],
            lock: PathBuf::from("audit.wire.lock"),
        }
    }

    #[test]
    fn unchanged_surface_matches_its_lock() {
        let files = vec![(PathBuf::from("p.rs"), facts())];
        let lock = render_lock(&files);
        let diags = check_against_lock(&files, Some(&lock), &wire_cfg());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn kind_added_without_revision_bump_is_flagged() {
        let files = vec![(PathBuf::from("p.rs"), facts())];
        let lock = render_lock(&files);
        let modified = PROTO.replace(
            "Frame::Shutdown => 8,",
            "Frame::Shutdown => 8,\n            Frame::NewThing { .. } => 19,",
        );
        let cur = vec![(
            PathBuf::from("p.rs"),
            extract(&SourceFile::parse(Path::new("p.rs"), &modified)),
        )];
        let diags = check_against_lock(&cur, Some(&lock), &wire_cfg());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`Frame::NewThing` (= 19) added"));
        assert!(diags[0].message.contains("revision bump"));
    }

    #[test]
    fn kind_change_with_bump_wants_a_lock_update() {
        let files = vec![(PathBuf::from("p.rs"), facts())];
        let lock = render_lock(&files);
        let modified = PROTO
            .replace("WIRE_REVISION: u32 = 2", "WIRE_REVISION: u32 = 3")
            .replace("Frame::Shutdown => 8,", "Frame::Shutdown => 9,");
        let cur = vec![(
            PathBuf::from("p.rs"),
            extract(&SourceFile::parse(Path::new("p.rs"), &modified)),
        )];
        let diags = check_against_lock(&cur, Some(&lock), &wire_cfg());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("stale"));
    }

    #[test]
    fn missing_lock_is_a_violation() {
        let files = vec![(PathBuf::from("p.rs"), facts())];
        let diags = check_against_lock(&files, None, &wire_cfg());
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("missing"));
    }

    #[test]
    fn event_kind_removal_without_bump_is_flagged() {
        let files = vec![(PathBuf::from("p.rs"), facts())];
        let lock = render_lock(&files);
        let modified = PROTO.replace("\"submit\", ", "");
        let cur = vec![(
            PathBuf::from("p.rs"),
            extract(&SourceFile::parse(Path::new("p.rs"), &modified)),
        )];
        let diags = check_against_lock(&cur, Some(&lock), &wire_cfg());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`submit` removed"));
    }
}
