//! `datamime-audit`: a std-only static-analysis engine over the
//! Datamime workspace.
//!
//! The search runtime promises bit-identical results across worker
//! counts and journal replays, crash-safe durability of the manifest
//! and journals, stable wire formats, and a layered crate graph. No
//! compiler lint checks those — this crate does, over a hand-rolled
//! token stream and a lightweight structural parser (no `syn`: the
//! build environment has no crates.io access, and the auditor must sit
//! below every layer it audits). What a lint can say is left to the
//! compiler: panic-freedom of the supervised evaluation path and
//! unread `Result`s on the durability/IPC paths are module-level clippy
//! lint attributes (see the crate README). Four CI-gating rule families:
//!
//! - **`nondet-taint`** — flow-sensitive taint from nondeterminism
//!   sources (clocks, entropy) to journaled/wire sinks; strict paths
//!   additionally deny unordered containers outright.
//! - **`layering`** — internal dependencies match the
//!   `[layering.allow]` matrix.
//! - **`durability-protocol`** — file handles on durability paths must
//!   follow write → fsync → rename → dir-fsync; a rename before the
//!   sync, or a dropped handle with unsynced writes, is a violation.
//! - **`wire-compat`** — frame kinds, journal event kinds, and their
//!   version constants are locked in a committed `audit.wire.lock`;
//!   kinds cannot change without a revision bump.
//!
//! The engine analyzes files one at a time in discovery order; the
//! cross-file rules — layering, the wire-lock comparison, and allow
//! bookkeeping — then run over the per-file facts, and the report is
//! sorted.
//!
//! Intentional exceptions are written in the source as
//! `// audit:allow(rule): reason` on (or directly above) the flagged
//! line. Allows are themselves audited: a malformed allow is an
//! `allow-syntax` error and an allow that suppresses nothing is an
//! `unused-allow` error, so the escape hatch cannot rot.

#![forbid(unsafe_code)]

pub mod config;
pub mod diagnostics;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod source;
pub mod toml;
pub mod workspace;

use config::AuditConfig;
use diagnostics::Diagnostic;
use source::{Allow, BadAllow, SourceFile};
use std::path::{Path, PathBuf};
use workspace::{RawFile, Workspace, WorkspaceError};

/// Everything the per-file analysis phase learns about one source file:
/// per-file diagnostics plus the raw material the cross-file rules
/// consume.
#[derive(Debug)]
struct FileFacts {
    /// Path relative to the workspace root.
    rel_path: PathBuf,
    /// Per-file rule violations (before `audit:allow` suppression).
    diags: Vec<Diagnostic>,
    /// Well-formed `audit:allow` comments in the file.
    allows: Vec<Allow>,
    /// Malformed allow comments.
    bad_allows: Vec<BadAllow>,
    /// Wire surface facts, when the file is configured under
    /// `[wire-compat] files`.
    wire: Option<rules::wire_compat::WireFacts>,
}

/// The outcome of one `check` run.
#[derive(Debug)]
pub struct CheckReport {
    /// All violations, sorted by (file, line, rule, message).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of Rust files scanned.
    pub files_scanned: usize,
    /// Number of crates discovered.
    pub crates_scanned: usize,
}

impl CheckReport {
    /// Whether the workspace passed.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Runs every enabled rule over the workspace at `root` and applies the
/// `audit:allow` suppression pass.
pub fn run_check(root: &Path, cfg: &AuditConfig) -> Result<CheckReport, WorkspaceError> {
    let ws = Workspace::discover(root, cfg)?;
    let facts: Vec<FileFacts> = ws.files.iter().map(|f| analyze_file(f, cfg)).collect();

    let mut raw: Vec<Diagnostic> = facts.iter().flat_map(|f| f.diags.iter().cloned()).collect();
    raw.extend(rules::layering::check(&ws.crates, &cfg.layering));
    raw.extend(stale_scope_entries(&facts, cfg));

    if !cfg.wire_compat.files.is_empty() {
        let mut current = Vec::new();
        for rel in &cfg.wire_compat.files {
            match facts.iter().find(|f| &f.rel_path == rel) {
                Some(f) => current.push((rel.clone(), f.wire.clone().unwrap_or_default())),
                None => raw.push(Diagnostic::new(
                    "wire-compat",
                    rel,
                    0,
                    "configured wire file was not found by the scan — check \
                     [wire-compat] files against the scan roots",
                )),
            }
        }
        let lock_text = std::fs::read_to_string(root.join(&cfg.wire_compat.lock)).ok();
        raw.extend(rules::wire_compat::check_against_lock(
            &current,
            lock_text.as_deref(),
            &cfg.wire_compat,
        ));
    }

    let mut diagnostics = apply_allows(&facts, raw);
    diagnostics.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    Ok(CheckReport {
        diagnostics,
        files_scanned: ws.files.len(),
        crates_scanned: ws.crates.len(),
    })
}

/// Reports every rule scope entry (`paths` / `strict-paths`) that
/// matches no scanned file. Scope is a bare prefix match, so a renamed or
/// deleted file would otherwise drop out of its rules without a word.
fn stale_scope_entries(facts: &[FileFacts], cfg: &AuditConfig) -> Vec<Diagnostic> {
    let scopes = [
        ("nondet-taint", "paths", &cfg.nondet_taint.paths),
        (
            "nondet-taint",
            "strict-paths",
            &cfg.nondet_taint.strict_paths,
        ),
        ("durability-protocol", "paths", &cfg.durability.paths),
    ];
    let mut out = Vec::new();
    for (rule, key, entries) in scopes {
        for entry in entries {
            if !facts.iter().any(|f| f.rel_path.starts_with(entry)) {
                out.push(Diagnostic::new(
                    rule,
                    entry,
                    0,
                    format!(
                        "`[{rule}] {key}` entry matches no scanned file — point it at the \
                         file's new path or delete it"
                    ),
                ));
            }
        }
    }
    out
}

/// The per-file analysis: lex + parse once, then run every rule whose
/// scope covers this file.
fn analyze_file(raw: &RawFile, cfg: &AuditConfig) -> FileFacts {
    let src = SourceFile::parse(&raw.rel_path, &raw.text);
    let mut diags = Vec::new();

    let strict = AuditConfig::path_in_scope(&src.rel_path, &cfg.nondet_taint.strict_paths);
    let wide = AuditConfig::path_in_scope(&src.rel_path, &cfg.nondet_taint.paths);
    if strict || wide {
        diags.extend(rules::nondet_taint::check(&src, &cfg.nondet_taint, strict));
    }
    if AuditConfig::path_in_scope(&src.rel_path, &cfg.durability.paths) {
        diags.extend(rules::durability::check(&src, &cfg.durability));
    }
    let wire = cfg
        .wire_compat
        .files
        .iter()
        .any(|f| f == &src.rel_path)
        .then(|| rules::wire_compat::extract(&src));

    FileFacts {
        rel_path: raw.rel_path.clone(),
        diags,
        allows: src.allows,
        bad_allows: src.bad_allows,
        wire,
    }
}

/// Suppresses diagnostics covered by a well-formed
/// `// audit:allow(rule): reason` on the same line or the line above,
/// then reports the allows that misfired: unknown rule names and allows
/// that suppressed nothing.
fn apply_allows(facts: &[FileFacts], raw: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // (file index, allow index) -> used?
    let mut used: Vec<Vec<bool>> = facts.iter().map(|f| vec![false; f.allows.len()]).collect();

    for d in raw {
        let mut suppressed = false;
        if let Some(fi) = facts.iter().position(|f| f.rel_path == d.file) {
            for (ai, allow) in facts[fi].allows.iter().enumerate() {
                if allow.rule == d.rule && (allow.line == d.line || allow.line + 1 == d.line) {
                    used[fi][ai] = true;
                    suppressed = true;
                }
            }
        }
        if !suppressed {
            out.push(d);
        }
    }

    for (fi, f) in facts.iter().enumerate() {
        for b in &f.bad_allows {
            out.push(Diagnostic::new(
                "allow-syntax",
                &f.rel_path,
                b.line,
                b.problem.clone(),
            ));
        }
        for (ai, allow) in f.allows.iter().enumerate() {
            if !rules::RULES.contains(&allow.rule.as_str()) {
                out.push(Diagnostic::new(
                    "allow-syntax",
                    &f.rel_path,
                    allow.line,
                    format!(
                        "audit:allow names unknown rule `{}` (rules: {})",
                        allow.rule,
                        rules::RULES.join(", ")
                    ),
                ));
            } else if !used[fi][ai] {
                out.push(Diagnostic::new(
                    "unused-allow",
                    &f.rel_path,
                    allow.line,
                    format!(
                        "audit:allow({}) suppresses nothing — delete it (reason was: {})",
                        allow.rule, allow.reason
                    ),
                ));
            }
        }
    }
    out
}
