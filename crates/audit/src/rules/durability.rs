//! Rule `durability-protocol`: the crash-safety write discipline,
//! mechanically checked.
//!
//! The serve manifest and checkpoint code promise that a crash at any
//! instruction boundary leaves a recoverable state. That promise is a
//! *protocol*: create a temp file → write it → `sync_all` → `rename`
//! into place → `sync_all` the directory (so the rename itself is
//! durable). WAL appends follow the sibling protocol: append →
//! `sync_data`/`sync_all` before acknowledging. Each step is trivial to
//! forget in a refactor and invisible to tests that don't cut power.
//!
//! This rule runs a per-function state machine over file-handle
//! dataflow in the policy's durability paths:
//!
//! - A **tracked handle** is a `let` binding whose initializer creates a
//!   file (`File::create`, `File::open`, an `OpenOptions` chain). Its
//!   *path identifiers* — the idents in the creating call's arguments —
//!   tie it to later `rename` calls.
//! - **Writes** are `write_all`/`write`/`set_len` method calls on the
//!   handle and `write!`/`writeln!` macros naming it first.
//! - **Syncs** are `sync_all`/`sync_data` on the handle (`flush` is
//!   *not* a sync: it empties userspace buffers and durably promises
//!   nothing).
//!
//! Violations:
//! 1. **write-without-sync** — a locally-created handle is written,
//!    never synced, and demonstrably dropped in this function (the rule
//!    stays silent when the handle escapes — returned, stored, or
//!    passed on — because the sync obligation moves with it).
//! 2. **rename-before-sync** — a `rename` whose arguments share an
//!    identifier with a written-but-not-yet-synced handle's path: the
//!    classic torn-checkpoint bug where the rename publishes
//!    unsynced bytes.
//! 3. **rename-without-dirsync** — a `rename` with no following
//!    directory-sync call (one of [`DIRSYNC_FNS`], `sync_dir`) in the
//!    same function: the file is durable but the *name* is not.

use crate::diagnostics::Diagnostic;
use crate::parser::{self, Call};
use crate::policy::DIRSYNC_FNS;
use crate::source::SourceFile;

/// Method names that write through a handle.
const WRITES: [&str; 3] = ["write_all", "write", "set_len"];
/// Method names that make written bytes durable.
const SYNCS: [&str; 2] = ["sync_all", "sync_data"];
/// Call names that create a file handle.
const CREATES: [&str; 3] = ["create", "open", "create_new"];

#[derive(Debug)]
struct Handle {
    name: String,
    /// Identifiers in the creating call's arguments (the path
    /// expression), used to associate the handle with renames.
    path_idents: Vec<String>,
    writes: Vec<usize>,
    syncs: Vec<usize>,
    /// Token indices where the handle is mentioned outside its own
    /// write/sync/drop calls — an escape ends the analysis obligation.
    escapes: Vec<usize>,
}

/// Checks one in-scope file.
pub fn check(src: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
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
        let mut handles: Vec<Handle> = Vec::new();
        for b in parser::let_bindings(toks, f.body) {
            if b.names.len() != 1 || b.init.0 > b.init.1 {
                continue;
            }
            if let Some(create) = calls.iter().find(|c| {
                c.name_idx >= b.init.0
                    && c.name_idx <= b.init.1
                    && !c.is_macro
                    && CREATES.contains(&c.name.as_str())
                    && is_file_creation(c)
            }) {
                handles.push(Handle {
                    name: b.names[0].clone(),
                    path_idents: create.arg_idents(toks).map(str::to_string).collect(),
                    writes: Vec::new(),
                    syncs: Vec::new(),
                    escapes: Vec::new(),
                });
            }
        }

        let renames: Vec<&Call> = calls
            .iter()
            .filter(|c| !c.is_macro && c.name == "rename")
            .collect();
        let dirsyncs: Vec<&Call> = calls
            .iter()
            .filter(|c| DIRSYNC_FNS.contains(&c.name.as_str()))
            .collect();

        // Classify every mention of each handle.
        for h in &mut handles {
            for c in &calls {
                let on_handle = c.recv.as_deref() == Some(h.name.as_str());
                if on_handle && WRITES.contains(&c.name.as_str()) {
                    h.writes.push(c.name_idx);
                } else if on_handle && SYNCS.contains(&c.name.as_str()) {
                    h.syncs.push(c.name_idx);
                } else if c.is_macro
                    && matches!(c.name.as_str(), "write" | "writeln")
                    && first_arg_is(toks, c, &h.name)
                {
                    h.writes.push(c.name_idx);
                } else if on_handle && c.name == "flush" {
                    // flush on the handle: neither write nor escape.
                } else if c.name == "drop"
                    && !c.is_macro
                    && c.arg_idents(toks).collect::<Vec<_>>() == vec![h.name.as_str()]
                {
                    // drop(h): not an escape.
                } else if !on_handle && !c.is_macro && c.arg_idents(toks).any(|a| a == h.name) {
                    h.escapes.push(c.name_idx);
                }
            }
            // Mentions outside any call (return position, struct
            // literal, tuple) also count as escapes.
            let mut i = body.0;
            while i <= body.1 {
                if toks[i].is_ident(&h.name)
                    && !(i > 0 && toks[i - 1].is_punct('.'))
                    && !calls.iter().any(|c| i >= c.start && i <= c.args.1)
                {
                    h.escapes.push(i);
                }
                i += 1;
            }
        }

        for h in &handles {
            let Some(&last_write) = h.writes.iter().max() else {
                continue;
            };
            let write_line = toks[last_write].line;
            let synced_after = h.syncs.iter().any(|&s| s > last_write);
            let escaped = h.escapes.iter().any(|&e| e > last_write);
            if !synced_after && !escaped {
                out.push(Diagnostic::new(
                    "durability-protocol",
                    &src.rel_path,
                    write_line,
                    format!(
                        "file handle `{}` is written here but dropped without \
                         `sync_all`/`sync_data` in `{}`: a crash after this write \
                         can lose or tear the data (fsync before the handle drops)",
                        h.name, f.name
                    ),
                ));
            }
            for r in &renames {
                let touches = r
                    .arg_idents(toks)
                    .any(|a| h.path_idents.iter().any(|p| p == a));
                if !touches {
                    continue;
                }
                let synced_before_rename = h.syncs.iter().any(|&s| s < r.name_idx);
                let wrote_before_rename = h.writes.iter().any(|&w| w < r.name_idx);
                if wrote_before_rename && !synced_before_rename {
                    out.push(Diagnostic::new(
                        "durability-protocol",
                        &src.rel_path,
                        r.line,
                        format!(
                            "`rename` publishes `{}` before it is fsynced in `{}`: \
                             a crash can install a torn file at the final path \
                             (sync_all the handle, then rename)",
                            h.name, f.name
                        ),
                    ));
                }
            }
        }

        for r in &renames {
            if src.is_test_code(r.name_idx) {
                continue;
            }
            let dir_synced_after = dirsyncs.iter().any(|d| d.name_idx > r.name_idx);
            if !dir_synced_after {
                out.push(Diagnostic::new(
                    "durability-protocol",
                    &src.rel_path,
                    r.line,
                    format!(
                        "`rename` in `{}` is not followed by a directory fsync \
                         ({}): the new name is not durable until the parent \
                         directory is synced",
                        f.name,
                        DIRSYNC_FNS.join("/"),
                    ),
                ));
            }
        }
    }
    out
}

/// Whether a `create`/`open` call is plausibly file creation: a path
/// call through `File`/`OpenOptions` (`File::create(p)`,
/// `opts.open(p)` at the end of an `OpenOptions` chain).
fn is_file_creation(c: &Call) -> bool {
    if let Some(path) = &c.path {
        let segs: Vec<&str> = path.split("::").collect();
        let qualifier = segs.len().checked_sub(2).map(|i| segs[i]);
        return matches!(qualifier, Some("File") | Some("OpenOptions"));
    }
    // Method form: `.open(p)` — accept when the receiver chain mentions
    // OpenOptions-ish configuration or the statement mentions
    // OpenOptions; cheapest reliable signal is the method name `open`
    // with a receiver (options builders end in `.open(path)`).
    c.name == "open" && c.recv.is_some()
}

/// Whether the first macro argument (before the first `,`) is exactly
/// the ident `name`.
fn first_arg_is(toks: &[crate::lexer::Token], c: &Call, name: &str) -> bool {
    let first = toks.get(c.args.0 + 1);
    let second = toks.get(c.args.0 + 2);
    first.is_some_and(|t| t.is_ident(name))
        && second.is_some_and(|t| t.is_punct(',') || t.is_punct(')'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn run(src: &str) -> Vec<Diagnostic> {
        check(&SourceFile::parse(Path::new("f.rs"), src))
    }

    #[test]
    fn the_full_checkpoint_protocol_is_clean() {
        let diags = run(
            "fn write_checkpoint(dir: &Path, tmp: &Path, fin: &Path) -> io::Result<()> {\n\
               let mut f = File::create(tmp)?;\n\
               f.write_all(payload.as_bytes())?;\n\
               f.sync_all()?;\n\
               drop(f);\n\
               std::fs::rename(tmp, fin)?;\n\
               sync_dir(dir)?;\n\
               Ok(())\n\
             }\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn missing_fsync_before_drop_is_flagged() {
        let diags = run("fn save(p: &Path) -> io::Result<()> {\n\
               let mut f = File::create(p)?;\n\
               f.write_all(b\"x\")?;\n\
               Ok(())\n\
             }\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("without `sync_all`"));
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn rename_before_sync_is_flagged() {
        let diags = run(
            "fn publish(dir: &Path, tmp: &Path, fin: &Path) -> io::Result<()> {\n\
               let mut f = File::create(tmp)?;\n\
               f.write_all(b\"x\")?;\n\
               std::fs::rename(tmp, fin)?;\n\
               f.sync_all()?;\n\
               sync_dir(dir)?;\n\
               Ok(())\n\
             }\n",
        );
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("publishes `f` before it is fsynced")),
            "{diags:?}"
        );
    }

    #[test]
    fn rename_without_dirsync_is_flagged() {
        let diags = run("fn swap(a: &Path, b: &Path) -> io::Result<()> {\n\
               std::fs::rename(a, b)?;\n\
               Ok(())\n\
             }\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("directory fsync"));
    }

    #[test]
    fn escaping_handles_transfer_the_obligation() {
        let diags = run("fn open_segment(p: &Path) -> io::Result<File> {\n\
               let mut f = File::create(p)?;\n\
               f.write_all(HEADER)?;\n\
               Ok(f)\n\
             }\n\
             fn stash(p: &Path, reg: &mut Vec<File>) -> io::Result<()> {\n\
               let mut f = OpenOptions::new().append(true).open(p)?;\n\
               f.write_all(b\"x\")?;\n\
               reg.push(f);\n\
               Ok(())\n\
             }\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn wal_append_with_sync_data_is_clean() {
        let diags = run("fn append(p: &Path, line: &[u8]) -> io::Result<()> {\n\
               let mut f = OpenOptions::new().append(true).open(p)?;\n\
               f.write_all(line)?;\n\
               f.sync_data()?;\n\
               Ok(())\n\
             }\n");
        assert!(diags.is_empty(), "{diags:?}");
    }
}
