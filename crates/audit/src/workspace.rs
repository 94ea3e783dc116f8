//! Workspace discovery: find the crates under [`SCAN_ROOT`],
//! read their manifests, and collect their `src/` trees.
//!
//! The audit deliberately scans only each crate's `src/` tree — that is
//! the product code the invariants protect. Integration tests and
//! benches are wholly test code and may read clocks and skip fsyncs as
//! they like, exactly as `#[cfg(test)]` blocks inside `src/`
//! may (the rules mask those via
//! [`SourceFile::is_test_code`](crate::source::SourceFile::is_test_code)).

use crate::manifest;
use crate::policy::{EXCLUDE, SCAN_ROOT};
use std::path::{Path, PathBuf};

/// One source file as read from disk. Discovery only does I/O; lexing
/// and parsing happen in the per-file analysis phase.
#[derive(Debug)]
pub struct RawFile {
    /// Path relative to the workspace root.
    pub rel_path: PathBuf,
    /// Full file contents.
    pub text: String,
}

/// One dependency edge as written in a manifest.
#[derive(Debug, Clone)]
pub struct DepRef {
    /// Package name (`datamime-stats`), from the entry key.
    pub name: String,
    /// 1-based line of the dependency in the manifest.
    pub line: u32,
}

/// One discovered crate.
#[derive(Debug)]
pub struct CrateInfo {
    /// Package name from `[package] name`.
    pub name: String,
    /// Manifest path relative to the workspace root.
    pub manifest_rel: PathBuf,
    /// `[dependencies]` + `[build-dependencies]` entries. Dev-dependencies
    /// are exempt from layering: they shape the test graph, not the
    /// product graph.
    pub deps: Vec<DepRef>,
}

/// The scanned workspace.
#[derive(Debug)]
pub struct Workspace {
    /// Discovered crates, sorted by name.
    pub crates: Vec<CrateInfo>,
    /// Every `src/**/*.rs` (raw text, not yet lexed), sorted by path.
    pub files: Vec<RawFile>,
}

impl Workspace {
    /// Scans the workspace at `root`. An error (I/O, or a manifest the
    /// reader refuses) names its path.
    pub fn discover(root: &Path) -> Result<Self, String> {
        let mut manifests = Vec::new();
        if root.join(SCAN_ROOT).is_dir() {
            walk(root, &root.join(SCAN_ROOT), manifest_or_dir, &mut manifests)?;
        }

        let mut crates = Vec::new();
        let mut files = Vec::new();
        for manifest_rel in manifests {
            let manifest_abs = root.join(&manifest_rel);
            let text = read(&manifest_abs)?;
            let manifest =
                manifest::read(&text).map_err(|e| format!("{}: {e}", manifest_rel.display()))?;
            let Some(name) = manifest.name else {
                // A virtual manifest (pure `[workspace]`) declares no
                // package; nothing to audit in it.
                continue;
            };

            let mut src_files = Vec::new();
            let src_dir = manifest_abs.parent().expect("has parent").join("src");
            if src_dir.is_dir() {
                walk(root, &src_dir, rust_or_dir, &mut src_files)?;
            }
            for rel_path in src_files {
                let text = read(&root.join(&rel_path))?;
                files.push(RawFile { rel_path, text });
            }
            crates.push(CrateInfo {
                name,
                manifest_rel,
                deps: manifest.deps,
            });
        }
        crates.sort_by(|a, b| a.name.cmp(&b.name));
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Ok(Workspace { crates, files })
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Recursively collects the workspace-relative paths under `dir` that
/// `keep` accepts, descending only into directories it accepts and
/// skipping [`EXCLUDE`].
fn walk(
    root: &Path,
    dir: &Path,
    keep: fn(&Path) -> bool,
    out: &mut Vec<PathBuf>,
) -> Result<(), String> {
    for entry in list_dir(dir)? {
        let rel = entry.strip_prefix(root).unwrap_or(&entry);
        if rel.starts_with(EXCLUDE) || !keep(&entry) {
            continue;
        }
        if entry.is_dir() {
            walk(root, &entry, keep, out)?;
        } else {
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}

/// Manifests, outside `target/` build output.
fn manifest_or_dir(p: &Path) -> bool {
    let name = p.file_name().unwrap_or_default();
    if p.is_dir() {
        name != "target"
    } else {
        name == "Cargo.toml"
    }
}

/// Rust sources.
fn rust_or_dir(p: &Path) -> bool {
    p.is_dir() || p.extension().is_some_and(|e| e == "rs")
}

/// Reads a directory into a sorted list of absolute paths (sorted so the
/// scan order — and therefore diagnostic order — is stable across
/// filesystems).
fn list_dir(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let rd =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read dir {}: {e}", dir.display()))?;
    let mut entries = Vec::new();
    for e in rd {
        let e = e.map_err(|err| format!("readdir {}: {err}", dir.display()))?;
        entries.push(e.path());
    }
    entries.sort();
    Ok(entries)
}
