//! Workspace discovery: find the crates under the configured scan
//! roots, parse their manifests, and lex their `src/` trees.
//!
//! The audit deliberately scans only each crate's `src/` tree — that is
//! the product code the invariants protect. Integration tests and
//! benches are wholly test code and may read clocks and skip fsyncs as
//! they like, exactly as `#[cfg(test)]` blocks inside `src/`
//! may (the rules mask those via
//! [`SourceFile::is_test_code`](crate::source::SourceFile::is_test_code)).

use crate::config::AuditConfig;
use crate::toml;
use std::fmt;
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
    /// Crate directory relative to the workspace root (`crates/sim`).
    pub rel_dir: PathBuf,
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

/// A discovery failure (I/O or a manifest that does not parse).
#[derive(Debug)]
pub struct WorkspaceError(pub String);

impl fmt::Display for WorkspaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "workspace scan error: {}", self.0)
    }
}

impl std::error::Error for WorkspaceError {}

impl Workspace {
    /// Scans `root` according to `cfg`.
    pub fn discover(root: &Path, cfg: &AuditConfig) -> Result<Self, WorkspaceError> {
        let mut manifests = Vec::new();
        for scan_root in &cfg.roots {
            let abs = root.join(scan_root);
            if abs.is_dir() {
                find_manifests(root, &abs, cfg, &mut manifests)?;
            }
        }
        manifests.sort();

        let mut crates = Vec::new();
        let mut files = Vec::new();
        for manifest_abs in &manifests {
            let rel_dir = manifest_abs
                .parent()
                .expect("manifest path has a parent")
                .strip_prefix(root)
                .expect("manifest found under root")
                .to_path_buf();
            let manifest_rel = rel_dir.join("Cargo.toml");
            let text = read(manifest_abs)?;
            let doc = toml::parse(&text)
                .map_err(|e| WorkspaceError(format!("{}: {e}", manifest_rel.display())))?;
            let Some(name) = doc.get("package", "name").and_then(|e| e.value.as_str()) else {
                // A virtual manifest (pure `[workspace]`) declares no
                // package; nothing to audit in it.
                continue;
            };
            let mut deps = Vec::new();
            for table in ["dependencies", "build-dependencies"] {
                for e in doc.table(table) {
                    let dep_name = e.key.split('.').next().unwrap_or(&e.key);
                    deps.push(DepRef {
                        name: dep_name.to_string(),
                        line: e.line,
                    });
                }
            }

            let mut src_files = Vec::new();
            let src_dir = manifest_abs.parent().expect("has parent").join("src");
            if src_dir.is_dir() {
                find_rust_files(root, &src_dir, cfg, &mut src_files)?;
            }
            src_files.sort();

            for rel in &src_files {
                let text = read(&root.join(rel))?;
                files.push(RawFile {
                    rel_path: rel.clone(),
                    text,
                });
            }
            crates.push(CrateInfo {
                name: name.to_string(),
                rel_dir,
                manifest_rel,
                deps,
            });
        }
        crates.sort_by(|a, b| a.name.cmp(&b.name));
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Ok(Workspace { crates, files })
    }
}

fn read(path: &Path) -> Result<String, WorkspaceError> {
    std::fs::read_to_string(path)
        .map_err(|e| WorkspaceError(format!("cannot read {}: {e}", path.display())))
}

/// Recursively collects `Cargo.toml` paths under `dir`, skipping excluded
/// prefixes and `target/` build output.
fn find_manifests(
    root: &Path,
    dir: &Path,
    cfg: &AuditConfig,
    out: &mut Vec<PathBuf>,
) -> Result<(), WorkspaceError> {
    for entry in list_dir(dir)? {
        let rel = entry.strip_prefix(root).unwrap_or(&entry);
        if cfg.is_excluded(rel) {
            continue;
        }
        if entry.is_dir() {
            if entry.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            find_manifests(root, &entry, cfg, out)?;
        } else if entry.file_name().is_some_and(|n| n == "Cargo.toml") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Recursively collects workspace-relative `*.rs` paths under `dir`.
fn find_rust_files(
    root: &Path,
    dir: &Path,
    cfg: &AuditConfig,
    out: &mut Vec<PathBuf>,
) -> Result<(), WorkspaceError> {
    for entry in list_dir(dir)? {
        let rel = entry.strip_prefix(root).unwrap_or(&entry).to_path_buf();
        if cfg.is_excluded(&rel) {
            continue;
        }
        if entry.is_dir() {
            find_rust_files(root, &entry, cfg, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Reads a directory into a sorted list of absolute paths (sorted so the
/// scan order — and therefore diagnostic order — is stable across
/// filesystems).
fn list_dir(dir: &Path) -> Result<Vec<PathBuf>, WorkspaceError> {
    let rd = std::fs::read_dir(dir)
        .map_err(|e| WorkspaceError(format!("cannot read dir {}: {e}", dir.display())))?;
    let mut entries = Vec::new();
    for e in rd {
        let e = e.map_err(|err| WorkspaceError(format!("readdir {}: {err}", dir.display())))?;
        entries.push(e.path());
    }
    entries.sort();
    Ok(entries)
}
