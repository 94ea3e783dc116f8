//! `audit.toml`: which paths each rule covers and what each rule denies.
//!
//! The configuration is explicit on purpose — the deterministic surface,
//! the durability paths, and the journal/wire sink lists are *policy*,
//! not something the tool can infer. See the workspace `audit.toml` for
//! the commented canonical instance. Every table and key is checked
//! against the known ones: a misspelt name would otherwise load as an
//! empty scope and silently enforce nothing.

use crate::toml::{self, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Scope + source/sink lists for the nondet-taint rule (successor of
/// PR 3's `determinism` ident denylist).
#[derive(Debug, Clone)]
pub struct NondetTaintConfig {
    /// Files/directories (workspace-relative) where taint flow from
    /// sources into sinks is checked — wide coverage, whole crates.
    pub paths: Vec<PathBuf>,
    /// The original narrow deterministic core, where unordered
    /// containers are denied outright on top of taint checking.
    pub strict_paths: Vec<PathBuf>,
    /// Identifiers denied in strict paths (`HashMap`, `HashSet`…).
    pub deny_idents: Vec<String>,
    /// Nondeterminism sources: `Type::method` call paths or bare fn
    /// names (`Instant::now`, `thread_rng`).
    pub sources: Vec<String>,
    /// Sink call names — journal record appenders, frame writes,
    /// objective observations.
    pub sinks: Vec<String>,
}

/// Scope for the durability-protocol rule.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Files/directories holding crash-safety-critical writers.
    pub paths: Vec<PathBuf>,
    /// Call names that fsync a *directory* after a rename
    /// (project helpers like `sync_dir`).
    pub dirsync_fns: Vec<String>,
}

/// Settings for the wire-compat rule.
#[derive(Debug, Clone)]
pub struct WireCompatConfig {
    /// Workspace-relative files whose wire surfaces are locked. Empty
    /// disables the rule.
    pub files: Vec<PathBuf>,
    /// Workspace-relative lockfile path.
    pub lock: PathBuf,
}

/// The full audit configuration.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Directories under the workspace root to scan for crates.
    pub roots: Vec<PathBuf>,
    /// Workspace-relative path prefixes to skip entirely (fixture
    /// corpora, generated code).
    pub exclude: Vec<PathBuf>,
    /// Nondet-taint rule settings.
    pub nondet_taint: NondetTaintConfig,
    /// Durability-protocol rule settings.
    pub durability: DurabilityConfig,
    /// Wire-compat rule settings.
    pub wire_compat: WireCompatConfig,
    /// Allowed internal dependencies per crate; a crate absent from the
    /// matrix is itself a layering violation.
    pub layering: BTreeMap<String, Vec<String>>,
}

/// A configuration failure (I/O, parse error, wrong value shape).
#[derive(Debug)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "audit configuration error: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl AuditConfig {
    /// Reads and interprets an `audit.toml`.
    pub fn load(path: &Path) -> Result<Self, ConfigError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ConfigError(format!("cannot read {}: {e}", path.display())))?;
        Self::from_toml(&text)
            .map_err(|ConfigError(msg)| ConfigError(format!("{}: {msg}", path.display())))
    }

    /// Interprets configuration text. Unknown tables and keys are
    /// errors.
    pub fn from_toml(text: &str) -> Result<Self, ConfigError> {
        let doc = toml::parse(text).map_err(|e| ConfigError(e.to_string()))?;
        reject_unknown(&doc)?;
        let layering = doc
            .table("layering.allow")
            .into_iter()
            .map(|e| Ok((e.key.clone(), string_array(&e.value, &e.key)?)))
            .collect::<Result<_, ConfigError>>()?;
        Ok(AuditConfig {
            roots: path_list(&doc, "scan", "roots", &["crates"])?,
            exclude: path_list(&doc, "scan", "exclude", &[])?,
            nondet_taint: NondetTaintConfig {
                paths: path_list(&doc, "nondet-taint", "paths", &[])?,
                strict_paths: path_list(&doc, "nondet-taint", "strict-paths", &[])?,
                deny_idents: str_list(
                    &doc,
                    "nondet-taint",
                    "deny-idents",
                    &[
                        "HashMap",
                        "HashSet",
                        "DefaultHasher",
                        "RandomState",
                        "thread_rng",
                        "from_entropy",
                    ],
                )?,
                sources: str_list(
                    &doc,
                    "nondet-taint",
                    "sources",
                    &[
                        "Instant::now",
                        "SystemTime::now",
                        "thread_rng",
                        "from_entropy",
                        "DefaultHasher::new",
                        "RandomState::new",
                    ],
                )?,
                sinks: str_list(&doc, "nondet-taint", "sinks", &[])?,
            },
            durability: DurabilityConfig {
                paths: path_list(&doc, "durability-protocol", "paths", &[])?,
                dirsync_fns: str_list(&doc, "durability-protocol", "dirsync-fns", &["sync_dir"])?,
            },
            wire_compat: WireCompatConfig {
                files: path_list(&doc, "wire-compat", "files", &[])?,
                lock: match doc.get("wire-compat", "lock") {
                    Some(e) => PathBuf::from(e.value.as_str().ok_or_else(|| {
                        ConfigError("`[wire-compat] lock` must be a string".to_string())
                    })?),
                    None => PathBuf::from("audit.wire.lock"),
                },
            },
            layering,
        })
    }

    /// Whether `rel` (workspace-relative) falls under any of `paths`
    /// (each either a file or a directory prefix).
    pub fn path_in_scope(rel: &Path, paths: &[PathBuf]) -> bool {
        paths.iter().any(|p| rel.starts_with(p))
    }

    /// Whether `rel` is excluded from scanning entirely.
    pub fn is_excluded(&self, rel: &Path) -> bool {
        Self::path_in_scope(rel, &self.exclude)
    }
}

/// Every table `audit.toml` may hold, with the keys it may hold (`None`:
/// any key — the layering matrix is keyed by crate name).
const KNOWN_KEYS: [(&str, Option<&[&str]>); 6] = [
    ("", Some(&[])),
    ("scan", Some(&["roots", "exclude"])),
    (
        "nondet-taint",
        Some(&["paths", "strict-paths", "deny-idents", "sources", "sinks"]),
    ),
    ("durability-protocol", Some(&["paths", "dirsync-fns"])),
    ("wire-compat", Some(&["files", "lock"])),
    ("layering.allow", None),
];

fn reject_unknown(doc: &toml::Doc) -> Result<(), ConfigError> {
    for (table, entries) in doc.tables() {
        let Some((_, keys)) = KNOWN_KEYS.iter().find(|(t, _)| *t == table) else {
            let known: Vec<_> = KNOWN_KEYS[1..].iter().map(|(t, _)| *t).collect();
            return Err(ConfigError(format!(
                "unknown table `[{table}]` (tables: {})",
                known.join(", ")
            )));
        };
        let Some(keys) = keys else { continue };
        if let Some(e) = entries.iter().find(|e| !keys.contains(&e.key.as_str())) {
            let place = if table.is_empty() {
                "at the top level".to_string()
            } else {
                format!("in `[{table}]` (keys: {})", keys.join(", "))
            };
            return Err(ConfigError(format!(
                "line {}: unknown key `{}` {place}",
                e.line, e.key
            )));
        }
    }
    Ok(())
}

fn string_array(v: &Value, what: &str) -> Result<Vec<String>, ConfigError> {
    let arr = v
        .as_array()
        .ok_or_else(|| ConfigError(format!("`{what}` must be an array of strings")))?;
    arr.iter()
        .map(|item| {
            item.as_str()
                .map(str::to_string)
                .ok_or_else(|| ConfigError(format!("`{what}` must contain only strings")))
        })
        .collect()
}

fn str_list(
    doc: &toml::Doc,
    table: &str,
    key: &str,
    default: &[&str],
) -> Result<Vec<String>, ConfigError> {
    match doc.get(table, key) {
        Some(e) => string_array(&e.value, &format!("[{table}] {key}")),
        None => Ok(default.iter().map(|s| s.to_string()).collect()),
    }
}

fn path_list(
    doc: &toml::Doc,
    table: &str,
    key: &str,
    default: &[&str],
) -> Result<Vec<PathBuf>, ConfigError> {
    Ok(str_list(doc, table, key, default)?
        .into_iter()
        .map(PathBuf::from)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_apply_when_sections_are_absent() {
        let cfg = AuditConfig::from_toml("").unwrap();
        assert_eq!(cfg.roots, vec![PathBuf::from("crates")]);
        assert!(cfg
            .nondet_taint
            .deny_idents
            .contains(&"HashMap".to_string()));
        assert!(cfg
            .nondet_taint
            .sources
            .contains(&"Instant::now".to_string()));
        assert!(cfg.wire_compat.files.is_empty(), "wire-compat defaults off");
        assert_eq!(cfg.wire_compat.lock, PathBuf::from("audit.wire.lock"));
        assert!(cfg.layering.is_empty());
    }

    #[test]
    fn full_config_round_trips() {
        let cfg = AuditConfig::from_toml(
            r#"
            [scan]
            roots = ["crates"]
            exclude = ["crates/audit/tests/fixtures"]
            [nondet-taint]
            paths = ["crates/runtime/src"]
            strict-paths = ["crates/sim/src", "crates/core/src/search.rs"]
            deny-idents = ["HashMap"]
            sources = ["Instant::now"]
            sinks = ["eval", "write_frame"]
            [durability-protocol]
            paths = ["crates/serve/src/manifest.rs"]
            dirsync-fns = ["sync_dir"]
            [wire-compat]
            files = ["crates/dist/src/protocol.rs"]
            lock = "audit.wire.lock"
            [layering.allow]
            datamime-stats = []
            datamime-sim = ["datamime-stats"]
            "#,
        )
        .unwrap();
        assert!(cfg.is_excluded(Path::new("crates/audit/tests/fixtures/determinism.rs")));
        assert!(AuditConfig::path_in_scope(
            Path::new("crates/sim/src/cache.rs"),
            &cfg.nondet_taint.strict_paths
        ));
        assert!(!AuditConfig::path_in_scope(
            Path::new("crates/sim/tests/properties.rs"),
            &cfg.nondet_taint.strict_paths
        ));
        assert_eq!(cfg.nondet_taint.sinks, vec!["eval", "write_frame"]);
        assert_eq!(cfg.durability.paths.len(), 1);
        assert_eq!(cfg.durability.dirsync_fns, vec!["sync_dir"]);
        assert_eq!(
            cfg.wire_compat.files,
            vec![PathBuf::from("crates/dist/src/protocol.rs")]
        );
        assert_eq!(cfg.layering["datamime-sim"], vec!["datamime-stats"]);
    }

    #[test]
    fn shape_errors_are_reported() {
        assert!(AuditConfig::from_toml("[nondet-taint]\npaths = \"not-a-list\"\n").is_err());
        assert!(AuditConfig::from_toml("[wire-compat]\nlock = 3\n").is_err());
        assert!(AuditConfig::from_toml("[nondet-taint]\nsinks = [1]\n").is_err());
    }

    #[test]
    fn unknown_tables_and_keys_are_refused_by_name() {
        for (text, named) in [
            ("[nondet-tiant]\npaths = [\"crates\"]\n", "`[nondet-tiant]`"),
            (
                "[nondet-taint]\nstrict_paths = [\"crates\"]\n",
                "`strict_paths`",
            ),
            (
                "strict-paths = [\"crates\"]\n",
                "`strict-paths` at the top level",
            ),
            // A retired rule's leftover table would otherwise enforce nothing.
            (
                "[panic-safety]\npaths = [\"crates/core/src\"]\n",
                "`[panic-safety]`",
            ),
            ("[swallowed-result]\n", "`[swallowed-result]`"),
        ] {
            let err = AuditConfig::from_toml(text).unwrap_err().to_string();
            assert!(err.contains(named), "{text:?}: {err}");
        }
        // The layering matrix takes any crate name as a key.
        assert!(AuditConfig::from_toml("[layering.allow]\nnew-crate = []\n").is_ok());
    }
}
