//! The few facts the audit reads from a `Cargo.toml`: `[package] name`,
//! the keys under `[dependencies]` and `[build-dependencies]`, and
//! whether it holds `[workspace]`.
//!
//! A line reader, not a TOML parser, and it fails closed: a form it does
//! not read — a `[dependencies.x]` sub-table, a `[target.…]` table, a
//! multi-line value, a quoted key, a renamed dependency — is an error
//! naming its line, never a dependency the layering rule silently
//! misses.

use crate::workspace::DepRef;

/// What one manifest declares.
#[derive(Debug, Default)]
pub struct Manifest {
    /// `[package] name` (`None` for a virtual manifest).
    pub name: Option<String>,
    /// `[dependencies]` + `[build-dependencies]` entries, in file order.
    pub deps: Vec<DepRef>,
    /// Whether the manifest holds a `[workspace]` table.
    pub workspace: bool,
}

/// The tables whose keys are read (`""`: before any table header).
const READ: [&str; 4] = ["", "package", "dependencies", "build-dependencies"];
/// Tables with nothing the layering rule needs — the test graph, build
/// targets, lints, features, profiles, workspace settings — by first
/// dotted segment. Their lines are skipped unread.
const SKIPPED: &str =
    "workspace lints features dev-dependencies profile lib bin test example bench badges";

/// Reads a manifest's text. An error starts `line N: `.
pub fn read(text: &str) -> Result<Manifest, String> {
    let mut m = Manifest::default();
    let (mut table, mut package_line) = ("", None);
    for (line, s) in (1u32..).zip(text.lines().map(str::trim)) {
        let fail = |what: String| Err(format!("line {line}: {what}"));
        if s.contains("\"\"\"") || s.contains("'''") {
            return fail("multi-line strings are not read".into());
        }
        if s.is_empty() || s.starts_with('#') {
            continue;
        }
        if s.starts_with('[') {
            let Some(name) = header(s) else {
                return fail(format!("unreadable table header `{s}`"));
            };
            let first = name.split('.').next().unwrap_or(name);
            if !READ.contains(&name) && !SKIPPED.split(' ').any(|t| t == first) {
                return fail(format!("table `[{name}]` is not read by the audit"));
            }
            m.workspace |= first == "workspace";
            package_line = package_line.or((name == "package").then_some(line));
            table = name;
            continue;
        }
        if !READ.contains(&table) {
            continue;
        }
        let entry = s.split_once('=').map(|(k, v)| (k.trim(), v.trim()));
        let Some((key, value)) = entry.filter(|(k, v)| bare(k) && complete(v)) else {
            return fail(format!("expected a one-line `key = value`, found `{s}`"));
        };
        let first = key.split('.').next().unwrap_or(key).trim();
        match (table, quoted(value)) {
            ("", _) => return fail(format!("key `{key}` outside any table")),
            ("package", Some(name)) if key == "name" => m.name = Some(name.to_string()),
            ("package", _) if first == "name" => {
                return fail(format!("unreadable package name `{s}`"))
            }
            ("package", _) => {}
            _ if renamed(key, value) => {
                return fail(format!("renamed dependency `{first}` is not read"))
            }
            _ => m.deps.push(DepRef {
                name: first.to_string(),
                line,
            }),
        }
    }
    match package_line {
        Some(line) if m.name.is_none() => Err(format!("line {line}: `[package]` has no `name`")),
        _ => Ok(m),
    }
}

/// The name in a `[table]` or `[[array-table]]` header line.
fn header(s: &str) -> Option<&str> {
    let (name, rest) = match s.strip_prefix("[[") {
        Some(inner) => inner.split_once("]]")?,
        None => s.strip_prefix('[')?.split_once(']')?,
    };
    (bare(name) && comment_or_nothing(rest)).then(|| name.trim())
}

/// A bare, possibly dotted key: `datamime-sim`, `version.workspace`.
fn bare(key: &str) -> bool {
    key.split('.').all(|seg| ident(seg.trim()))
}

fn ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

fn comment_or_nothing(rest: &str) -> bool {
    let rest = rest.trim_start();
    rest.is_empty() || rest.starts_with('#')
}

/// Whether `value` is whole on its line: every string closes and every
/// bracket and brace balances before any trailing comment.
fn complete(value: &str) -> bool {
    let (mut depth, mut quote, mut escaped) = (0u32, None, false);
    for c in value.chars() {
        match quote {
            Some(_) if escaped => escaped = false,
            Some('"') if c == '\\' => escaped = true,
            Some(q) if c == q => quote = None,
            Some(_) => {}
            None => match c {
                '"' | '\'' => quote = Some(c),
                '[' | '{' => depth += 1,
                ']' | '}' if depth == 0 => return false,
                ']' | '}' => depth -= 1,
                '#' => break,
                _ => {}
            },
        }
    }
    !value.is_empty() && depth == 0 && quote.is_none()
}

/// The contents of a plain `"name"` value.
fn quoted(value: &str) -> Option<&str> {
    let (name, rest) = value.strip_prefix('"')?.split_once('"')?;
    (ident(name) && comment_or_nothing(rest)).then_some(name)
}

/// Whether a dependency entry names its package under another key
/// (`x.package = "…"` or `x = { package = "…" }`).
fn renamed(key: &str, value: &str) -> bool {
    let package = |k: &str| k.trim() == "package";
    key.split('.').skip(1).any(package)
        || (value.split(['{', ','])).any(|kv| kv.split('=').next().is_some_and(package))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_name_dependency_keys_and_their_lines() {
        let m = read(
            "# comment\n\
             [package]\n\
             name = \"datamime-sim\" # trailing\n\
             version.workspace = true\n\
             description = \"a # in a string, [brackets] and {braces}\"\n\
             keywords = [\"sim\", \"cache\"]\n\
             \n\
             [dependencies]\n\
             datamime-stats.workspace = true\n\
             ext = { path = \"../ext\", features = [\"a\"] }\n\
             [dev-dependencies]\n\
             proptest.workspace = true\n\
             [build-dependencies]\n\
             gen = \"1.0\"\n\
             [[bin]]\n\
             name = \"tool\"\n\
             [lints]\n\
             workspace = true\n",
        )
        .unwrap();
        assert_eq!(m.name.as_deref(), Some("datamime-sim"));
        let deps: Vec<_> = m.deps.iter().map(|d| (d.name.as_str(), d.line)).collect();
        assert_eq!(deps, [("datamime-stats", 9), ("ext", 10), ("gen", 14)]);
        assert!(!m.workspace);
    }

    #[test]
    fn virtual_and_workspace_manifests() {
        let m = read("[workspace]\nmembers = [\"crates/*\"]\n[workspace.package]\n").unwrap();
        assert!(m.workspace && m.name.is_none() && m.deps.is_empty());
        let m = read("[package]\nname = \"tidy\"\n\n[workspace]\n").unwrap();
        assert!(m.workspace && m.name.as_deref() == Some("tidy"));
    }

    #[test]
    fn forms_it_does_not_read_are_refused_with_their_line() {
        for (text, line, named) in [
            ("[dependencies.x]\n", 1, "`[dependencies.x]`"),
            ("[target.x.dependencies]\n", 1, "`[target.x.dependencies]`"),
            ("[target.'cfg(unix)'.dependencies]\n", 1, "header"),
            ("[package.metadata]\n", 1, "`[package.metadata]`"),
            ("[package\n", 1, "header"),
            ("[package] x\n", 1, "header"),
            ("name = \"a\"\n", 1, "outside any table"),
            ("[dependencies]\nx = { path = \"x\",\n", 2, "one-line"),
            ("[package]\nkeywords = [\n", 2, "one-line"),
            ("[dependencies]\n\"quoted\" = \"1\"\n", 2, "one-line"),
            ("[package]\ndescription = \"\"\"\n", 2, "multi-line strings"),
            ("[lints]\nx = '''\n", 2, "multi-line strings"),
            ("[dependencies]\na = { package = \"s\" }\n", 2, "renamed"),
            ("[dependencies]\na.package = \"s\"\n", 2, "renamed"),
            ("[package]\nname = 'a'\n", 2, "package name"),
            ("[package]\nname.workspace = true\n", 2, "package name"),
            ("\n[package]\nversion = \"1\"\n", 2, "no `name`"),
        ] {
            let err = read(text).unwrap_err();
            let ok = err.starts_with(&format!("line {line}: ")) && err.contains(named);
            assert!(ok, "{text:?}: {err}");
        }
    }
}
