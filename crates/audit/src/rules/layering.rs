//! Rule `layering`: the crate dependency graph must match the declared
//! layer matrix.
//!
//! The workspace layers bottom-up (stats → sim → apps → loadgen,
//! bayesopt → runtime, everything → core). The matrix in
//! `[layering.allow]` is the whole policy: each crate lists the internal
//! crates it may depend on. A crate missing from the matrix is itself a
//! violation — new crates must state their layer — and so is a matrix
//! row naming a crate that does not exist (a typo would otherwise grant
//! an allowance nobody uses). Only `[dependencies]` and
//! `[build-dependencies]` are gated; dev-dependencies shape the test
//! graph, not the product graph.

use crate::diagnostics::Diagnostic;
use crate::workspace::CrateInfo;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Checks every crate's internal dependencies against the matrix.
pub fn check(crates: &[CrateInfo], allow: &BTreeMap<String, Vec<String>>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let internal: BTreeSet<&str> = crates.iter().map(|c| c.name.as_str()).collect();

    for c in crates {
        let Some(allowed) = allow.get(&c.name) else {
            out.push(Diagnostic::new(
                "layering",
                &c.manifest_rel,
                0,
                format!(
                    "crate `{}` is not in the layering matrix: add a \
                     `[layering.allow]` row stating which internal crates it may use",
                    c.name
                ),
            ));
            continue;
        };
        for dep in &c.deps {
            if !internal.contains(dep.name.as_str()) {
                continue; // external (vendored shim or std-adjacent) — not layered
            }
            if !allowed.contains(&dep.name) {
                out.push(Diagnostic::new(
                    "layering",
                    &c.manifest_rel,
                    dep.line,
                    format!(
                        "`{}` may not depend on `{}` (allowed: [{}])",
                        c.name,
                        dep.name,
                        allowed.join(", ")
                    ),
                ));
            }
        }
    }

    // Matrix hygiene: rows and allowances must name real crates.
    for (row, allowed) in allow {
        if !internal.contains(row.as_str()) {
            out.push(Diagnostic::new(
                "layering",
                "audit.toml",
                0,
                format!("layering matrix row `{row}` names a crate that does not exist"),
            ));
        }
        for a in allowed {
            if !internal.contains(a.as_str()) {
                out.push(Diagnostic::new(
                    "layering",
                    "audit.toml",
                    0,
                    format!(
                        "layering matrix row `{row}` allows `{a}`, which is not a workspace crate"
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::DepRef;
    use std::path::PathBuf;

    fn krate(name: &str, deps: &[(&str, u32)]) -> CrateInfo {
        CrateInfo {
            name: name.to_string(),
            rel_dir: PathBuf::from(format!("crates/{name}")),
            manifest_rel: PathBuf::from(format!("crates/{name}/Cargo.toml")),
            deps: deps
                .iter()
                .map(|(n, l)| DepRef {
                    name: n.to_string(),
                    line: *l,
                })
                .collect(),
        }
    }

    fn matrix(rows: &[(&str, &[&str])]) -> BTreeMap<String, Vec<String>> {
        rows.iter()
            .map(|(k, v)| (k.to_string(), v.iter().map(|s| s.to_string()).collect()))
            .collect()
    }

    #[test]
    fn allowed_graph_is_clean_and_externals_are_ignored() {
        let crates = vec![
            krate("stats", &[("proptest", 9)]),
            krate("sim", &[("stats", 8)]),
        ];
        let allow = matrix(&[("stats", &[]), ("sim", &["stats"])]);
        assert!(check(&crates, &allow).is_empty());
    }

    #[test]
    fn disallowed_edge_is_reported_at_its_manifest_line() {
        let crates = vec![
            krate("stats", &[]),
            krate("sim", &[("stats", 8), ("loadgen", 9)]),
            krate("loadgen", &[]),
        ];
        let allow = matrix(&[("stats", &[]), ("sim", &["stats"]), ("loadgen", &[])]);
        let diags = check(&crates, &allow);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 9);
        assert!(diags[0].message.contains("may not depend on `loadgen`"));
    }

    #[test]
    fn crate_missing_from_matrix_is_a_violation() {
        let crates = vec![krate("newcomer", &[])];
        let diags = check(&crates, &BTreeMap::new());
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("not in the layering matrix"));
    }

    #[test]
    fn matrix_typos_are_violations() {
        let crates = vec![krate("stats", &[])];
        let allow = matrix(&[("stats", &["statz"]), ("ghost", &[])]);
        let diags = check(&crates, &allow);
        assert_eq!(diags.len(), 2);
    }
}
