//! Rule `layering`: the crate dependency graph must match the declared
//! layer matrix.
//!
//! The workspace layers bottom-up (stats → sim → apps → loadgen,
//! bayesopt → runtime, everything → core). The policy's `layering`
//! matrix is the whole policy: each crate lists the internal crates it
//! may depend on. A crate missing from the matrix is itself a violation —
//! new crates must state their layer — and so is a matrix row naming a
//! crate that does not exist or an allowance its crate does not use (a
//! typo or a dropped dependency would otherwise grant an allowance
//! nobody uses). Only `[dependencies]` and `[build-dependencies]` are
//! gated; dev-dependencies shape the test graph, not the product graph.

use crate::diagnostics::Diagnostic;
use crate::policy::POLICY_FILE;
use crate::workspace::CrateInfo;
use std::collections::BTreeSet;

/// Checks every crate's internal dependencies against the matrix.
pub fn check(crates: &[CrateInfo], matrix: &[(&str, &[&str])]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let internal: BTreeSet<&str> = crates.iter().map(|c| c.name.as_str()).collect();

    for c in crates {
        let Some(&(_, allowed)) = matrix.iter().find(|(row, _)| *row == c.name) else {
            out.push(Diagnostic::new(
                "layering",
                &c.manifest_rel,
                0,
                format!(
                    "crate `{}` is not in the layering matrix: add a row to the \
                     policy's `layering` stating which internal crates it may use",
                    c.name
                ),
            ));
            continue;
        };
        for dep in &c.deps {
            if !internal.contains(dep.name.as_str()) {
                continue; // external (vendored shim or std-adjacent) — not layered
            }
            if !allowed.contains(&dep.name.as_str()) {
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

    // Matrix hygiene: rows and allowances must name real crates, and an
    // allowance must be a dependency its crate declares.
    for &(row, allowed) in matrix {
        let declared = crates.iter().find(|c| c.name == row);
        if declared.is_none() {
            out.push(Diagnostic::new(
                "layering",
                POLICY_FILE,
                0,
                format!("layering matrix row `{row}` names a crate that does not exist"),
            ));
        }
        for &a in allowed {
            let message = if !internal.contains(a) {
                format!("layering matrix row `{row}` allows `{a}`, which is not a workspace crate")
            } else if declared.is_some_and(|c| !c.deps.iter().any(|d| d.name == a)) {
                format!(
                    "layering matrix row `{row}` allows `{a}`, which `{row}` does not depend \
                     on — delete the allowance"
                )
            } else {
                continue;
            };
            out.push(Diagnostic::new("layering", POLICY_FILE, 0, message));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::DepRef;
    use std::path::{Path, PathBuf};

    fn krate(name: &str, deps: &[(&str, u32)]) -> CrateInfo {
        CrateInfo {
            name: name.to_string(),
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

    #[test]
    fn allowed_graph_is_clean_and_externals_are_ignored() {
        let crates = vec![
            krate("stats", &[("proptest", 9)]),
            krate("sim", &[("stats", 8)]),
        ];
        let allow: &[(&str, &[&str])] = &[("stats", &[]), ("sim", &["stats"])];
        assert!(check(&crates, allow).is_empty());
    }

    #[test]
    fn disallowed_edge_is_reported_at_its_manifest_line() {
        let crates = vec![
            krate("stats", &[]),
            krate("sim", &[("stats", 8), ("loadgen", 9)]),
            krate("loadgen", &[]),
        ];
        let allow: &[(&str, &[&str])] = &[("stats", &[]), ("sim", &["stats"]), ("loadgen", &[])];
        let diags = check(&crates, allow);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 9);
        assert!(diags[0].message.contains("may not depend on `loadgen`"));
    }

    #[test]
    fn crate_missing_from_matrix_is_a_violation() {
        let crates = vec![krate("newcomer", &[])];
        let diags = check(&crates, &[]);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("not in the layering matrix"));
    }

    #[test]
    fn matrix_typos_are_violations() {
        let crates = vec![krate("stats", &[])];
        let allow: &[(&str, &[&str])] = &[("stats", &["statz"]), ("ghost", &[])];
        let diags = check(&crates, allow);
        assert_eq!(diags.len(), 2);
        assert!(
            diags.iter().all(|d| d.file.ends_with("policy.rs")),
            "{diags:?}"
        );
    }

    #[test]
    fn an_allowance_no_dependency_uses_is_reported() {
        // `loadgen` may use `stats` and `sim` but declares only an
        // external crate.
        let crates = vec![
            krate("stats", &[]),
            krate("sim", &[("stats", 8)]),
            krate("loadgen", &[("proptest", 9)]),
        ];
        let allow: &[(&str, &[&str])] = &[
            ("stats", &[]),
            ("sim", &["stats"]),
            ("loadgen", &["stats", "sim"]),
        ];
        let diags = check(&crates, allow);
        let unused = "which `loadgen` does not depend on";
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags[0]
            .message
            .contains(&format!("allows `stats`, {unused}")));
        assert!(diags[1]
            .message
            .contains(&format!("allows `sim`, {unused}")));
        assert!(diags.iter().all(|d| d.file == Path::new(POLICY_FILE)));
    }
}
