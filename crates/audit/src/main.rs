//! The `datamime-audit` command-line interface.
//!
//! ```text
//! cargo run -p datamime-audit -- check [--root DIR] [--quiet]
//! cargo run -p datamime-audit -- rules
//! ```
//!
//! `check` applies the workspace policy
//! ([`datamime_audit::policy::WORKSPACE`]). Exit codes: `0` — clean;
//! `1` — violations found; `2` — usage or scan error. Without `--root`,
//! the workspace root is located by walking up from the current
//! directory to the `Cargo.toml` that holds `[workspace]`.

#![forbid(unsafe_code)]

use datamime_audit::policy::WORKSPACE;
use datamime_audit::{manifest, run_check};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
datamime-audit: static-analysis gates for the Datamime workspace

USAGE:
    datamime-audit check [--root DIR] [--quiet]
    datamime-audit rules

OPTIONS:
    --root DIR       Workspace root (default: the nearest ancestor whose
                     Cargo.toml holds [workspace])
    --quiet          Suppress the summary line on success

The policy is compiled in: crates/audit/src/policy.rs.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("rules") => {
            for rule in datamime_audit::rules::RULES {
                println!("{rule}");
            }
            Ok(true)
        }
        Some("check") => check(&args[1..]),
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            Ok(true)
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
        None => Err(format!("missing command\n{USAGE}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("datamime-audit: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Runs `check` with its options; `Ok(clean)`, or a usage or scan error.
fn check(args: &[String]) -> Result<bool, String> {
    let (mut root, mut quiet) = (None, false);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        // Accept both `--root DIR` and `--root=DIR`.
        match (arg.as_str(), arg.strip_prefix("--root=")) {
            ("--quiet" | "-q", _) => quiet = true,
            ("--root", _) => root = Some(args.next().ok_or("`--root` needs a value")?.into()),
            (_, Some(dir)) => root = Some(dir.into()),
            (other, None) => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    let root: PathBuf = root.map_or_else(find_root, Ok)?;
    let started = Instant::now();
    let report = run_check(&root, &WORKSPACE)?;
    let elapsed_ms = started.elapsed().as_millis();
    for d in &report.diagnostics {
        println!("{d}");
    }
    let (files, crates) = (report.files_scanned, report.crates_scanned);
    if !report.clean() {
        let n = report.diagnostics.len();
        eprintln!(
            "datamime-audit: {n} violation(s) across {files} file(s) in {crates} crate(s) \
             ({elapsed_ms} ms)"
        );
    } else if !quiet {
        eprintln!("datamime-audit: clean ({files} files, {crates} crates, {elapsed_ms} ms)");
    }
    Ok(report.clean())
}

/// Walks up from the current directory to the `Cargo.toml` that holds
/// `[workspace]`. A manifest on the way that the reader refuses is an
/// error: it might be the workspace's.
fn find_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("no current directory: {e}"))?;
    for dir in cwd.ancestors().filter(|d| d.join("Cargo.toml").is_file()) {
        let path = dir.join("Cargo.toml");
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string());
        match text.and_then(|text| manifest::read(&text)) {
            Ok(m) if !m.workspace => {}
            Ok(_) => return Ok(dir.to_path_buf()),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        }
    }
    Err("no Cargo.toml with [workspace] here or in any parent directory (pass --root)".into())
}
