//! The `datamime-audit` command-line interface.
//!
//! ```text
//! cargo run -p datamime-audit -- check [--root DIR] [--config FILE] [--quiet]
//! cargo run -p datamime-audit -- rules
//! ```
//!
//! Exit codes: `0` — clean; `1` — violations found; `2` — usage,
//! configuration, or scan error. Without
//! `--root`/`--config`, the workspace root is located by walking up
//! from the current directory to the nearest `audit.toml`.

#![forbid(unsafe_code)]

use datamime_audit::config::AuditConfig;
use datamime_audit::run_check;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
datamime-audit: static-analysis gates for the Datamime workspace

USAGE:
    datamime-audit check [--root DIR] [--config FILE] [--quiet]
    datamime-audit rules

OPTIONS:
    --root DIR       Workspace root (default: nearest ancestor with audit.toml)
    --config FILE    Configuration file (default: <root>/audit.toml)
    --quiet          Suppress the summary line on success
";

struct Options {
    root: Option<PathBuf>,
    config: Option<PathBuf>,
    quiet: bool,
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    match command.as_str() {
        "rules" => {
            for rule in datamime_audit::rules::RULES {
                println!("{rule}");
            }
            ExitCode::SUCCESS
        }
        "check" => match parse_options(args) {
            Ok(opts) => check(&opts),
            Err(msg) => {
                eprintln!("datamime-audit: {msg}");
                eprint!("{USAGE}");
                ExitCode::from(2)
            }
        },
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("datamime-audit: unknown command `{other}`");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn parse_options(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        config: None,
        quiet: false,
    };
    while let Some(arg) = args.next() {
        // Accept both `--flag value` and `--flag=value`.
        let (flag, mut inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        let takes_value = matches!(flag.as_str(), "--root" | "--config");
        let value = if takes_value {
            match inline.take() {
                Some(v) => v,
                None => args
                    .next()
                    .ok_or_else(|| format!("`{flag}` needs a value"))?,
            }
        } else {
            String::new()
        };
        match flag.as_str() {
            "--root" => opts.root = Some(PathBuf::from(value)),
            "--config" => opts.config = Some(PathBuf::from(value)),
            "--quiet" | "-q" => opts.quiet = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

/// Resolves the workspace root and loads the config, or prints the
/// error and returns the exit code.
fn load(opts: &Options) -> Result<(PathBuf, AuditConfig), ExitCode> {
    let root = match &opts.root {
        Some(r) => r.clone(),
        None => match find_root() {
            Some(r) => r,
            None => {
                eprintln!(
                    "datamime-audit: no audit.toml found here or in any parent \
                     directory (pass --root or --config)"
                );
                return Err(ExitCode::from(2));
            }
        },
    };
    let config_path = opts
        .config
        .clone()
        .unwrap_or_else(|| root.join("audit.toml"));
    match AuditConfig::load(&config_path) {
        Ok(cfg) => Ok((root, cfg)),
        Err(e) => {
            eprintln!("datamime-audit: {e}");
            Err(ExitCode::from(2))
        }
    }
}

fn check(opts: &Options) -> ExitCode {
    let (root, cfg) = match load(opts) {
        Ok(rc) => rc,
        Err(code) => return code,
    };
    let started = Instant::now();
    let report = match run_check(&root, &cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("datamime-audit: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed_ms = started.elapsed().as_millis();
    for d in &report.diagnostics {
        println!("{d}");
    }
    if !report.clean() {
        eprintln!(
            "datamime-audit: {} violation(s) across {} file(s) in {} crate(s) \
             ({elapsed_ms} ms)",
            report.diagnostics.len(),
            report.files_scanned,
            report.crates_scanned,
        );
    } else if !opts.quiet {
        eprintln!(
            "datamime-audit: clean ({} files, {} crates, {elapsed_ms} ms)",
            report.files_scanned, report.crates_scanned,
        );
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Walks up from the current directory to the nearest `audit.toml`.
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("audit.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
