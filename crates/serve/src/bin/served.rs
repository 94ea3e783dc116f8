//! `datamime-served`: the long-running Datamime search daemon.
//!
//! ```text
//! datamime-served --root /var/lib/datamime   # listens on <root>/serve.sock
//! datamime-served --root /var/lib/datamime --keep-terminal 8
//! datamime ctl submit workload=mem-fb iters=40 max_evals=32 --root /var/lib/datamime
//! echo 'status job-0001' | nc -U /var/lib/datamime/serve.sock
//! ```
//!
//! SIGTERM/SIGINT drain gracefully: running jobs stop at their next
//! batch boundary with journals flushed, and the manifest keeps them
//! `running` so the next start resumes them. SIGKILL is also safe — that
//! is the crash-resume path the integration tests exercise.
//!
//! `--fault <spec>` arms the deterministic fault injector: write entries
//! (`manifest|journal|gcdir:<nth>:enospc|short|syncfail|crash`) hit the
//! daemon's durability paths and eval entries (`eval:<index>:...`) every
//! job's evaluations; see [`datamime_runtime::faultinject`] for the
//! grammar. Intended for the crash-matrix tests, not production.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use datamime_runtime::{FaultInjector, FaultPlan};
use datamime_serve::ServeOptions;

const USAGE: &str = "usage: datamime-served --root <state-dir> \
[--keep-terminal <n>] [--fault <spec>]";

fn parse_args(args: &[String]) -> Result<Option<(PathBuf, ServeOptions)>, String> {
    let mut root: Option<PathBuf> = None;
    let mut options = ServeOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--root" => root = Some(PathBuf::from(value("--root")?)),
            "--keep-terminal" => {
                let raw = value("--keep-terminal")?;
                let n: usize = raw
                    .parse()
                    .map_err(|_| format!("invalid --keep-terminal value: {raw}"))?;
                options.keep_terminal = Some(n);
            }
            "--fault" => {
                options.faults = FaultInjector::new(FaultPlan::from_spec(value("--fault")?)?);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    let root = root.ok_or_else(|| "--root is required".to_string())?;
    Ok(Some((root, options)))
}

fn main() -> ExitCode {
    // Must run before anything else: on the first invocation this execs
    // into the termination trampoline (same PID) so SIGTERM/SIGINT can
    // be observed without unsafe signal handlers.
    let term = datamime_runtime::termsig::install();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (root, options) = match parse_args(&args) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("datamime-served: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match datamime_serve::run_with(root, term, options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("datamime-served: {e}");
            ExitCode::FAILURE
        }
    }
}
