//! `datamime-benchmark`: what a Datamime search costs, end to end and
//! layer by layer. See `benchmark/README.md`.
//!
//! One process runs one workload once (the contract `BENCHMARK.json`
//! describes): `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//! `--suite` and `--agree` run sets of those as child processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod estimator;
mod report;
mod shadow;
mod spans;
mod timed;
mod traced;
mod units;
mod workloads;

use report::SuiteArgs;
use std::path::PathBuf;
use std::process::ExitCode;

/// What the command line asked for.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    worker_bin: Option<PathBuf>,
    list: bool,
    suite: bool,
    agree: bool,
}

const USAGE: &str = "usage: datamime-benchmark --workload <name> --seed <n> --seconds <s> \
--trace <0|1> [--out <dir>] [--worker-bin <path>]\n       datamime-benchmark --list | --suite | \
--agree  [--seed <n>] [--seconds <s>] [--out <dir>] [--worker-bin <path>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        seconds: 30,
        out: PathBuf::from("benchmark/out"),
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a u64"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("--seconds: `{v}` is not in 1..=600"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: `{other}` is not 0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--worker-bin" => args.worker_bin = Some(PathBuf::from(value()?)),
            "--list" => args.list = true,
            "--suite" => args.suite = true,
            "--agree" => args.agree = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Runs one workload in this process and prints its result line.
fn single_run(args: &Args, name: &str) -> Result<bool, String> {
    let def = workloads::by_name(name)
        .ok_or_else(|| format!("unknown workload `{name}`; --list names them"))?;
    // Scratch lives under --out, addressed relative to the working
    // directory: socket paths stay short wherever the checkout sits, and
    // the crates' own `temp_dir()` users (broker sockets, staged targets)
    // are pointed inside the checkout too.
    let work = args.out.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {work:?}: {e}"))?;
    std::env::set_var("TMPDIR", &work);
    let env = units::Env {
        work: work.clone(),
        worker_bin: args.worker_bin.clone(),
    };
    let result = if args.trace {
        traced::run(def, &env, &args.out)
    } else {
        timed::run(def, args.seed, args.seconds, &env)
    };
    // Best effort: a failed run should report its own error, not this.
    let _ = std::fs::remove_dir_all(&work);
    let result = result?;
    println!("{}", result.to_json());
    Ok(result.correct)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if args.list {
        for w in &workloads::WORKLOADS {
            println!("{}: {}", w.name, w.why);
        }
        return Ok(true);
    }
    if let Some(name) = &args.workload {
        return single_run(&args, name);
    }
    let suite_args = SuiteArgs {
        seed: args.seed,
        seconds: args.seconds,
        out: args.out.clone(),
        worker_bin: args.worker_bin.clone(),
    };
    if args.agree {
        report::agree(&suite_args)
    } else if args.suite {
        report::suite(&suite_args)
    } else {
        Err(USAGE.to_string())
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("datamime-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload kv_curves_seq --seed 7 --seconds 30 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("kv_curves_seq"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 30, true));
        assert!(!a.suite && !a.agree && !a.list);
    }

    #[test]
    fn refuses_what_it_does_not_understand() {
        assert!(parse_args(&argv("--workload")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed -1")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
    }
}
