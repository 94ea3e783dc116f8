//! The `datamime` command-line tool: profile workloads and synthesize
//! representative benchmarks from the terminal.
//!
//! ```text
//! datamime list                           # available workloads
//! datamime machines                       # the Table-II platforms
//! datamime profile mem-fb machine=zen2    # print a profile
//! datamime clone mem-fb iters=60 batch=4  # run the Datamime search
//! ```
//!
//! A search is named by `key=value` settings: `clone <workload> <settings>`
//! parses the line `ctl submit workload=<workload> <settings>` sends the
//! daemon, with [`JobSpec::parse_request`], so both run the same job and
//! refuse the same mistakes. `--flags` only steer how this process runs
//! it (journal, supervision, progress, output). Each command reads its own
//! flags and refuses any other by name.

#![forbid(unsafe_code)]
use datamime::jobspec::{machine_by_name, JobSpec, MACHINE_PRESETS};
use datamime::metrics::DistMetric;
use datamime::profiler::{profile_workload, ProfilingConfig};
use datamime::search::{search_with_runtime, RuntimeOptions, SearchConfig};
use datamime::servectl::{records, ServeClient};
use datamime::workload::Workload;
use datamime_runtime::{FailPolicy, QuotaCause};
use datamime_sim::MachineConfig;
use std::fmt;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

const USAGE: &str = "\
datamime — generate representative benchmarks by synthesizing datasets

USAGE:
    datamime <COMMAND> [key=value ...] [--flag ...]

COMMANDS:
    list                       list available target workloads
    machines                   describe the simulated platforms
    profile <workload> [machine=<name>] [paper=<bool>] [curves=<bool>]
                               profile a workload and print its metrics
    clone <workload> [key=value ...]
                               search for a matching synthetic dataset
    validate <workload> [key=value ...]
                               clone, then validate across all machines
    ctl <action> [...]         talk to a running datamime-served daemon:
                                 submit workload=<name> [key=value ...]
                                 status|result|wait|cancel <job-id>
                                 list | stats | health | version | shutdown

JOB SETTINGS — the keys `ctl submit` takes, with its defaults:
    iters=<n> (40)  seed=<n>  machine=broadwell|zen2|silvermont
    batch=<k> (1)  backend=thread|proc  workers=<n> (one-shot runs: the
    batch width; daemon thread jobs: 2)
    paper=<bool> (false)  curves=<bool> (true)  grid=<steps>
    max_evals=<n>  wall_clock_s=<secs>
`backend=proc` runs evaluations in datamime-worker processes (the one
DATAMIME_WORKER names, else the one beside this binary).

FLAGS of clone and validate:
    --journal <path>           journal every evaluation (crash-safe JSONL)
    --resume <path>            resume an interrupted search from its journal
    --eval-timeout <secs>      wall-clock budget per evaluation attempt
    --max-retries <n>          retries of a failed evaluation (default 1)
    --fail-policy <policy>     then penalize (default) | abort the search
    --progress-every <n>       a stderr progress line every n evaluations
FLAGS of profile and validate:
    --tsv                      print the samples / the comparison as TSV
FLAGS of ctl:
    --root <dir>               the daemon root (else DATAMIME_SERVE_ROOT)
    --timeout <secs>           wait: give up after this long (default 600)
";

/// The flags of `clone`; `validate` adds `--tsv`. They steer how this
/// process runs a search, never which search it is.
const CLONE_FLAGS: [&str; 6] = [
    "--journal",
    "--resume",
    "--eval-timeout",
    "--max-retries",
    "--fail-policy",
    "--progress-every",
];

/// The flags of `validate`: `clone`'s and `--tsv`.
fn validate_flags() -> Vec<&'static str> {
    [&CLONE_FLAGS[..], &["--tsv"]].concat()
}

/// The job-spec keys `profile` reads: it runs no search.
const PROFILE_KEYS: [&str; 3] = ["machine", "paper", "curves"];

/// One command line, split by its command's flag table.
#[derive(Debug, Default)]
struct Args {
    /// Everything that is not a flag: the workload and its `key=value`
    /// settings, or a `ctl` action and its arguments.
    words: Vec<String>,
    /// The flags given, each with its value (`--tsv` has none).
    flags: Vec<(&'static str, String)>,
}

impl Args {
    /// Splits `args` for `cmd`, whose flags are `table`. A flag outside
    /// the table, a repeated flag and a flag without its value are errors
    /// that name the flag.
    fn parse(cmd: &str, table: &[&'static str], args: &[String]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                out.words.push(arg.clone());
                continue;
            }
            let Some(&flag) = table.iter().find(|f| **f == arg) else {
                return Err(format!(
                    "{cmd} has no flag {arg} (its flags: {}); job settings are \
                     key=value tokens, the keys `ctl submit` takes (iters=8 \
                     machine=zen2 ...; see `datamime help`)",
                    table.join(" ")
                ));
            };
            if out.get(flag).is_some() {
                return Err(format!("{flag} is given twice"));
            }
            let value = match flag {
                "--tsv" => String::new(),
                _ => it.next().ok_or(format!("{flag} needs a value"))?.clone(),
            };
            out.flags.push((flag, value));
        }
        Ok(out)
    }

    /// The value of `flag`, if it was given.
    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `flag` read as a number, if it was given.
    fn number<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: not a count: `{v}`")))
            .transpose()
    }

    /// The job line of a workload command: its first word is the
    /// workload, the rest are settings.
    fn job_line(&self, cmd: &str) -> Result<String, String> {
        match self.words.split_first() {
            Some((name, settings)) if !name.contains('=') => {
                Ok(format!("workload={name} {}", settings.join(" ")))
            }
            _ => Err(format!("{cmd} needs a workload first; see `datamime list`")),
        }
    }
}

fn cmd_list() {
    println!("target workloads:");
    for w in [
        Workload::mem_fb(),
        Workload::mem_twtr(),
        Workload::silo_bidding(),
        Workload::xapian_wiki(),
        Workload::dnn_resnet(),
        Workload::masstree_ycsb(),
        Workload::img_dnn_mnist(),
    ] {
        println!(
            "  {:<12} program={:<10} qps={}",
            w.name,
            w.app.program(),
            w.load.qps
        );
    }
    println!("public-dataset baselines:");
    for w in [
        Workload::mem_public(),
        Workload::silo_public(),
        Workload::xapian_public(),
        Workload::dnn_public(),
    ] {
        println!(
            "  {:<14} program={:<10} qps={}",
            w.name,
            w.app.program(),
            w.load.qps
        );
    }
}

fn cmd_machines() {
    for m in MACHINE_PRESETS.into_iter().filter_map(machine_by_name) {
        println!(
            "{:<11} {:.2} GHz, width {}, L1I {}, L1D {}, L2 {}, LLC {}",
            m.name,
            m.freq_ghz,
            m.issue_width,
            m.l1i,
            m.l1d,
            m.l2,
            m.llc.map_or("none".to_owned(), |c| c.to_string()),
        );
    }
}

/// The workload `profile` profiles, and the machine and fidelity its
/// settings name, read by [`JobSpec::search_config`] like a search's.
fn profile_plan(args: &Args) -> Result<(Workload, SearchConfig), String> {
    for word in args.words.iter().skip(1) {
        let key = word.split_once('=').map_or(word.as_str(), |(k, _)| k);
        if !PROFILE_KEYS.contains(&key) {
            return Err(format!(
                "profile takes the keys machine=, paper= and curves=, not `{key}`: \
                 it runs no search"
            ));
        }
    }
    let spec = JobSpec::parse_request(&args.job_line("profile")?)?;
    Ok((spec.target()?, spec.search_config()?))
}

/// Profiles a workload as [`profile_plan`] reads it.
fn cmd_profile(args: &Args) -> Result<(), String> {
    let (workload, cfg) = profile_plan(args)?;
    eprintln!("profiling {} on {} ...", workload.name, cfg.machine.name);
    let p = profile_workload(&workload, &cfg.machine, &cfg.profiling);
    if args.get("--tsv").is_some() {
        print!("{}", p.to_tsv());
        return Ok(());
    }
    for m in DistMetric::ALL {
        let d = p.dist(m);
        println!(
            "{:<14} mean={:<10.4} p50={:<10.4} p95={:<10.4}",
            m.key(),
            d.mean(),
            d.quantile(0.5),
            d.quantile(0.95)
        );
    }
    if !p.curve().is_empty() {
        println!("cache sensitivity (MB: llc_mpki / ipc):");
        for pt in p.curve() {
            println!(
                "  {:>3}: {:.3} / {:.3}",
                pt.cache_bytes >> 20,
                pt.llc_mpki,
                pt.ipc
            );
        }
    }
    Ok(())
}

// Cross-microarchitecture validation (`datamime validate`): the paper
// generates benchmarks on Broadwell and validates them unchanged on
// Zen 2 and Silvermont (Figs. 1 and 3) — a representative dataset keeps
// matching when the machine changes, because the match comes from the
// workload's structure rather than overfitting to one microarchitecture.

/// One (machine, metric) comparison between target and benchmark.
#[derive(Debug)]
struct ValidationRow {
    /// Machine name.
    machine: String,
    /// Metric compared.
    metric: DistMetric,
    /// Target's mean value.
    target: f64,
    /// Benchmark's mean value.
    benchmark: f64,
}

impl ValidationRow {
    /// Absolute error.
    fn abs_error(&self) -> f64 {
        (self.benchmark - self.target).abs()
    }

    /// Relative error against the target (`None` when the target is ~0).
    fn rel_error(&self) -> Option<f64> {
        (self.target.abs() > 1e-9).then(|| self.abs_error() / self.target.abs())
    }
}

/// The full validation result across machines and metrics.
#[derive(Debug)]
struct ValidationReport {
    rows: Vec<ValidationRow>,
}

impl ValidationReport {
    /// Mean absolute percentage error of a metric across machines
    /// (`None` if no row has a usable target value).
    fn mape(&self, metric: DistMetric) -> Option<f64> {
        let errs: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.metric == metric)
            .filter_map(ValidationRow::rel_error)
            .collect();
        (!errs.is_empty()).then(|| errs.iter().sum::<f64>() / errs.len() as f64)
    }

    /// Serializes the report as TSV.
    fn to_tsv(&self) -> String {
        let mut out = String::from("machine\tmetric\ttarget\tbenchmark\tabs_error\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                r.machine,
                r.metric.key(),
                r.target,
                r.benchmark,
                r.abs_error()
            ));
        }
        out
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rows {
            writeln!(
                f,
                "{:<11} {:<14} target={:<10.4} benchmark={:<10.4} err={:.4}",
                r.machine,
                r.metric.key(),
                r.target,
                r.benchmark,
                r.abs_error()
            )?;
        }
        Ok(())
    }
}

/// Profiles `target` and `benchmark` on every machine in `machines` and
/// compares the metric means.
///
/// # Panics
///
/// Panics if `machines` or `metrics` is empty.
fn validate_clone(
    target: &Workload,
    benchmark: &Workload,
    machines: &[MachineConfig],
    metrics: &[DistMetric],
    cfg: &ProfilingConfig,
) -> ValidationReport {
    assert!(!machines.is_empty(), "need at least one machine");
    assert!(!metrics.is_empty(), "need at least one metric");
    let mut rows = Vec::with_capacity(machines.len() * metrics.len());
    for machine in machines {
        let t = profile_workload(target, machine, cfg);
        let b = profile_workload(benchmark, machine, cfg);
        for &m in metrics {
            rows.push(ValidationRow {
                machine: machine.name.clone(),
                metric: m,
                target: t.mean(m),
                benchmark: b.mean(m),
            });
        }
    }
    ValidationReport { rows }
}

/// The paper's validation setup: all three Table-II machines and the four
/// headline metrics of Fig. 6.
fn validate_paper_setup(
    target: &Workload,
    benchmark: &Workload,
    cfg: &ProfilingConfig,
) -> ValidationReport {
    validate_clone(
        target,
        benchmark,
        &[
            MachineConfig::broadwell(),
            MachineConfig::zen2(),
            MachineConfig::silvermont(),
        ],
        &[
            DistMetric::Ipc,
            DistMetric::LlcMpki,
            DistMetric::ICacheMpki,
            DistMetric::BranchMpki,
        ],
        cfg,
    )
}

/// The search `clone` and `validate` run: the job their settings name —
/// the one `ctl submit` of the same settings runs — under the runtime
/// their flags set.
fn search_plan(cmd: &str, args: &Args) -> Result<(JobSpec, RuntimeOptions), String> {
    let spec = JobSpec::parse_request(&args.job_line(cmd)?)?;
    let eval_timeout = match args.get("--eval-timeout") {
        None => None,
        Some(v) => Some(
            v.parse::<f64>()
                .ok()
                .filter(|secs| *secs > 0.0)
                .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
                .ok_or(format!(
                    "--eval-timeout must be a positive number of seconds \
                     a Duration can hold: `{v}`"
                ))?,
        ),
    };
    let fail_policy = match args.get("--fail-policy") {
        None | Some("penalize") => FailPolicy::Penalize,
        Some("abort") => FailPolicy::Abort,
        Some(v) => return Err(format!("--fail-policy must be penalize or abort: `{v}`")),
    };
    let progress_every = args.number("--progress-every")?;
    if progress_every == Some(0) {
        return Err("--progress-every must be at least 1".to_string());
    }
    let resume = args.get("--resume").map(PathBuf::from);
    let runtime = RuntimeOptions {
        // An interrupted run resumed in place continues its own journal
        // unless a different --journal is given.
        journal: args.get("--journal").map(PathBuf::from).or(resume.clone()),
        resume,
        progress: true,
        eval_timeout,
        // One retry by default: a long search should shrug off a
        // transient failure without being asked.
        max_retries: args.number("--max-retries")?.unwrap_or(1),
        fail_policy,
        progress_every,
        ..spec.runtime_options()
    };
    Ok((spec, runtime))
}

/// What stopped a search short of its `iters`, as the daemon's
/// `quota_exceeded` state says it: the result is the best so far.
fn quota_note(quota: Option<QuotaCause>, evals: usize) -> Option<String> {
    let cause = quota?.as_str();
    Some(format!(
        "stopped early by quota {cause} after {evals} evaluations"
    ))
}

/// Profiles the target and runs the search; `clone` then prints the
/// synthesized dataset, `validate` compares it across machines.
fn cmd_search(cmd: &str, args: &Args) -> Result<(), String> {
    let (spec, runtime) = search_plan(cmd, args)?;
    let workload = spec.target()?;
    let generator = spec.generator()?;
    let cfg = spec.search_config()?;
    eprintln!(
        "profiling {} and searching {} dataset parameters ({} iterations, batch {}) ...",
        workload.name,
        generator.dims(),
        cfg.iterations,
        runtime.batch_k,
    );
    let target = profile_workload(&workload, &cfg.machine, &cfg.profiling);
    let outcome = search_with_runtime(generator.as_ref(), &target, &cfg, &runtime)
        .map_err(|e| e.to_string())?;
    if let Some(note) = quota_note(outcome.quota, outcome.history.len()) {
        eprintln!("{note}");
    }
    if cmd == "validate" {
        eprintln!("validating across machines ...");
        let report = validate_paper_setup(&workload, &outcome.best_workload, &cfg.profiling);
        print!("{report}");
        if let Some(mape) = report.mape(DistMetric::Ipc) {
            println!("IPC MAPE across machines: {:.1}%", mape * 100.0);
        }
        if args.get("--tsv").is_some() {
            print!("{}", report.to_tsv());
        }
        return Ok(());
    }
    println!("best total EMD error: {:.4}", outcome.best_error);
    println!("synthesized dataset parameters:");
    for (name, value) in generator.describe(&outcome.best_unit_params) {
        println!("  {name:>20} = {value:.3}");
    }
    println!("\n{:>14}  {:>9}  {:>9}", "metric", "target", "datamime");
    for m in DistMetric::ALL {
        println!(
            "{:>14}  {:>9.3}  {:>9.3}",
            m.key(),
            target.mean(m),
            outcome.best_profile.mean(m)
        );
    }
    Ok(())
}

/// `ctl <action> [arguments]`: one request to the daemon. Each action
/// takes exactly its own arguments, and only `wait` reads `--timeout`.
fn cmd_ctl(args: &Args) -> Result<(), String> {
    let (action, rest) = args.words.split_first().ok_or(
        "ctl needs an action: submit | status | result | wait | cancel | list | stats | health | version | shutdown",
    )?;
    let (arity, wanted) = match action.as_str() {
        "submit" => (rest.len(), "job settings"),
        "status" | "result" | "wait" | "cancel" => (1, "one job id"),
        "list" | "stats" | "health" | "version" | "shutdown" => (0, "no arguments"),
        other => return Err(format!("unknown ctl action {other}")),
    };
    if rest.len() != arity {
        let got = rest.join(" ");
        return Err(format!("ctl {action} takes {wanted}, got `{got}`"));
    }
    if action != "wait" && args.get("--timeout").is_some() {
        return Err(format!("--timeout applies to ctl wait, not ctl {action}"));
    }
    let root = args
        .get("--root")
        .map(PathBuf::from)
        .or_else(|| std::env::var_os("DATAMIME_SERVE_ROOT").map(PathBuf::from))
        .ok_or("ctl needs the daemon root: pass --root <dir> or set DATAMIME_SERVE_ROOT")?;
    let client = ServeClient::new(root);
    let request = match action.as_str() {
        "submit" => format!(
            "submit {}",
            JobSpec::parse_request(&rest.join(" "))?.to_line()?
        ),
        "wait" => {
            let timeout = Duration::from_secs(args.number("--timeout")?.unwrap_or(600));
            let s = client.wait(&rest[0], timeout)?;
            println!("state={} best_error={}", s.state.as_str(), s.best_error);
            // Quota-exhausted jobs still carry a best-so-far result, so
            // they count as success; cancelled/failed jobs do not.
            if !s.state.has_result() {
                return Err(format!("job finished {}", s.state.as_str()));
            }
            return Ok(());
        }
        _ => args.words.join(" "),
    };
    // The reply is the output; `health` alone has always shown its `END`.
    let reply = client.admin(&request)?;
    match action.as_str() {
        "result" | "list" | "stats" => print!("{}", records(&reply)?),
        _ => print!("{reply}"),
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        print!("{USAGE}");
        return Ok(());
    };
    match cmd.as_str() {
        "list" | "machines" | "help" | "--help" | "-h" if !rest.is_empty() => {
            return Err(format!("{cmd} takes no arguments: `{}`", rest.join(" ")));
        }
        "list" => cmd_list(),
        "machines" => cmd_machines(),
        "help" | "--help" | "-h" => print!("{USAGE}"),
        "ctl" => cmd_ctl(&Args::parse(cmd, &["--root", "--timeout"], rest)?)?,
        "profile" => cmd_profile(&Args::parse(cmd, &["--tsv"], rest)?)?,
        "clone" => cmd_search(cmd, &Args::parse(cmd, &CLONE_FLAGS, rest)?)?,
        "validate" => cmd_search(cmd, &Args::parse(cmd, &validate_flags(), rest)?)?,
        other => return Err(format!("unknown command {other}\n\n{USAGE}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamime::jobspec::JobBackend;
    use datamime::search::{BackendChoice, ProcOptions};
    use datamime::workload::AppConfig;
    use datamime_apps::KvConfig;

    fn args(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    fn plan(cmd: &str, words: &[&str]) -> Result<(JobSpec, RuntimeOptions), String> {
        let table = match cmd {
            "clone" => CLONE_FLAGS.to_vec(),
            _ => validate_flags(),
        };
        search_plan(cmd, &Args::parse(cmd, &table, &args(words))?)
    }

    #[test]
    fn parses_all_options() {
        assert_eq!(validate_flags()[..6], CLONE_FLAGS);
        assert_eq!(validate_flags()[6..], ["--tsv"]);
        let a = Args::parse(
            "validate",
            &validate_flags(),
            &args(&[
                "mem-fb",
                "iters=7",
                "--journal",
                "run.jsonl",
                "--resume",
                "old.jsonl",
                "--eval-timeout",
                "2.5",
                "--max-retries",
                "4",
                "--fail-policy",
                "abort",
                "--progress-every",
                "5",
                "--tsv",
            ]),
        )
        .unwrap();
        assert_eq!(a.words, args(&["mem-fb", "iters=7"]));
        assert_eq!(a.flags.len(), 7);
        let (spec, rt) = search_plan("validate", &a).unwrap();
        assert_eq!(spec.iters, 7);
        assert_eq!(rt.journal, Some(PathBuf::from("run.jsonl")));
        assert_eq!(rt.resume, Some(PathBuf::from("old.jsonl")));
        assert_eq!(rt.eval_timeout, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(rt.max_retries, 4);
        assert_eq!(rt.fail_policy, FailPolicy::Abort);
        assert_eq!(rt.progress_every, Some(5));
        assert!(rt.progress);
        assert_eq!(a.get("--tsv"), Some(""));
    }

    #[test]
    fn parses_thread_backend() {
        let (spec, rt) = plan("clone", &["mem-fb", "backend=thread", "batch=2"]).unwrap();
        assert_eq!((spec.backend, spec.workers), (JobBackend::Thread, 0));
        assert_eq!(rt.backend, BackendChoice::Thread);
        assert_eq!((rt.batch_k, rt.workers), (2, 2));
    }

    #[test]
    fn parses_penalize_fail_policy() {
        let (_, rt) = plan("clone", &["mem-fb", "--fail-policy", "penalize"]).unwrap();
        assert_eq!(rt.fail_policy, FailPolicy::Penalize);
        // Unset, the policy is `penalize` with one retry.
        let (_, rt) = plan("clone", &["mem-fb"]).unwrap();
        assert_eq!((rt.fail_policy, rt.max_retries), (FailPolicy::Penalize, 1));
    }

    #[test]
    fn rejects_unknown_and_incomplete_options() {
        for (words, named) in [
            (&["mem-fb", "--bogus"][..], "--bogus"),
            (&["mem-fb", "--iters", "7"], "--iters"),
            (&["mem-fb", "--root", "/x"], "--root"),
            (&["mem-fb", "--tsv"], "--tsv"),
            (&["mem-fb", "--journal"], "--journal"),
            (&["mem-fb", "--resume"], "--resume"),
            (&["mem-fb", "--journal", "a", "--journal", "b"], "--journal"),
            (&["mem-fb", "--eval-timeout", "-3"], "--eval-timeout"),
            (&["mem-fb", "--eval-timeout", "zero"], "--eval-timeout"),
            (&["mem-fb", "--eval-timeout", "1e300"], "--eval-timeout"),
            (&["mem-fb", "--max-retries", "x"], "--max-retries"),
            (&["mem-fb", "--fail-policy", "explode"], "--fail-policy"),
            (&["mem-fb", "--progress-every", "0"], "--progress-every"),
            (&["mem-fb", "--progress-every", "x"], "--progress-every"),
            (&["mem-fb", "iters=0"], "`iters`"),
            (&["mem-fb", "iters"], "`iters`"),
            (&["mem-fb", "backend=fiber"], "`backend`"),
            (&["mem-fb", "workers=65"], "`workers`"),
            (&["mem-fb", "worker_bin=/bin/true"], "`worker_bin`"),
            (&["mem-fb", "workload=xapian"], "`workload`"),
            (&["iters=3"], "needs a workload"),
            (&[], "needs a workload"),
        ] {
            match plan("clone", words) {
                Err(e) => assert!(e.contains(named), "{words:?}: {e}"),
                Ok(_) => panic!("clone accepted {words:?}"),
            }
        }
    }

    #[test]
    fn validate_searches_with_the_runtime_flags_clone_does() {
        // The settings give the job and runtime the old flags gave:
        // `--iters 60 --parallel 4 --backend proc --workers 2 --paper
        // --machine zen2`.
        let words = [
            "mem-fb",
            "iters=60",
            "batch=4",
            "backend=proc",
            "workers=2",
            "paper=true",
            "machine=zen2",
        ];
        let (spec, rt) = plan("clone", &words).unwrap();
        assert_eq!(
            spec,
            JobSpec {
                iters: 60,
                machine: "zen2".to_string(),
                batch: 4,
                workers: 2,
                backend: JobBackend::Proc,
                paper: true,
                ..JobSpec::new("mem-fb")
            }
        );
        assert_eq!((rt.batch_k, rt.workers), (4, 2));
        assert_eq!(
            rt.backend,
            BackendChoice::Process(ProcOptions {
                workers: 2,
                worker_bin: None,
            })
        );
        let cfg = spec.search_config().unwrap();
        assert_eq!((cfg.iterations, cfg.machine.name.as_str()), (60, "zen2"));
        assert_eq!(cfg.profiling, ProfilingConfig::paper_default());
        // `workers=` reaches a thread-backend run too.
        let (_, rt) = plan("clone", &["mem-fb", "workers=3"]).unwrap();
        assert_eq!(
            (rt.backend, rt.batch_k, rt.workers),
            (BackendChoice::Thread, 1, 3)
        );
        // `validate` runs the search `clone` runs.
        for words in [
            &words[..],
            &[
                "mem-fb",
                "batch=3",
                "--journal",
                "v.jsonl",
                "--eval-timeout",
                "2",
            ],
            &["mem-fb", "--resume", "old.jsonl", "--max-retries", "4"],
            &["mem-fb", "--fail-policy", "abort", "--progress-every", "5"],
        ] {
            let clone = format!("{:?}", plan("clone", words).unwrap());
            assert_eq!(clone, format!("{:?}", plan("validate", words).unwrap()));
        }
        let (_, rt) = plan("validate", &["mem-fb", "--resume", "old.jsonl"]).unwrap();
        assert_eq!(rt.journal, Some(PathBuf::from("old.jsonl")));
    }

    #[test]
    fn profile_refuses_search_flags_by_name() {
        let profile = |words: &[&str]| {
            Args::parse("profile", &["--tsv"], &args(words)).and_then(|a| profile_plan(&a))
        };
        // It accepts its own keys and flag, and profiles where they say.
        let words = [
            "mem-fb",
            "machine=zen2",
            "paper=true",
            "curves=false",
            "--tsv",
        ];
        let (workload, cfg) = profile(&words).unwrap();
        assert_eq!(workload.name, "mem-fb");
        assert_eq!(cfg.machine.name, "zen2");
        assert_eq!(
            cfg.profiling,
            ProfilingConfig::paper_default().without_curves()
        );
        let (_, cfg) = profile(&["mem-fb"]).unwrap();
        assert_eq!(cfg.machine.name, "broadwell");
        assert_eq!(cfg.profiling, ProfilingConfig::fast());
        for (words, named) in [
            (&["mem-fb", "--journal", "x"][..], "--journal"),
            (&["mem-fb", "--eval-timeout", "1"], "--eval-timeout"),
            (&["mem-fb", "--root", "/x"], "--root"),
            (&["mem-fb", "iters=5"], "`iters`"),
            (&["mem-fb", "backend=proc"], "`backend`"),
            (&["mem-fb", "zen2"], "`zen2`"),
            (&["mem-fb", "machine=m1"], "m1"),
        ] {
            match profile(words) {
                Err(e) => assert!(e.contains(named), "{words:?}: {e}"),
                Ok(_) => panic!("profile accepted {words:?}"),
            }
        }
    }

    #[test]
    fn a_quota_stop_is_reported_by_its_key() {
        let (spec, rt) = plan("clone", &["mem-fb", "max_evals=2", "wall_clock_s=5"]).unwrap();
        assert_eq!((spec.max_evals, spec.wall_clock_s), (Some(2), Some(5)));
        assert_eq!(rt.max_evals, Some(2));
        assert_eq!(rt.wall_clock, Some(Duration::from_secs(5)));
        assert_eq!(
            quota_note(Some(QuotaCause::MaxEvals), 2).unwrap(),
            "stopped early by quota max_evals after 2 evaluations"
        );
        assert!(quota_note(Some(QuotaCause::WallClock), 1)
            .unwrap()
            .contains("wall_clock_s"));
        assert_eq!(quota_note(None, 40), None);
    }

    #[test]
    fn workload_and_machine_lookup() {
        assert!(Workload::by_name("mem-fb").is_some());
        assert!(Workload::by_name("img-dnn").is_some());
        assert!(Workload::by_name("nope").is_none());
        assert!(machine_by_name("silvermont").is_some());
        assert!(machine_by_name("alderlake").is_none());
    }

    #[test]
    fn ctl_args_split_positionals_from_flags() {
        let ctl = |words: &[&str]| Args::parse("ctl", &["--root", "--timeout"], &args(words));
        let a = ctl(&["submit", "workload=mem-fb", "--root", "/tmp/r", "iters=8"]).unwrap();
        assert_eq!(a.words, args(&["submit", "workload=mem-fb", "iters=8"]));
        assert_eq!(a.get("--root"), Some("/tmp/r"));
        assert!(ctl(&["list", "--paper"]).unwrap_err().contains("--paper"));
        assert!(ctl(&["wait", "j", "--timeout-secs", "9"])
            .unwrap_err()
            .contains("--timeout-secs"));
        // Each action takes exactly its own arguments, refused before
        // any connection is tried.
        for (words, named) in [
            (&["status", "job-1", "job-2"][..], "one job id"),
            (&["wait", "--root", "/nonexistent"], "one job id"),
            (&["list", "job-1"], "no arguments"),
            (&["stats", "--timeout", "3", "--root", "/x"], "--timeout"),
            (&["frob"], "frob"),
            (&[], "needs an action"),
        ] {
            let err = cmd_ctl(&ctl(words).unwrap()).unwrap_err();
            assert!(err.contains(named), "{words:?}: {err}");
        }
    }

    fn tiny(name: &str, n_keys: usize) -> Workload {
        let mut w = Workload::mem_fb();
        w.name = name.to_owned();
        w.app = AppConfig::Kv(KvConfig {
            n_keys,
            ..KvConfig::facebook_like()
        });
        w
    }

    #[test]
    fn self_validation_is_perfect() {
        let w = tiny("t", 5_000);
        let cfg = ProfilingConfig::fast().without_curves();
        let report = validate_clone(
            &w,
            &w,
            &[MachineConfig::broadwell()],
            &[DistMetric::Ipc, DistMetric::LlcMpki],
            &cfg,
        );
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.mape(DistMetric::Ipc), Some(0.0));
    }

    #[test]
    fn different_workloads_show_errors() {
        let cfg = ProfilingConfig::fast().without_curves();
        let report = validate_clone(
            &tiny("a", 5_000),
            &tiny("b", 200_000),
            &[MachineConfig::broadwell(), MachineConfig::silvermont()],
            &[DistMetric::Ipc, DistMetric::LlcMpki],
            &cfg,
        );
        assert_eq!(report.rows.len(), 4);
        assert!(report.mape(DistMetric::Ipc).unwrap() > 0.0);
        let tsv = report.to_tsv();
        assert!(tsv.lines().count() == 5);
        assert!(tsv.contains("silvermont"));
        assert!(!report.to_string().is_empty());
    }

    #[test]
    fn mape_skips_zero_targets() {
        let report = ValidationReport {
            rows: vec![ValidationRow {
                machine: "x".into(),
                metric: DistMetric::ItlbMpki,
                target: 0.0,
                benchmark: 1.0,
            }],
        };
        assert_eq!(report.mape(DistMetric::ItlbMpki), None);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn empty_machines_panics() {
        let w = tiny("t", 100);
        validate_clone(&w, &w, &[], &[DistMetric::Ipc], &ProfilingConfig::fast());
    }
}
