//! The `datamime` command-line tool: profile workloads and synthesize
//! representative benchmarks from the terminal.
//!
//! ```text
//! datamime list                          # available workloads
//! datamime machines                      # the Table-II platforms
//! datamime profile mem-fb --machine zen2 # print a profile
//! datamime clone mem-fb --iters 60       # run the Datamime search
//! ```

#![forbid(unsafe_code)]
use datamime::jobspec::{machine_by_name, JobBackend, JobSpec, MACHINE_PRESETS};
use datamime::metrics::DistMetric;
use datamime::profiler::{profile_workload, ProfilingConfig};
use datamime::search::{search, search_with_runtime, RuntimeOptions};
use datamime::servectl::{records, ServeClient};
use datamime::workload::Workload;
use datamime_runtime::FailPolicy;
use datamime_sim::MachineConfig;
use std::fmt;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
datamime — generate representative benchmarks by synthesizing datasets

USAGE:
    datamime <COMMAND> [OPTIONS]

COMMANDS:
    list                       list available target workloads
    machines                   describe the simulated platforms
    profile <workload>         profile a workload and print its metrics
    clone <workload>           search for a matching synthetic dataset
    validate <workload>        clone, then validate across all machines
    ctl <action> [...]         talk to a running datamime-served daemon:
                                 submit key=value...   (workload=<name> ...,
                                 optional quotas max_evals=<n> wall_clock_s=<s>)
                                 status|result|wait|cancel <job-id>
                                 list | stats | health | version | shutdown
                               the daemon root comes from --root or the
                               DATAMIME_SERVE_ROOT environment variable

OPTIONS:
    --machine <name>           broadwell (default) | zen2 | silvermont
    --iters <n>                search iterations (default 40)
    --parallel <k>             evaluate k candidates per batch in parallel
    --backend <kind>           with `clone`: where evaluations run —
                               thread (default, in-process pool) | proc
                               (datamime-worker OS processes; deadlines
                               are enforced by SIGKILL and a crashing
                               evaluation cannot take the search down)
    --workers <n>              with `--backend proc`: worker processes
                               (default: the --parallel batch width)
    --journal <path>           with `clone`: log every evaluation to a
                               crash-safe JSONL run journal
    --resume <path>            with `clone`: resume an interrupted search
                               from its journal (journaled points are
                               re-observed, not re-profiled)
    --eval-timeout <secs>      with `clone`: wall-clock budget per
                               evaluation; a runaway profile is cancelled
                               and the point penalized
    --max-retries <n>          with `clone`: retries (with deterministic
                               backoff) before a failing evaluation is
                               penalized or aborts (default 1)
    --fail-policy <policy>     with `clone`: what to do when an evaluation
                               still fails after retries —
                               penalize (default) | abort (fail fast)
    --progress-every <n>       with `clone`: emit a stderr progress line
                               every n evaluations (default 10)
    --root <dir>               with `ctl`: the daemon state root
    --timeout <n>              with `ctl wait`: give up (and exit nonzero)
                               after n seconds (default 600); --timeout-secs
                               is accepted as an alias
    --paper                    paper-fidelity profiling (slower)
    --tsv                      with `profile`: dump raw samples as TSV
";

#[derive(Debug, Default)]
struct Options {
    machine: Option<String>,
    iters: Option<usize>,
    parallel: Option<usize>,
    journal: Option<PathBuf>,
    resume: Option<PathBuf>,
    eval_timeout: Option<Duration>,
    max_retries: Option<u32>,
    fail_policy: Option<FailPolicy>,
    backend: Option<String>,
    workers: Option<usize>,
    progress_every: Option<usize>,
    root: Option<PathBuf>,
    timeout_secs: Option<u64>,
    paper: bool,
    tsv: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--machine" => {
                o.machine = Some(args.get(i + 1).ok_or("--machine needs a value")?.clone());
                i += 2;
            }
            "--iters" => {
                let n: usize = args
                    .get(i + 1)
                    .ok_or("--iters needs a value")?
                    .parse()
                    .map_err(|_| "--iters must be a number")?;
                if n == 0 {
                    return Err("--iters must be at least 1".to_string());
                }
                o.iters = Some(n);
                i += 2;
            }
            "--parallel" => {
                o.parallel = Some(
                    args.get(i + 1)
                        .ok_or("--parallel needs a value")?
                        .parse()
                        .map_err(|_| "--parallel must be a number")?,
                );
                i += 2;
            }
            "--journal" => {
                o.journal = Some(args.get(i + 1).ok_or("--journal needs a path")?.into());
                i += 2;
            }
            "--resume" => {
                o.resume = Some(args.get(i + 1).ok_or("--resume needs a path")?.into());
                i += 2;
            }
            "--eval-timeout" => {
                let secs: f64 = args
                    .get(i + 1)
                    .ok_or("--eval-timeout needs a value in seconds")?
                    .parse()
                    .map_err(|_| "--eval-timeout must be a number of seconds")?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--eval-timeout must be positive".to_string());
                }
                o.eval_timeout = Some(Duration::from_secs_f64(secs));
                i += 2;
            }
            "--max-retries" => {
                o.max_retries = Some(
                    args.get(i + 1)
                        .ok_or("--max-retries needs a value")?
                        .parse()
                        .map_err(|_| "--max-retries must be a number")?,
                );
                i += 2;
            }
            "--fail-policy" => {
                o.fail_policy = Some(
                    match args
                        .get(i + 1)
                        .ok_or("--fail-policy needs a value")?
                        .as_str()
                    {
                        "penalize" => FailPolicy::Penalize,
                        "abort" => FailPolicy::Abort,
                        _ => return Err("--fail-policy must be abort or penalize".to_string()),
                    },
                );
                i += 2;
            }
            "--backend" => {
                let kind = args.get(i + 1).ok_or("--backend needs a value")?;
                if kind != "thread" && kind != "proc" {
                    return Err("--backend must be thread or proc".to_string());
                }
                o.backend = Some(kind.clone());
                i += 2;
            }
            "--workers" => {
                o.workers = Some(
                    args.get(i + 1)
                        .ok_or("--workers needs a value")?
                        .parse()
                        .map_err(|_| "--workers must be a number")?,
                );
                i += 2;
            }
            "--progress-every" => {
                let n: usize = args
                    .get(i + 1)
                    .ok_or("--progress-every needs a value")?
                    .parse()
                    .map_err(|_| "--progress-every must be a number")?;
                if n == 0 {
                    return Err("--progress-every must be at least 1".to_string());
                }
                o.progress_every = Some(n);
                i += 2;
            }
            "--root" => {
                o.root = Some(args.get(i + 1).ok_or("--root needs a path")?.into());
                i += 2;
            }
            "--timeout-secs" | "--timeout" => {
                o.timeout_secs = Some(
                    args.get(i + 1)
                        .ok_or("--timeout needs a value")?
                        .parse()
                        .map_err(|_| "--timeout must be a number of seconds")?,
                );
                i += 2;
            }
            "--paper" => {
                o.paper = true;
                i += 1;
            }
            "--tsv" => {
                o.tsv = true;
                i += 1;
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(o)
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

fn cmd_profile(workload: &Workload, opts: &Options) -> Result<(), String> {
    let machine = machine_by_name(opts.machine.as_deref().unwrap_or("broadwell"))
        .ok_or("unknown machine (broadwell | zen2 | silvermont)")?;
    let cfg = if opts.paper {
        ProfilingConfig::paper_default()
    } else {
        ProfilingConfig::fast()
    };
    eprintln!("profiling {} on {} ...", workload.name, machine.name);
    let p = profile_workload(workload, &machine, &cfg);
    if opts.tsv {
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

/// The job `clone` and `validate` run, from their flags: the same
/// [`JobSpec`] a `ctl submit` of those settings would carry, so the
/// one-shot search and the daemon's are built by one code path, and
/// refused past the same bounds.
fn job_spec(name: &str, opts: &Options) -> Result<JobSpec, String> {
    let mut spec = JobSpec::new(name);
    if let Some(machine) = &opts.machine {
        spec.machine = machine.clone();
    }
    spec.iters = opts.iters.unwrap_or(spec.iters);
    spec.batch = opts.parallel.unwrap_or(1).max(1);
    spec.paper = opts.paper;
    if opts.backend.as_deref() == Some("proc") {
        spec.backend = JobBackend::Proc;
        spec.workers = opts.workers.unwrap_or(spec.batch).max(1);
    }
    spec.check_bounds()?;
    Ok(spec)
}

fn cmd_validate(workload: &Workload, spec: &JobSpec, opts: &Options) -> Result<(), String> {
    let generator = spec.generator()?;
    let cfg = spec.search_config()?;
    eprintln!(
        "cloning {} ({} iterations) ...",
        workload.name, cfg.iterations
    );
    let target = profile_workload(workload, &cfg.machine, &cfg.profiling);
    let outcome = search(generator.as_ref(), &target, &cfg);
    eprintln!("validating across machines ...");
    let report = validate_paper_setup(workload, &outcome.best_workload, &cfg.profiling);
    print!("{report}");
    if let Some(mape) = report.mape(DistMetric::Ipc) {
        println!("IPC MAPE across machines: {:.1}%", mape * 100.0);
    }
    if opts.tsv {
        print!("{}", report.to_tsv());
    }
    Ok(())
}

fn cmd_clone(workload: &Workload, spec: &JobSpec, opts: &Options) -> Result<(), String> {
    let generator = spec.generator()?;
    let cfg = spec.search_config()?;
    eprintln!(
        "profiling {} and searching {} dataset parameters ({} iterations{}) ...",
        workload.name,
        generator.dims(),
        cfg.iterations,
        opts.parallel
            .map_or(String::new(), |k| format!(", batch {k}")),
    );
    let target = profile_workload(workload, &cfg.machine, &cfg.profiling);
    let runtime = RuntimeOptions {
        // An interrupted run resumed in place continues its own journal
        // unless a different --journal is given.
        journal: opts.journal.clone().or_else(|| opts.resume.clone()),
        resume: opts.resume.clone(),
        progress: true,
        eval_timeout: opts.eval_timeout,
        // One retry by default: a long search should shrug off a
        // transient failure without being asked.
        max_retries: opts.max_retries.unwrap_or(1),
        fail_policy: opts.fail_policy.unwrap_or_default(),
        progress_every: opts.progress_every,
        ..spec.runtime_options()
    };
    let outcome = search_with_runtime(generator.as_ref(), &target, &cfg, &runtime)
        .map_err(|e| e.to_string())?;
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

/// Splits a `ctl` argument list into the `key=value`/id positionals and
/// the `--flag`-style options (parsed with [`parse_options`]).
fn split_ctl_args(args: &[String]) -> Result<(Vec<String>, Options), String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            flags.push(a.clone());
            if let Some(v) = it.peek() {
                if !v.starts_with("--") {
                    flags.push(it.next().unwrap().clone());
                }
            }
        } else {
            positional.push(a.clone());
        }
    }
    Ok((positional, parse_options(&flags)?))
}

fn cmd_ctl(args: &[String]) -> Result<(), String> {
    let action = args
        .first()
        .ok_or("ctl needs an action: submit | status | result | wait | cancel | list | stats | health | version | shutdown")?
        .clone();
    let (positional, opts) = split_ctl_args(&args[1..])?;
    let root = opts
        .root
        .or_else(|| std::env::var_os("DATAMIME_SERVE_ROOT").map(PathBuf::from))
        .ok_or("ctl needs the daemon root: pass --root <dir> or set DATAMIME_SERVE_ROOT")?;
    let client = ServeClient::new(root);
    let job_arg = || {
        positional
            .first()
            .cloned()
            .ok_or(format!("ctl {action} needs a job id"))
    };
    let request = match action.as_str() {
        "submit" => format!(
            "submit {}",
            JobSpec::parse(&positional.join(" "))?.to_line()?
        ),
        "status" | "result" | "cancel" => format!("{action} {}", job_arg()?),
        "list" | "stats" | "health" | "version" | "shutdown" => action.clone(),
        "wait" => {
            let timeout = Duration::from_secs(opts.timeout_secs.unwrap_or(600));
            let s = client.wait(&job_arg()?, timeout)?;
            println!("state={} best_error={}", s.state.as_str(), s.best_error);
            // Quota-exhausted jobs still carry a best-so-far result, so
            // they count as success; cancelled/failed jobs do not.
            if !s.state.has_result() {
                return Err(format!("job finished {}", s.state.as_str()));
            }
            return Ok(());
        }
        other => return Err(format!("unknown ctl action {other}")),
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
    match args.first().map(String::as_str) {
        Some("list") => {
            cmd_list();
            Ok(())
        }
        Some("machines") => {
            cmd_machines();
            Ok(())
        }
        Some("ctl") => cmd_ctl(&args[1..]),
        Some(cmd @ ("profile" | "clone" | "validate")) => {
            let name = args
                .get(1)
                .ok_or(format!("{cmd} needs a workload name; see `datamime list`"))?;
            let workload = Workload::by_name(name)
                .ok_or(format!("unknown workload {name}; see `datamime list`"))?;
            let opts = parse_options(&args[2..])?;
            match cmd {
                "profile" => cmd_profile(&workload, &opts),
                "clone" => cmd_clone(&workload, &job_spec(name, &opts)?, &opts),
                _ => cmd_validate(&workload, &job_spec(name, &opts)?, &opts),
            }
        }
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other}\n\n{USAGE}")),
    }
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
    use datamime::workload::AppConfig;
    use datamime_apps::KvConfig;

    fn args(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_all_options() {
        let o = parse_options(&args(&[
            "--machine",
            "zen2",
            "--iters",
            "7",
            "--parallel",
            "3",
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
            "--backend",
            "proc",
            "--workers",
            "3",
            "--progress-every",
            "5",
            "--root",
            "/tmp/serve-root",
            "--timeout-secs",
            "30",
            "--paper",
            "--tsv",
        ]))
        .unwrap();
        assert_eq!(o.machine.as_deref(), Some("zen2"));
        assert_eq!(o.iters, Some(7));
        assert_eq!(o.parallel, Some(3));
        assert_eq!(
            o.journal.as_deref(),
            Some(std::path::Path::new("run.jsonl"))
        );
        assert_eq!(o.resume.as_deref(), Some(std::path::Path::new("old.jsonl")));
        assert_eq!(o.eval_timeout, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(o.max_retries, Some(4));
        assert_eq!(o.fail_policy, Some(FailPolicy::Abort));
        assert_eq!(o.backend.as_deref(), Some("proc"));
        assert_eq!(o.workers, Some(3));
        assert_eq!(o.progress_every, Some(5));
        assert_eq!(
            o.root.as_deref(),
            Some(std::path::Path::new("/tmp/serve-root"))
        );
        assert_eq!(o.timeout_secs, Some(30));
        assert!(o.paper && o.tsv);
    }

    #[test]
    fn parses_thread_backend() {
        let o = parse_options(&args(&["--backend", "thread"])).unwrap();
        assert_eq!(o.backend.as_deref(), Some("thread"));
        assert_eq!(o.workers, None);
    }

    #[test]
    fn parses_penalize_fail_policy() {
        let o = parse_options(&args(&["--fail-policy", "penalize"])).unwrap();
        assert_eq!(o.fail_policy, Some(FailPolicy::Penalize));
    }

    #[test]
    fn rejects_unknown_and_incomplete_options() {
        assert!(parse_options(&args(&["--bogus"])).is_err());
        assert!(parse_options(&args(&["--iters"])).is_err());
        assert!(parse_options(&args(&["--iters", "x"])).is_err());
        assert!(parse_options(&args(&["--iters", "0"])).is_err());
        assert!(parse_options(&args(&["--journal"])).is_err());
        assert!(parse_options(&args(&["--resume"])).is_err());
        assert!(parse_options(&args(&["--eval-timeout"])).is_err());
        assert!(parse_options(&args(&["--eval-timeout", "-3"])).is_err());
        assert!(parse_options(&args(&["--eval-timeout", "zero"])).is_err());
        assert!(parse_options(&args(&["--max-retries", "x"])).is_err());
        assert!(parse_options(&args(&["--fail-policy", "explode"])).is_err());
        assert!(parse_options(&args(&["--backend"])).is_err());
        assert!(parse_options(&args(&["--backend", "fiber"])).is_err());
        assert!(parse_options(&args(&["--workers", "x"])).is_err());
        assert!(parse_options(&args(&["--progress-every", "0"])).is_err());
        assert!(parse_options(&args(&["--progress-every", "x"])).is_err());
        assert!(parse_options(&args(&["--root"])).is_err());
        assert!(parse_options(&args(&["--timeout-secs", "x"])).is_err());
        assert!(parse_options(&args(&["--timeout", "x"])).is_err());
    }

    #[test]
    fn timeout_is_an_alias_for_timeout_secs() {
        let o = parse_options(&args(&["--timeout", "42"])).unwrap();
        assert_eq!(o.timeout_secs, Some(42));
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
        let (pos, opts) = split_ctl_args(&args(&[
            "workload=mem-fb",
            "iters=8",
            "--root",
            "/tmp/r",
            "--timeout-secs",
            "9",
        ]))
        .unwrap();
        assert_eq!(pos, args(&["workload=mem-fb", "iters=8"]));
        assert_eq!(opts.root.as_deref(), Some(std::path::Path::new("/tmp/r")));
        assert_eq!(opts.timeout_secs, Some(9));
        assert!(split_ctl_args(&args(&["--bogus"])).is_err());
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
