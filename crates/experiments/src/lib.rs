//! Every table and figure of the paper as a function over one table of
//! searches (see DESIGN.md for the index). `run_all` calls the
//! [`FIGURES`] in one process.
//!
//! Knobs (environment variables; unset means the default, a malformed
//! value stops the process with a message naming it):
//!
//! - `DATAMIME_PROFILE` — `fast` (default) or `paper`: profiling fidelity;
//! - `DATAMIME_ITERS` — search iterations per benchmark (default 40;
//!   the paper runs 200);
//! - `DATAMIME_PARALLEL` — candidates evaluated per optimizer batch, on
//!   as many worker threads (default 1 = sequential).
//!
//! Every figure searches: [`Searches`] profiles the target and runs the
//! search engine the first time a search is asked for, and holds the
//! outcome in memory only, so a file under `results/` is a function of
//! the code and the settings its second line records.

#![forbid(unsafe_code)]
use datamime::generator::generator_for_program;
use datamime::profile::Profile;
use datamime::profiler::{profile_workload, ProfilingConfig};
use datamime::search::{search_with_runtime, RuntimeOptions, SearchConfig, SearchOutcome};
use datamime::workload::Workload;
use datamime::MetricWeights;
use std::fmt;
use std::fs;

mod figures;

pub use figures::{Figure, FIGURES};

/// The `DATAMIME_PROFILE` names.
const PROFILES: [&str; 2] = ["fast", "paper"];

/// The profiling fidelity a `DATAMIME_PROFILE` name selects.
fn profile_by_name(name: &str) -> Option<ProfilingConfig> {
    match name {
        "fast" => Some(ProfilingConfig::fast()),
        "paper" => Some(ProfilingConfig::paper_default()),
        _ => None,
    }
}

/// Resolved experiment settings from the environment.
#[derive(Debug, Clone, PartialEq)]
pub struct Settings {
    /// Search iterations per benchmark.
    pub iters: usize,
    /// Profiling fidelity.
    pub profiling: ProfilingConfig,
    /// Candidates evaluated per optimizer batch (1 = sequential).
    pub parallel: usize,
}

/// The process environment as the lookup [`Settings::parse`] and
/// [`env_usize`] read through.
fn process_env(var: &str) -> Option<String> {
    std::env::var_os(var).map(|v| v.to_string_lossy().into_owned())
}

/// Reads the count `var` through `env`: unset means `default`.
///
/// # Errors
///
/// Names the variable and its value when it is set to anything but an
/// integer of at least `min`.
fn env_usize(
    env: &dyn Fn(&str) -> Option<String>,
    var: &str,
    default: usize,
    min: usize,
) -> Result<usize, String> {
    match env(var) {
        None => Ok(default),
        Some(v) => match v.parse() {
            Ok(n) if n >= min => Ok(n),
            _ => Err(format!("{var}={v:?} is not an integer >= {min}")),
        },
    }
}

/// Unwraps, or stops the process (exit status 2) with the message — a
/// regeneration must not run at a budget nobody asked for, nor pass for
/// done when its file was not written.
pub fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

impl Settings {
    /// Reads settings from the process environment (see module docs),
    /// exiting with status 2 on a malformed value.
    pub fn from_env() -> Self {
        or_exit(Settings::parse(&process_env))
    }

    /// Resolves settings from an environment lookup; unset variables take
    /// their defaults.
    ///
    /// # Errors
    ///
    /// Names the variable and its value when one is malformed, including
    /// a zero `DATAMIME_ITERS` (a search needs one iteration).
    pub fn parse(env: &dyn Fn(&str) -> Option<String>) -> Result<Self, String> {
        let name = env("DATAMIME_PROFILE").unwrap_or_else(|| "fast".to_string());
        let profiling = profile_by_name(&name)
            .ok_or_else(|| format!("DATAMIME_PROFILE={name:?} is not one of {PROFILES:?}"))?;
        Ok(Settings {
            iters: env_usize(env, "DATAMIME_ITERS", 40, 1)?,
            profiling,
            parallel: env_usize(env, "DATAMIME_PARALLEL", 1, 0)?.max(1),
        })
    }

    /// The search configuration implied by these settings.
    pub fn search_config(&self) -> SearchConfig {
        let mut cfg = SearchConfig::paper_default();
        cfg.iterations = self.iters;
        cfg.profiling = self.profiling.clone();
        cfg
    }

    /// The runtime options implied by these settings (`DATAMIME_PARALLEL`
    /// batching; no journal).
    pub fn runtime_options(&self) -> RuntimeOptions {
        if self.parallel > 1 {
            RuntimeOptions::parallel(self.parallel)
        } else {
            RuntimeOptions::default()
        }
    }
}

/// The settings as a [`Report`] records them: `iters=40 profile=fast
/// parallel=1`.
impl fmt::Display for Settings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let profile = PROFILES
            .into_iter()
            .find(|name| profile_by_name(name).as_ref() == Some(&self.profiling))
            .unwrap_or("custom");
        write!(
            f,
            "iters={} profile={profile} parallel={}",
            self.iters, self.parallel
        )
    }
}

/// The Datamime searches of one process. A search runs the first time its
/// key is asked for, and every later request reads the same outcome. The
/// key is every input a search reads: target, program, [`Settings`]
/// (profiling fidelity, iterations, batch width) and metric weights; the
/// seed is the engine's default. The table lives in memory only, so it
/// cannot outlive the code that filled it.
#[derive(Default)]
pub struct Searches {
    done: Vec<(SearchKey, SearchOutcome)>,
}

type SearchKey = (Workload, String, Settings, MetricWeights);

impl Searches {
    /// The search cloning `target` with the generator matching `program`
    /// under `weights`, run now unless an earlier request ran it.
    ///
    /// # Panics
    ///
    /// Panics if no generator exists for `program`.
    pub(crate) fn outcome(
        &mut self,
        target: &Workload,
        program: &str,
        settings: &Settings,
        weights: &MetricWeights,
    ) -> &SearchOutcome {
        let key = (
            target.clone(),
            program.to_owned(),
            settings.clone(),
            weights.clone(),
        );
        let i = match self.done.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                let generator = generator_for_program(program)
                    .unwrap_or_else(|| panic!("no dataset generator for program {program}"));
                let mut cfg = settings.search_config();
                cfg.weights = weights.clone();
                eprintln!(
                    "[search] {} with {} ({} iterations)",
                    target.name,
                    generator.name(),
                    cfg.iterations
                );
                let target_profile = profile_workload(target, &cfg.machine, &cfg.profiling);
                let opts = settings.runtime_options();
                let outcome = search_with_runtime(generator.as_ref(), &target_profile, &cfg, &opts)
                    .expect("journal-less search cannot fail");
                self.done.push((key, outcome));
                self.done.len() - 1
            }
        };
        &self.done[i].1
    }
}

/// Profiles a workload with this run's settings on a machine.
fn profile(w: &Workload, machine: &datamime_sim::MachineConfig, s: &Settings) -> Profile {
    profile_workload(w, machine, &s.profiling)
}

/// Formats a row of f64 cells after a label, TSV-style with fixed width.
fn row(label: &str, cells: &[f64]) -> String {
    let mut s = format!("{label:<24}");
    for c in cells {
        s.push_str(&format!("\t{c:>9.3}"));
    }
    s
}

/// Writes experiment output both to stdout and to `results/<name>.txt`.
pub struct Report {
    name: String,
    lines: Vec<String>,
}

impl Report {
    /// Starts a report. Its second line records `settings` — the resolved
    /// [`Settings`], plus whatever else the figure reads from the
    /// environment — so the file says what budget produced it.
    fn new(name: &str, settings: impl fmt::Display) -> Self {
        let mut report = Report {
            name: name.to_owned(),
            lines: Vec::new(),
        };
        report.line(format!("==== {name} ===="));
        report.line(format!("# settings: {settings}"));
        report
    }

    /// Emits one line.
    fn line(&mut self, text: impl AsRef<str>) {
        println!("{}", text.as_ref());
        self.lines.push(text.as_ref().to_owned());
    }

    /// Flushes the report to `results/<name>.txt`; a report that cannot be
    /// written stops the process, since `scripts/ci.sh` judges the files.
    pub fn finish(self) {
        let path = format!("results/{}.txt", self.name);
        let written = fs::create_dir_all("results")
            .and_then(|()| fs::write(&path, self.lines.join("\n") + "\n"));
        or_exit(written.map_err(|e| format!("cannot write {path}: {e}")));
    }
}

/// The five primary targets with the program used to clone each.
fn primary_targets_with_programs() -> Vec<(Workload, &'static str)> {
    vec![
        (Workload::mem_fb(), "memcached"),
        (Workload::mem_twtr(), "memcached"),
        (Workload::silo_bidding(), "silo"),
        (Workload::xapian_wiki(), "xapian"),
        (Workload::dnn_resnet(), "dnn"),
    ]
}

/// The public-dataset counterpart of each primary target (the red bars).
fn public_counterpart(name: &str) -> Workload {
    match name {
        "mem-fb" | "mem-twtr" => Workload::mem_public(),
        "silo" => Workload::silo_public(),
        "xapian" => Workload::xapian_public(),
        "dnn" => Workload::dnn_public(),
        other => panic!("no public counterpart for {other}"),
    }
}

/// Profiles a PerfProx-style proxy generated from `target_broadwell` (the
/// paper generates all proxies on Broadwell) on `machine`, at saturation
/// (a fixed loop has no request structure).
fn profile_perfprox(
    target_broadwell: &Profile,
    machine: &datamime_sim::MachineConfig,
    s: &Settings,
) -> Profile {
    use datamime_perfproxy::{CloneStats, PerfProxClone};
    let stats = CloneStats::from_profile(target_broadwell);
    datamime::profile_app_cancellable_in(
        Box::new(PerfProxClone::new(stats, 0xFF0C)),
        datamime_loadgen::WorkloadSpec::poisson(1e9),
        machine,
        &s.profiling,
        &datamime::profiler::CancelToken::new(),
        &mut datamime::EvalArena::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(vars: &[(&str, &str)]) -> Result<Settings, String> {
        Settings::parse(&|name| {
            vars.iter()
                .find(|(var, _)| *var == name)
                .map(|(_, value)| (*value).to_string())
        })
    }

    #[test]
    fn settings_parser_accepts_and_rejects() {
        // Unset means the default, and the default says so.
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.to_string(), "iters=40 profile=fast parallel=1");
        assert_eq!(defaults.profiling, ProfilingConfig::fast());

        let paper = parse(&[
            ("DATAMIME_PROFILE", "paper"),
            ("DATAMIME_ITERS", "200"),
            ("DATAMIME_PARALLEL", "4"),
        ])
        .unwrap();
        assert_eq!(paper.to_string(), "iters=200 profile=paper parallel=4");
        assert_eq!(paper.profiling, ProfilingConfig::paper_default());
        assert_eq!(parse(&[("DATAMIME_PROFILE", "fast")]).unwrap().iters, 40);
        // A zero-wide batch is sequential.
        assert_eq!(parse(&[("DATAMIME_PARALLEL", "0")]).unwrap().parallel, 1);

        // Malformed values are refused, naming the variable and the value;
        // a search needs at least one iteration.
        for (var, value) in [
            ("DATAMIME_ITERS", "4O"),
            ("DATAMIME_ITERS", ""),
            ("DATAMIME_ITERS", "-3"),
            ("DATAMIME_ITERS", "0"),
            ("DATAMIME_PARALLEL", "two"),
            ("DATAMIME_PROFILE", "papr"),
            ("DATAMIME_PROFILE", "Paper"),
        ] {
            let err = parse(&[(var, value)]).expect_err(value);
            assert!(err.contains(var) && err.contains(value), "{err}");
        }
        let env = |_: &str| Some("x".to_string());
        let err = env_usize(&env, "DATAMIME_SWEEP_POINTS", 8, 2).unwrap_err();
        assert!(err.contains("DATAMIME_SWEEP_POINTS=\"x\""), "{err}");
        let one = |_: &str| Some("1".to_string());
        let err = env_usize(&one, "DATAMIME_SWEEP_POINTS", 8, 2).unwrap_err();
        assert!(err.contains("DATAMIME_SWEEP_POINTS=\"1\""), "{err}");
        assert_eq!(env_usize(&|_| None, "DATAMIME_SWEEP_POINTS", 8, 2), Ok(8));
    }

    #[test]
    fn a_custom_fidelity_is_not_reported_as_a_named_profile() {
        let mut s = parse(&[]).unwrap();
        s.profiling.n_samples = 3;
        assert_eq!(s.to_string(), "iters=40 profile=custom parallel=1");
    }

    #[test]
    fn searches_run_each_key_once_and_equal_the_engine() {
        use datamime::generator::KvGenerator;
        use datamime::metrics::DistMetric;

        let mut target = Workload::mem_fb();
        if let datamime::workload::AppConfig::Kv(c) = &mut target.app {
            c.n_keys = 20_000;
        }
        let mut s = parse(&[("DATAMIME_ITERS", "5")]).unwrap();
        s.profiling = s.profiling.without_curves();
        s.profiling.n_samples = 3;
        let equal = MetricWeights::equal();
        let bits = |o: &SearchOutcome| {
            let mut v: Vec<u64> = o.best_unit_params.iter().map(|x| x.to_bits()).collect();
            v.push(o.best_error.to_bits());
            v
        };

        // The same key twice is one search.
        let mut searches = Searches::default();
        let first = bits(searches.outcome(&target, "memcached", &s, &equal));
        let again = bits(searches.outcome(&target, "memcached", &s, &equal));
        assert_eq!(first, again);
        assert_eq!(first.len(), 7);
        assert_eq!(searches.done.len(), 1);

        // The entry is the engine's own result, bit for bit.
        let cfg = s.search_config();
        let target_profile = profile_workload(&target, &cfg.machine, &cfg.profiling);
        let direct = search_with_runtime(
            &KvGenerator::new(),
            &target_profile,
            &cfg,
            &s.runtime_options(),
        )
        .unwrap();
        assert_eq!(first, bits(&direct));

        // Other weights (fig9's reweighting) and another CAT sweep (fig7's
        // twelve ways) are other searches.
        let ipc_x8 = equal.clone().with_dist_weight(DistMetric::Ipc, 8.0);
        searches.outcome(&target, "memcached", &s, &ipc_x8);
        assert_eq!(searches.done.len(), 2);
        let mut swept = s.clone();
        swept.profiling.curve_ways = vec![12];
        searches.outcome(&target, "memcached", &swept, &equal);
        assert_eq!(searches.done.len(), 3);

        // Tests run from the crate directory, which has no `results/`: an
        // outcome stored on disk would have created it.
        assert!(!std::path::Path::new("results").exists());
    }
}
