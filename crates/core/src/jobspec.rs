//! Serializable job specifications for the serve daemon.
//!
//! A [`JobSpec`] is everything a search job needs, in a single-line
//! `key=value` form that survives the wire (the `submit` request line), the
//! manifest snapshot, and a human's shell history. The encoding is
//! deliberately not JSON: values are bare tokens with no quoting, which
//! keeps the round-trip trivially canonical — [`JobSpec::parse`] of
//! [`JobSpec::to_line`] is always the identity, and the daemon can log
//! the line verbatim.
//!
//! The spec builds the same objects the CLI's `clone` command builds
//! ([`Workload::by_name`], [`SearchConfig`], [`RuntimeOptions`],
//! [`generator_for_program_grid`]), so a job submitted to the daemon runs the
//! identical fixed-seed search a one-shot `datamime clone` would.

use crate::generator::generator_for_program_grid;
use crate::profiler::ProfilingConfig;
use crate::search::{BackendChoice, ProcOptions, RuntimeOptions, SearchConfig};
use crate::workload::Workload;
use datamime_sim::MachineConfig;
use std::path::PathBuf;

/// Names of the machine presets a command line, job spec or worker
/// argv may carry — each is its preset's [`MachineConfig::name`].
pub const MACHINE_PRESETS: [&str; 3] = ["broadwell", "zen2", "silvermont"];

/// Looks a machine preset up by name.
pub fn machine_by_name(name: &str) -> Option<MachineConfig> {
    match name {
        "broadwell" => Some(MachineConfig::broadwell()),
        "zen2" => Some(MachineConfig::zen2()),
        "silvermont" => Some(MachineConfig::silvermont()),
        _ => None,
    }
}

/// Parses a count that must be at least 1: a zero `iters` or `grid`
/// would panic the search it configures, a zero quota would strand the
/// run before its first observation.
fn at_least_one<T: std::str::FromStr + Default + PartialEq>(
    value: &str,
    what: &str,
    bad: &dyn Fn(&str) -> String,
) -> Result<T, String> {
    let n: T = value.parse().map_err(|_| bad(what))?;
    if n == T::default() {
        return Err(bad("must be at least 1"));
    }
    Ok(n)
}

/// Largest `iters` a job may ask for (the paper runs 200). The run
/// preallocates its history, so a count near `usize::MAX` dies in the
/// allocator after the target has been profiled.
pub const MAX_ITERS: usize = 100_000;

/// Largest `batch` or `workers` a job may ask for: each unit of either is
/// a thread or a worker process.
pub const MAX_PARALLEL: usize = 64;

/// The boxed generator shape [`JobSpec::generator`] returns.
pub type BoxedGenerator = Box<dyn crate::generator::DatasetGenerator + Send + Sync>;

/// One search job, in `key=value` line form. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Target workload short name (see `datamime list`).
    pub workload: String,
    /// Search iterations.
    pub iters: usize,
    /// Optimizer seed (the paper seed by default).
    pub seed: u64,
    /// Machine preset name (`broadwell` | `zen2` | `silvermont`).
    pub machine: String,
    /// Suggestions drawn per optimizer batch.
    pub batch: usize,
    /// Worker threads/processes (0 = the batch width; the serve daemon
    /// reads 0 on a thread job as at least two, so a sequential job runs
    /// its initial design two points at a time). Never changes a result.
    pub workers: usize,
    /// Where evaluations run.
    pub backend: JobBackend,
    /// Paper-fidelity profiling instead of the fast configuration.
    pub paper: bool,
    /// Keep the cache-sensitivity curve sweep (dropping it makes smoke
    /// jobs much cheaper).
    pub curves: bool,
    /// Snap every generator axis to a uniform grid of this many steps —
    /// re-suggested points then hit the evaluation memo cache.
    pub grid: Option<u32>,
    /// Explicit `datamime-worker` binary for the process backend (tests
    /// and one-shot runs; the default resolution is the
    /// `DATAMIME_WORKER` environment variable, then a sibling of the
    /// current executable). The serve daemon refuses the key: a request
    /// must not name a program for it to run.
    pub worker_bin: Option<PathBuf>,
    /// Evaluation quota: stop (with the best-so-far result) once this
    /// many observations exist. Checked at batch boundaries, counted
    /// over the deterministic observation order, so a resumed job stops
    /// at the identical point.
    pub max_evals: Option<usize>,
    /// Wall-clock quota in seconds. Checked at batch boundaries; the
    /// clock restarts on resume (it bounds one process's effort and is
    /// deliberately not part of the deterministic state).
    pub wall_clock_s: Option<u64>,
}

/// Where a job's evaluations execute (the spec-level mirror of
/// [`BackendChoice`], minus the unserializable options).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobBackend {
    /// In-process worker threads.
    #[default]
    Thread,
    /// `datamime-worker` OS processes under a broker.
    Proc,
}

impl JobSpec {
    /// A spec for `workload` with the `clone` command's defaults:
    /// 40 iterations, the paper seed, broadwell, sequential, thread
    /// backend, fast profiling with curves.
    pub fn new(workload: &str) -> Self {
        JobSpec {
            workload: workload.to_string(),
            iters: 40,
            seed: SearchConfig::paper_default().seed,
            machine: "broadwell".to_string(),
            batch: 1,
            workers: 0,
            backend: JobBackend::Thread,
            paper: false,
            curves: true,
            grid: None,
            worker_bin: None,
            max_evals: None,
            wall_clock_s: None,
        }
    }

    /// Serializes the spec as one `key=value` line (no newline). Optional
    /// fields are omitted when unset; defaults are written out so the
    /// line is self-contained.
    ///
    /// # Errors
    ///
    /// Fails if a value contains whitespace (only `worker_bin` can), as
    /// the encoding could not round-trip it.
    pub fn to_line(&self) -> Result<String, String> {
        let mut parts = vec![
            format!("workload={}", self.workload),
            format!("iters={}", self.iters),
            format!("seed={}", self.seed),
            format!("machine={}", self.machine),
            format!("batch={}", self.batch),
            format!("workers={}", self.workers),
            format!(
                "backend={}",
                match self.backend {
                    JobBackend::Thread => "thread",
                    JobBackend::Proc => "proc",
                }
            ),
            format!("paper={}", self.paper),
            format!("curves={}", self.curves),
        ];
        if let Some(g) = self.grid {
            parts.push(format!("grid={g}"));
        }
        if let Some(bin) = &self.worker_bin {
            parts.push(format!("worker_bin={}", bin.display()));
        }
        if let Some(n) = self.max_evals {
            parts.push(format!("max_evals={n}"));
        }
        if let Some(s) = self.wall_clock_s {
            parts.push(format!("wall_clock_s={s}"));
        }
        for p in &parts {
            if p.chars().any(char::is_whitespace) {
                return Err(format!("job-spec value contains whitespace: `{p}`"));
            }
        }
        Ok(parts.join(" "))
    }

    /// Parses a `key=value` line produced by [`JobSpec::to_line`] (or a
    /// human). `workload=` is required; every other key is optional and
    /// defaults as in [`JobSpec::new`]. Unknown and duplicate keys are
    /// errors, so typos fail loudly at submit time rather than silently
    /// running a different job.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending token.
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut spec = JobSpec::new("");
        let mut seen = Vec::new();
        for tok in line.split_whitespace() {
            let (key, value) = tok
                .split_once('=')
                .ok_or_else(|| format!("job-spec token `{tok}` is not key=value"))?;
            if seen.contains(&key.to_string()) {
                return Err(format!("duplicate job-spec key `{key}`"));
            }
            seen.push(key.to_string());
            let bad = |what: &str| format!("job-spec key `{key}`: {what}: `{value}`");
            match key {
                "workload" => spec.workload = value.to_string(),
                "iters" => spec.iters = at_least_one(value, "not a count", &bad)?,
                "seed" => spec.seed = value.parse().map_err(|_| bad("not a u64"))?,
                "machine" => spec.machine = value.to_string(),
                "batch" => spec.batch = value.parse().map_err(|_| bad("not a count"))?,
                "workers" => spec.workers = value.parse().map_err(|_| bad("not a count"))?,
                "backend" => {
                    spec.backend = match value {
                        "thread" => JobBackend::Thread,
                        "proc" => JobBackend::Proc,
                        _ => return Err(bad("must be thread or proc")),
                    }
                }
                "paper" => spec.paper = value.parse().map_err(|_| bad("not a bool"))?,
                "curves" => spec.curves = value.parse().map_err(|_| bad("not a bool"))?,
                "grid" => spec.grid = Some(at_least_one(value, "not a step count", &bad)?),
                "worker_bin" => spec.worker_bin = Some(PathBuf::from(value)),
                "max_evals" => spec.max_evals = Some(at_least_one(value, "not a count", &bad)?),
                "wall_clock_s" => {
                    spec.wall_clock_s = Some(at_least_one(value, "not a second count", &bad)?)
                }
                _ => return Err(format!("unknown job-spec key `{key}`")),
            }
        }
        if spec.workload.is_empty() {
            return Err("job spec needs workload=<name>; see `datamime list`".to_string());
        }
        spec.check_bounds()?;
        Ok(spec)
    }

    /// Refuses counts no run can honour: `iters` past [`MAX_ITERS`],
    /// `batch` or `workers` past [`MAX_PARALLEL`]. [`JobSpec::parse`]
    /// calls it, and so must any caller that fills the fields itself.
    ///
    /// # Errors
    ///
    /// Names the first key out of bounds, with its bound and value.
    pub fn check_bounds(&self) -> Result<(), String> {
        for (key, n, max) in [
            ("iters", self.iters, MAX_ITERS),
            ("batch", self.batch, MAX_PARALLEL),
            ("workers", self.workers, MAX_PARALLEL),
        ] {
            if n > max {
                return Err(format!(
                    "job-spec key `{key}`: must be at most {max}: `{n}`"
                ));
            }
        }
        Ok(())
    }

    /// The target workload named by the spec.
    ///
    /// # Errors
    ///
    /// Fails on an unknown workload name.
    pub fn target(&self) -> Result<Workload, String> {
        Workload::by_name(&self.workload)
            .ok_or_else(|| format!("unknown workload {}; see `datamime list`", self.workload))
    }

    /// The search configuration the spec describes (machine, iterations,
    /// seed, profiling fidelity).
    ///
    /// # Errors
    ///
    /// Fails on an unknown machine preset.
    pub fn search_config(&self) -> Result<SearchConfig, String> {
        let machine = machine_by_name(&self.machine)
            .ok_or_else(|| format!("unknown machine {}", self.machine))?;
        let mut cfg = SearchConfig::paper_default();
        cfg.machine = machine;
        cfg.iterations = self.iters;
        cfg.seed = self.seed;
        if !self.paper {
            cfg.profiling = ProfilingConfig::fast();
        }
        if !self.curves {
            cfg.profiling = cfg.profiling.without_curves();
        }
        Ok(cfg)
    }

    /// The dataset generator for the spec's workload, grid-quantized when
    /// `grid` is set.
    ///
    /// # Errors
    ///
    /// Fails when the workload's program has no generator.
    pub fn generator(&self) -> Result<BoxedGenerator, String> {
        generator_for_program_grid(self.target()?.app.program(), self.grid)
    }

    /// The runtime options the spec describes: batching, workers, and the
    /// backend. Journal, resume, sinks, gates, and metrics are the
    /// caller's (the daemon's) concern and are left unset.
    pub fn runtime_options(&self) -> RuntimeOptions {
        let batch = self.batch.max(1);
        let workers = if self.workers == 0 {
            batch
        } else {
            self.workers
        };
        RuntimeOptions {
            batch_k: batch,
            workers,
            backend: match self.backend {
                JobBackend::Thread => BackendChoice::Thread,
                JobBackend::Proc => BackendChoice::Process(ProcOptions {
                    workers,
                    worker_bin: self.worker_bin.clone(),
                }),
            },
            max_evals: self.max_evals,
            wall_clock: self.wall_clock_s.map(std::time::Duration::from_secs),
            ..RuntimeOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_machine_preset_round_trips_by_name() {
        for name in MACHINE_PRESETS {
            let machine = machine_by_name(name).expect("listed preset resolves");
            assert_eq!(machine.name, name);
        }
        assert!(machine_by_name("alderlake").is_none());
    }

    #[test]
    fn line_round_trips() {
        let mut spec = JobSpec::new("mem-fb");
        spec.iters = 12;
        spec.seed = 77;
        spec.batch = 3;
        spec.backend = JobBackend::Proc;
        spec.grid = Some(4);
        spec.worker_bin = Some(PathBuf::from("/tmp/datamime-worker"));
        spec.max_evals = Some(8);
        spec.wall_clock_s = Some(120);
        let line = spec.to_line().unwrap();
        assert_eq!(JobSpec::parse(&line).unwrap(), spec);
    }

    #[test]
    fn defaults_match_new() {
        let spec = JobSpec::parse("workload=xapian").unwrap();
        assert_eq!(spec, JobSpec::new("xapian"));
        assert_eq!(spec.seed, SearchConfig::paper_default().seed);
    }

    #[test]
    fn rejects_bad_lines() {
        assert!(JobSpec::parse("").is_err()); // no workload
        assert!(JobSpec::parse("workload=mem-fb bogus=1").is_err());
        assert!(JobSpec::parse("workload=mem-fb iters=x").is_err());
        assert!(JobSpec::parse("workload=mem-fb backend=fiber").is_err());
        assert!(JobSpec::parse("workload=mem-fb iters=1 iters=2").is_err());
        assert!(JobSpec::parse("workload").is_err());
        // Zero counts would panic the search or strand it before its
        // first observation; the message names key and value.
        for key in ["iters", "grid", "max_evals", "wall_clock_s"] {
            let err = JobSpec::parse(&format!("workload=mem-fb {key}=0")).unwrap_err();
            assert!(
                err.contains(&format!("`{key}`")) && err.contains("`0`"),
                "{err}"
            );
        }
    }

    #[test]
    fn counts_past_their_bounds_are_refused_naming_the_key() {
        for (key, max) in [
            ("iters", MAX_ITERS),
            ("batch", MAX_PARALLEL),
            ("workers", MAX_PARALLEL),
        ] {
            let at = format!("workload=mem-fb {key}={max}");
            assert!(JobSpec::parse(&at).is_ok(), "{at}");
            for over in [(max + 1).to_string(), usize::MAX.to_string()] {
                let err = JobSpec::parse(&format!("workload=mem-fb {key}={over}")).unwrap_err();
                assert_eq!(
                    err,
                    format!("job-spec key `{key}`: must be at most {max}: `{over}`")
                );
            }
        }
        // A spec filled field by field is refused by the same check.
        let mut spec = JobSpec::new("mem-fb");
        spec.workers = MAX_PARALLEL + 1;
        assert!(spec.check_bounds().unwrap_err().contains("`workers`"));
        spec.workers = MAX_PARALLEL;
        assert_eq!(spec.check_bounds(), Ok(()));
    }

    #[test]
    fn quotas_reach_the_runtime_options() {
        let spec = JobSpec::parse("workload=mem-fb max_evals=6 wall_clock_s=30").unwrap();
        let opts = spec.runtime_options();
        assert_eq!(opts.max_evals, Some(6));
        assert_eq!(opts.wall_clock, Some(std::time::Duration::from_secs(30)));
        let plain = JobSpec::parse("workload=mem-fb").unwrap().runtime_options();
        assert_eq!(plain.max_evals, None);
        assert_eq!(plain.wall_clock, None);
    }

    #[test]
    fn whitespace_values_cannot_serialize() {
        let mut spec = JobSpec::new("mem-fb");
        spec.worker_bin = Some(PathBuf::from("/tmp/has space/worker"));
        assert!(spec.to_line().is_err());
    }

    #[test]
    fn builds_the_clone_objects() {
        let spec =
            JobSpec::parse("workload=mem-fb iters=8 seed=5 machine=zen2 curves=false").unwrap();
        assert_eq!(spec.target().unwrap().name, "mem-fb");
        let cfg = spec.search_config().unwrap();
        assert_eq!(cfg.iterations, 8);
        assert_eq!(cfg.seed, 5);
        assert_eq!(cfg.machine.name, "zen2");
        assert!(cfg.profiling.curve_ways.is_empty());
        assert!(spec.generator().is_ok());
        let opts = spec.runtime_options();
        assert_eq!((opts.batch_k, opts.workers), (1, 1));
        assert!(JobSpec::parse("workload=nope").unwrap().target().is_err());
        assert!(JobSpec::parse("workload=mem-fb machine=m1")
            .unwrap()
            .search_config()
            .is_err());
    }

    #[test]
    fn grid_quantizes_the_generator() {
        let spec = JobSpec::parse("workload=mem-fb grid=4").unwrap();
        let g = spec.generator().unwrap();
        assert!(g.param_specs().iter().all(|p| p.steps == Some(4)));
    }
}
