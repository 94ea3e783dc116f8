//! Shared infrastructure for the experiment binaries that regenerate every
//! table and figure of the paper (see DESIGN.md for the index).
//!
//! Knobs (environment variables):
//!
//! - `DATAMIME_PROFILE` — `fast` (default) or `paper`: profiling fidelity;
//! - `DATAMIME_ITERS` — search iterations per benchmark (default 40;
//!   the paper runs 200);
//! - `DATAMIME_PARALLEL` — candidates evaluated per optimizer batch, on
//!   as many worker threads (default 1 = sequential);
//! - `DATAMIME_NO_CACHE` — set to disable the on-disk search cache.
//!
//! Searches are the expensive step, and several figures reuse the same
//! synthesized benchmarks, so best-parameter vectors are cached under
//! `results/search_cache/` keyed by target, generator, fidelity, and
//! iteration count.

#![forbid(unsafe_code)]
use datamime::generator::{generator_for_program, DatasetGenerator};
use datamime::profile::Profile;
use datamime::profiler::{profile_workload, ProfilingConfig};
use datamime::search::{search_with_runtime, RuntimeOptions, SearchConfig};
use datamime::workload::Workload;
use datamime::MetricWeights;
use std::fs;
use std::path::PathBuf;

/// Resolved experiment settings from the environment.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Search iterations per benchmark.
    pub iters: usize,
    /// Profiling fidelity.
    pub profiling: ProfilingConfig,
    /// Candidates evaluated per optimizer batch (1 = sequential).
    pub parallel: usize,
    /// Whether the on-disk cache is enabled.
    pub cache: bool,
}

impl Settings {
    /// Reads settings from the environment (see module docs).
    pub fn from_env() -> Self {
        let profile = std::env::var("DATAMIME_PROFILE").unwrap_or_else(|_| "fast".into());
        let profiling = match profile.as_str() {
            "paper" => ProfilingConfig::paper_default(),
            _ => ProfilingConfig::fast(),
        };
        let iters = std::env::var("DATAMIME_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(40);
        let parallel = std::env::var("DATAMIME_PARALLEL")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1)
            .max(1);
        let cache = std::env::var("DATAMIME_NO_CACHE").is_err();
        Settings {
            iters,
            profiling,
            parallel,
            cache,
        }
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

fn cache_dir() -> PathBuf {
    PathBuf::from("results/search_cache")
}

fn cache_key(target: &Workload, generator: &dyn DatasetGenerator, cfg: &SearchConfig) -> String {
    // Fingerprint the metric weights so reweighted searches get their own
    // cache entries.
    let wfp: f64 = datamime::metrics::DistMetric::ALL
        .iter()
        .enumerate()
        .map(|(i, &m)| cfg.weights.dist_weight(m) * (i + 1) as f64)
        .sum();
    format!(
        "{}-{}-i{}-s{}-c{}-w{}",
        target.name,
        generator.name(),
        cfg.iterations,
        cfg.profiling.n_samples,
        cfg.profiling.curve_ways.len(),
        wfp
    )
}

fn load_cached(key: &str, dims: usize) -> Option<Vec<f64>> {
    let path = cache_dir().join(format!("{key}.tsv"));
    let text = fs::read_to_string(path).ok()?;
    let params: Vec<f64> = text
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    (params.len() == dims).then_some(params)
}

fn store_cached(key: &str, params: &[f64]) {
    let dir = cache_dir();
    if fs::create_dir_all(&dir).is_err() {
        return;
    }
    let line = params
        .iter()
        .map(|p| p.to_string())
        .collect::<Vec<_>>()
        .join("\t");
    let _ = fs::write(dir.join(format!("{key}.tsv")), line);
}

/// A synthesized benchmark for one target: the Datamime search result.
#[derive(Debug)]
pub struct CloneResult {
    /// The synthesized workload.
    pub workload: Workload,
    /// Best unit-hypercube parameters.
    pub unit_params: Vec<f64>,
    /// Per-iteration error history (empty when served from cache).
    pub history: Vec<f64>,
}

/// Runs (or loads from cache) the Datamime search cloning `target` with the
/// generator matching `program`, using default equal metric weights.
///
/// # Panics
///
/// Panics if no generator exists for `program`.
pub fn clone_target(target: &Workload, program: &str, settings: &Settings) -> CloneResult {
    clone_target_weighted(target, program, settings, &MetricWeights::equal())
}

/// Like [`clone_target`] but with explicit metric weights (used by the
/// Sec. V-C reweighting experiment).
///
/// # Panics
///
/// Panics if no generator exists for `program`.
pub fn clone_target_weighted(
    target: &Workload,
    program: &str,
    settings: &Settings,
    weights: &MetricWeights,
) -> CloneResult {
    let generator = generator_for_program(program)
        .unwrap_or_else(|| panic!("no dataset generator for program {program}"));
    let mut cfg = settings.search_config();
    cfg.weights = weights.clone();
    let key = cache_key(target, generator.as_ref(), &cfg);

    if settings.cache {
        if let Some(params) = load_cached(&key, generator.dims()) {
            eprintln!("[cache] {key}");
            return CloneResult {
                workload: generator.instantiate(&params),
                unit_params: params,
                history: Vec::new(),
            };
        }
    }

    eprintln!("[search] {key} ({} iterations)", cfg.iterations);
    let target_profile = profile_workload(target, &cfg.machine, &cfg.profiling);
    let outcome = search_with_runtime(
        generator.as_ref(),
        &target_profile,
        &cfg,
        &settings.runtime_options(),
    )
    .expect("journal-less search cannot fail");
    if settings.cache {
        store_cached(&key, &outcome.best_unit_params);
    }
    CloneResult {
        workload: outcome.best_workload,
        unit_params: outcome.best_unit_params,
        history: outcome.history.iter().map(|r| r.error).collect(),
    }
}

/// Profiles a workload with this run's settings on a machine.
pub fn profile(w: &Workload, machine: &datamime_sim::MachineConfig, s: &Settings) -> Profile {
    profile_workload(w, machine, &s.profiling)
}

/// Formats a row of f64 cells after a label, TSV-style with fixed width.
pub fn row(label: &str, cells: &[f64]) -> String {
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
    /// Starts a report.
    pub fn new(name: &str) -> Self {
        println!("==== {name} ====");
        Report {
            name: name.to_owned(),
            lines: vec![format!("==== {name} ====")],
        }
    }

    /// Emits one line.
    pub fn line(&mut self, text: impl AsRef<str>) {
        println!("{}", text.as_ref());
        self.lines.push(text.as_ref().to_owned());
    }

    /// Flushes the report to `results/<name>.txt`.
    pub fn finish(self) {
        let _ = fs::create_dir_all("results");
        let _ = fs::write(
            format!("results/{}.txt", self.name),
            self.lines.join("\n") + "\n",
        );
    }
}

/// The five primary targets with the program used to clone each.
pub fn primary_targets_with_programs() -> Vec<(Workload, &'static str)> {
    vec![
        (Workload::mem_fb(), "memcached"),
        (Workload::mem_twtr(), "memcached"),
        (Workload::silo_bidding(), "silo"),
        (Workload::xapian_wiki(), "xapian"),
        (Workload::dnn_resnet(), "dnn"),
    ]
}

/// The public-dataset counterpart of each primary target (the red bars).
pub fn public_counterpart(name: &str) -> Workload {
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
pub fn profile_perfprox(
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
