//! Compressibility-aware dataset generation — the extension the paper
//! sketches in Sec. III-D.
//!
//! Value-dependent techniques (cache/memory compression) need datasets
//! whose *contents* are as compressible as the target's, but mimicking
//! values directly would leak proprietary data. The paper's proposed
//! technique-specific fix: profile only the *compression ratio* of the
//! target's memory snapshots, and give the dataset generator a knob that
//! reproduces it. This module implements that loop:
//!
//! - [`workload_compression_ratio`] measures a workload's snapshot
//!   compression ratio (via the application's sampled value contents);
//! - [`KvGeneratorCompressible`] extends the Table-III memcached generator
//!   with a `value_redundancy` parameter;
//! - [`search_compress_aware`] runs the shared search engine on an
//!   objective that adds the ratio mismatch to the usual EMD error.

// Supervised evaluation path: no panics outside tests (crates/audit/README.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::generator::{DatasetGenerator, KvGenerator, ParamSpec};
use crate::profile::Profile;
use crate::search::{
    emd_objective, search_with_objective, RuntimeOptions, SearchConfig, SearchOutcome,
};
use crate::workload::{AppConfig, Workload};
use datamime_apps::App;
use datamime_runtime::ExecError;
use datamime_stats::compress::estimate_compression_ratio;

/// Measures the compression ratio of a workload's memory snapshot, or
/// `None` if its application does not model value contents.
///
/// Only the scalar ratio leaves this function — never the snapshot itself —
/// matching the paper's privacy argument.
pub fn workload_compression_ratio(workload: &Workload) -> Option<f64> {
    let app = workload.app.build();
    app.memory_snapshot()
        .map(|s| estimate_compression_ratio(&s))
}

/// The Table-III memcached generator extended with a `value_redundancy`
/// parameter controlling content compressibility.
#[derive(Debug, Clone)]
pub struct KvGeneratorCompressible {
    inner: KvGenerator,
    specs: Vec<ParamSpec>,
}

impl KvGeneratorCompressible {
    /// Creates the extended generator.
    pub fn new() -> Self {
        let inner = KvGenerator::new();
        let mut specs = inner.param_specs().to_vec();
        specs.push(ParamSpec::linear("value_redundancy", 0.0, 1.0));
        KvGeneratorCompressible { inner, specs }
    }
}

impl Default for KvGeneratorCompressible {
    fn default() -> Self {
        KvGeneratorCompressible::new()
    }
}

impl DatasetGenerator for KvGeneratorCompressible {
    fn name(&self) -> &str {
        "memcached-compressible"
    }

    fn param_specs(&self) -> &[ParamSpec] {
        &self.specs
    }

    fn instantiate(&self, unit: &[f64]) -> Workload {
        assert_eq!(
            unit.len(),
            self.specs.len(),
            "parameter vector dimension mismatch"
        );
        let last = self.specs.len() - 1;
        let mut w = self.inner.instantiate(&unit[..last]);
        let redundancy = self.specs[last].denormalize(unit[last]);
        if let AppConfig::Kv(cfg) = &mut w.app {
            cfg.value_redundancy = Some(redundancy);
        }
        w
    }

    fn build(&self, workload: &Workload) -> Box<dyn App> {
        self.inner.build(workload)
    }
}

/// Runs a Datamime search whose objective adds the compression-ratio
/// mismatch, weighted by `ratio_weight`, to the usual EMD error:
/// `E = E_emd + ratio_weight * |ratio(candidate) − target_ratio|`.
///
/// Candidates whose application does not expose snapshots incur the full
/// mismatch penalty (they cannot satisfy the compressibility requirement).
///
/// The sum is the [`Objective`](crate::search::Objective) of the shared
/// search engine, so `opts` means what it means for
/// [`search_with_runtime`](crate::search::search_with_runtime): memo
/// cache, journal and resume, supervision, thread pool.
///
/// # Errors
///
/// As [`search_with_runtime`](crate::search::search_with_runtime), plus
/// [`ExecError::Backend`] when `opts` selects the process backend: the
/// objective is a closure, which a worker's command line cannot carry.
///
/// # Panics
///
/// Panics if `cfg.iterations == 0`, `target_ratio` is outside `(0, 1]`, or
/// `ratio_weight` is negative.
pub fn search_compress_aware(
    generator: &(dyn DatasetGenerator + Sync),
    target_profile: &Profile,
    target_ratio: f64,
    ratio_weight: f64,
    cfg: &SearchConfig,
    opts: &RuntimeOptions,
) -> Result<SearchOutcome, ExecError> {
    assert!(
        target_ratio > 0.0 && target_ratio <= 1.0,
        "ratio must be in (0, 1]"
    );
    assert!(ratio_weight >= 0.0, "weight must be non-negative");
    let emd = emd_objective(target_profile, &cfg.weights);
    let objective = |workload: &Workload, profile: &Profile| {
        let ratio_err = match workload_compression_ratio(workload) {
            Some(r) => (r - target_ratio).abs(),
            None => 1.0,
        };
        emd(workload, profile) + ratio_weight * ratio_err
    };
    search_with_objective(generator, cfg, opts, &objective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::profile_workload;
    use crate::search::{BackendChoice, ProcOptions};
    use datamime_apps::KvConfig;

    fn compressible_target(redundancy: f64) -> Workload {
        let mut w = Workload::mem_fb();
        w.app = AppConfig::Kv(KvConfig {
            n_keys: 10_000,
            value_redundancy: Some(redundancy),
            ..KvConfig::facebook_like()
        });
        w
    }

    #[test]
    fn ratio_measurement_tracks_redundancy() {
        let lo = workload_compression_ratio(&compressible_target(0.1)).unwrap();
        let hi = workload_compression_ratio(&compressible_target(0.9)).unwrap();
        assert!(
            hi < lo,
            "more redundancy must compress better: {hi} vs {lo}"
        );
    }

    #[test]
    fn workloads_without_content_report_none() {
        assert!(workload_compression_ratio(&Workload::mem_fb()).is_none());
        assert!(workload_compression_ratio(&Workload::silo_bidding()).is_none());
    }

    #[test]
    fn extended_generator_has_extra_dimension() {
        let g = KvGeneratorCompressible::new();
        assert_eq!(g.dims(), 7);
        let w = g.instantiate(&[0.5; 7]);
        assert!(workload_compression_ratio(&w).is_some());
    }

    #[test]
    fn search_matches_target_compressibility() {
        let target = compressible_target(0.85);
        let target_ratio = workload_compression_ratio(&target).unwrap();
        let mut cfg = SearchConfig::fast(12);
        cfg.profiling = cfg.profiling.without_curves();
        // Focus entirely on compressibility to keep the test cheap.
        cfg.weights = crate::error_model::MetricWeights::only(crate::metrics::DistMetric::Ipc)
            .with_dist_weight(crate::metrics::DistMetric::Ipc, 0.1);
        let target_profile = profile_workload(&target, &cfg.machine, &cfg.profiling);
        let outcome = search_compress_aware(
            &KvGeneratorCompressible::new(),
            &target_profile,
            target_ratio,
            4.0,
            &cfg,
            &RuntimeOptions::default(),
        )
        .unwrap();
        let got = workload_compression_ratio(&outcome.best_workload).unwrap();
        assert!(
            (got - target_ratio).abs() < 0.15,
            "target ratio {target_ratio:.3}, achieved {got:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "ratio must be in (0, 1]")]
    fn invalid_ratio_panics() {
        let cfg = SearchConfig::fast(1);
        let target = compressible_target(0.5);
        let p = profile_workload(&target, &cfg.machine, &cfg.profiling);
        let _ = search_compress_aware(
            &KvGeneratorCompressible::new(),
            &p,
            0.0,
            1.0,
            &cfg,
            &RuntimeOptions::default(),
        );
    }

    /// FNV-1a over every observation's `(unit bits, error bits)`, then the
    /// best point's.
    fn history_checksum(out: &SearchOutcome) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut word = |w: u64| {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for r in &out.history {
            r.unit_params.iter().for_each(|u| word(u.to_bits()));
            word(r.error.to_bits());
        }
        out.best_unit_params.iter().for_each(|u| word(u.to_bits()));
        word(out.best_error.to_bits());
        h
    }

    #[test]
    fn shared_engine_reproduces_the_hand_rolled_loop_bit_for_bit() {
        // Recorded from the dedicated BO loop this module used to own
        // (commit ba0ea6a), same seed and settings: moving the ratio
        // mismatch into the shared engine as an objective term must not
        // move a single bit of the history.
        const HAND_ROLLED_LOOP_CHECKSUM: u64 = 0x375e_f3d1_ebc0_8b7e;
        let target = compressible_target(0.85);
        let target_ratio = workload_compression_ratio(&target).unwrap();
        let mut cfg = SearchConfig::fast(6);
        cfg.profiling = cfg.profiling.without_curves();
        let target_profile = profile_workload(&target, &cfg.machine, &cfg.profiling);
        let outcome = search_compress_aware(
            &KvGeneratorCompressible::new(),
            &target_profile,
            target_ratio,
            2.0,
            &cfg,
            &RuntimeOptions::default(),
        )
        .unwrap();
        assert_eq!(history_checksum(&outcome), HAND_ROLLED_LOOP_CHECKSUM);
    }

    #[test]
    fn killed_compress_aware_search_resumes_bit_identically() {
        let target = compressible_target(0.85);
        let target_ratio = workload_compression_ratio(&target).unwrap();
        // Past the 14-point initial design, so the resumed run must also
        // rebuild the GP's state from the journal.
        let mut cfg = SearchConfig::fast(17);
        cfg.profiling = cfg.profiling.without_curves();
        cfg.profiling.n_samples = 3;
        let target_profile = profile_workload(&target, &cfg.machine, &cfg.profiling);
        let generator = KvGeneratorCompressible::new();
        let run = |opts: &RuntimeOptions| {
            search_compress_aware(&generator, &target_profile, target_ratio, 2.0, &cfg, opts)
                .unwrap()
        };

        let path = std::env::temp_dir().join(format!(
            "datamime-compress-resume-{}.jsonl",
            std::process::id()
        ));
        let full = run(&RuntimeOptions {
            journal: Some(path.clone()),
            ..RuntimeOptions::default()
        });

        // The kill: keep the header and the first 15 observations.
        let text = std::fs::read_to_string(&path).unwrap();
        let kept: Vec<&str> = text
            .lines()
            .filter(|l| !l.contains("\"checkpoint\"") && !l.contains("\"done\""))
            .take(1 + 15)
            .collect();
        std::fs::write(&path, kept.join("\n") + "\n").unwrap();

        let resumed = run(&RuntimeOptions {
            journal: Some(path.clone()),
            resume: Some(path.clone()),
            ..RuntimeOptions::default()
        });
        assert_eq!(resumed.stats.replayed, 15);
        assert_eq!(history_checksum(&resumed), history_checksum(&full));
        assert_eq!(
            resumed.best_profile.to_tsv(),
            full.best_profile.to_tsv(),
            "the resumed winner must be the same dataset"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn process_backend_rejects_the_objective_term() {
        let cfg = SearchConfig::fast(2);
        let target = compressible_target(0.5);
        let p = profile_workload(&target, &cfg.machine, &cfg.profiling);
        let opts = RuntimeOptions {
            backend: BackendChoice::Process(ProcOptions::default()),
            ..RuntimeOptions::default()
        };
        let err = search_compress_aware(&KvGeneratorCompressible::new(), &p, 0.5, 1.0, &cfg, &opts)
            .expect_err("a closure cannot cross the process boundary");
        assert!(matches!(err, ExecError::Backend(_)), "{err}");
        assert!(err.to_string().contains("objective term"), "{err}");
    }
}
