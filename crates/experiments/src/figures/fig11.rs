//! Fig. 11: the range of performance profiles each dataset generator can
//! produce. For IPC and LLC MPKI, sweep a range of requested target values
//! and report what a single-metric Datamime search actually achieves
//! (points on y = x are reachable).
//!
//! `DATAMIME_SWEEP_POINTS` sets the requested values per sweep (default 8;
//! the paper uses 15).

use crate::{env_usize, or_exit, process_env, row, Report, Searches, Settings};
use datamime::generator::{
    DatasetGenerator, DnnGenerator, KvGenerator, SiloGenerator, XapianGenerator,
};
use datamime::metrics::DistMetric;
use datamime::profile::Profile;
use datamime::search::{search_with_objective, RuntimeOptions, SearchConfig, SearchOutcome};
use datamime::workload::Workload;

/// The scalar-target search of Sec. V-E: the search engine on the
/// objective `|mean(metric) − target| / scale` instead of a profile error.
/// The best profile's `metric` mean is what the generator achieved.
fn scalar_search(
    generator: &(dyn DatasetGenerator + Sync),
    metric: DistMetric,
    target: f64,
    cfg: &SearchConfig,
    opts: &RuntimeOptions,
) -> SearchOutcome {
    assert!(target.is_finite(), "target must be finite");
    let scale = target.abs().max(1e-3);
    let objective = |_: &Workload, profile: &Profile| (profile.mean(metric) - target).abs() / scale;
    search_with_objective(generator, cfg, opts, &objective)
        .expect("journal-less thread-backend search cannot fail")
}

/// Searches for `n_points` evenly spaced requested values in `[lo, hi]`,
/// each under its own optimizer seed; returns `(requested, achieved)`.
fn scalar_sweep(
    generator: &(dyn DatasetGenerator + Sync),
    metric: DistMetric,
    (lo, hi): (f64, f64),
    n_points: usize,
    cfg: &SearchConfig,
    opts: &RuntimeOptions,
) -> Vec<(f64, f64)> {
    assert!(lo < hi && n_points >= 2, "invalid sweep range");
    (0..n_points)
        .map(|i| {
            let requested = lo + (hi - lo) * i as f64 / (n_points - 1) as f64;
            let cfg_i = SearchConfig {
                seed: cfg.seed ^ ((i as u64) << 32),
                ..cfg.clone()
            };
            let best = scalar_search(generator, metric, requested, &cfg_i, opts);
            (requested, best.best_profile.mean(metric))
        })
        .collect()
}

/// The search configuration of one sweep point: curves are unnecessary for
/// a single-metric objective and skipped.
fn scalar_config(s: &Settings, iterations: usize) -> SearchConfig {
    SearchConfig {
        iterations,
        profiling: s.profiling.clone().without_curves(),
        seed: 0x5CA1A7,
        ..s.search_config()
    }
}

pub(super) fn run(s: &Settings, _: &mut Searches) -> Report {
    let points = or_exit(env_usize(&process_env, "DATAMIME_SWEEP_POINTS", 8, 2));
    let mut r = Report::new("fig11", format_args!("{s} sweep_points={points}"));
    let cfg = scalar_config(s, (s.iters / 2).max(6));
    let opts = s.runtime_options();

    let gens: Vec<Box<dyn DatasetGenerator + Sync>> = vec![
        Box::new(KvGenerator::new()),
        Box::new(SiloGenerator::new()),
        Box::new(XapianGenerator::new()),
        Box::new(DnnGenerator::new()),
    ];

    for (metric, range) in [
        (DistMetric::Ipc, (0.3, 3.0)),
        (DistMetric::LlcMpki, (0.0, 30.0)),
    ] {
        r.line(format!("-- target metric: {} --", metric.key()));
        for g in &gens {
            eprintln!("== {} / {} ==", g.name(), metric.key());
            let (req, ach): (Vec<f64>, Vec<f64>) =
                scalar_sweep(g.as_ref(), metric, range, points, &cfg, &opts)
                    .into_iter()
                    .unzip();
            r.line(format!("  [{}]", g.name()));
            r.line(row("  requested", &req));
            r.line(row("  achieved", &ach));
            let reachable_lo = ach.iter().cloned().fold(f64::INFINITY, f64::min);
            let reachable_hi = ach.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            r.line(format!(
                "  achievable range: {reachable_lo:.2} .. {reachable_hi:.2}"
            ));
        }
        r.line(String::new());
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamime::profiler::profile_workload;
    use datamime_bayesopt::{BayesOpt, BlackBoxOptimizer, BoConfig};

    fn fast(iterations: usize) -> SearchConfig {
        scalar_config(
            &Settings::parse(&|_| None).expect("defaults parse"),
            iterations,
        )
    }

    #[test]
    fn engine_reproduces_the_suggest_observe_loop_bit_for_bit() {
        // The reference is the bare optimizer loop: suggest → instantiate →
        // profile → observe, first strict minimum wins. Past the 14-point
        // initial design, so the GP proposes too.
        let generator = KvGenerator::new();
        let (metric, target) = (DistMetric::Ipc, 1.2);
        let mut cfg = fast(17);
        cfg.profiling.n_samples = 3;

        let mut bo = BayesOpt::new(BoConfig::for_dims(generator.dims()), cfg.seed);
        let mut history: Vec<(Vec<f64>, f64)> = Vec::new();
        let mut best: Option<(Vec<f64>, f64, f64)> = None;
        for _ in 0..cfg.iterations {
            let unit = bo.suggest();
            let profile =
                profile_workload(&generator.instantiate(&unit), &cfg.machine, &cfg.profiling);
            let achieved = profile.mean(metric);
            let err = (achieved - target).abs() / target;
            bo.observe(unit.clone(), err);
            history.push((unit.clone(), err));
            if best.as_ref().is_none_or(|(_, be, _)| err < *be) {
                best = Some((unit, err, achieved));
            }
        }
        let (best_unit, best_err, achieved) = best.unwrap();

        let out = scalar_search(&generator, metric, target, &cfg, &RuntimeOptions::default());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(out.history.len(), history.len());
        for (i, (rec, (unit, err))) in out.history.iter().zip(&history).enumerate() {
            assert_eq!(bits(&rec.unit_params), bits(unit), "point {i}");
            assert_eq!(rec.error.to_bits(), err.to_bits(), "error {i}");
        }
        assert_eq!(bits(&out.best_unit_params), bits(&best_unit));
        assert_eq!(out.best_error.to_bits(), best_err.to_bits());
        assert_eq!(
            out.best_profile.mean(metric).to_bits(),
            achieved.to_bits(),
            "achieved"
        );
    }

    #[test]
    fn scalar_search_approaches_reachable_target() {
        let out = scalar_search(
            &KvGenerator::new(),
            DistMetric::Ipc,
            1.0,
            &fast(12),
            &RuntimeOptions::default(),
        );
        let achieved = out.best_profile.mean(DistMetric::Ipc);
        assert!(
            (achieved - 1.0).abs() < 0.25,
            "requested 1.0, achieved {achieved}"
        );
    }

    #[test]
    fn unreachable_target_saturates() {
        // No memcached dataset reaches IPC 50; the search should end at the
        // generator's ceiling, far below the request.
        let out = scalar_search(
            &KvGenerator::new(),
            DistMetric::Ipc,
            50.0,
            &fast(6),
            &RuntimeOptions::default(),
        );
        let achieved = out.best_profile.mean(DistMetric::Ipc);
        assert!(achieved < 5.0, "achieved {achieved}");
    }

    #[test]
    #[should_panic(expected = "invalid sweep range")]
    fn bad_sweep_panics() {
        scalar_sweep(
            &KvGenerator::new(),
            DistMetric::Ipc,
            (1.0, 1.0),
            2,
            &fast(1),
            &RuntimeOptions::default(),
        );
    }
}
