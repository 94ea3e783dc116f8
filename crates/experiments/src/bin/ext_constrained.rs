//! Extension experiment: statistically constrained search (Sec. VI-C).
//!
//! The operator discloses two coarse statistics of the production dataset
//! (mean key and value sizes, ±25%); the search box is confined to match.
//! Compared against the unconstrained search at the same budget, the
//! constrained search should reach a given error with fewer iterations —
//! the speedup the paper predicts for combining statistical modeling with
//! profile-guided generation.

#![forbid(unsafe_code)]
use datamime::constrained::{ConstrainedGenerator, ParamConstraint};
use datamime::generator::KvGenerator;
use datamime::profiler::profile_workload;
use datamime::search::search;
use datamime::workload::{AppConfig, Workload};
use datamime_experiments::{row, Report, Settings};

fn main() {
    let s = Settings::from_env();
    let mut r = Report::new("ext_constrained", &s);
    let cfg = {
        let mut c = s.search_config();
        c.profiling = c.profiling.without_curves();
        c
    };

    // Target: mem-fb without multigets so both arms can fully match it.
    let mut target = Workload::mem_fb();
    if let AppConfig::Kv(c) = &mut target.app {
        c.multiget_fraction = 0.0;
    }
    let target_profile = profile_workload(&target, &cfg.machine, &cfg.profiling);

    // The operator-disclosed statistics (true values of the mem-fb
    // reference dataset: keys ~31 B, values ~300 B effective mean).
    let constraints = [
        ParamConstraint::within("key_size_mean", 31.0, 0.25),
        ParamConstraint::within("value_size_mean", 300.0, 0.25),
    ];

    eprintln!("unconstrained search ...");
    let plain = search(&KvGenerator::new(), &target_profile, &cfg);
    eprintln!("constrained search ...");
    let constrained_gen =
        ConstrainedGenerator::new(KvGenerator::new(), &constraints).expect("valid constraints");
    let constrained = search(&constrained_gen, &target_profile, &cfg);

    let decimate = |mins: &[f64]| -> Vec<f64> {
        let step = (mins.len() / 10).max(1);
        (0..mins.len()).step_by(step).map(|i| mins[i]).collect()
    };
    r.line(format!(
        "budget: {} iterations; disclosed statistics: key mean 31 B ±25%, value mean 300 B ±25%",
        cfg.iterations
    ));
    r.line(row(
        "unconstrained min EMD",
        &decimate(&plain.running_min()),
    ));
    r.line(row(
        "constrained   min EMD",
        &decimate(&constrained.running_min()),
    ));
    r.line(format!(
        "final error: unconstrained {:.4}  constrained {:.4}",
        plain.best_error, constrained.best_error
    ));

    // Iterations each arm needed to reach the worse arm's final error.
    let threshold = plain.best_error.max(constrained.best_error);
    let reach = |mins: &[f64]| mins.iter().position(|&e| e <= threshold).map(|i| i + 1);
    r.line(format!(
        "iterations to reach EMD {threshold:.4}: unconstrained {:?}  constrained {:?}",
        reach(&plain.running_min()),
        reach(&constrained.running_min())
    ));
    r.finish();
}
