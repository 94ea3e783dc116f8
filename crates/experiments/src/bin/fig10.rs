//! Fig. 10: convergence — minimum observed total EMD versus optimizer
//! iteration, for each workload.
//!
//! Always runs the search live (the cache stores only final parameters),
//! and also reports how close the 25%-budget point gets to the final
//! minimum, mirroring the paper's 50-of-200-iterations discussion.

#![forbid(unsafe_code)]
use datamime::generator::generator_for_program;
use datamime::profiler::profile_workload;
use datamime::search::search_with_runtime;
use datamime_experiments::{primary_targets_with_programs, row, Report, Settings};

fn main() {
    let s = Settings::from_env();
    let mut r = Report::new("fig10", &s);

    for (target, program) in primary_targets_with_programs() {
        eprintln!("== {} ==", target.name);
        let generator = generator_for_program(program).expect("generator exists");
        let cfg = s.search_config();
        let target_profile = profile_workload(&target, &cfg.machine, &cfg.profiling);
        let outcome = search_with_runtime(
            generator.as_ref(),
            &target_profile,
            &cfg,
            &s.runtime_options(),
        )
        .expect("journal-less search cannot fail");
        let mins = outcome.running_min();

        // Print the curve decimated to ~10 points.
        let step = (mins.len() / 10).max(1);
        let iters: Vec<f64> = (0..mins.len())
            .step_by(step)
            .map(|i| (i + 1) as f64)
            .collect();
        let vals: Vec<f64> = (0..mins.len()).step_by(step).map(|i| mins[i]).collect();
        r.line(format!("-- {} --", target.name));
        r.line(row("iteration", &iters));
        r.line(row("min total EMD", &vals));

        let quarter = mins[mins.len() / 4];
        let finale = *mins.last().unwrap();
        let first = mins[0];
        let frac = if first > finale {
            (first - quarter) / (first - finale)
        } else {
            1.0
        };
        r.line(format!(
            "progress at 25% budget: {:.0}% of total error reduction (final EMD {finale:.4})",
            frac * 100.0
        ));
        r.line(String::new());
    }
    r.finish();
}
