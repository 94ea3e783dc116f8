//! Fig. 10: convergence — minimum observed total EMD versus optimizer
//! iteration, for each workload.
//!
//! Reads each curve off the primary target's search in the shared table,
//! and also reports how close the 25%-budget point gets to the final
//! minimum, mirroring the paper's 50-of-200-iterations discussion.

use crate::{primary_targets_with_programs, row, MetricWeights, Report, Searches, Settings};

pub(super) fn run(s: &Settings, searches: &mut Searches) -> Report {
    let mut r = Report::new("fig10", s);

    for (target, program) in primary_targets_with_programs() {
        eprintln!("== {} ==", target.name);
        let mins = searches
            .outcome(&target, program, s, &MetricWeights::equal())
            .running_min();

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
    r
}
