//! Fig. 7: IPC and LLC-MPKI versus allocated cache size (1–12 MB via CAT
//! way partitioning) for each workload, comparing target, PerfProx, and
//! Datamime.

use crate::{
    primary_targets_with_programs, profile, profile_perfprox, row, MetricWeights, Report, Searches,
    Settings,
};
use datamime::metrics::CurveMetric;
use datamime::profile::Profile;
use datamime_sim::MachineConfig;
use datamime_stats::emd::curve_distance;

pub(super) fn run(s: &Settings, searches: &mut Searches) -> Report {
    let mut r = Report::new("fig7", s);
    // Curves are the point of this figure: sweep every CAT allocation.
    let mut s = s.clone();
    s.profiling.curve_ways = (1..=12).collect();
    let bdw = MachineConfig::broadwell();

    for (target, program) in primary_targets_with_programs() {
        eprintln!("== {} ==", target.name);
        let t = profile(&target, &bdw, &s);
        let x = profile_perfprox(&t, &bdw, &s);
        let dm = searches.outcome(&target, program, &s, &MetricWeights::equal());
        let d = profile(&dm.best_workload, &bdw, &s);

        let sizes: Vec<f64> = t
            .curve()
            .iter()
            .map(|p| (p.cache_bytes >> 20) as f64)
            .collect();
        r.line(format!("-- {} --", target.name));
        r.line(row("cache size (MB)", &sizes));
        for metric in CurveMetric::ALL {
            r.line(format!("  [{}]", metric.key()));
            r.line(row("  target", &t.curve_values(metric)));
            r.line(row("  perfprox", &x.curve_values(metric)));
            r.line(row("  datamime", &d.curve_values(metric)));
            let shape =
                |p: &Profile| curve_distance(&t.curve_values(metric), &p.curve_values(metric));
            r.line(format!(
                "  normalized curve distance to target: perfprox {:.3}  datamime {:.3}",
                shape(&x),
                shape(&d)
            ));
        }
        r.line(String::new());
    }
    r.line(
        "expected shape (paper): datamime tracks both curve shapes; perfprox \
         shows sharp cache cliffs at its array size and misses the shapes.",
    );
    r
}
