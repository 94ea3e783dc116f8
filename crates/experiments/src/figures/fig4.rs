//! Fig. 4: eCDFs of CPU utilization and memory bandwidth for `mem-fb` —
//! the time-varying behaviour that black-box cloning cannot capture.
//!
//! Prints decile tables of each eCDF for the target, the PerfProx clone,
//! and the Datamime benchmark, plus the spread (p90 − p10) that makes the
//! static-proxy failure obvious.

use crate::{profile, profile_perfprox, row, MetricWeights, Report, Searches, Settings};
use datamime::metrics::DistMetric;
use datamime::workload::Workload;
use datamime_sim::MachineConfig;
use datamime_stats::Ecdf;

fn deciles(e: &Ecdf) -> Vec<f64> {
    (1..=9).map(|i| e.quantile(i as f64 / 10.0)).collect()
}

pub(super) fn run(s: &Settings, searches: &mut Searches) -> Report {
    let mut r = Report::new("fig4", s);
    let bdw = MachineConfig::broadwell();

    let target = Workload::mem_fb();
    let t = profile(&target, &bdw, s);
    let x = profile_perfprox(&t, &bdw, s);
    let dm = searches.outcome(&target, "memcached", s, &MetricWeights::equal());
    let d = profile(&dm.best_workload, &bdw, s);

    for (metric, label) in [
        (DistMetric::CpuUtilization, "CPU utilization"),
        (DistMetric::MemoryBandwidth, "memory bandwidth (GB/s)"),
    ] {
        r.line(format!("-- {label}: eCDF deciles p10..p90 --"));
        r.line(row("target", &deciles(t.dist(metric))));
        r.line(row("perfprox", &deciles(x.dist(metric))));
        r.line(row("datamime", &deciles(d.dist(metric))));
        let spread = |e: &Ecdf| e.quantile(0.9) - e.quantile(0.1);
        r.line(format!(
            "p90-p10 spread: target {:.3}  perfprox {:.3}  datamime {:.3}",
            spread(t.dist(metric)),
            spread(x.dist(metric)),
            spread(d.dist(metric))
        ));
        r.line(String::new());
    }
    r.line(
        "expected shape (paper): the target and datamime show wide, similar \
         distributions; perfprox collapses to a point (util pinned at 1.0).",
    );
    r
}
