//! Fig. 8: distributions (eCDFs) of six key metrics across all workloads,
//! for the target, PerfProx, and Datamime. Printed as quartile tables plus
//! the per-metric normalized EMD that quantifies distribution match.

use crate::{
    primary_targets_with_programs, profile, profile_perfprox, MetricWeights, Report, Searches,
    Settings,
};
use datamime::metrics::DistMetric;
use datamime_sim::MachineConfig;
use datamime_stats::emd::emd_normalized;
use datamime_stats::Ecdf;

const METRICS: [DistMetric; 6] = [
    DistMetric::Ipc,
    DistMetric::CpuUtilization,
    DistMetric::ICacheMpki,
    DistMetric::L2Mpki,
    DistMetric::BranchMpki,
    DistMetric::MemoryBandwidth,
];

fn quartiles(e: &Ecdf) -> String {
    format!(
        "p25={:.3} p50={:.3} p75={:.3} p95={:.3}",
        e.quantile(0.25),
        e.quantile(0.5),
        e.quantile(0.75),
        e.quantile(0.95)
    )
}

pub(super) fn run(s: &Settings, searches: &mut Searches) -> Report {
    let mut r = Report::new("fig8", s);
    let bdw = MachineConfig::broadwell();

    let mut emd_dm_total = 0.0;
    let mut emd_px_total = 0.0;
    let mut n = 0usize;
    for (target, program) in primary_targets_with_programs() {
        eprintln!("== {} ==", target.name);
        let t = profile(&target, &bdw, s);
        let x = profile_perfprox(&t, &bdw, s);
        let dm = searches.outcome(&target, program, s, &MetricWeights::equal());
        let d = profile(&dm.best_workload, &bdw, s);

        r.line(format!("-- {} --", target.name));
        for m in METRICS {
            r.line(format!("  [{}]", m.key()));
            r.line(format!("    target   {}", quartiles(t.dist(m))));
            r.line(format!("    perfprox {}", quartiles(x.dist(m))));
            r.line(format!("    datamime {}", quartiles(d.dist(m))));
            let e_px = emd_normalized(t.dist(m), x.dist(m));
            let e_dm = emd_normalized(t.dist(m), d.dist(m));
            r.line(format!(
                "    normalized EMD: perfprox {e_px:.3}  datamime {e_dm:.3}"
            ));
            emd_px_total += e_px;
            emd_dm_total += e_dm;
            n += 1;
        }
        r.line(String::new());
    }
    r.line(format!(
        "mean normalized EMD over {} (workload, metric) pairs: datamime {:.3}  perfprox {:.3}",
        n,
        emd_dm_total / n as f64,
        emd_px_total / n as f64
    ));
    r
}
