//! Fig. 6: mean IPC, LLC MPKI, ICache MPKI, and branch MPKI of the five
//! target workloads versus the PerfProx and Datamime benchmarks, on
//! Broadwell (absolute values; the paper normalizes to the target).

use crate::{
    primary_targets_with_programs, profile, profile_perfprox, row, MetricWeights, Report, Searches,
    Settings,
};
use datamime::metrics::DistMetric;
use datamime_sim::MachineConfig;

pub(super) fn run(s: &Settings, searches: &mut Searches) -> Report {
    let mut r = Report::new("fig6", s);
    let bdw = MachineConfig::broadwell();
    let metrics = [
        DistMetric::Ipc,
        DistMetric::LlcMpki,
        DistMetric::ICacheMpki,
        DistMetric::BranchMpki,
    ];

    let mut ipc_ape_dm = Vec::new();
    let mut ipc_ape_px = Vec::new();
    let mut mae_dm = vec![Vec::new(); metrics.len()];
    let mut mae_px = vec![Vec::new(); metrics.len()];

    r.line(format!(
        "{:<24}\t{:>9}\t{:>9}\t{:>9}",
        "workload/metric", "target", "perfprox", "datamime"
    ));
    for (target, program) in primary_targets_with_programs() {
        eprintln!("== {} ==", target.name);
        let t = profile(&target, &bdw, s);
        let x = profile_perfprox(&t, &bdw, s);
        let dm = searches.outcome(&target, program, s, &MetricWeights::equal());
        let d = profile(&dm.best_workload, &bdw, s);
        for (i, &m) in metrics.iter().enumerate() {
            r.line(row(
                &format!("{} {}", target.name, m.key()),
                &[t.mean(m), x.mean(m), d.mean(m)],
            ));
            if m == DistMetric::Ipc {
                ipc_ape_dm.push((d.mean(m) - t.mean(m)).abs() / t.mean(m));
                ipc_ape_px.push((x.mean(m) - t.mean(m)).abs() / t.mean(m));
            } else {
                mae_dm[i].push((d.mean(m) - t.mean(m)).abs());
                mae_px[i].push((x.mean(m) - t.mean(m)).abs());
            }
        }
        r.line(String::new());
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    r.line("-- aggregate errors (paper values in parentheses) --");
    r.line(format!(
        "IPC MAPE: datamime {:.1}% (3.2%)  perfprox {:.1}% (42.9%)",
        mean(&ipc_ape_dm) * 100.0,
        mean(&ipc_ape_px) * 100.0
    ));
    for (i, (m, paper)) in [
        (DistMetric::LlcMpki, "0.34 vs 1.62"),
        (DistMetric::ICacheMpki, "1.16 vs 16.3"),
        (DistMetric::BranchMpki, "0.47 vs 3.22"),
    ]
    .iter()
    .enumerate()
    {
        r.line(format!(
            "{} MAE: datamime {:.2}  perfprox {:.2}  (paper: {paper})",
            m.key(),
            mean(&mae_dm[i + 1]),
            mean(&mae_px[i + 1])
        ));
    }
    r
}
