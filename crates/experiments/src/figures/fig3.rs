//! Fig. 3: IPC of five target workloads versus three other schemes
//! (public dataset, PerfProx, Datamime), each validated on Broadwell,
//! Zen 2, and Silvermont.

use crate::{
    primary_targets_with_programs, profile, profile_perfprox, public_counterpart, row,
    MetricWeights, Report, Searches, Settings,
};
use datamime::metrics::DistMetric;
use datamime_sim::MachineConfig;

pub(super) fn run(s: &Settings, searches: &mut Searches) -> Report {
    let mut r = Report::new("fig3", s);
    let machines = [
        MachineConfig::broadwell(),
        MachineConfig::zen2(),
        MachineConfig::silvermont(),
    ];

    r.line(format!(
        "{:<24}\t{:>9}\t{:>9}\t{:>9}\t{:>9}",
        "workload/machine", "target", "public", "perfprox", "datamime"
    ));

    let mut mape_datamime = Vec::new();
    let mut mape_perfprox = Vec::new();
    for (target, program) in primary_targets_with_programs() {
        eprintln!("== {} ==", target.name);
        let public = public_counterpart(&target.name);
        let t_bdw = profile(&target, &machines[0], s);
        let dm = searches.outcome(&target, program, s, &MetricWeights::equal());
        for m in &machines {
            let t = profile(&target, m, s).mean(DistMetric::Ipc);
            let p = profile(&public, m, s).mean(DistMetric::Ipc);
            let x = profile_perfprox(&t_bdw, m, s).mean(DistMetric::Ipc);
            let d = profile(&dm.best_workload, m, s).mean(DistMetric::Ipc);
            r.line(row(&format!("{} {}", target.name, m.name), &[t, p, x, d]));
            mape_datamime.push((d - t).abs() / t);
            mape_perfprox.push((x - t).abs() / t);
        }
    }

    let mape = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64 * 100.0;
    r.line(String::new());
    r.line("IPC mean absolute percentage error across workloads x machines:");
    r.line(format!(
        "  datamime {:.1}%   perfprox {:.1}%   (paper, broadwell only: 3.2% vs 42.9%)",
        mape(&mape_datamime),
        mape(&mape_perfprox)
    ));
    r
}
