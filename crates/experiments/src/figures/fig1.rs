//! Fig. 1: accuracy comparison when mimicking memcached with a
//! production-like (Facebook) dataset.
//!
//! Four schemes — the production target, the same program with TailBench's
//! public dataset, the PerfProx black-box clone, and the Datamime
//! benchmark — compared on IPC and ICache MPKI on Broadwell, and IPC on
//! Zen 2 (cross-microarchitecture validation).

use crate::{
    profile, profile_perfprox, public_counterpart, row, MetricWeights, Report, Searches, Settings,
};
use datamime::metrics::DistMetric;
use datamime::workload::Workload;
use datamime_sim::MachineConfig;

pub(super) fn run(s: &Settings, searches: &mut Searches) -> Report {
    let mut r = Report::new("fig1", s);

    let target = Workload::mem_fb();
    let public = public_counterpart(&target.name);
    let bdw = MachineConfig::broadwell();
    let zen2 = MachineConfig::zen2();

    eprintln!("profiling target + public dataset on broadwell ...");
    let t_bdw = profile(&target, &bdw, s);
    let p_bdw = profile(&public, &bdw, s);
    eprintln!("generating perfprox clone ...");
    let x_bdw = profile_perfprox(&t_bdw, &bdw, s);
    eprintln!("running datamime ...");
    let dm = searches.outcome(&target, "memcached", s, &MetricWeights::equal());
    let d_bdw = profile(&dm.best_workload, &bdw, s);

    eprintln!("validating on zen2 ...");
    let t_z = profile(&target, &zen2, s);
    let p_z = profile(&public, &zen2, s);
    let x_z = profile_perfprox(&t_bdw, &zen2, s);
    let d_z = profile(&dm.best_workload, &zen2, s);

    r.line(format!(
        "{:<24}\t{:>9}\t{:>9}\t{:>9}\t{:>9}",
        "", "target", "public", "perfprox", "datamime"
    ));
    let ipc = DistMetric::Ipc;
    let icache = DistMetric::ICacheMpki;
    r.line(row(
        "broadwell IPC",
        &[
            t_bdw.mean(ipc),
            p_bdw.mean(ipc),
            x_bdw.mean(ipc),
            d_bdw.mean(ipc),
        ],
    ));
    r.line(row(
        "broadwell ICACHE MPKI",
        &[
            t_bdw.mean(icache),
            p_bdw.mean(icache),
            x_bdw.mean(icache),
            d_bdw.mean(icache),
        ],
    ));
    r.line(row(
        "zen2 IPC",
        &[t_z.mean(ipc), p_z.mean(ipc), x_z.mean(ipc), d_z.mean(ipc)],
    ));

    let rel = |a: f64, b: f64| (a - b).abs() / b * 100.0;
    r.line(String::new());
    r.line(format!(
        "datamime IPC error: broadwell {:.1}%  zen2 {:.1}%  (paper: 2.8% / 8.5%)",
        rel(d_bdw.mean(ipc), t_bdw.mean(ipc)),
        rel(d_z.mean(ipc), t_z.mean(ipc)),
    ));
    r.line(format!(
        "public-dataset IPC ratio on broadwell: {:.2}x (paper: 2.4x)",
        t_bdw.mean(ipc).max(p_bdw.mean(ipc)) / t_bdw.mean(ipc).min(p_bdw.mean(ipc)),
    ));
    r.line(format!(
        "perfprox IPC ratio on broadwell: {:.2}x (paper: 1.94x)",
        x_bdw.mean(ipc).max(t_bdw.mean(ipc)) / x_bdw.mean(ipc).min(t_bdw.mean(ipc)),
    ));
    r.line(format!(
        "perfprox ICache undershoot: {:.2}x lower (paper: 7.76x)",
        t_bdw.mean(icache) / x_bdw.mean(icache).max(1e-3),
    ));
    r
}
