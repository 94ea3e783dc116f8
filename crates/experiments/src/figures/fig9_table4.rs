//! Fig. 9 + Table IV: the cross-program case study. Datamime clones
//! `masstree` using the *memcached* program and `img-dnn` using the *dnn*
//! program; end-to-end metrics (IPC, LLC MPKI, utilization) should match
//! while code-bound metrics (ICache, branch) cannot.
//!
//! Also reruns the img-dnn search with IPC weighted higher, reproducing
//! the paper's observation that reweighting trades LLC-curve accuracy for
//! IPC accuracy.

use crate::{profile, profile_perfprox, row, MetricWeights, Report, Searches, Settings};
use datamime::metrics::{CurveMetric, DistMetric};
use datamime::workload::Workload;
use datamime_sim::MachineConfig;

const TABLE4_METRICS: [DistMetric; 10] = [
    DistMetric::Ipc,
    DistMetric::LlcMpki,
    DistMetric::CpuUtilization,
    DistMetric::BranchMpki,
    DistMetric::ICacheMpki,
    DistMetric::L1dMpki,
    DistMetric::L2Mpki,
    DistMetric::ItlbMpki,
    DistMetric::DtlbMpki,
    DistMetric::MemoryBandwidth,
];

pub(super) fn run(s: &Settings, searches: &mut Searches) -> Report {
    let mut r = Report::new("fig9_table4", s);
    let bdw = MachineConfig::broadwell();

    // One Table IV block; returns the target's and the clone's profiles.
    let mut table = |target: &Workload, program: &str| {
        eprintln!("== {} cloned with {} ==", target.name, program);
        let t = profile(target, &bdw, s);
        let x = profile_perfprox(&t, &bdw, s);
        let dm = searches.outcome(target, program, s, &MetricWeights::equal());
        let d = profile(&dm.best_workload, &bdw, s);

        r.line(format!(
            "-- {} (datamime uses the {program} program) --",
            target.name
        ));
        r.line(format!(
            "{:<24}\t{:>9}\t{:>9}\t{:>9}",
            "metric", "target", "perfprox", "datamime"
        ));
        for m in TABLE4_METRICS {
            r.line(row(m.key(), &[t.mean(m), x.mean(m), d.mean(m)]));
        }
        // Fig. 9's curves.
        let sizes: Vec<f64> = t
            .curve()
            .iter()
            .map(|p| (p.cache_bytes >> 20) as f64)
            .collect();
        if !sizes.is_empty() {
            for metric in CurveMetric::ALL {
                r.line(format!("  [{}]", metric.key()));
                r.line(row("  cache size (MB)", &sizes));
                r.line(row("  target", &t.curve_values(metric)));
                r.line(row("  perfprox", &x.curve_values(metric)));
                r.line(row("  datamime", &d.curve_values(metric)));
            }
        }
        r.line(String::new());
        (t, d)
    };
    table(&Workload::masstree_ycsb(), "memcached");
    let target = Workload::img_dnn_mnist();
    let (t, d) = table(&target, "dnn");

    // The IPC-reweighting rerun for img-dnn (Sec. V-C), against the
    // equal-weights clone just made.
    eprintln!("== img-dnn rerun with IPC weight x8 ==");
    let weights = MetricWeights::equal().with_dist_weight(DistMetric::Ipc, 8.0);
    let dm_w = searches.outcome(&target, "dnn", s, &weights);
    let d_w = profile(&dm_w.best_workload, &bdw, s);
    let t_ipc = t.mean(DistMetric::Ipc);
    r.line(format!(
        "img-dnn IPC: target {:.3}; datamime equal-weights {:.3} ({:.1}% err); IPC-weighted {:.3} ({:.1}% err)",
        t_ipc,
        d.mean(DistMetric::Ipc),
        (d.mean(DistMetric::Ipc) - t_ipc).abs() / t_ipc * 100.0,
        d_w.mean(DistMetric::Ipc),
        (d_w.mean(DistMetric::Ipc) - t_ipc).abs() / t_ipc * 100.0,
    ));
    r
}
