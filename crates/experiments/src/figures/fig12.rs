//! Figs. 12 and 13: Datamime on the multi-machine (networked)
//! configuration of `mem-fb` (Sec. V-F). The memcached server traverses
//! the kernel network stack and requests incur NIC/network latency; the
//! search runs against the networked target's profile.

use crate::{row, Report, Searches, Settings};
use datamime::generator::{DatasetGenerator, KvGenerator, ParamSpec};
use datamime::metrics::{CurveMetric, DistMetric};
use datamime::profiler::profile_workload;
use datamime::search::search;
use datamime::workload::{AppConfig, Workload};
use datamime_apps::App;

/// The memcached generator with the networked code path enabled — the
/// networked experiment keeps the program configuration identical between
/// target and benchmark, as in the paper.
#[derive(Debug)]
struct NetworkedKvGenerator(KvGenerator);

impl DatasetGenerator for NetworkedKvGenerator {
    fn name(&self) -> &str {
        "memcached-networked"
    }
    fn param_specs(&self) -> &[ParamSpec] {
        self.0.param_specs()
    }
    fn instantiate(&self, unit: &[f64]) -> Workload {
        let mut w = self.0.instantiate(unit);
        if let AppConfig::Kv(c) = &mut w.app {
            c.networked = true;
        }
        w
    }
    fn build(&self, workload: &Workload) -> Box<dyn App> {
        self.0.build(workload)
    }
}

pub(super) fn run(s: &Settings, _: &mut Searches) -> Report {
    let mut r = Report::new("fig12", s);
    let cfg = {
        let mut c = s.search_config();
        c.profiling.curve_ways = (1..=12).collect();
        c
    };

    // Networked target: server + client on separate machines.
    let mut target = Workload::mem_fb();
    target.name = "mem-fb-net".to_owned();
    if let AppConfig::Kv(c) = &mut target.app {
        c.networked = true;
    }

    eprintln!("profiling networked target ...");
    let t = profile_workload(&target, &cfg.machine, &cfg.profiling);
    eprintln!("searching ({} iterations) ...", cfg.iterations);
    let outcome = search(&NetworkedKvGenerator(KvGenerator::new()), &t, &cfg);
    let d = outcome.best_profile;

    r.line(format!(
        "{:<24}\t{:>9}\t{:>9}",
        "metric", "target", "datamime"
    ));
    for m in [
        DistMetric::Ipc,
        DistMetric::LlcMpki,
        DistMetric::ICacheMpki,
        DistMetric::BranchMpki,
        DistMetric::CpuUtilization,
        DistMetric::MemoryBandwidth,
    ] {
        r.line(row(m.key(), &[t.mean(m), d.mean(m)]));
    }
    let t_ipc = t.mean(DistMetric::Ipc);
    let d_ipc = d.mean(DistMetric::Ipc);
    r.line(format!(
        "IPC MAPE {:.1}% (paper: 1%)  LLC MPKI MAE {:.2} (paper: 0.12)",
        (d_ipc - t_ipc).abs() / t_ipc * 100.0,
        (d.mean(DistMetric::LlcMpki) - t.mean(DistMetric::LlcMpki)).abs()
    ));

    // Fig. 13: curves.
    let sizes: Vec<f64> = t
        .curve()
        .iter()
        .map(|p| (p.cache_bytes >> 20) as f64)
        .collect();
    for metric in CurveMetric::ALL {
        r.line(format!("  [{}]", metric.key()));
        r.line(row("  cache size (MB)", &sizes));
        r.line(row("  target", &t.curve_values(metric)));
        r.line(row("  datamime", &d.curve_values(metric)));
    }
    r
}
