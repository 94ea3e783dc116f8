//! Extension experiment: compressibility-aware dataset generation
//! (the paper's Sec. III-D future work, implemented).
//!
//! The target memcached dataset carries value *contents* with a given
//! redundancy. Datamime profiles only the target's memory-snapshot
//! compression ratio (one scalar — no values leak) and searches the
//! extended generator (Table III parameters + `value_redundancy`) with the
//! ratio mismatch added to the EMD objective. The synthesized dataset
//! should match both the performance profile and the compression ratio.

use crate::{Report, Searches, Settings};
use datamime::compress::{
    search_compress_aware, workload_compression_ratio, KvGeneratorCompressible,
};
use datamime::generator::DatasetGenerator;
use datamime::metrics::DistMetric;
use datamime::profiler::profile_workload;
use datamime::search::RuntimeOptions;
use datamime::workload::{AppConfig, Workload};

pub(super) fn run(s: &Settings, _: &mut Searches) -> Report {
    let mut r = Report::new("ext_compress", s);
    let cfg = {
        let mut c = s.search_config();
        c.profiling = c.profiling.without_curves();
        c
    };

    for target_redundancy in [0.2, 0.8] {
        eprintln!("== target redundancy {target_redundancy} ==");
        let mut target = Workload::mem_fb();
        target.name = format!("mem-fb-r{target_redundancy}");
        if let AppConfig::Kv(kv) = &mut target.app {
            kv.value_redundancy = Some(target_redundancy);
        }
        let target_ratio = workload_compression_ratio(&target).expect("target has contents");
        let target_profile = profile_workload(&target, &cfg.machine, &cfg.profiling);

        let generator = KvGeneratorCompressible::new();
        let outcome = search_compress_aware(
            &generator,
            &target_profile,
            target_ratio,
            2.0,
            &cfg,
            &RuntimeOptions::default(),
        )
        .expect("journal-less search cannot fail");
        let achieved_ratio =
            workload_compression_ratio(&outcome.best_workload).expect("generator emits contents");

        r.line(format!("-- target value redundancy {target_redundancy} --"));
        r.line(format!(
            "compression ratio: target {target_ratio:.3}  datamime {achieved_ratio:.3}  \
             (|diff| {:.3})",
            (achieved_ratio - target_ratio).abs()
        ));
        let t_ipc = target_profile.mean(DistMetric::Ipc);
        let d_ipc = outcome.best_profile.mean(DistMetric::Ipc);
        r.line(format!(
            "ipc: target {t_ipc:.3}  datamime {d_ipc:.3}  ({:.1}% err)",
            (d_ipc - t_ipc).abs() / t_ipc * 100.0
        ));
        for (name, value) in generator.describe(&outcome.best_unit_params) {
            if name == "value_redundancy" {
                r.line(format!("synthesized value_redundancy = {value:.3}"));
            }
        }
        r.line(String::new());
    }
    // Show that the vanilla memcached target has no content model: the
    // measurement degrades gracefully.
    let plain = Workload::mem_fb();
    r.line(format!(
        "plain mem-fb snapshot ratio: {:?} (no content model -> None)",
        workload_compression_ratio(&plain)
    ));
    r
}
