//! End-to-end test of the paper's sharing workflow: the service operator
//! profiles the production workload and exports the profile; a third party
//! imports it and runs the dataset search without ever touching the
//! production system or its data.

use datamime::generator::KvGenerator;
use datamime::metrics::DistMetric;
use datamime::profile::Profile;
use datamime::profiler::profile_workload;
use datamime::search::{search, search_with_runtime, RuntimeOptions, SearchConfig};
use datamime::workload::{AppConfig, Workload};

fn small_target() -> Workload {
    let mut w = Workload::mem_fb();
    if let AppConfig::Kv(c) = &mut w.app {
        c.n_keys = 12_000;
    }
    w
}

#[test]
fn shared_profile_drives_the_search() {
    let cfg = SearchConfig::fast(10);

    // Operator side: profile and export.
    let exported = {
        let p = profile_workload(&small_target(), &cfg.machine, &cfg.profiling);
        p.to_tsv()
    };

    // Third-party side: parse and search. No Workload object crosses the
    // boundary — only the TSV text.
    let imported = Profile::from_tsv(&exported).expect("valid exported profile");
    let outcome = search(&KvGenerator::new(), &imported, &cfg);
    assert!(outcome.best_error.is_finite());

    // The synthesized benchmark should land near the shared profile's IPC.
    let t_ipc = imported.mean(DistMetric::Ipc);
    let b_ipc = outcome.best_profile.mean(DistMetric::Ipc);
    assert!(
        (t_ipc - b_ipc).abs() / t_ipc < 0.3,
        "shared-profile clone ipc {b_ipc} vs target {t_ipc}"
    );
}

#[test]
fn exported_profile_roundtrips_through_text() {
    let cfg = SearchConfig::fast(1);
    let p = profile_workload(&small_target(), &cfg.machine, &cfg.profiling);
    let q = Profile::from_tsv(&p.to_tsv()).unwrap();
    for m in DistMetric::ALL {
        assert_eq!(p.dist(m).samples(), q.dist(m).samples(), "{m}");
    }
    assert_eq!(p.curve(), q.curve());
}

#[test]
fn parallel_search_from_shared_profile() {
    let mut cfg = SearchConfig::fast(8);
    cfg.profiling = cfg.profiling.without_curves();
    let tsv = profile_workload(&small_target(), &cfg.machine, &cfg.profiling).to_tsv();
    let imported = Profile::from_tsv(&tsv).unwrap();
    let outcome = search_with_runtime(
        &KvGenerator::new(),
        &imported,
        &cfg,
        &RuntimeOptions::parallel(4),
    )
    .unwrap();
    assert_eq!(outcome.history.len(), 8);
    assert!(outcome.best_error.is_finite());
}
