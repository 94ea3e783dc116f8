//! Integration of the full Datamime search with the `datamime-runtime`
//! executor: batch-one equivalence with the legacy loop, and crash-safe
//! journal resume on a real generator + simulated profiler.

use datamime::generator::KvGenerator;
use datamime::profiler::profile_workload;
use datamime::search::{search, search_with_runtime, RuntimeOptions, SearchConfig};
use datamime::workload::Workload;
use std::fs;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "datamime-integration-{}-{name}",
        std::process::id()
    ));
    let _ = fs::remove_file(&path);
    path
}

fn fast_config(iterations: usize) -> SearchConfig {
    let mut cfg = SearchConfig::fast(iterations);
    cfg.profiling = cfg.profiling.without_curves();
    cfg
}

#[test]
fn runtime_batch_one_is_bit_for_bit_the_legacy_search() {
    let cfg = fast_config(8);
    let target = profile_workload(&Workload::mem_fb(), &cfg.machine, &cfg.profiling);
    let legacy = search(&KvGenerator::new(), &target, &cfg);
    let runtime = search_with_runtime(
        &KvGenerator::new(),
        &target,
        &cfg,
        &RuntimeOptions::default(),
    )
    .unwrap();
    assert_eq!(legacy.best_unit_params, runtime.best_unit_params);
    assert_eq!(legacy.best_error.to_bits(), runtime.best_error.to_bits());
    assert_eq!(legacy.history.len(), runtime.history.len());
    for (a, b) in legacy.history.iter().zip(&runtime.history) {
        assert_eq!(a.unit_params, b.unit_params);
        assert_eq!(a.error.to_bits(), b.error.to_bits());
    }
}

#[test]
fn journaled_search_resumes_to_the_same_best() {
    let cfg = fast_config(10);
    let target = profile_workload(&Workload::mem_fb(), &cfg.machine, &cfg.profiling);

    // Reference: one uninterrupted run.
    let reference = search_with_runtime(
        &KvGenerator::new(),
        &target,
        &cfg,
        &RuntimeOptions::default(),
    )
    .unwrap();

    // Journaled run, then simulate a crash mid-write: keep the header and
    // the first 6 eval events, and tear the seventh in half.
    let path = tmp("clone.jsonl");
    let journaled = RuntimeOptions {
        journal: Some(path.clone()),
        ..RuntimeOptions::default()
    };
    search_with_runtime(&KvGenerator::new(), &target, &cfg, &journaled).unwrap();
    let text = fs::read_to_string(&path).unwrap();
    let kept: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"header\"") || l.contains("\"eval\""))
        .take(1 + 7)
        .collect();
    let torn = &kept[7][..kept[7].len() / 2];
    fs::write(&path, kept[..7].join("\n") + "\n" + torn).unwrap();

    // Resume in place (journal defaults to the resume path in the CLI;
    // here we pass both explicitly) and land on the reference outcome.
    let resumed_opts = RuntimeOptions {
        journal: Some(path.clone()),
        resume: Some(path.clone()),
        ..RuntimeOptions::default()
    };
    let resumed = search_with_runtime(&KvGenerator::new(), &target, &cfg, &resumed_opts).unwrap();
    assert_eq!(resumed.history.len(), 10);
    assert_eq!(resumed.best_unit_params, reference.best_unit_params);
    assert_eq!(
        resumed.best_error.to_bits(),
        reference.best_error.to_bits(),
        "resumed search must reach the reference best error"
    );

    // The journal now holds the complete run: the torn fragment was cut
    // before the first append, not glued onto it.
    let full = datamime_runtime::replay(&path).unwrap();
    assert!(full.complete);
    assert_eq!((full.evals.len(), full.dropped_lines), (10, 0));
    for (journaled, ran) in full.evals.iter().zip(&reference.history) {
        assert_eq!(journaled.unit, ran.unit_params);
        assert_eq!(journaled.error.to_bits(), ran.error.to_bits());
    }
    let _ = fs::remove_file(&path);
}
