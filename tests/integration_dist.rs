//! Integration of the full Datamime search with the `datamime-dist`
//! process backend: bit-identical results against the in-process thread
//! backend across worker counts, under worker-kill and failing-evaluation
//! fault plans, under backpressure, and across journal resume in both
//! backend directions.
//!
//! The real `datamime-worker` binary is built by cargo alongside this
//! test and located via `CARGO_BIN_EXE_datamime-worker`.

use datamime::generator::{KvGenerator, QuantizedGenerator};
use datamime::profiler::profile_workload;
use datamime::search::{
    search_with_runtime, BackendChoice, ProcOptions, RuntimeOptions, SearchConfig, SearchOutcome,
};
use datamime::workload::Workload;
use datamime_runtime::json::Json;
use datamime_runtime::{EvalFault, FaultInjector, FaultPlan, MetricsRegistry};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("datamime-dist-it-{}-{name}", std::process::id()));
    let _ = fs::remove_file(&path);
    path
}

fn fast_config(iterations: usize) -> SearchConfig {
    let mut cfg = SearchConfig::fast(iterations);
    cfg.profiling = cfg.profiling.without_curves();
    cfg
}

fn proc_backend(workers: usize) -> BackendChoice {
    BackendChoice::Process(ProcOptions {
        workers,
        worker_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_datamime-worker"))),
    })
}

fn generator() -> QuantizedGenerator<KvGenerator> {
    QuantizedGenerator::new(KvGenerator::new(), 6)
}

/// Everything the journal/winner semantics promise: same points, same
/// error bits, same winner, same accounting — regardless of backend.
fn assert_identical(a: &SearchOutcome, b: &SearchOutcome, what: &str) {
    assert_eq!(a.best_unit_params, b.best_unit_params, "{what}: winner");
    assert_eq!(
        a.best_error.to_bits(),
        b.best_error.to_bits(),
        "{what}: best error"
    );
    assert_eq!(a.history.len(), b.history.len(), "{what}: history length");
    for (i, (x, y)) in a.history.iter().zip(&b.history).enumerate() {
        assert_eq!(x.unit_params, y.unit_params, "{what}: point {i}");
        assert_eq!(
            x.error.to_bits(),
            y.error.to_bits(),
            "{what}: error bits at {i}"
        );
    }
    assert_eq!(
        a.best_profile.to_tsv(),
        b.best_profile.to_tsv(),
        "{what}: best profile"
    );
}

#[test]
fn process_backend_is_bit_identical_to_threads_for_any_worker_count() {
    let cfg = fast_config(10);
    let target = profile_workload(&Workload::mem_fb(), &cfg.machine, &cfg.profiling);
    let base = RuntimeOptions {
        batch_k: 4,
        workers: 4,
        ..RuntimeOptions::default()
    };
    let thread = search_with_runtime(&generator(), &target, &cfg, &base).unwrap();
    for workers in [1usize, 2, 4] {
        let opts = RuntimeOptions {
            backend: proc_backend(workers),
            ..base.clone()
        };
        let proc = search_with_runtime(&generator(), &target, &cfg, &opts).unwrap();
        assert_identical(&thread, &proc, &format!("{workers} worker(s)"));
        assert_eq!(thread.stats, proc.stats, "{workers} worker(s): stats");
    }
}

#[test]
fn killing_a_worker_mid_batch_changes_nothing() {
    // Evaluation 2's first dispatch aborts its worker process; the broker
    // respawns it and re-dispatches transparently. In-process the same
    // plan is a no-op, so both runs must land on identical bits.
    let cfg = fast_config(8);
    let target = profile_workload(&Workload::mem_fb(), &cfg.machine, &cfg.profiling);
    let plan = FaultPlan::new().fail_first(2, EvalFault::KillWorker, 1);
    let thread_metrics = Arc::new(MetricsRegistry::new());
    let base = RuntimeOptions {
        batch_k: 4,
        workers: 2,
        faults: FaultInjector::new(plan),
        metrics: Some(Arc::clone(&thread_metrics)),
        ..RuntimeOptions::default()
    };
    let thread = search_with_runtime(&generator(), &target, &cfg, &base).unwrap();
    let proc_metrics = Arc::new(MetricsRegistry::new());
    let opts = RuntimeOptions {
        backend: proc_backend(2),
        metrics: Some(Arc::clone(&proc_metrics)),
        ..base.clone()
    };
    let proc = search_with_runtime(&generator(), &target, &cfg, &opts).unwrap();
    assert_identical(&thread, &proc, "worker killed mid-batch");
    assert_eq!(thread.stats, proc.stats, "stats under a kill plan");
    // The kill shows only in the broker's counters: one respawn, one
    // transparent re-dispatch; in-process neither counter ever exists.
    assert_eq!(proc_metrics.get("worker_restarts"), 1);
    assert_eq!(proc_metrics.get("redispatches"), 1);
    let thread_counters = thread_metrics.snapshot();
    assert!(
        !thread_counters
            .iter()
            .any(|(name, _)| name == "worker_restarts" || name == "redispatches"),
        "{thread_counters:?}"
    );
}

/// The journal's `attempt` events, without the worker id that only the
/// process backend writes.
fn attempt_events(journal: &PathBuf) -> Vec<Json> {
    fs::read_to_string(journal)
        .unwrap()
        .lines()
        .filter(|l| l.contains("\"event\":\"attempt\""))
        .map(|l| match Json::parse(l).unwrap() {
            Json::Obj(fields) => {
                Json::Obj(fields.into_iter().filter(|(k, _)| k != "worker").collect())
            }
            other => other,
        })
        .collect()
}

#[test]
fn failing_evaluations_journal_the_same_records_on_both_backends() {
    // Evaluation 1 panics and evaluation 3 returns NaN on every attempt.
    // The thread backend classifies them in-process, the process backend
    // in its workers; either way every record, its fault kind, detail
    // and retry count, and every failed attempt must be the same.
    let cfg = fast_config(6);
    let target = profile_workload(&Workload::mem_fb(), &cfg.machine, &cfg.profiling);
    let plan = FaultPlan::from_spec("eval:1:panic;eval:3:nan").unwrap();
    let run = |backend: BackendChoice, name: &str| {
        let journal = tmp(name);
        search_with_runtime(
            &generator(),
            &target,
            &cfg,
            &RuntimeOptions {
                batch_k: 2,
                workers: 2,
                backend,
                journal: Some(journal.clone()),
                max_retries: 1,
                faults: FaultInjector::new(plan.clone()),
                ..RuntimeOptions::default()
            },
        )
        .unwrap();
        let evals = datamime_runtime::replay(&journal).unwrap().evals;
        let attempts = attempt_events(&journal);
        let _ = fs::remove_file(&journal);
        (evals, attempts)
    };
    let (thread, thread_attempts) = run(BackendChoice::Thread, "faults-thread.jsonl");
    let (proc, proc_attempts) = run(proc_backend(2), "faults-proc.jsonl");
    assert_eq!(thread.len(), 6);
    assert_eq!(thread.len(), proc.len());
    for (t, p) in thread.iter().zip(&proc) {
        assert!(t.semantic_eq(p), "thread {t:?}\nproc   {p:?}");
    }
    let faults: Vec<_> = thread.iter().filter_map(|r| r.fault.as_ref()).collect();
    assert_eq!(faults.len(), 2, "{faults:?}");
    assert!(faults.iter().all(|f| f.retries == 1), "{faults:?}");
    assert_eq!(
        thread_attempts.len(),
        4,
        "two failed attempts per faulted point"
    );
    assert_eq!(thread_attempts, proc_attempts);
}

#[test]
fn journal_resume_works_across_backend_kinds() {
    let cfg = fast_config(8);
    let target = profile_workload(&Workload::mem_fb(), &cfg.machine, &cfg.profiling);
    let reference = search_with_runtime(
        &generator(),
        &target,
        &cfg,
        &RuntimeOptions {
            batch_k: 2,
            workers: 2,
            ..RuntimeOptions::default()
        },
    )
    .unwrap();

    // Truncates a finished journal to its first `keep` observations,
    // simulating a mid-run crash.
    let truncate = |path: &PathBuf, keep: usize| {
        let text = fs::read_to_string(path).unwrap();
        let kept: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"header\"") || l.contains("\"eval\""))
            .take(1 + keep)
            .collect();
        fs::write(path, kept.join("\n") + "\n").unwrap();
    };

    // Thread-journaled prefix, resumed under the process backend.
    let t2p = tmp("thread-to-proc.jsonl");
    search_with_runtime(
        &generator(),
        &target,
        &cfg,
        &RuntimeOptions {
            batch_k: 2,
            workers: 2,
            journal: Some(t2p.clone()),
            ..RuntimeOptions::default()
        },
    )
    .unwrap();
    truncate(&t2p, 4);
    let resumed = search_with_runtime(
        &generator(),
        &target,
        &cfg,
        &RuntimeOptions {
            batch_k: 2,
            journal: Some(t2p.clone()),
            resume: Some(t2p.clone()),
            backend: proc_backend(2),
            ..RuntimeOptions::default()
        },
    )
    .unwrap();
    assert_identical(&reference, &resumed, "thread journal resumed on proc");
    assert_eq!(resumed.stats.replayed, 4, "thread→proc replayed prefix");

    // Process-journaled prefix, resumed under the thread backend.
    let p2t = tmp("proc-to-thread.jsonl");
    search_with_runtime(
        &generator(),
        &target,
        &cfg,
        &RuntimeOptions {
            batch_k: 2,
            journal: Some(p2t.clone()),
            backend: proc_backend(2),
            ..RuntimeOptions::default()
        },
    )
    .unwrap();
    assert_eq!(
        datamime_runtime::replay(&p2t).unwrap().meta.workers,
        2,
        "the header records the process pool's size, not RuntimeOptions::workers"
    );
    truncate(&p2t, 4);
    let resumed = search_with_runtime(
        &generator(),
        &target,
        &cfg,
        &RuntimeOptions {
            batch_k: 2,
            workers: 2,
            journal: Some(p2t.clone()),
            resume: Some(p2t.clone()),
            ..RuntimeOptions::default()
        },
    )
    .unwrap();
    assert_identical(&reference, &resumed, "proc journal resumed on threads");
    assert_eq!(resumed.stats.replayed, 4, "proc→thread replayed prefix");

    let _ = fs::remove_file(&t2p);
    let _ = fs::remove_file(&p2t);
}

#[test]
fn more_outstanding_points_than_workers_queue_without_reordering() {
    // batch_k 6 against 2 worker processes: the broker must queue the
    // excess and commit observations in batch order, bit-identical to
    // the thread backend at the same batch_k.
    let cfg = fast_config(12);
    let target = profile_workload(&Workload::mem_fb(), &cfg.machine, &cfg.profiling);
    let base = RuntimeOptions {
        batch_k: 6,
        workers: 6,
        ..RuntimeOptions::default()
    };
    let thread = search_with_runtime(&generator(), &target, &cfg, &base).unwrap();
    let opts = RuntimeOptions {
        batch_k: 6,
        backend: proc_backend(2),
        ..RuntimeOptions::default()
    };
    let proc = search_with_runtime(&generator(), &target, &cfg, &opts).unwrap();
    assert_identical(&thread, &proc, "backpressure at batch 6 on 2 workers");
}

#[test]
fn every_stage_evaluate_records_reaches_a_process_backend_journal() {
    // The broker maps wire stage names back onto the runtime's static
    // names through a fixed list and drops the rest, so a stage added to
    // `evaluate` without the broker learning its name would vanish from
    // the journal without a sound.
    let cfg = fast_config(2);
    let target = profile_workload(&Workload::mem_fb(), &cfg.machine, &cfg.profiling);
    let mut stages = datamime_runtime::StageTimes::new();
    datamime::search::evaluate(
        &generator(),
        &cfg,
        &datamime::search::emd_objective(&target, &cfg.weights),
        &[0.5; 6],
        &mut stages,
        &datamime_runtime::CancelToken::new(),
        None,
    );
    let recorded: Vec<&str> = stages.entries().iter().map(|(name, _)| *name).collect();
    assert!(recorded.contains(&"build"), "{recorded:?}");

    let journal = tmp("stages.jsonl");
    search_with_runtime(
        &generator(),
        &target,
        &cfg,
        &RuntimeOptions {
            journal: Some(journal.clone()),
            backend: proc_backend(1),
            ..RuntimeOptions::default()
        },
    )
    .unwrap();
    let evals = datamime_runtime::replay(&journal).unwrap().evals;
    assert_eq!(evals.len(), 2);
    for rec in &evals {
        for stage in &recorded {
            assert!(
                rec.stage_ms.iter().any(|(name, _)| name == stage),
                "evaluation {} lost stage {stage}: {:?}",
                rec.index,
                rec.stage_ms
            );
        }
    }
    let _ = fs::remove_file(&journal);
}
