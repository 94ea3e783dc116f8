//! Fault-tolerance tests: injected panics, stalls, and non-finite
//! objectives must be contained, retried, journaled, quarantined, and —
//! above all — never change the deterministic outcome contract.

mod common;

use common::RunLocal;
use datamime_bayesopt::{BayesOpt, BlackBoxOptimizer, BoConfig, PENALTY_OBJECTIVE};
use datamime_runtime::{
    replay, CancelToken, EvalFault, EvalRecord, Executor, FailPolicy, FailedAttempt, FailureKind,
    FaultInfo, FaultPlan, JournalWriter, ProgressSink, RunMeta, StageTimes, SupervisorConfig,
};
use std::cell::RefCell;
use std::fs;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn objective(unit: &[f64]) -> f64 {
    unit.iter().map(|x| (x - 0.3).powi(2)).sum()
}

fn eval(unit: &[f64], stages: &mut StageTimes, _cancel: &CancelToken) -> f64 {
    stages.time("profile", || objective(unit))
}

fn meta(label: &str, iterations: usize, batch_k: usize, workers: usize) -> RunMeta {
    RunMeta {
        label: label.to_string(),
        seed: 42,
        dims: 3,
        iterations,
        batch_k,
        workers,
        optimizer: "bayesian".to_string(),
    }
}

fn bayes(seed: u64) -> BayesOpt {
    BayesOpt::new(BoConfig::for_dims(3), seed)
}

/// A supervisor config with test-friendly (fast) backoff.
fn supervision() -> SupervisorConfig {
    SupervisorConfig {
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
        ..SupervisorConfig::default()
    }
}

fn points(history: &[EvalRecord]) -> Vec<(Vec<f64>, u64)> {
    history
        .iter()
        .map(|r| (r.unit.clone(), r.error.to_bits()))
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("datamime-faults-{}-{name}", std::process::id()));
    let _ = fs::remove_file(&path);
    path
}

#[test]
fn injected_panic_is_contained_and_penalized() {
    let cfg = SupervisorConfig {
        faults: FaultPlan::new().fail(2, EvalFault::Panic),
        ..supervision()
    };
    let out = Executor::new(meta("panic", 8, 2, 1))
        .supervise(cfg)
        .run_local(&mut bayes(42), &eval)
        .expect("a penalized panic must not abort the run");
    assert_eq!(out.history.len(), 8);
    let rec = &out.history[2];
    assert_eq!(rec.error, PENALTY_OBJECTIVE);
    let fault = rec.fault.as_ref().expect("record must carry its fault");
    assert_eq!(fault.kind, FailureKind::Panic);
    assert!(fault.detail.contains("injected panic"), "{}", fault.detail);
    assert_eq!(out.telemetry.faults_of(FailureKind::Panic), 1);
    assert_eq!(out.telemetry.faults_total(), 1);
    assert_eq!(out.telemetry.failed_attempts(), 1);
    // The other seven evaluations are genuine.
    assert_eq!(out.telemetry.evaluated(), 8);
    assert!(out.history.iter().filter(|r| r.fault.is_none()).count() == 7);
    assert!(out.best_error < PENALTY_OBJECTIVE);
}

#[test]
fn faulty_outcome_is_identical_across_worker_counts() {
    let plan = FaultPlan::new()
        .fail(2, EvalFault::Panic)
        .fail(5, EvalFault::Nan)
        .fail(7, EvalFault::StallMs(10_000));
    let run = |workers: usize| {
        let cfg = SupervisorConfig {
            deadline: Some(Duration::from_millis(50)),
            max_retries: 1,
            faults: plan.clone(),
            ..supervision()
        };
        Executor::new(meta("det", 12, 4, workers))
            .supervise(cfg)
            .run_local(&mut bayes(42), &eval)
            .unwrap()
    };
    let serial = run(1);
    let pooled = run(4);
    assert_eq!(points(&serial.history), points(&pooled.history));
    assert_eq!(serial.best_error.to_bits(), pooled.best_error.to_bits());
    for (a, b) in serial.history.iter().zip(&pooled.history) {
        assert_eq!(
            a.fault.as_ref().map(|f| f.kind),
            b.fault.as_ref().map(|f| f.kind)
        );
    }
    assert_eq!(
        serial.history[2].fault.as_ref().unwrap().kind,
        FailureKind::Panic
    );
    assert_eq!(
        serial.history[5].fault.as_ref().unwrap().kind,
        FailureKind::NonFinite
    );
    assert_eq!(
        serial.history[7].fault.as_ref().unwrap().kind,
        FailureKind::Timeout
    );
    assert_eq!(
        serial.telemetry.faults_total(),
        pooled.telemetry.faults_total()
    );
}

#[test]
fn transient_fault_recovers_on_retry() {
    // Index 3 fails only on its first attempt; with one retry the run's
    // observations are identical to a fault-free run.
    let clean = Executor::new(meta("transient", 8, 2, 1))
        .supervise(supervision())
        .run_local(&mut bayes(42), &eval)
        .unwrap();
    let cfg = SupervisorConfig {
        max_retries: 1,
        faults: FaultPlan::new().fail_first(3, EvalFault::Panic, 1),
        ..supervision()
    };
    let faulty = Executor::new(meta("transient", 8, 2, 1))
        .supervise(cfg)
        .run_local(&mut bayes(42), &eval)
        .unwrap();
    assert_eq!(points(&clean.history), points(&faulty.history));
    assert!(faulty.history[3].fault.is_none());
    assert_eq!(faulty.telemetry.failed_attempts(), 1);
    assert_eq!(faulty.telemetry.faults_total(), 0);
}

#[test]
fn stall_past_deadline_is_a_timeout() {
    let cfg = SupervisorConfig {
        deadline: Some(Duration::from_millis(30)),
        faults: FaultPlan::new().fail(1, EvalFault::StallMs(60_000)),
        ..supervision()
    };
    let out = Executor::new(meta("stall", 4, 1, 1))
        .supervise(cfg)
        .run_local(&mut bayes(42), &eval)
        .unwrap();
    let fault = out.history[1].fault.as_ref().unwrap();
    assert_eq!(fault.kind, FailureKind::Timeout);
    assert!(fault.detail.contains("deadline"), "{}", fault.detail);
    assert_eq!(out.telemetry.faults_of(FailureKind::Timeout), 1);
}

#[test]
fn abort_policy_reraises_through_the_worker_pool() {
    let cfg = SupervisorConfig {
        fail_policy: FailPolicy::Abort,
        faults: FaultPlan::new().fail(1, EvalFault::Panic),
        ..supervision()
    };
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Executor::new(meta("abort", 6, 2, 2))
            .supervise(cfg)
            .run_local(&mut bayes(42), &eval)
    }))
    .expect_err("abort policy must fail fast");
    let msg = datamime_runtime::supervisor::panic_message(err.as_ref());
    assert!(msg.contains("injected panic"), "unexpected payload: {msg}");
}

/// Always proposes the same point — the quarantine path's worst client.
struct ConstantOptimizer {
    point: Vec<f64>,
    history: Vec<(Vec<f64>, f64)>,
}

impl BlackBoxOptimizer for ConstantOptimizer {
    fn suggest(&mut self) -> Vec<f64> {
        self.point.clone()
    }
    fn observe(&mut self, x: Vec<f64>, y: f64) {
        self.history.push((x, y));
    }
    fn best(&self) -> Option<(&[f64], f64)> {
        self.history
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(x, y)| (x.as_slice(), *y))
    }
    fn history(&self) -> &[(Vec<f64>, f64)] {
        &self.history
    }
}

#[test]
fn repeatedly_failing_point_is_quarantined_without_reevaluation() {
    let cfg = SupervisorConfig {
        max_retries: 1,
        faults: FaultPlan::new().fail(0, EvalFault::Panic),
        ..supervision()
    };
    let mut opt = ConstantOptimizer {
        point: vec![0.25, 0.5, 0.75],
        history: Vec::new(),
    };
    let evals = AtomicUsize::new(0);
    let out = Executor::new(meta("quarantine", 5, 1, 1))
        .supervise(cfg)
        .run_local(&mut opt, &|unit, stages, cancel| {
            evals.fetch_add(1, Ordering::Relaxed);
            eval(unit, stages, cancel)
        })
        .unwrap();
    // Index 0 burns both attempts on the injected panic; indexes 1..5
    // re-propose the same point and are penalized straight from the
    // quarantine set — the real evaluation never runs at all.
    assert_eq!(evals.load(Ordering::Relaxed), 0);
    assert_eq!(out.history.len(), 5);
    assert_eq!(
        out.history[0].fault.as_ref().unwrap().kind,
        FailureKind::Panic
    );
    for rec in &out.history[1..] {
        assert_eq!(rec.error, PENALTY_OBJECTIVE);
        assert_eq!(
            rec.fault.as_ref().unwrap().kind,
            FailureKind::Quarantined,
            "{rec:?}"
        );
    }
    assert_eq!(out.telemetry.quarantine_hits(), 4);
    assert_eq!(out.telemetry.faults_total(), 1);
    assert_eq!(out.telemetry.failed_attempts(), 2);
}

#[derive(Default)]
struct FaultLog {
    degrades: Vec<(usize, usize)>,
    fault_indexes: Vec<usize>,
    attempts: usize,
}

/// Records degradation and fault callbacks (single-threaded coordinator).
#[derive(Clone, Default)]
struct FaultSink(Rc<RefCell<FaultLog>>);

impl ProgressSink for FaultSink {
    fn on_degrade(&mut self, from_k: usize, to_k: usize) {
        self.0.borrow_mut().degrades.push((from_k, to_k));
    }
    fn on_fault(&mut self, index: usize, _fault: &FaultInfo) {
        self.0.borrow_mut().fault_indexes.push(index);
    }
    fn on_attempt(&mut self, _attempt: &FailedAttempt) {
        self.0.borrow_mut().attempts += 1;
    }
}

#[test]
fn consecutive_failures_degrade_the_batch_deterministically() {
    let mut plan = FaultPlan::new();
    for index in 0..7 {
        plan = plan.fail(index, EvalFault::Nan);
    }
    let run = |workers: usize| {
        let cfg = SupervisorConfig {
            degrade_after: 2,
            faults: plan.clone(),
            ..supervision()
        };
        let sink = FaultSink::default();
        let out = Executor::new(meta("degrade", 12, 4, workers))
            .supervise(cfg)
            .sink(Box::new(sink.clone()))
            .run_local(&mut bayes(42), &eval)
            .unwrap();
        let log = sink.0.borrow();
        (
            points(&out.history),
            out.telemetry.degradations(),
            log.degrades.clone(),
            log.fault_indexes.len(),
        )
    };
    let (serial_pts, serial_degr, serial_log, serial_faults) = run(1);
    let (pooled_pts, pooled_degr, pooled_log, pooled_faults) = run(4);
    assert_eq!(serial_pts, pooled_pts);
    assert_eq!(serial_degr, pooled_degr);
    assert_eq!(serial_log, pooled_log);
    assert_eq!(serial_faults, pooled_faults);
    // 4 -> 2 after two failures, 2 -> 1 after two more; then the batch is
    // already minimal.
    assert_eq!(serial_log, vec![(4, 2), (2, 1)]);
    assert_eq!(serial_degr, 2);
    assert_eq!(serial_faults, 7);
}

#[test]
fn fault_records_round_trip_through_the_journal() {
    let path = tmp("roundtrip.jsonl");
    let m = meta("fault-journal", 6, 2, 1);
    let cfg = SupervisorConfig {
        max_retries: 1,
        faults: FaultPlan::new().fail(1, EvalFault::Inf),
        ..supervision()
    };
    let writer = JournalWriter::create(&path, &m).unwrap();
    let out = Executor::new(m.clone())
        .supervise(cfg)
        .journal(writer)
        .run_local(&mut bayes(42), &eval)
        .unwrap();

    let text = fs::read_to_string(&path).unwrap();
    assert!(text.lines().next().unwrap().contains("\"version\":2"));
    assert_eq!(
        text.lines()
            .filter(|l| l.contains("\"event\":\"fault\""))
            .count(),
        1
    );
    // Both attempts (initial + one retry) were journaled before the verdict.
    assert_eq!(
        text.lines()
            .filter(|l| l.contains("\"event\":\"attempt\""))
            .count(),
        2
    );

    let r = replay(&path).unwrap();
    assert!(r.complete);
    assert_eq!(r.evals.len(), 6);
    assert!(
        r.fault_attempts.is_empty(),
        "attempts were resolved by the fault record"
    );
    let journaled = &r.evals[1];
    let ran = &out.history[1];
    assert_eq!(journaled.error.to_bits(), ran.error.to_bits());
    let jf = journaled.fault.as_ref().unwrap();
    let rf = ran.fault.as_ref().unwrap();
    assert_eq!(jf.kind, FailureKind::NonFinite);
    assert_eq!(jf.kind, rf.kind);
    assert_eq!(jf.detail, rf.detail);
    assert_eq!(jf.retries, 1);
    let _ = fs::remove_file(&path);
}

#[test]
fn resume_after_mid_retry_kill_penalizes_without_rerunning() {
    let iterations = 6;
    let m = meta("midretry", iterations, 1, 1);
    let plan = FaultPlan::new().fail(2, EvalFault::Panic);
    let sup = |plan: FaultPlan| SupervisorConfig {
        max_retries: 2,
        faults: plan,
        ..supervision()
    };

    // Reference: the full run with the persistent fault at index 2.
    let path = tmp("midretry.jsonl");
    let writer = JournalWriter::create(&path, &m).unwrap();
    let reference = Executor::new(m.clone())
        .supervise(sup(plan.clone()))
        .journal(writer)
        .run_local(&mut bayes(42), &eval)
        .unwrap();
    assert_eq!(
        reference.history[2].fault.as_ref().unwrap().kind,
        FailureKind::Panic
    );

    // Simulate a process killed mid-retry: keep the header, the first two
    // eval records, and only the first two of three attempt lines.
    let text = fs::read_to_string(&path).unwrap();
    let kept: Vec<&str> = text
        .lines()
        .filter(|l| {
            l.contains("\"event\":\"header\"")
                || l.contains("\"event\":\"eval\"")
                || l.contains("\"event\":\"attempt\"")
        })
        .take(1 + 2 + 2)
        .collect();
    assert!(kept[3].contains("\"event\":\"attempt\""), "{:?}", kept);
    fs::write(&path, kept.join("\n") + "\n").unwrap();

    let r = replay(&path).unwrap();
    assert_eq!(r.evals.len(), 2);
    let pending = r
        .fault_attempts
        .get(&2)
        .expect("mid-retry attempts survive");
    assert_eq!(pending.kind, FailureKind::Panic);
    assert_eq!(pending.attempts, 2);

    // Resume WITHOUT the fault plan and count evaluations: the journaled
    // attempts must be penalized from the journal, never re-run.
    let evals = AtomicUsize::new(0);
    let (r, writer) = JournalWriter::reopen(&path).unwrap();
    let resumed = Executor::new(m.clone())
        .supervise(sup(FaultPlan::new()))
        .journal(writer)
        .resume(r)
        .unwrap()
        .run_local(&mut bayes(42), &|unit, stages, cancel| {
            evals.fetch_add(1, Ordering::Relaxed);
            eval(unit, stages, cancel)
        })
        .unwrap();

    // Replayed: 0,1. Penalized from the journal: 2. Evaluated: 3,4,5.
    assert_eq!(evals.load(Ordering::Relaxed), 3);
    assert_eq!(resumed.replayed, 2);
    assert_eq!(resumed.history.len(), iterations);
    let fault = resumed.history[2].fault.as_ref().unwrap();
    assert_eq!(fault.kind, FailureKind::Panic);
    assert_eq!(fault.retries, 1, "two journaled attempts = one retry");
    assert_eq!(resumed.history[2].error, PENALTY_OBJECTIVE);
    assert_eq!(points(&resumed.history), points(&reference.history));
    assert_eq!(resumed.best_error.to_bits(), reference.best_error.to_bits());

    // The appended journal now replays as a complete, fault-bearing run.
    let full = replay(&path).unwrap();
    assert!(full.complete);
    assert_eq!(full.evals.len(), iterations);
    assert_eq!(
        full.evals[2].fault.as_ref().unwrap().kind,
        FailureKind::Panic
    );
    assert!(full.fault_attempts.is_empty());
    let _ = fs::remove_file(&path);
}

#[test]
fn resumed_fault_records_drive_the_same_state_machine() {
    // A journaled run whose faults triggered degradation must degrade the
    // same way when resumed from its own journal mid-way.
    let mut plan = FaultPlan::new();
    for index in 0..6 {
        plan = plan.fail(index, EvalFault::Nan);
    }
    let m = meta("resume-degrade", 12, 4, 1);
    let sup = || SupervisorConfig {
        degrade_after: 2,
        faults: plan.clone(),
        ..supervision()
    };

    let path = tmp("resume-degrade.jsonl");
    let writer = JournalWriter::create(&path, &m).unwrap();
    let reference = Executor::new(m.clone())
        .supervise(sup())
        .journal(writer)
        .run_local(&mut bayes(42), &eval)
        .unwrap();

    // Truncate to the first 7 observations (evals or faults).
    let text = fs::read_to_string(&path).unwrap();
    let kept: Vec<&str> = text
        .lines()
        .filter(|l| {
            l.contains("\"event\":\"header\"")
                || l.contains("\"event\":\"eval\"")
                || l.contains("\"event\":\"fault\"")
        })
        .take(1 + 7)
        .collect();
    fs::write(&path, kept.join("\n") + "\n").unwrap();

    let r = replay(&path).unwrap();
    assert_eq!(r.evals.len(), 7);
    let resumed = Executor::new(m.clone())
        .supervise(sup())
        .resume(r)
        .unwrap()
        .run_local(&mut bayes(42), &eval)
        .unwrap();
    assert_eq!(points(&resumed.history), points(&reference.history));
    let _ = fs::remove_file(&path);
}

/// A faulted point must stay in the quarantine machinery, never the memo
/// cache: its re-suggestions are quarantine-penalized without dispatch,
/// while healthy re-suggested points are served from the memo. This is
/// the `core::search` re-suggestion shape (satellite of the memo-cache
/// work) exercised at the executor level.
#[test]
fn quarantined_points_are_never_memoized_but_healthy_ones_are() {
    struct Cycle4 {
        suggested: usize,
        history: Vec<(Vec<f64>, f64)>,
    }
    impl BlackBoxOptimizer for Cycle4 {
        fn suggest(&mut self) -> Vec<f64> {
            const POINTS: [[f64; 3]; 4] = [
                [0.1, 0.2, 0.3],
                [0.4, 0.5, 0.6],
                [0.7, 0.8, 0.9],
                [0.25, 0.25, 0.25],
            ];
            let p = POINTS[self.suggested % 4].to_vec();
            self.suggested += 1;
            p
        }
        fn observe(&mut self, x: Vec<f64>, y: f64) {
            self.history.push((x, y));
        }
        fn best(&self) -> Option<(&[f64], f64)> {
            self.history
                .iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(x, y)| (x.as_slice(), *y))
        }
        fn history(&self) -> &[(Vec<f64>, f64)] {
            &self.history
        }
    }

    let evaluations = AtomicUsize::new(0);
    let counted_eval = |unit: &[f64], stages: &mut StageTimes, cancel: &CancelToken| {
        evaluations.fetch_add(1, Ordering::SeqCst);
        eval(unit, stages, cancel)
    };

    // Point 1 (index 1, the cycle's second point) faults on first visit.
    let cfg = SupervisorConfig {
        faults: FaultPlan::new().fail(1, EvalFault::Nan),
        ..supervision()
    };
    let out = Executor::new(meta("memo-quarantine", 12, 1, 1))
        .supervise(cfg)
        .memoize_keyed(0xFACADE, Box::new(<[f64]>::to_vec))
        .run_local(
            &mut Cycle4 {
                suggested: 0,
                history: Vec::new(),
            },
            &counted_eval,
        )
        .unwrap();

    // Three healthy points evaluated once each; the faulted point and its
    // two re-suggestions never reach the evaluator.
    assert_eq!(evaluations.load(Ordering::SeqCst), 3);
    assert_eq!(
        out.telemetry.cache_hits(),
        6,
        "healthy revisits hit the memo"
    );
    assert_eq!(
        out.telemetry.quarantine_hits(),
        2,
        "faulted-point revisits are quarantine-penalized, not memoized"
    );
    for (i, rec) in out.history.iter().enumerate() {
        if i % 4 == 1 {
            // The faulted point: penalty on every lap, never from cache.
            assert_eq!(rec.error, PENALTY_OBJECTIVE, "record {i}");
            assert!(rec.fault.is_some(), "record {i} must carry a fault");
            assert_eq!(rec.cached, None, "record {i} must not be cached");
            if i > 1 {
                assert_eq!(
                    rec.fault.as_ref().unwrap().kind,
                    FailureKind::Quarantined,
                    "record {i}"
                );
            }
        } else if i >= 4 {
            assert_eq!(rec.cached, Some(i % 4), "record {i} should be a memo hit");
        } else {
            assert_eq!(rec.cached, None, "record {i} is the first visit");
        }
    }
}
