//! A sequential run (`batch_k = 1`) on a pool of more than one worker
//! evaluates the optimizer's observation-free suggestions — the Bayesian
//! optimizer's Latin-hypercube design — side by side. None of that may
//! show: for pool widths 1, 2 and 3 the journals are `semantic_eq`
//! record for record and the outcomes equal to the bit, through memo-key
//! repeats inside the design, an odd evaluation quota, injected faults
//! and a resume from a journal cut mid-design.

use datamime_bayesopt::{BayesOpt, BoConfig};
use datamime_runtime::{
    replay, with_local_backend, Backend, CancelToken, EvalRecord, Evaluated, Executor,
    FailedAttempt, FaultPlan, JournalWriter, QuotaCause, RunMeta, RunOutcome, StageTimes,
    SupervisorConfig,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Three dimensions: a six-point design, then GP suggestions.
const DIMS: usize = 3;
const DESIGN: usize = 6;
const ITERS: usize = 12;
/// A seed whose design repeats memo keys at neighbouring points: 2
/// repeats 1, and 4 repeats 3 (asserted in
/// `memo_repeats_inside_the_design_stay_cache_hits`). Under the fault
/// plan below, 1 and 3 fail, so their repeats are evaluated afresh.
const SEED: u64 = 23;

fn meta(workers: usize) -> RunMeta {
    RunMeta {
        label: "lanes".to_string(),
        seed: SEED,
        dims: DIMS,
        iterations: ITERS,
        batch_k: 1,
        workers,
        optimizer: "bayesian".to_string(),
    }
}

/// The memo key: two cells per axis, a generator quantised so coarsely
/// that design points share datasets.
fn cell(unit: &[f64]) -> Vec<f64> {
    unit.iter().map(|u| (u * 2.0).floor().min(1.0)).collect()
}

/// The objective depends on the cell only, as a quantised generator's
/// does on its dataset — which is what makes a memo hit exact.
fn eval(unit: &[f64], stages: &mut StageTimes, _cancel: &CancelToken) -> f64 {
    stages.time("profile", || {
        cell(unit)
            .iter()
            .enumerate()
            .map(|(d, c)| (c - 0.3).powi(2) * (d + 1) as f64)
            .sum()
    })
}

fn supervision(plan: FaultPlan) -> SupervisorConfig {
    SupervisorConfig {
        max_retries: 1,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        faults: plan,
        ..SupervisorConfig::default()
    }
}

fn tmp(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("datamime-lanes-{}-{name}", std::process::id()));
    let _ = fs::remove_file(&path);
    path
}

/// Counts the fresh points of every batch the executor dispatches.
struct Recording<'a> {
    inner: &'a mut dyn Backend,
    batches: Vec<usize>,
}

impl Backend for Recording<'_> {
    fn evaluate_batch(
        &mut self,
        jobs: &[(usize, Vec<f64>)],
        on_attempt: &mut dyn FnMut(FailedAttempt),
    ) -> Result<Vec<Evaluated>, String> {
        self.batches.push(jobs.len());
        self.inner.evaluate_batch(jobs, on_attempt)
    }
}

/// One finished run: its outcome, its journal read back, its `attempt`
/// lines sorted, and the fresh points of each dispatched batch.
struct Run {
    outcome: RunOutcome,
    journal: Vec<EvalRecord>,
    attempts: Vec<String>,
    batches: Vec<usize>,
}

/// Runs `exec` (memoised on [`cell`], journalling to `path`) on its own
/// pool width.
fn drive(exec: Executor, path: &Path) -> Run {
    let exec = exec.memoize_keyed(7, Box::new(cell));
    let mut bo = BayesOpt::new(BoConfig::for_dims(DIMS), SEED);
    let (outcome, batches) =
        with_local_backend(exec.meta().workers, exec.supervisor(), &eval, |backend| {
            let mut recording = Recording {
                inner: backend,
                batches: Vec::new(),
            };
            let outcome = exec.run(&mut bo, &mut recording).unwrap();
            (outcome, recording.batches)
        });
    let replayed = replay(path).unwrap();
    assert!(replayed.complete, "{path:?}");
    let mut attempts: Vec<String> = fs::read_to_string(path)
        .unwrap()
        .lines()
        .filter(|l| l.contains("\"event\":\"attempt\""))
        .map(str::to_string)
        .collect();
    attempts.sort();
    Run {
        outcome,
        journal: replayed.evals,
        attempts,
        batches,
    }
}

/// A fresh run on `workers` lanes under `setup`.
fn fresh(tag: &str, workers: usize, setup: impl FnOnce(Executor) -> Executor) -> Run {
    let path = tmp(&format!("{tag}-{workers}.jsonl"));
    let m = meta(workers);
    let exec = setup(Executor::new(m.clone())).journal(JournalWriter::create(&path, &m).unwrap());
    let run = drive(exec, &path);
    let _ = fs::remove_file(&path);
    run
}

fn bits(unit: &[f64]) -> Vec<u64> {
    unit.iter().map(|u| u.to_bits()).collect()
}

/// `got` observed exactly what `want` did, journal and outcome alike.
fn assert_same(got: &Run, want: &Run, what: &str) {
    let (a, b) = (&got.outcome, &want.outcome);
    assert_eq!(a.best_error.to_bits(), b.best_error.to_bits(), "{what}");
    assert_eq!(bits(&a.best_unit), bits(&b.best_unit), "{what}");
    assert_eq!(a.quota, b.quota, "{what}");
    assert_eq!(a.history.len(), b.history.len(), "{what}");
    for (x, y) in a.history.iter().zip(&b.history) {
        assert!(x.semantic_eq(y), "{what}: outcome\n{x:?}\n{y:?}");
    }
    assert_eq!(got.journal.len(), want.journal.len(), "{what}");
    for (x, y) in got.journal.iter().zip(&want.journal) {
        assert!(x.semantic_eq(y), "{what}: journal\n{x:?}\n{y:?}");
    }
    assert_eq!(got.attempts, want.attempts, "{what}: attempts");
}

/// Widths 2 and 3 against width 1, and proof that the wider pools ran
/// design points side by side (never more than their width: the
/// repeats end batches early).
fn assert_widths_agree(tag: &str, setup: impl Fn(Executor) -> Executor) -> Run {
    let one = fresh(tag, 1, &setup);
    assert!(one.batches.iter().all(|&n| n == 1), "{:?}", one.batches);
    for workers in [2, 3] {
        let wide = fresh(tag, workers, &setup);
        assert_same(&wide, &one, &format!("{tag}: {workers} lanes"));
        assert!(
            wide.batches.iter().any(|&n| n > 1) && wide.batches.iter().all(|&n| n <= workers),
            "{tag}: {workers} lanes dispatched {:?}",
            wide.batches
        );
    }
    one
}

#[test]
fn memo_repeats_inside_the_design_stay_cache_hits() {
    let one = assert_widths_agree("memo", |e| e);
    // The case is real: design points repeat their neighbours' memo
    // keys, so two or three lanes would have drawn both into one batch.
    let hits: Vec<(usize, usize)> = one.journal[..DESIGN]
        .iter()
        .filter_map(|r| Some((r.cached?, r.index)))
        .collect();
    assert_eq!(hits, [(1, 2), (3, 4)]);
}

#[test]
fn an_odd_quota_inside_the_design_stops_at_the_same_point() {
    let one = assert_widths_agree("quota", |e| e.quota(Some(5), None));
    assert_eq!(one.outcome.quota, Some(QuotaCause::MaxEvals));
    assert_eq!(one.journal.len(), 5);
}

#[test]
fn injected_faults_fail_the_same_points_and_attempts() {
    let plan = FaultPlan::from_spec("eval:1:panic;eval:3:nan").unwrap();
    let one = assert_widths_agree("faults", |e| e.supervise(supervision(plan.clone())));
    let faulted: Vec<usize> = one
        .journal
        .iter()
        .filter(|r| r.fault.is_some())
        .map(|r| r.index)
        .collect();
    assert_eq!(faulted, [1, 3]);
    assert_eq!(
        one.attempts.len(),
        4,
        "two attempts each: {:?}",
        one.attempts
    );
}

#[test]
fn a_journal_cut_mid_design_resumes_to_the_same_run() {
    let path = tmp("resume-whole.jsonl");
    let m = meta(1);
    let whole = drive(
        Executor::new(m.clone()).journal(JournalWriter::create(&path, &m).unwrap()),
        &path,
    );
    // Header plus the first three observations: mid-pair for two lanes,
    // mid-triple for three.
    let text = fs::read_to_string(&path).unwrap();
    let mut records = 0;
    let cut: Vec<&str> = text
        .lines()
        .take_while(|l| {
            let record = ["eval", "cache_hit", "fault"]
                .iter()
                .any(|e| l.contains(&format!("\"event\":\"{e}\"")));
            records += usize::from(record);
            records <= 3
        })
        .collect();
    assert_eq!(records, 4, "the run has more than three observations");
    for workers in [1, 2, 3] {
        let resumed_path = tmp(&format!("resume-cut-{workers}.jsonl"));
        fs::write(&resumed_path, cut.join("\n") + "\n").unwrap();
        let (replayed, writer) = JournalWriter::reopen(&resumed_path).unwrap();
        assert_eq!(replayed.evals.len(), 3);
        let exec = Executor::new(meta(workers))
            .journal(writer)
            .resume(replayed)
            .unwrap();
        let resumed = drive(exec, &resumed_path);
        assert_eq!(resumed.outcome.replayed, 3);
        assert_same(&resumed, &whole, &format!("resumed on {workers} lanes"));
        let _ = fs::remove_file(&resumed_path);
    }
    let _ = fs::remove_file(&path);
}
