//! End-to-end tests of the executor / journal / telemetry stack using the
//! real optimizers from `datamime-bayesopt`.

mod common;

use common::RunLocal;
use datamime_bayesopt::{BayesOpt, BlackBoxOptimizer, BoConfig, RandomSearch};
use datamime_runtime::{
    replay, CancelToken, EvalRecord, ExecError, Executor, JournalWriter, ProgressSink, RunMeta,
    StageTimes, Telemetry,
};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A deterministic synthetic objective with minimum at 0.3 in every
/// coordinate.
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

/// The deterministic part of a history: stage timings are wall-clock and
/// legitimately vary between identical runs.
fn points(history: &[EvalRecord]) -> Vec<(Vec<f64>, u64)> {
    history
        .iter()
        .map(|r| (r.unit.clone(), r.error.to_bits()))
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("datamime-runtime-{}-{name}", std::process::id()));
    let _ = fs::remove_file(&path);
    path
}

#[test]
fn same_seed_and_batch_is_deterministic() {
    let run = || {
        Executor::new(meta("det", 12, 3, 1))
            .run_local(&mut bayes(42), &eval)
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(points(&a.history), points(&b.history));
    assert_eq!(a.best_unit, b.best_unit);
    assert_eq!(a.best_error.to_bits(), b.best_error.to_bits());
}

#[test]
fn worker_count_does_not_change_results() {
    let run = |workers: usize| {
        Executor::new(meta("workers", 12, 4, workers))
            .run_local(&mut bayes(42), &eval)
            .unwrap()
    };
    let serial = run(1);
    let pooled = run(4);
    assert_eq!(points(&serial.history), points(&pooled.history));
    assert_eq!(serial.best_error.to_bits(), pooled.best_error.to_bits());
}

#[test]
fn batch_of_one_matches_the_plain_sequential_loop() {
    // The executor with batch_k = 1 must be bit-for-bit the legacy
    // suggest → evaluate → observe loop.
    let mut legacy = bayes(7);
    let mut legacy_history = Vec::new();
    for _ in 0..10 {
        let x = legacy.suggest();
        let y = objective(&x);
        legacy.observe(x.clone(), y);
        legacy_history.push((x, y));
    }

    let mut m = meta("batch1", 10, 1, 1);
    m.seed = 7;
    let out = Executor::new(m).run_local(&mut bayes(7), &eval).unwrap();
    let runtime_history: Vec<(Vec<f64>, f64)> = out
        .history
        .iter()
        .map(|r| (r.unit.clone(), r.error))
        .collect();
    assert_eq!(legacy_history, runtime_history);
}

#[test]
fn journal_round_trips_a_completed_run() {
    let path = tmp("roundtrip.jsonl");
    let m = meta("roundtrip", 9, 2, 1);
    let writer = JournalWriter::create(&path, &m).unwrap();
    let out = Executor::new(m.clone())
        .journal(writer)
        .checkpoint_every(3)
        .run_local(&mut bayes(42), &eval)
        .unwrap();

    let r = replay(&path).unwrap();
    assert_eq!(r.meta, m);
    assert!(r.complete);
    assert_eq!(r.dropped_lines, 0);
    assert_eq!(r.evals.len(), 9);
    for (journaled, ran) in r.evals.iter().zip(&out.history) {
        assert_eq!(journaled.index, ran.index);
        assert_eq!(journaled.unit, ran.unit, "units must round-trip exactly");
        assert_eq!(journaled.error.to_bits(), ran.error.to_bits());
        assert!(journaled.stage_ms.iter().any(|(name, _)| name == "profile"));
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn interrupted_run_resumes_without_re_evaluating() {
    let iterations = 14;
    let m = meta("resume", iterations, 3, 1);

    // The uninterrupted reference run.
    let reference = Executor::new(m.clone())
        .run_local(&mut bayes(42), &eval)
        .unwrap();

    // A run that "crashes" after 8 evaluations (simulated by truncating
    // the journal to its header + first 8 eval lines).
    let path = tmp("resume.jsonl");
    let writer = JournalWriter::create(&path, &m).unwrap();
    Executor::new(m.clone())
        .journal(writer)
        .run_local(&mut bayes(42), &eval)
        .unwrap();
    let text = fs::read_to_string(&path).unwrap();
    let kept: Vec<&str> = text
        .lines()
        .filter(|l| !l.contains("\"checkpoint\"") && !l.contains("\"done\""))
        .take(1 + 8)
        .collect();
    fs::write(&path, kept.join("\n") + "\n").unwrap();

    // Resume: journaled points must be re-observed, not re-evaluated.
    let r = replay(&path).unwrap();
    assert!(!r.complete);
    assert_eq!(r.evals.len(), 8);
    let evaluated = AtomicUsize::new(0);
    let counting_eval = |unit: &[f64], stages: &mut StageTimes, cancel: &CancelToken| {
        evaluated.fetch_add(1, Ordering::Relaxed);
        eval(unit, stages, cancel)
    };
    let (r, writer) = JournalWriter::reopen(&path).unwrap();
    let resumed = Executor::new(m.clone())
        .journal(writer)
        .resume(r)
        .unwrap()
        .run_local(&mut bayes(42), &counting_eval)
        .unwrap();

    assert_eq!(evaluated.load(Ordering::Relaxed), iterations - 8);
    assert_eq!(resumed.replayed, 8);
    assert_eq!(resumed.telemetry.replayed(), 8);
    assert_eq!(resumed.telemetry.evaluated(), iterations - 8);
    assert_eq!(resumed.history.len(), iterations);
    assert_eq!(resumed.best_unit, reference.best_unit);
    assert_eq!(
        resumed.best_error.to_bits(),
        reference.best_error.to_bits(),
        "resumed run must reach the same best error"
    );

    // The appended journal now replays as a complete run identical to the
    // reference.
    let full = replay(&path).unwrap();
    assert!(full.complete);
    assert_eq!(full.evals.len(), iterations);
    for (journaled, ran) in full.evals.iter().zip(&reference.history) {
        assert_eq!(journaled.unit, ran.unit);
        assert_eq!(journaled.error.to_bits(), ran.error.to_bits());
    }
    let _ = fs::remove_file(&path);
}

/// Runs a 14-iteration journalled search, cuts the journal back to its
/// header and six `eval` lines, appends `tail` (what a crash left after
/// them), resumes in place to completion, and checks the finished journal
/// replays as the uninterrupted run.
fn resume_in_place_after_tail(name: &str, tail: impl Fn(&str) -> Vec<u8>) {
    let iterations = 14;
    let m = meta(name, iterations, 3, 1);
    let reference = Executor::new(m.clone())
        .run_local(&mut bayes(42), &eval)
        .unwrap();

    let path = tmp(&format!("{name}.jsonl"));
    let writer = JournalWriter::create(&path, &m).unwrap();
    Executor::new(m.clone())
        .journal(writer)
        .run_local(&mut bayes(42), &eval)
        .unwrap();
    let text = fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text
        .lines()
        .filter(|l| !l.contains("\"checkpoint\""))
        .collect();
    let kept = lines[..1 + 6].join("\n") + "\n";
    fs::write(&path, [kept.as_bytes(), &tail(lines[7])].concat()).unwrap();

    let (replayed, writer) = JournalWriter::reopen(&path).unwrap();
    assert_eq!((replayed.evals.len(), replayed.dropped_lines), (6, 1));
    assert_eq!(replayed.valid_len as usize, kept.len());
    assert_eq!(fs::read_to_string(&path).unwrap(), kept, "the tail is cut");
    Executor::new(m)
        .journal(writer)
        .resume(replayed)
        .unwrap()
        .run_local(&mut bayes(42), &eval)
        .unwrap();

    let full = replay(&path).unwrap();
    assert!(
        full.complete,
        "the finished journal must replay as finished"
    );
    assert_eq!((full.evals.len(), full.dropped_lines), (iterations, 0));
    assert_eq!(points(&full.evals), points(&reference.history));
    let _ = fs::remove_file(&path);
}

#[test]
fn resume_in_place_after_a_torn_tail_keeps_the_journal_whole() {
    // The crash tore the seventh eval line in half.
    resume_in_place_after_tail("torn-resume", |line| {
        line.as_bytes()[..line.len() / 2].to_vec()
    });
}

#[test]
fn resume_in_place_after_a_garbage_line_keeps_the_journal_whole() {
    // Newline-terminated but malformed (and not UTF-8): the cut is where
    // replay stopped, not at the last newline.
    resume_in_place_after_tail("garbage-resume", |_| {
        b"{\"event\":\"eval\",\"ind\xff\xfe\n".to_vec()
    });
}

#[test]
fn malformed_trailing_line_is_tolerated() {
    let path = tmp("torn.jsonl");
    let m = meta("torn", 6, 2, 1);
    let writer = JournalWriter::create(&path, &m).unwrap();
    Executor::new(m.clone())
        .journal(writer)
        .run_local(&mut bayes(42), &eval)
        .unwrap();

    // Simulate a crash mid-write: chop the last line in half.
    let text = fs::read_to_string(&path).unwrap();
    let torn = &text[..text.len() - text.lines().last().unwrap().len() / 2 - 1];
    fs::write(&path, torn).unwrap();

    let r = replay(&path).unwrap();
    assert_eq!(r.dropped_lines, 1);
    assert!(!r.complete, "the done event was the torn line");
    assert_eq!(r.evals.len(), 6);
    let _ = fs::remove_file(&path);
}

#[test]
fn journal_without_header_is_rejected() {
    let path = tmp("headerless.jsonl");
    fs::write(&path, "{\"event\":\"eval\",\"index\":0}\n").unwrap();
    let err = replay(&path).unwrap_err();
    assert!(err.to_string().contains("header"), "{err}");
    let _ = fs::remove_file(&path);

    let empty = tmp("empty.jsonl");
    fs::write(&empty, "").unwrap();
    assert!(replay(&empty).is_err());
    let _ = fs::remove_file(&empty);
}

#[test]
fn journal_version_one_is_rejected() {
    // A current header with only its version rewound: everything else
    // about the file is valid, so the version check alone rejects it.
    let path = tmp("v1.jsonl");
    drop(JournalWriter::create(&path, &meta("v1", 4, 1, 1)).unwrap());
    let text = fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"version\":2"), "{text}");
    fs::write(&path, text.replace("\"version\":2", "\"version\":1")).unwrap();
    let err = replay(&path).unwrap_err();
    assert!(
        err.to_string().contains("unsupported journal version"),
        "{err}"
    );
    let _ = fs::remove_file(&path);
}

#[test]
fn resume_refuses_a_mismatched_run() {
    let path = tmp("mismatch.jsonl");
    let m = meta("mismatch", 6, 2, 1);
    let writer = JournalWriter::create(&path, &m).unwrap();
    Executor::new(m.clone())
        .journal(writer)
        .run_local(&mut bayes(42), &eval)
        .unwrap();
    let r = replay(&path).unwrap();

    let mut other = m.clone();
    other.seed = 43;
    let Err(err) = Executor::new(other).resume(r.clone()) else {
        panic!("resume accepted a journal with a different seed");
    };
    assert!(matches!(err, ExecError::ResumeMismatch(_)), "{err}");

    // Changing only the worker count is allowed.
    let mut more_workers = m;
    more_workers.workers = 4;
    assert!(Executor::new(more_workers).resume(r).is_ok());
    let _ = fs::remove_file(&path);
}

#[derive(Default)]
struct SinkLog {
    started: usize,
    replays: Vec<usize>,
    evals: Vec<(usize, f64)>,
    finished: Option<f64>,
}

/// A sink that records into shared state (`ProgressSink` has no `Send`
/// bound; callbacks only ever run on the coordinator thread).
#[derive(Clone, Default)]
struct RecordingSink(std::rc::Rc<std::cell::RefCell<SinkLog>>);

impl ProgressSink for RecordingSink {
    fn on_start(&mut self, _meta: &RunMeta) {
        self.0.borrow_mut().started += 1;
    }
    fn on_replay(&mut self, count: usize) {
        self.0.borrow_mut().replays.push(count);
    }
    fn on_eval(&mut self, index: usize, error: f64, _best: f64) {
        self.0.borrow_mut().evals.push((index, error));
    }
    fn on_finish(&mut self, best_error: f64, _telemetry: &Telemetry) {
        self.0.borrow_mut().finished = Some(best_error);
    }
}

#[test]
fn progress_sink_sees_every_event() {
    let sink = RecordingSink::default();
    let out = Executor::new(meta("sink", 5, 2, 1))
        .sink(Box::new(sink.clone()))
        .run_local(&mut RandomSearch::new(3, 42), &eval)
        .unwrap();
    let log = sink.0.borrow();
    assert_eq!(log.started, 1);
    assert!(log.replays.is_empty());
    assert_eq!(log.evals.len(), 5);
    assert_eq!(log.evals.last().unwrap().0, 4);
    assert_eq!(log.finished, Some(out.best_error));
}

#[test]
fn random_search_runs_through_the_pool() {
    let run = |workers: usize| {
        let mut m = meta("random", 16, 4, workers);
        m.optimizer = "random".to_string();
        Executor::new(m)
            .run_local(&mut RandomSearch::new(3, 9), &eval)
            .unwrap()
    };
    let a = run(1);
    let b = run(3);
    assert_eq!(points(&a.history), points(&b.history));
    assert!(a.best_error <= a.history[0].error);
}

#[test]
fn eval_record_is_plain_data() {
    let rec = EvalRecord {
        index: 0,
        unit: vec![0.5],
        error: 1.0,
        stage_ms: vec![("profile".to_string(), 2.0)],
        fault: None,
        cached: None,
        worker: None,
    };
    assert_eq!(rec.clone(), rec);
}

/// A deterministic optimizer that cycles through a fixed point set, so
/// every point past the first lap is an exact re-suggestion — the memo
/// cache's best case, and the quarantine-release shape `core::search`
/// needs it for.
struct Cycler {
    points: Vec<Vec<f64>>,
    suggested: usize,
    history: Vec<(Vec<f64>, f64)>,
}

impl Cycler {
    fn new() -> Self {
        Cycler {
            points: vec![
                vec![0.1, 0.2, 0.3],
                vec![0.4, 0.5, 0.6],
                vec![0.7, 0.8, 0.9],
                vec![0.25, 0.25, 0.25],
            ],
            suggested: 0,
            history: Vec::new(),
        }
    }
}

impl BlackBoxOptimizer for Cycler {
    fn suggest(&mut self) -> Vec<f64> {
        let p = self.points[self.suggested % self.points.len()].clone();
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

#[test]
fn memo_serves_duplicates_without_reevaluating() {
    let evaluations = AtomicUsize::new(0);
    let counted_eval = |unit: &[f64], stages: &mut StageTimes, cancel: &CancelToken| {
        evaluations.fetch_add(1, Ordering::SeqCst);
        eval(unit, stages, cancel)
    };

    let plain = Executor::new(meta("memo", 12, 1, 1))
        .run_local(&mut Cycler::new(), &counted_eval)
        .unwrap();
    assert_eq!(evaluations.swap(0, Ordering::SeqCst), 12);

    let memoized = Executor::new(meta("memo", 12, 1, 1))
        .memoize_keyed(0xC0FFEE, Box::new(<[f64]>::to_vec))
        .run_local(&mut Cycler::new(), &counted_eval)
        .unwrap();
    // Four distinct points: one real evaluation each, eight cache hits.
    assert_eq!(evaluations.load(Ordering::SeqCst), 4);
    assert_eq!(memoized.telemetry.cache_hits(), 8);
    assert_eq!(memoized.telemetry.evaluated(), 4);

    // Memoization changes cost, never results.
    assert_eq!(points(&plain.history), points(&memoized.history));
    assert_eq!(plain.best_error.to_bits(), memoized.best_error.to_bits());
    for (i, rec) in memoized.history.iter().enumerate() {
        if i < 4 {
            assert_eq!(rec.cached, None);
        } else {
            assert_eq!(rec.cached, Some(i % 4), "record {i}");
        }
    }
}

#[test]
fn memo_hits_match_across_worker_counts() {
    let run = |workers: usize| {
        Executor::new(meta("memo-pool", 12, 4, workers))
            .memoize_keyed(7, Box::new(<[f64]>::to_vec))
            .run_local(&mut Cycler::new(), &eval)
            .unwrap()
    };
    let serial = run(1);
    let pooled = run(4);
    assert_eq!(points(&serial.history), points(&pooled.history));
    assert_eq!(serial.telemetry.cache_hits(), pooled.telemetry.cache_hits());
}

#[test]
fn cache_hits_journal_and_resume_rebuilds_the_memo() {
    // A full memoized run, journaled.
    let path = tmp("memo-journal.jsonl");
    let m = meta("memo-journal", 12, 1, 1);
    let writer = JournalWriter::create(&path, &m).unwrap();
    let full = Executor::new(m.clone())
        .memoize_keyed(99, Box::new(<[f64]>::to_vec))
        .journal(writer)
        .run_local(&mut Cycler::new(), &eval)
        .unwrap();

    // The journal replays with provenance intact.
    let r = replay(&path).unwrap();
    assert_eq!(r.evals.len(), 12);
    for (i, rec) in r.evals.iter().enumerate() {
        let expect = if i < 4 { None } else { Some(i % 4) };
        assert_eq!(rec.cached, expect, "journaled record {i}");
        assert_eq!(rec.error.to_bits(), full.history[i].error.to_bits());
    }

    // Simulate a crash after 6 observations (4 evals + 2 cache hits):
    // keep the header plus the first 6 event lines.
    let text = fs::read_to_string(&path).unwrap();
    let truncated: Vec<&str> = text.lines().take(7).collect();
    fs::write(&path, truncated.join("\n")).unwrap();

    // Resume onto a different path: it starts as a copy and is reopened.
    let resumed_path = tmp("memo-journal-resumed.jsonl");
    fs::copy(&path, &resumed_path).unwrap();
    let (replayed, writer) = JournalWriter::reopen(&resumed_path).unwrap();
    let evaluations = AtomicUsize::new(0);
    let resumed = Executor::new(m)
        .memoize_keyed(99, Box::new(<[f64]>::to_vec))
        .journal(writer)
        .resume(replayed)
        .unwrap()
        .run_local(
            &mut Cycler::new(),
            &|unit: &[f64], stages: &mut StageTimes, cancel: &CancelToken| {
                evaluations.fetch_add(1, Ordering::SeqCst);
                eval(unit, stages, cancel)
            },
        )
        .unwrap();

    // The memo was rebuilt from the replayed prefix, so the six fresh
    // observations are all cache hits: nothing re-evaluates.
    assert_eq!(resumed.replayed, 6);
    assert_eq!(evaluations.load(Ordering::SeqCst), 0);
    assert_eq!(resumed.telemetry.cache_hits(), 6);
    assert_eq!(points(&full.history), points(&resumed.history));
    // The copy's last line had lost its newline; the reopened journal is
    // still whole.
    let whole = replay(&resumed_path).unwrap();
    assert!(whole.complete);
    assert_eq!((whole.evals.len(), whole.dropped_lines), (12, 0));

    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&resumed_path);
}
