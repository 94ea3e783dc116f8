//! Run telemetry: per-stage wall-clock timers, evaluation counters, and a
//! pluggable progress sink.
//!
//! The executor times its own `suggest` stage; evaluation callbacks
//! record their internal stages (the Datamime search records
//! `instantiate` / `profile` / `error`) into a per-evaluation
//! [`StageTimes`], which the executor folds into the run-wide
//! [`Telemetry`].

use crate::executor::RunMeta;
use crate::metrics::MetricsRegistry;
use crate::supervisor::{FailedAttempt, FailureKind, FaultInfo};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Wall-clock time of each named stage of one evaluation, in the order
/// the stages were recorded.
#[derive(Debug, Clone, Default)]
pub struct StageTimes {
    entries: Vec<(&'static str, Duration)>,
}

impl StageTimes {
    /// An empty record.
    pub fn new() -> Self {
        StageTimes::default()
    }

    /// Records that `stage` took `elapsed` (accumulates on repeats).
    pub fn record(&mut self, stage: &'static str, elapsed: Duration) {
        if let Some((_, total)) = self.entries.iter_mut().find(|(name, _)| *name == stage) {
            *total += elapsed;
        } else {
            self.entries.push((stage, elapsed));
        }
    }

    /// Runs `f`, recording its wall-clock time under `stage`.
    pub fn time<T>(&mut self, stage: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.record(stage, started.elapsed());
        out
    }

    /// The recorded `(stage, duration)` pairs.
    pub fn entries(&self) -> &[(&'static str, Duration)] {
        &self.entries
    }

    /// The recorded stages as `(name, milliseconds)` pairs (the journal's
    /// `stage_ms` representation).
    pub fn to_millis(&self) -> Vec<(String, f64)> {
        self.entries
            .iter()
            .map(|(name, d)| ((*name).to_string(), d.as_secs_f64() * 1e3))
            .collect()
    }
}

/// Aggregated counters and timers for a whole run.
///
/// The counters are backed by a [`MetricsRegistry`], so every count has
/// a stable string name (`evaluated`, `replayed`, `cache_hits`,
/// `failed_attempts`, `quarantine_hits`, `degradations`, and one
/// `fault_<tag>` per [`FailureKind`]) and the whole set can be folded
/// into a long-lived stats registry via
/// [`MetricsRegistry::absorb`]. The typed accessors below are unchanged.
#[derive(Debug, Clone)]
pub struct Telemetry {
    stages: Vec<(String, Duration, u64)>,
    counters: MetricsRegistry,
    started: Instant,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

/// Registry prefix for per-failure-kind counters.
const FAULT_PREFIX: &str = "fault_";

impl Telemetry {
    /// Starts the run-wide wall clock.
    pub fn new() -> Self {
        Telemetry {
            stages: Vec::new(),
            counters: MetricsRegistry::new(),
            started: Instant::now(),
        }
    }

    /// Adds `elapsed` to `stage`'s total.
    pub fn record(&mut self, stage: &str, elapsed: Duration) {
        if let Some((_, total, count)) = self.stages.iter_mut().find(|(name, _, _)| name == stage) {
            *total += elapsed;
            *count += 1;
        } else {
            self.stages.push((stage.to_string(), elapsed, 1));
        }
    }

    /// Folds one evaluation's stage times into the run totals.
    pub fn absorb(&mut self, stages: &StageTimes) {
        for (name, elapsed) in stages.entries() {
            self.record(name, *elapsed);
        }
    }

    /// Counts one freshly evaluated point.
    pub fn count_evaluated(&mut self) {
        self.counters.incr("evaluated");
    }

    /// Counts one point re-observed from a journal.
    pub fn count_replayed(&mut self) {
        self.counters.incr("replayed");
    }

    /// Points actually evaluated (excluding journal replays).
    pub fn evaluated(&self) -> usize {
        self.counters.get("evaluated") as usize
    }

    /// Points re-observed from a journal without re-evaluation.
    pub fn replayed(&self) -> usize {
        self.counters.get("replayed") as usize
    }

    /// Counts one point observed from the evaluation memo cache.
    pub fn count_cache_hit(&mut self) {
        self.counters.incr("cache_hits");
    }

    /// Points served from the evaluation memo cache without dispatching
    /// an evaluation.
    pub fn cache_hits(&self) -> usize {
        self.counters.get("cache_hits") as usize
    }

    /// Counts one penalized evaluation of failure kind `kind` (quarantine
    /// hits are counted separately via
    /// [`count_quarantine_hit`](Self::count_quarantine_hit)).
    pub fn count_fault(&mut self, kind: FailureKind) {
        self.counters.incr(&format!("{FAULT_PREFIX}{}", kind.tag()));
    }

    /// Counts one failed evaluation attempt (retries included).
    pub fn count_failed_attempt(&mut self) {
        self.counters.incr("failed_attempts");
    }

    /// Counts one point penalized without evaluation because it matched
    /// the quarantine set.
    pub fn count_quarantine_hit(&mut self) {
        self.counters.incr("quarantine_hits");
    }

    /// Counts one graceful batch degradation.
    pub fn count_degradation(&mut self) {
        self.counters.incr("degradations");
    }

    /// Total penalized evaluations (excluding quarantine hits).
    pub fn faults_total(&self) -> usize {
        self.counters
            .snapshot()
            .iter()
            .filter(|(name, _)| name.starts_with(FAULT_PREFIX))
            .map(|(_, n)| *n as usize)
            .sum()
    }

    /// Penalized evaluations of one failure kind.
    pub fn faults_of(&self, kind: FailureKind) -> usize {
        self.counters.get(&format!("{FAULT_PREFIX}{}", kind.tag())) as usize
    }

    /// Failed evaluation attempts, retries included.
    pub fn failed_attempts(&self) -> usize {
        self.counters.get("failed_attempts") as usize
    }

    /// Points penalized without evaluation by the quarantine set.
    pub fn quarantine_hits(&self) -> usize {
        self.counters.get("quarantine_hits") as usize
    }

    /// Graceful batch degradations.
    pub fn degradations(&self) -> usize {
        self.counters.get("degradations") as usize
    }

    /// The run's counters as a registry, for folding into a long-lived
    /// stats surface (`registry.absorb(telemetry.counters())`).
    pub fn counters(&self) -> &MetricsRegistry {
        &self.counters
    }

    /// The per-stage `(name, total, count)` timer rows, in the order the
    /// stages were first recorded.
    pub fn stages(&self) -> &[(String, Duration, u64)] {
        &self.stages
    }

    /// Total time recorded for `stage`, if any evaluation recorded it.
    pub fn stage_total(&self, stage: &str) -> Option<Duration> {
        self.stages
            .iter()
            .find(|(name, _, _)| name == stage)
            .map(|(_, total, _)| *total)
    }

    /// Wall-clock time since the run started.
    pub fn wall(&self) -> Duration {
        self.started.elapsed()
    }

    /// A compact human-readable summary (one line per stage).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "evaluated {} point(s) ({} replayed from journal, {} memo cache hit(s)) in {:.2?}",
            self.evaluated(),
            self.replayed(),
            self.cache_hits(),
            self.wall()
        );
        for (name, total, count) in &self.stages {
            let mean = *total / (*count).max(1) as u32;
            let _ = writeln!(
                out,
                "  {name:<12} total {total:>10.2?}  mean {mean:>9.2?}  x{count}"
            );
        }
        if self.faults_total()
            + self.failed_attempts()
            + self.quarantine_hits()
            + self.degradations()
            > 0
        {
            let by_kind: Vec<String> = self
                .counters
                .snapshot()
                .iter()
                .filter(|(name, _)| name.starts_with(FAULT_PREFIX))
                .map(|(name, n)| format!("{} x{n}", &name[FAULT_PREFIX.len()..]))
                .collect();
            let _ = writeln!(
                out,
                "  faults: {} penalized ({}), {} failed attempt(s), \
                 {} quarantine hit(s), {} degradation(s)",
                self.faults_total(),
                if by_kind.is_empty() {
                    "none".to_string()
                } else {
                    by_kind.join(", ")
                },
                self.failed_attempts(),
                self.quarantine_hits(),
                self.degradations()
            );
        }
        out
    }
}

/// Observer of run progress; implement to stream progress wherever you
/// need it (the CLI uses [`StderrSink`], tests a recording sink). An
/// executor takes any number of them.
pub trait ProgressSink {
    /// The run is starting.
    fn on_start(&mut self, meta: &RunMeta) {
        let _ = meta;
    }

    /// `count` journaled points were re-observed instead of re-evaluated.
    fn on_replay(&mut self, count: usize) {
        let _ = count;
    }

    /// Point `index` was evaluated to `error`; `best_error` is the
    /// incumbent after this observation.
    fn on_eval(&mut self, index: usize, error: f64, best_error: f64) {
        let _ = (index, error, best_error);
    }

    /// One evaluation attempt failed (retries may still follow).
    fn on_attempt(&mut self, attempt: &FailedAttempt) {
        let _ = attempt;
    }

    /// Point `index` was observed from the evaluation memo cache; its
    /// value came from evaluation `source`.
    fn on_cache_hit(&mut self, index: usize, source: usize) {
        let _ = (index, source);
    }

    /// Point `index` was penalized: every attempt failed, or the point
    /// matched the quarantine set.
    fn on_fault(&mut self, index: usize, fault: &FaultInfo) {
        let _ = (index, fault);
    }

    /// The executor shrank its evaluation batch from `from_k` to `to_k`
    /// after repeated consecutive failures (graceful degradation).
    fn on_degrade(&mut self, from_k: usize, to_k: usize) {
        let _ = (from_k, to_k);
    }

    /// The run finished.
    fn on_finish(&mut self, best_error: f64, telemetry: &Telemetry) {
        let _ = (best_error, telemetry);
    }
}

/// A cloneable, thread-safe handle around any [`ProgressSink`], so one
/// sink can be installed from outside an executor-owning API (the serve
/// daemon hands one to each job's search) while the caller keeps a
/// reference of its own.
#[derive(Clone)]
pub struct SharedSink(Arc<Mutex<Box<dyn ProgressSink + Send>>>);

impl SharedSink {
    /// Wraps `sink` for shared use.
    pub fn new(sink: impl ProgressSink + Send + 'static) -> Self {
        SharedSink(Arc::new(Mutex::new(Box::new(sink))))
    }

    /// Progress events never leave a sink half-updated in a way later
    /// events cannot tolerate, so a poisoned lock (a panic inside some
    /// other event) is recovered rather than propagated.
    fn lock(&self) -> MutexGuard<'_, Box<dyn ProgressSink + Send>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl std::fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SharedSink(..)")
    }
}

impl ProgressSink for SharedSink {
    fn on_start(&mut self, meta: &RunMeta) {
        self.lock().on_start(meta);
    }

    fn on_replay(&mut self, count: usize) {
        self.lock().on_replay(count);
    }

    fn on_eval(&mut self, index: usize, error: f64, best_error: f64) {
        self.lock().on_eval(index, error, best_error);
    }

    fn on_attempt(&mut self, attempt: &FailedAttempt) {
        self.lock().on_attempt(attempt);
    }

    fn on_cache_hit(&mut self, index: usize, source: usize) {
        self.lock().on_cache_hit(index, source);
    }

    fn on_fault(&mut self, index: usize, fault: &FaultInfo) {
        self.lock().on_fault(index, fault);
    }

    fn on_degrade(&mut self, from_k: usize, to_k: usize) {
        self.lock().on_degrade(from_k, to_k);
    }

    fn on_finish(&mut self, best_error: f64, telemetry: &Telemetry) {
        self.lock().on_finish(best_error, telemetry);
    }
}

/// Reports progress on stderr, one line every `every` evaluations.
#[derive(Debug, Clone)]
pub struct StderrSink {
    every: usize,
    iterations: usize,
}

impl StderrSink {
    /// Reports every `every` evaluations (clamped to at least 1).
    pub fn new(every: usize) -> Self {
        StderrSink {
            every: every.max(1),
            iterations: 0,
        }
    }
}

impl Default for StderrSink {
    fn default() -> Self {
        StderrSink::new(10)
    }
}

impl ProgressSink for StderrSink {
    fn on_start(&mut self, meta: &RunMeta) {
        self.iterations = meta.iterations;
        eprintln!(
            "run {}: {} iterations, batch {}, {} worker(s), seed {:#x}, {} dims",
            meta.label, meta.iterations, meta.batch_k, meta.workers, meta.seed, meta.dims
        );
    }

    fn on_replay(&mut self, count: usize) {
        eprintln!("resumed from journal: {count} point(s) re-observed without re-evaluation");
    }

    fn on_eval(&mut self, index: usize, error: f64, best_error: f64) {
        if (index + 1).is_multiple_of(self.every) || index + 1 == self.iterations {
            eprintln!(
                "[{:>4}/{}] error {error:.4}  best {best_error:.4}",
                index + 1,
                self.iterations
            );
        }
    }

    fn on_attempt(&mut self, attempt: &FailedAttempt) {
        eprintln!(
            "warning: evaluation {} attempt {} failed ({}): {}",
            attempt.index, attempt.attempt, attempt.kind, attempt.detail
        );
    }

    fn on_fault(&mut self, index: usize, fault: &FaultInfo) {
        eprintln!(
            "warning: evaluation {index} penalized ({}, {} retr{}): {}",
            fault.kind,
            fault.retries,
            if fault.retries == 1 { "y" } else { "ies" },
            fault.detail
        );
    }

    fn on_degrade(&mut self, from_k: usize, to_k: usize) {
        eprintln!("warning: repeated failures — shrinking evaluation batch {from_k} -> {to_k}");
    }

    fn on_finish(&mut self, best_error: f64, telemetry: &Telemetry) {
        eprint!("best error {best_error:.4}; {}", telemetry.summary());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_times_accumulate_per_stage() {
        let mut st = StageTimes::new();
        st.record("profile", Duration::from_millis(10));
        st.record("profile", Duration::from_millis(5));
        st.record("error", Duration::from_millis(1));
        assert_eq!(st.entries().len(), 2);
        assert_eq!(st.entries()[0].1, Duration::from_millis(15));
        let ms = st.to_millis();
        assert_eq!(ms[0].0, "profile");
        assert!((ms[0].1 - 15.0).abs() < 1e-9);
    }

    #[test]
    fn telemetry_aggregates_counts_and_totals() {
        let mut t = Telemetry::new();
        let mut st = StageTimes::new();
        st.record("profile", Duration::from_millis(2));
        t.absorb(&st);
        t.absorb(&st);
        t.record("suggest", Duration::from_millis(7));
        t.count_evaluated();
        t.count_replayed();
        assert_eq!(t.stage_total("profile"), Some(Duration::from_millis(4)));
        assert_eq!(t.stage_total("suggest"), Some(Duration::from_millis(7)));
        assert_eq!(t.stage_total("nope"), None);
        assert_eq!((t.evaluated(), t.replayed()), (1, 1));
        let s = t.summary();
        assert!(s.contains("profile") && s.contains("suggest"), "{s}");
    }

    #[test]
    fn time_wraps_and_records() {
        let mut st = StageTimes::new();
        let v = st.time("compute", || 21 * 2);
        assert_eq!(v, 42);
        assert_eq!(st.entries().len(), 1);
        assert_eq!(st.entries()[0].0, "compute");
    }
}
