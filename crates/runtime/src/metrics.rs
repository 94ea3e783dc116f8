//! A registry of named monotonic counters and gauges.
//!
//! [`MetricsRegistry`] is the shared vocabulary between the run-local
//! [`crate::telemetry::Telemetry`] aggregates and any
//! long-lived stats surface (the `datamime-serve` admin plane's `stats`
//! command): counter names are plain strings, values are `u64`, and
//! [`snapshot`](MetricsRegistry::snapshot) returns them in sorted name
//! order so two snapshots of identical state render identically.
//!
//! Counters only ever increase ([`add`](MetricsRegistry::add) /
//! [`incr`](MetricsRegistry::incr)); gauges are set to their latest value
//! ([`set_gauge`](MetricsRegistry::set_gauge)). All methods take `&self`
//! — the registry is internally locked, so one `Arc<MetricsRegistry>`
//! can be fed concurrently from many job threads.

use crate::executor::RunMeta;
use crate::supervisor::{FailedAttempt, FaultInfo};
use crate::telemetry::{ProgressSink, Telemetry};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Named monotonic counters and last-value gauges behind one lock; see
/// the module docs.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Maps>,
}

#[derive(Debug, Default, Clone)]
struct Maps {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
}

impl Clone for MetricsRegistry {
    fn clone(&self) -> Self {
        MetricsRegistry {
            inner: Mutex::new(self.lock().clone()),
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// A counter increment never races a structural invariant — the maps
    /// are always internally consistent — so recovering a poisoned lock
    /// is safe and keeps stats readable after an unrelated panic.
    fn lock(&self) -> MutexGuard<'_, Maps> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `delta` to counter `name` (creating it at zero first).
    pub fn add(&self, name: &str, delta: u64) {
        let mut maps = self.lock();
        let slot = maps.counters.entry(name.to_string()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Adds one to counter `name`.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// The current value of counter `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `value` (gauges move both ways).
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.lock().gauges.insert(name.to_string(), value);
    }

    /// The current value of gauge `name` (zero if never set).
    pub fn gauge(&self, name: &str) -> u64 {
        self.lock().gauges.get(name).copied().unwrap_or(0)
    }

    /// Every counter as `(name, value)`, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.lock()
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Every gauge as `(name, value)`, sorted by name.
    pub fn gauge_snapshot(&self) -> Vec<(String, u64)> {
        self.lock()
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Adds every counter of `other` into this registry (gauges are
    /// deliberately not merged — a gauge is an owner's latest value, not
    /// an additive quantity).
    pub fn absorb(&self, other: &MetricsRegistry) {
        let theirs = other.lock().counters.clone();
        let mut maps = self.lock();
        for (name, value) in theirs {
            let slot = maps.counters.entry(name).or_insert(0);
            *slot = slot.saturating_add(value);
        }
    }
}

/// A [`ProgressSink`] that folds run progress into a shared
/// [`MetricsRegistry`] as it happens — the live-counter feed behind the
/// serve daemon's `stats` endpoint. Counter names mirror
/// [`Telemetry`]'s vocabulary (`evals`, `cache_hits`, `faults`,
/// `failed_attempts`, `degradations`, `replayed`); per-stage totals land
/// as `stage_<name>_us` when the run finishes, each run's total counted in
/// whole microseconds so sub-millisecond stages add up. The older
/// `stage_<name>_ms` counters stay beside them for readers that use them;
/// they add each run's whole milliseconds and so drop a short stage.
#[derive(Debug, Clone)]
pub struct MetricsSink {
    metrics: Arc<MetricsRegistry>,
}

impl MetricsSink {
    /// A sink feeding `metrics`.
    pub fn new(metrics: Arc<MetricsRegistry>) -> Self {
        MetricsSink { metrics }
    }
}

impl ProgressSink for MetricsSink {
    fn on_replay(&mut self, count: usize) {
        self.metrics.add("replayed", count as u64);
    }

    fn on_eval(&mut self, _index: usize, _error: f64, _best_error: f64) {
        self.metrics.incr("evals");
    }

    fn on_attempt(&mut self, _attempt: &FailedAttempt) {
        self.metrics.incr("failed_attempts");
    }

    fn on_cache_hit(&mut self, _index: usize, _source: usize) {
        self.metrics.incr("cache_hits");
    }

    fn on_fault(&mut self, _index: usize, _fault: &FaultInfo) {
        self.metrics.incr("faults");
    }

    fn on_degrade(&mut self, _from_k: usize, _to_k: usize) {
        self.metrics.incr("degradations");
    }

    fn on_start(&mut self, _meta: &RunMeta) {
        self.metrics.incr("runs_started");
    }

    fn on_finish(&mut self, _best_error: f64, telemetry: &Telemetry) {
        self.metrics.incr("runs_finished");
        for (stage, total, _count) in telemetry.stages() {
            self.metrics
                .add(&format!("stage_{stage}_us"), total.as_micros() as u64);
            self.metrics
                .add(&format!("stage_{stage}_ms"), total.as_millis() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let m = MetricsRegistry::new();
        m.incr("zebra");
        m.add("apple", 3);
        m.incr("apple");
        assert_eq!(m.get("apple"), 4);
        assert_eq!(m.get("zebra"), 1);
        assert_eq!(m.get("missing"), 0);
        let snap = m.snapshot();
        assert_eq!(
            snap,
            vec![("apple".to_string(), 4), ("zebra".to_string(), 1)]
        );
    }

    #[test]
    fn gauges_move_both_ways_and_stay_out_of_counters() {
        let m = MetricsRegistry::new();
        m.set_gauge("jobs_active", 3);
        m.set_gauge("jobs_active", 1);
        assert_eq!(m.gauge("jobs_active"), 1);
        assert!(m.snapshot().is_empty());
        assert_eq!(m.gauge_snapshot(), vec![("jobs_active".to_string(), 1)]);
    }

    #[test]
    fn absorb_adds_counters_only() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.add("evals", 2);
        b.add("evals", 5);
        b.add("cache_hits", 1);
        b.set_gauge("jobs_active", 9);
        a.absorb(&b);
        assert_eq!(a.get("evals"), 7);
        assert_eq!(a.get("cache_hits"), 1);
        assert_eq!(a.gauge("jobs_active"), 0);
    }

    #[test]
    fn metrics_sink_counts_progress_events() {
        let m = Arc::new(MetricsRegistry::new());
        let mut sink = MetricsSink::new(Arc::clone(&m));
        sink.on_eval(0, 1.0, 1.0);
        sink.on_eval(1, 0.5, 0.5);
        sink.on_cache_hit(2, 0);
        sink.on_replay(3);
        assert_eq!(m.get("evals"), 2);
        assert_eq!(m.get("cache_hits"), 1);
        assert_eq!(m.get("replayed"), 3);
    }

    #[test]
    fn stage_totals_keep_sub_millisecond_runs() {
        use std::time::Duration;
        let m = Arc::new(MetricsRegistry::new());
        let mut sink = MetricsSink::new(Arc::clone(&m));
        for _ in 0..2 {
            let mut telemetry = Telemetry::new();
            telemetry.record("build", Duration::from_micros(600));
            sink.on_finish(0.0, &telemetry);
        }
        assert_eq!(m.get("stage_build_us"), 1_200);
        assert_eq!(m.get("runs_finished"), 2);
    }

    #[test]
    fn clone_is_a_deep_snapshot() {
        let a = MetricsRegistry::new();
        a.incr("evals");
        let b = a.clone();
        a.incr("evals");
        assert_eq!(a.get("evals"), 2);
        assert_eq!(b.get("evals"), 1);
    }
}
