//! The batched search executor.
//!
//! [`Executor`] drains batch-`k` suggestions from any
//! [`BlackBoxOptimizer`], hands each batch to a [`Backend`] (inline, a
//! thread pool, or worker processes), feeds results back to the optimizer
//! in **batch order** (so a run's outcome is a deterministic function of
//! `(seed, batch_k)` — never of scheduling), journals every evaluation,
//! and aggregates telemetry.
//!
//! With `batch_k = 1` the executor is exactly the paper's sequential
//! suggest → evaluate → observe loop, which is how
//! `datamime::search::search()` runs on top of it without changing any
//! result. Given more than one worker, such a run still fills the pool
//! wherever the optimizer's next suggestions cannot depend on any
//! observation (the Bayesian optimizer's initial design): those points
//! are drawn and evaluated together, and observed in the same order
//! with the same values, so the run stays the sequential one.
//!
//! # Fault tolerance
//!
//! Every run is supervised, under [`SupervisorConfig::default`] unless
//! [`supervise`](Executor::supervise) replaces it: evaluations that
//! panic, stall past their deadline, or return a non-finite objective
//! are retried with deterministic backoff and finally *penalized* (a
//! large finite objective is observed and a `fault` record journaled)
//! instead of killing the run — or, under `FailPolicy::Abort`, re-raised.
//! Because all fault bookkeeping — quarantine of repeatedly-failing
//! points, consecutive-failure counting and batch degradation — happens
//! in the engine in **observation order**, a faulty run remains
//! bit-for-bit deterministic across worker counts, and a resumed run
//! (whose replayed fault records drive the same state machine) continues
//! exactly where it would have gone.

use crate::backend::Backend;
use crate::journal::{JournalError, JournalWriter, Replay};
use crate::memo::{MemoCache, MemoEntry};
use crate::supervisor::{FailedAttempt, FailureKind, FaultInfo, Supervisor, SupervisorConfig};
use crate::telemetry::{ProgressSink, Telemetry};
use datamime_bayesopt::BlackBoxOptimizer;
use std::collections::BTreeMap;
use std::time::Instant;

/// Identity and shape of one run; doubles as the journal header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Human-readable run label (the Datamime search uses the generator
    /// name).
    pub label: String,
    /// Optimizer seed.
    pub seed: u64,
    /// Search-space dimensionality.
    pub dims: usize,
    /// Total number of points to evaluate.
    pub iterations: usize,
    /// Suggestions drawn per optimizer batch.
    pub batch_k: usize,
    /// Worker threads (or processes) evaluating a batch; never affects
    /// results. With `batch_k == 1` and more than one worker, a batch
    /// grows to as many observation-free suggestions as there are
    /// workers (see [`Executor::run`]).
    pub workers: usize,
    /// Optimizer family tag (e.g. `"bayesian"`, `"random"`), used to
    /// refuse resuming a journal under a different optimizer.
    pub optimizer: String,
}

/// One evaluated point.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRecord {
    /// Zero-based evaluation index (observation order).
    pub index: usize,
    /// Unit-hypercube parameters.
    pub unit: Vec<f64>,
    /// Objective value (the supervisor's penalty when `fault` is set).
    pub error: f64,
    /// Per-stage wall-clock milliseconds (empty for replayed points whose
    /// journal carried none, and for penalized faults).
    pub stage_ms: Vec<(String, f64)>,
    /// The failure behind a penalized observation, if any.
    pub fault: Option<FaultInfo>,
    /// When this observation was served from the evaluation memo cache,
    /// the index of the evaluation that originally produced the value.
    pub cached: Option<usize>,
    /// Worker-process id that evaluated the point (out-of-process backend
    /// only; for a cache hit, the worker that ran the *source*
    /// evaluation). Diagnostic metadata: which worker serviced a point
    /// depends on completion timing, so this field is deliberately
    /// excluded from determinism comparisons (see
    /// [`semantic_eq`](EvalRecord::semantic_eq)).
    pub worker: Option<u64>,
}

impl EvalRecord {
    /// Whether two records describe the same observation — every field
    /// except the scheduling-dependent `worker` metadata. This is the
    /// equality the determinism guarantees are stated in: a proc-backend
    /// run is `semantic_eq` to a thread-backend run, bit for bit, even
    /// though worker ids differ.
    pub fn semantic_eq(&self, other: &EvalRecord) -> bool {
        self.index == other.index
            && self.unit.len() == other.unit.len()
            && self
                .unit
                .iter()
                .zip(&other.unit)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.error.to_bits() == other.error.to_bits()
            && self.fault == other.fault
            && self.cached == other.cached
    }
}

/// The outcome of an executor run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Best (lowest-error) unit parameters found.
    pub best_unit: Vec<f64>,
    /// The best error.
    pub best_error: f64,
    /// Every observation, in order (replayed ones included).
    pub history: Vec<EvalRecord>,
    /// Aggregated timers and counters.
    pub telemetry: Telemetry,
    /// How many leading points came from a journal instead of evaluation.
    pub replayed: usize,
    /// Set when a per-run quota stopped the run before `iterations`
    /// observations: the outcome is the best-so-far, not the full search.
    pub quota: Option<QuotaCause>,
}

/// Which quota ended a run early (see [`Executor::quota`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaCause {
    /// The observation-count budget was reached.
    MaxEvals,
    /// The wall-clock budget elapsed.
    WallClock,
}

impl QuotaCause {
    /// A short stable tag (`max_evals` / `wall_clock_s`), matching the
    /// job-spec keys the serve daemon accepts.
    pub fn as_str(self) -> &'static str {
        match self {
            QuotaCause::MaxEvals => "max_evals",
            QuotaCause::WallClock => "wall_clock_s",
        }
    }
}

/// An executor failure.
#[derive(Debug)]
pub enum ExecError {
    /// Reading or writing the journal failed.
    Journal(JournalError),
    /// The journal being resumed does not match this run's configuration.
    ResumeMismatch(String),
    /// The evaluation backend failed in a way that is not attributable to
    /// any single point (broker setup, worker handshake rejection,
    /// restart budget exhausted while respawning).
    Backend(String),
    /// The run's [`BatchGate`] refused a new batch: the host is draining
    /// for shutdown or the job was cancelled. Every observation made so
    /// far is journaled, so a `Shutdown` stop is resumable in place.
    Stopped(GateClosed),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Journal(e) => write!(f, "{e}"),
            ExecError::ResumeMismatch(why) => write!(f, "cannot resume: {why}"),
            ExecError::Backend(why) => write!(f, "evaluation backend failed: {why}"),
            ExecError::Stopped(GateClosed::Shutdown) => {
                write!(f, "run stopped at a batch boundary: host shutting down")
            }
            ExecError::Stopped(GateClosed::Cancelled) => {
                write!(f, "run stopped at a batch boundary: cancelled")
            }
        }
    }
}

/// Why a [`BatchGate`] refused entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateClosed {
    /// The host is draining: in-flight batches finish, no new batch
    /// starts, and the run can be resumed from its journal later.
    Shutdown,
    /// This run specifically was cancelled; it will not be resumed.
    Cancelled,
}

/// Admission control over batch dispatch — the seam a multi-tenant host
/// (the `datamime-serve` scheduler) uses to interleave many runs over
/// shared evaluation capacity and to stop a run at a safe point.
///
/// The executor calls [`enter`](BatchGate::enter) immediately before
/// dispatching each batch of fresh evaluations and
/// [`leave`](BatchGate::leave) when the batch's verdicts are back.
/// Blocking in `enter` delays the batch (that is the fairness mechanism);
/// returning `Err` stops the run with [`ExecError::Stopped`]. Because the
/// gate only ever *delays or stops* dispatch — it cannot reorder
/// observations or alter values — a gated run that completes is
/// bit-identical to the same run ungated.
///
/// Batches served entirely from the replay prefix or the memo cache skip
/// the gate: they consume no evaluation capacity.
pub trait BatchGate: Send + Sync {
    /// Requests permission to dispatch one batch; may block for fairness.
    ///
    /// # Errors
    ///
    /// [`GateClosed`] stops the run at this batch boundary.
    fn enter(&self) -> Result<(), GateClosed>;

    /// Releases the permission taken by the last successful
    /// [`enter`](BatchGate::enter).
    fn leave(&self) {}
}

/// A cloneable, `Debug`-printable handle around a [`BatchGate`], so gate
/// installation can ride in plain-old-data options structs.
#[derive(Clone)]
pub struct GateHandle(std::sync::Arc<dyn BatchGate>);

impl GateHandle {
    /// Wraps `gate` for installation via [`Executor::gate`].
    pub fn new(gate: std::sync::Arc<dyn BatchGate>) -> Self {
        GateHandle(gate)
    }

    /// The underlying gate.
    pub fn arc(&self) -> std::sync::Arc<dyn BatchGate> {
        std::sync::Arc::clone(&self.0)
    }
}

impl std::fmt::Debug for GateHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("GateHandle(..)")
    }
}

impl std::error::Error for ExecError {}

impl From<JournalError> for ExecError {
    fn from(e: JournalError) -> Self {
        ExecError::Journal(e)
    }
}

/// Pure projection from a unit point to the memo-cache key it is cached
/// under (see [`Executor::memoize_keyed`]); `|unit| unit.to_vec()` keys
/// on the raw point.
pub type MemoKeyFn = Box<dyn Fn(&[f64]) -> Vec<f64>>;

/// How one batch position gets its record.
enum SlotPlan {
    /// Re-observed from the resumed journal.
    Replayed,
    /// Synthesized penalty: quarantine hit, or a fault whose retries were
    /// journaled before a mid-retry kill.
    Synth(FaultInfo),
    /// Served from the evaluation memo cache: the memoized error and the
    /// index of the evaluation that produced it.
    Memo(MemoEntry),
    /// Dispatched for real evaluation; holds the job-slice position.
    Fresh(usize),
}

/// Builder-style run harness; see the module docs.
pub struct Executor {
    meta: RunMeta,
    checkpoint_every: usize,
    journal: Option<JournalWriter>,
    resume: Option<Replay>,
    /// Progress observers; every event reaches each in attachment order.
    sinks: Vec<Box<dyn ProgressSink>>,
    supervision: SupervisorConfig,
    /// The memo cache and the projection of a unit point onto its key
    /// space (e.g. the dataset generator's quantized parameter values, so
    /// unit points that instantiate identical datasets share one cache
    /// entry). The projection is only ever called on the engine thread.
    memo: Option<(MemoCache, MemoKeyFn)>,
    gate: Option<std::sync::Arc<dyn BatchGate>>,
    quota_evals: Option<usize>,
    quota_wall: Option<std::time::Duration>,
}

impl Executor {
    /// A run with no journal, no progress reporting, and the default
    /// supervision ([`SupervisorConfig::default`]).
    ///
    /// # Panics
    ///
    /// Panics if `meta.iterations == 0`, `meta.batch_k == 0`, or
    /// `meta.workers == 0`.
    pub fn new(meta: RunMeta) -> Self {
        assert!(meta.iterations > 0, "need at least one iteration");
        assert!(meta.batch_k > 0, "batch must be positive");
        assert!(meta.workers > 0, "need at least one worker");
        Executor {
            meta,
            checkpoint_every: 25,
            journal: None,
            resume: None,
            sinks: Vec::new(),
            supervision: SupervisorConfig::default(),
            memo: None,
            gate: None,
            quota_evals: None,
            quota_wall: None,
        }
    }

    /// The run's metadata.
    pub fn meta(&self) -> &RunMeta {
        &self.meta
    }

    /// Journals every fresh event to `writer`. A run that also resumes
    /// takes both from one [`JournalWriter::reopen`]: the replayed prefix
    /// is already in the file and only what follows it is written.
    #[must_use]
    pub fn journal(mut self, writer: JournalWriter) -> Self {
        self.journal = Some(writer);
        self
    }

    /// Emits best-so-far checkpoints every `every` fresh evaluations
    /// (0 disables them).
    #[must_use]
    pub fn checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Streams progress to `sink` as well as to those attached before it.
    #[must_use]
    pub fn sink(mut self, sink: Box<dyn ProgressSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Gates every batch dispatch through `gate` (fair scheduling and
    /// graceful stop; see [`BatchGate`]).
    #[must_use]
    pub fn gate(mut self, gate: std::sync::Arc<dyn BatchGate>) -> Self {
        self.gate = Some(gate);
        self
    }

    /// Caps the run: stop gracefully — best-so-far outcome, clean
    /// journal, [`RunOutcome::quota`] set — once `max_evals` observations
    /// exist or `wall_clock` has elapsed. Both are checked only at batch
    /// boundaries, so a capped run never tears a batch.
    ///
    /// `max_evals` counts *observations* (fresh evaluations, memo-cache
    /// hits, and journal-replayed points alike), which is what makes a
    /// capped run deterministic across crash-resume: the replayed prefix
    /// re-counts exactly as the live run counted it, and the quota fires
    /// at the identical boundary with the identical best-so-far. The
    /// wall clock, by contrast, restarts on resume — it bounds *this
    /// process's* effort and is deliberately not part of any determinism
    /// contract.
    #[must_use]
    pub fn quota(
        mut self,
        max_evals: Option<usize>,
        wall_clock: Option<std::time::Duration>,
    ) -> Self {
        self.quota_evals = max_evals;
        self.quota_wall = wall_clock;
        self
    }

    /// Supervises the run under `cfg` instead of the default: the engine
    /// quarantines, degrades and penalizes on fault verdicts, and
    /// [`supervisor`](Self::supervisor) hands a local backend the
    /// matching [`Supervisor`]; see the module docs.
    #[must_use]
    pub fn supervise(mut self, cfg: SupervisorConfig) -> Self {
        self.supervision = cfg;
        self
    }

    /// Memoizes successful evaluations in a [`MemoCache`] bound to
    /// `context` (a [`crate::memo::fingerprint`] of whatever fixes the
    /// objective beyond the unit point — machine configuration and seed
    /// for the Datamime search) and keyed on `key(unit)`. The Datamime
    /// search passes the generator's denormalization as `key`: parameter
    /// quantization (integer rounding, log scales) maps many unit points
    /// onto one dataset, and all of them share a single evaluation. When
    /// the optimizer re-suggests a point whose key is already cached, the
    /// executor observes the memoized error without dispatching an
    /// evaluation and journals a `cache_hit` event carrying the source
    /// index, so a resumed run replays the hit bit-identically.
    ///
    /// Because every evaluation is a pure function of `(unit, context)`,
    /// memoization never changes an observed value — only how fast it
    /// arrives — so the run's outcome stays bit-for-bit identical with
    /// the cache on or off, across any worker count. Penalized (faulted)
    /// points are deliberately never memoized: they stay in the
    /// quarantine machinery.
    ///
    /// On resume the cache is rebuilt from the replayed prefix before any
    /// fresh evaluation runs, so hits keep working across restarts.
    ///
    /// `key` must be pure — called only on the engine thread, in
    /// observation order.
    #[must_use]
    pub fn memoize_keyed(mut self, context: u64, key: MemoKeyFn) -> Self {
        self.memo = Some((MemoCache::new(context), key));
        self
    }

    /// The supervisor a local backend evaluates this run's points under
    /// (see [`with_local_backend`](crate::with_local_backend)): built
    /// from the supervision config and seeded with `meta.seed`.
    pub fn supervisor(&self) -> Supervisor {
        Supervisor::new(self.supervision.clone(), self.meta.seed)
    }

    /// Resumes from a replayed journal: journaled points are re-suggested
    /// from the optimizer (which, given the same seed, regenerates them
    /// bit-for-bit) and their journaled errors re-observed, so profiling
    /// never re-runs for them; evaluation picks up at the first
    /// un-journaled point. Journaled `fault` records re-observe their
    /// penalty (and re-drive quarantine/degradation) rather than
    /// re-running the failed evaluation, and a point whose journal tail
    /// holds only failed `attempt` records — a mid-retry kill — is
    /// penalized directly instead of being retried.
    ///
    /// # Errors
    ///
    /// Fails if the journal's header disagrees with this run's `RunMeta`
    /// on anything that shapes the search (label, seed, dims, iterations,
    /// batch_k, optimizer — `workers` may differ freely).
    pub fn resume(mut self, replay: Replay) -> Result<Self, ExecError> {
        let (h, m) = (&replay.meta, &self.meta);
        let mismatch =
            |what: &str, journal: &dyn std::fmt::Display, run: &dyn std::fmt::Display| {
                Err(ExecError::ResumeMismatch(format!(
                    "journal {what} is {journal} but this run uses {run}"
                )))
            };
        if h.label != m.label {
            return mismatch("label", &h.label, &m.label);
        }
        if h.seed != m.seed {
            return mismatch("seed", &h.seed, &m.seed);
        }
        if h.dims != m.dims {
            return mismatch("dims", &h.dims, &m.dims);
        }
        if h.iterations != m.iterations {
            return mismatch("iterations", &h.iterations, &m.iterations);
        }
        if h.batch_k != m.batch_k {
            return mismatch("batch_k", &h.batch_k, &m.batch_k);
        }
        if h.optimizer != m.optimizer {
            return mismatch("optimizer", &h.optimizer, &m.optimizer);
        }
        self.resume = Some(replay);
        Ok(self)
    }

    /// Runs the search to completion, evaluating every fresh batch on
    /// `backend` — [`with_local_backend`](crate::with_local_backend) for
    /// in-process evaluation, the `datamime-dist` broker for worker
    /// processes. Results are observed in batch order regardless of how
    /// the backend schedules a batch, so the outcome is a function of
    /// `(seed, batch_k)` alone — injected faults included.
    ///
    /// The supervision config shapes the engine-side fault machinery
    /// (quarantine, degradation, penalties for journal-pending points);
    /// per-point retries, deadlines and penalty verdicts are the
    /// backend's job (the local backends take [`Executor::supervisor`]
    /// for exactly that).
    ///
    /// All fault bookkeeping lives here, updated in observation order, so
    /// quarantine, degradation, and the outcome itself never depend on
    /// thread scheduling.
    ///
    /// A sequential run (`batch_k == 1`) on more than one worker draws
    /// each batch wider: up to `workers` points, as long as the optimizer
    /// reports them [observation-free](BlackBoxOptimizer::observation_free),
    /// within the iterations and the evaluation quota left. Every record,
    /// journal line and cache hit is the one the one-point batches give.
    ///
    /// # Errors
    ///
    /// Fails on journal I/O, a resume/journal mismatch, a closed
    /// [`BatchGate`], or a backend failure ([`ExecError::Backend`]).
    ///
    /// # Panics
    ///
    /// Propagates whatever panic the backend lets through (the local
    /// backends re-raise an evaluation's panic under
    /// [`FailPolicy::Abort`](crate::supervisor::FailPolicy::Abort)).
    pub fn run(
        mut self,
        optimizer: &mut dyn BlackBoxOptimizer,
        backend: &mut dyn Backend,
    ) -> Result<RunOutcome, ExecError> {
        let iterations = self.meta.iterations;
        let mut telemetry = Telemetry::new();
        for s in &mut self.sinks {
            s.on_start(&self.meta);
        }

        let sup_cfg = self.supervision.clone();
        let (replayed_prefix, mut pending_faults) = match self.resume.take() {
            Some(mut r) => {
                r.evals.truncate(iterations);
                (r.evals, r.fault_attempts)
            }
            None => (Vec::new(), BTreeMap::new()),
        };
        if !replayed_prefix.is_empty() {
            for s in &mut self.sinks {
                s.on_replay(replayed_prefix.len());
            }
        }

        let mut history: Vec<EvalRecord> = Vec::with_capacity(iterations);
        let mut best: Option<(Vec<f64>, f64)> = None;
        let mut since_checkpoint = 0usize;
        // Fault state machine, driven by fresh and replayed records alike
        // so resume stays deterministic.
        let mut effective_k = self.meta.batch_k;
        let mut consecutive_failures = 0u32;
        let mut quarantine: Vec<Vec<f64>> = Vec::new();
        // The wall-clock quota only decides *when to stop*, at a batch
        // boundary — it never feeds the optimizer or the journal.
        let quota_started = Instant::now();
        let mut quota: Option<QuotaCause> = None;
        // A drawn point that `draw_widened` moved to the next batch.
        let mut held: Option<Vec<f64>> = None;

        while history.len() < iterations {
            // Quota checks sit at the batch boundary, after at least one
            // observation (so a capped run always has a best-so-far).
            // The eval-count check is deterministic across crash-resume;
            // the wall clock intentionally is not (see `Executor::quota`).
            if !history.is_empty() {
                if self.quota_evals.is_some_and(|q| history.len() >= q) {
                    quota = Some(QuotaCause::MaxEvals);
                    break;
                }
                if self
                    .quota_wall
                    .is_some_and(|d| quota_started.elapsed() >= d)
                {
                    quota = Some(QuotaCause::WallClock);
                    break;
                }
            }
            let done = history.len();
            // Stage timing feeds telemetry only, never the optimizer or
            // the journal.
            let suggest_started = Instant::now();
            let units = if self.meta.batch_k == 1 && self.meta.workers > 1 {
                let left = self
                    .quota_evals
                    .map_or(usize::MAX, |q| q.saturating_sub(done).max(1));
                let width = self.meta.workers.min(iterations - done).min(left);
                self.draw_widened(optimizer, width, &mut held)
            } else {
                optimizer.suggest_batch(effective_k.min(iterations - done))
            };
            telemetry.record("suggest", suggest_started.elapsed());

            // Split the batch into the journaled prefix (re-observed, not
            // re-evaluated) and the fresh tail.
            let from_journal = replayed_prefix.len().saturating_sub(done).min(units.len());
            for (i, unit) in units.iter().enumerate().take(from_journal) {
                if replayed_prefix[done + i].unit != *unit {
                    return Err(ExecError::ResumeMismatch(format!(
                        "journaled point {} differs from the optimizer's regenerated \
                         suggestion; the journal came from a different search",
                        done + i
                    )));
                }
            }

            // Plan the fresh tail: quarantined or journal-pending points
            // are penalized without dispatch.
            let mut jobs: Vec<(usize, Vec<f64>)> = Vec::new();
            let mut slots: Vec<SlotPlan> = Vec::with_capacity(units.len());
            for (i, unit) in units.iter().enumerate() {
                let index = done + i;
                if i < from_journal {
                    slots.push(SlotPlan::Replayed);
                    continue;
                }
                if let Some(pending) = pending_faults.remove(&index) {
                    slots.push(SlotPlan::Synth(FaultInfo {
                        kind: pending.kind,
                        detail: format!(
                            "penalized from journaled retry attempts: {}",
                            pending.detail
                        ),
                        retries: pending.attempts.saturating_sub(1),
                    }));
                    continue;
                }
                if quarantine.iter().any(|q| within_radius(q, unit)) {
                    slots.push(SlotPlan::Synth(FaultInfo {
                        kind: FailureKind::Quarantined,
                        detail: format!(
                            "point matches a quarantined failure within radius {QUARANTINE_RADIUS}"
                        ),
                        retries: 0,
                    }));
                    continue;
                }
                if let Some((memo, key)) = &self.memo {
                    if let Some(entry) = memo.lookup(&key(unit)) {
                        slots.push(SlotPlan::Memo(*entry));
                        continue;
                    }
                }
                slots.push(SlotPlan::Fresh(jobs.len()));
                jobs.push((index, unit.clone()));
            }

            let results = if jobs.is_empty() {
                Vec::new()
            } else {
                // Admission control: a multi-tenant host can delay this
                // batch (fairness) or refuse it (drain/cancel). Everything
                // observed so far is already journaled, so a refusal here
                // leaves a cleanly resumable run behind.
                if let Some(gate) = &self.gate {
                    gate.enter().map_err(ExecError::Stopped)?;
                }
                // Failed attempts are journaled eagerly (before their
                // final verdict) so a kill mid-retry leaves evidence the
                // resume path can penalize from. The callback cannot
                // return an error, so journal failures are parked and
                // surfaced right after the batch.
                let mut journal_err: Option<JournalError> = None;
                let results = {
                    let journal = &mut self.journal;
                    let sinks = &mut self.sinks;
                    let telemetry = &mut telemetry;
                    let mut on_attempt = |a: FailedAttempt| {
                        telemetry.count_failed_attempt();
                        for s in sinks.iter_mut() {
                            s.on_attempt(&a);
                        }
                        if journal_err.is_none() {
                            if let Some(j) = journal.as_mut() {
                                if let Err(e) = j.attempt(&a) {
                                    journal_err = Some(e);
                                }
                            }
                        }
                    };
                    backend
                        .evaluate_batch(&jobs, &mut on_attempt)
                        .map_err(ExecError::Backend)
                };
                if let Some(gate) = &self.gate {
                    gate.leave();
                }
                if let Some(e) = journal_err {
                    return Err(e.into());
                }
                results?
            };

            for (i, unit) in units.into_iter().enumerate() {
                let index = done + i;
                let is_new = i >= from_journal;
                let rec = match &slots[i] {
                    SlotPlan::Replayed => {
                        telemetry.count_replayed();
                        let mut rec = replayed_prefix[index].clone();
                        rec.unit = unit;
                        rec
                    }
                    SlotPlan::Synth(fault) => EvalRecord {
                        index,
                        unit,
                        error: sup_cfg.penalty,
                        stage_ms: Vec::new(),
                        fault: Some(fault.clone()),
                        cached: None,
                        worker: None,
                    },
                    SlotPlan::Memo(entry) => {
                        telemetry.count_cache_hit();
                        EvalRecord {
                            index,
                            unit,
                            error: entry.error,
                            stage_ms: Vec::new(),
                            fault: None,
                            cached: Some(entry.source),
                            worker: entry.worker,
                        }
                    }
                    SlotPlan::Fresh(j) => {
                        let verdict = &results[*j];
                        telemetry.absorb(&verdict.stages);
                        telemetry.count_evaluated();
                        EvalRecord {
                            index,
                            unit,
                            error: verdict.error,
                            stage_ms: verdict.stages.to_millis(),
                            fault: verdict.fault.clone(),
                            cached: None,
                            worker: verdict.worker,
                        }
                    }
                };

                // Memoize every successful first-time value — fresh or
                // replayed — on the observation path, so the cache's
                // contents never depend on thread scheduling and a
                // resumed run rebuilds it from its journaled prefix.
                if rec.fault.is_none() && rec.cached.is_none() {
                    if let Some((memo, key)) = &mut self.memo {
                        memo.insert(&key(&rec.unit), rec.error, rec.index, rec.worker);
                    }
                }

                // Fault bookkeeping, in observation order.
                match &rec.fault {
                    Some(f) if f.kind == FailureKind::Quarantined => {
                        telemetry.count_quarantine_hit();
                    }
                    Some(f) => {
                        telemetry.count_fault(f.kind);
                        if !quarantine.iter().any(|q| within_radius(q, &rec.unit)) {
                            quarantine.push(rec.unit.clone());
                        }
                        consecutive_failures += 1;
                        if sup_cfg.degrade_after > 0
                            && consecutive_failures >= sup_cfg.degrade_after
                            && effective_k > 1
                        {
                            let from = effective_k;
                            effective_k = (effective_k / 2).max(1);
                            consecutive_failures = 0;
                            telemetry.count_degradation();
                            for s in &mut self.sinks {
                                s.on_degrade(from, effective_k);
                            }
                        }
                    }
                    None => consecutive_failures = 0,
                }

                optimizer.observe(rec.unit.clone(), rec.error);
                if best.as_ref().is_none_or(|(_, be)| rec.error < *be) {
                    best = Some((rec.unit.clone(), rec.error));
                }
                if is_new {
                    if let Some(journal) = &mut self.journal {
                        if rec.fault.is_some() {
                            journal.fault(&rec)?;
                        } else if rec.cached.is_some() {
                            journal.cache_hit(&rec)?;
                        } else {
                            journal.eval(&rec)?;
                        }
                    }
                    let (_, best_error) = best.as_ref().expect("best was just set");
                    for s in &mut self.sinks {
                        s.on_eval(index, rec.error, *best_error);
                    }
                    if let Some(fault) = &rec.fault {
                        for s in &mut self.sinks {
                            s.on_fault(index, fault);
                        }
                    }
                    if let Some(source) = rec.cached {
                        for s in &mut self.sinks {
                            s.on_cache_hit(index, source);
                        }
                    }
                    since_checkpoint += 1;
                    if self.checkpoint_every > 0 && since_checkpoint >= self.checkpoint_every {
                        since_checkpoint = 0;
                        if let Some(journal) = &mut self.journal {
                            let (bu, be) = best.as_ref().expect("best was just set");
                            journal.checkpoint(index + 1, *be, bu)?;
                        }
                    }
                }
                history.push(rec);
            }
        }

        let (best_unit, best_error) = best.expect("at least one iteration ran");
        if let Some(journal) = &mut self.journal {
            // A quota stop still writes `done`: the journal records the
            // observations that exist plus the best over them, which is
            // exactly what a re-run under the same quota reproduces.
            journal.done(history.len(), best_error, &best_unit)?;
        }
        for s in &mut self.sinks {
            s.on_finish(best_error, &telemetry);
        }
        let replayed = replayed_prefix.len();
        Ok(RunOutcome {
            best_unit,
            best_error,
            history,
            telemetry,
            replayed,
            quota,
        })
    }

    /// The next batch of a sequential (`batch_k == 1`) run on more than
    /// one worker: its one point — `held`, if the last batch left one —
    /// then as many further suggestions as the optimizer draws without
    /// reading an observation ([`BlackBoxOptimizer::observation_free`]),
    /// up to `width` points. Drawn early, those points are the very ones
    /// the one-at-a-time run draws, so the wider batch only lets the
    /// backend evaluate them side by side.
    ///
    /// The batch ends before a point that shares an earlier point's memo
    /// key or lies within quarantine radius of it: one at a time, that
    /// point would have been planned after the earlier one's observation
    /// (a cache hit, or a quarantine penalty), so it is `held` to open
    /// the next batch, where it is planned exactly so.
    fn draw_widened(
        &self,
        optimizer: &mut dyn BlackBoxOptimizer,
        width: usize,
        held: &mut Option<Vec<f64>>,
    ) -> Vec<Vec<f64>> {
        let memo_key = |unit: &[f64]| {
            self.memo
                .as_ref()
                .map(|(_, key)| crate::memo::canonical_bits(&key(unit)))
        };
        let first = match held.take() {
            Some(unit) => unit,
            None => optimizer.suggest_batch(1).swap_remove(0),
        };
        let mut keys = vec![memo_key(&first)];
        let mut units = vec![first];
        while units.len() < width && optimizer.observation_free() > 0 {
            let unit = optimizer.suggest_batch(1).swap_remove(0);
            let key = memo_key(&unit);
            let repeats = units
                .iter()
                .zip(&keys)
                .any(|(u, k)| within_radius(u, &unit) || (key.is_some() && *k == key));
            if repeats {
                *held = Some(unit);
                break;
            }
            units.push(unit);
            keys.push(key);
        }
        units
    }
}

/// L∞ radius within which a suggested point matches a quarantined one
/// (quarantined points are penalized without evaluation).
const QUARANTINE_RADIUS: f64 = 1e-9;

/// L∞ proximity test for the quarantine set.
fn within_radius(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= QUARANTINE_RADIUS)
}
