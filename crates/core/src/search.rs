//! The Datamime search loop (paper Sec. III-C and Fig. 5).
//!
//! Each iteration: the optimizer proposes dataset-generator parameters,
//! the generator synthesizes a dataset, the benchmark runs and is profiled
//! exactly like the target, the EMD error against the target profile is
//! computed, and the error is fed back to the optimizer.
//!
//! The loop itself is executed by [`datamime_runtime`]'s [`Executor`]: this
//! module supplies the one evaluation body ([`evaluate`]: instantiate →
//! build → profile → [`Objective`]) and translates between the
//! search-level and runtime-level vocabularies. [`search_with_runtime`] is
//! the engine — optimizer, executor, backend choice, batching, journaling,
//! resume — under the paper's objective ([`emd_objective`]);
//! [`search_with_objective`] is the same engine under any other;
//! [`search`] is it with default options, which is bit-for-bit the paper's
//! sequential loop.

// Supervised evaluation path: no panics outside tests (crates/audit/README.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::arena::EvalArena;
use crate::error_model::{profile_error, MetricWeights};
use crate::generator::{DatasetGenerator, ParamSpec};
use crate::profile::Profile;
use crate::profile_store::{ProfileKey, ProfileStore};
use crate::profiler::{profile_app_cancellable_in, profile_workload, ProfilingConfig};
use crate::workload::Workload;
use datamime_bayesopt::{BayesOpt, BlackBoxOptimizer, BoConfig, RandomSearch};
use datamime_runtime::{
    canonical_bits, fingerprint, replay, with_local_backend, Backend, CancelToken, ExecError,
    Executor, FailPolicy, FaultInjector, GateHandle, JournalError, JournalWriter, MemoKeyFn,
    MetricsRegistry, MetricsSink, QuotaCause, RunMeta, RunOutcome, SharedSink, StageTimes,
    StderrSink, SupervisorConfig,
};
use datamime_sim::MachineConfig;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Which optimizer drives the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerKind {
    /// GP-EI Bayesian optimization (the paper's choice).
    Bayesian,
    /// Uniform random search (ablation baseline).
    Random,
}

impl OptimizerKind {
    /// The tag written into journal headers (and matched on resume).
    pub fn tag(self) -> &'static str {
        match self {
            OptimizerKind::Bayesian => "bayesian",
            OptimizerKind::Random => "random",
        }
    }
}

/// Configuration of one Datamime search.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Number of optimizer iterations (the paper runs 200).
    pub iterations: usize,
    /// Machine the benchmark is generated on (the paper uses Broadwell).
    pub machine: MachineConfig,
    /// Profiling fidelity per iteration.
    pub profiling: ProfilingConfig,
    /// Metric weights of the error model.
    pub weights: MetricWeights,
    /// Optimizer selection.
    pub optimizer: OptimizerKind,
    /// Seed for the optimizer.
    pub seed: u64,
}

impl SearchConfig {
    /// A configuration mirroring the paper's methodology (Sec. IV): 200
    /// iterations on Broadwell with full-fidelity profiling.
    pub fn paper_default() -> Self {
        SearchConfig {
            iterations: 200,
            machine: MachineConfig::broadwell(),
            profiling: ProfilingConfig::paper_default(),
            weights: MetricWeights::equal(),
            optimizer: OptimizerKind::Bayesian,
            seed: 0xDA7A_417E,
        }
    }

    /// A reduced-cost configuration for quick experiments and tests.
    pub fn fast(iterations: usize) -> Self {
        SearchConfig {
            iterations,
            machine: MachineConfig::broadwell(),
            profiling: ProfilingConfig::fast(),
            weights: MetricWeights::equal(),
            optimizer: OptimizerKind::Bayesian,
            seed: 0xDA7A_417E,
        }
    }
}

/// How the runtime executes a search: batching, workers, journaling, and
/// fault tolerance.
///
/// # Examples
///
/// ```
/// use datamime::search::RuntimeOptions;
/// use std::time::Duration;
///
/// // Four-wide parallel search with a five-minute evaluation deadline,
/// // two retries per failing point, and a crash-safe journal.
/// let opts = RuntimeOptions {
///     journal: Some("run.jsonl".into()),
///     eval_timeout: Some(Duration::from_secs(300)),
///     max_retries: 2,
///     ..RuntimeOptions::parallel(4)
/// };
/// assert_eq!((opts.batch_k, opts.workers), (4, 4));
/// assert!(!opts.no_memo); // the evaluation memo cache is on by default
/// ```
#[derive(Debug, Clone, Default)]
pub struct RuntimeOptions {
    /// Suggestions drawn per optimizer batch (0 or 1 = sequential).
    pub batch_k: usize,
    /// Worker threads evaluating a batch (0 or 1 = no pool). Ignored by
    /// the process backend, which sizes its own worker pool. Never
    /// changes a result: with `batch_k` ≤ 1 and more than one worker, the
    /// optimizer's observation-free suggestions (its initial design) run
    /// side by side and are observed in order. One-shot runs keep
    /// `workers == batch_k`; the serve daemon gives each thread job two.
    pub workers: usize,
    /// Where evaluations run: in-process threads (the default) or a pool
    /// of `datamime-worker` OS processes. Results are bit-identical
    /// either way for the same `(seed, batch_k)`.
    pub backend: BackendChoice,
    /// Journal every event to this file (crash-safe, resumable).
    pub journal: Option<PathBuf>,
    /// Resume from this journal, re-observing its points instead of
    /// re-profiling them. With `journal` set to the same path the file is
    /// reopened in place; with a different one that path starts as a copy;
    /// without `journal` nothing is written.
    pub resume: Option<PathBuf>,
    /// Stream progress lines to stderr.
    pub progress: bool,
    /// Wall-clock budget per evaluation attempt (`None` = unlimited);
    /// exceeding it cancels the profiler cooperatively and penalizes (or
    /// aborts, per `fail_policy`) the evaluation.
    pub eval_timeout: Option<Duration>,
    /// Retries (with deterministic exponential backoff) after a failed
    /// evaluation attempt before the fail policy applies.
    pub max_retries: u32,
    /// Whether an evaluation that still fails after retries aborts the
    /// run or is penalized so the search continues (the default).
    pub fail_policy: FailPolicy,
    /// Deterministic fault injection (tests and CI only): the plan's
    /// eval entries reach the supervisor and, on the process backend,
    /// every worker's `--fault`; its write entries reach the journal
    /// writer. Empty by default.
    pub faults: FaultInjector,
    /// Disable the evaluation memo cache, forcing every suggestion to pay
    /// a fresh simulator run even when its quantized dataset parameters
    /// were already evaluated. Memoization never changes results (hits
    /// observe the exact error the original evaluation produced), so this
    /// exists for A/B accounting and debugging, not correctness.
    pub no_memo: bool,
    /// Emit a stderr progress line every N evaluations when `progress` is
    /// set (`None` = the [`StderrSink`] default of 10).
    pub progress_every: Option<usize>,
    /// An additional progress sink attached alongside (or instead of) the
    /// stderr sink — how the serve daemon taps per-job progress without
    /// touching the evaluation path.
    pub extra_sink: Option<SharedSink>,
    /// A gate consulted at every batch boundary before fresh evaluations
    /// are dispatched. Gates can only *delay* or *stop* a run (leaving a
    /// resumable journal), never reorder it, so fixed-seed results are
    /// unaffected — this is how the serve scheduler interleaves jobs and
    /// how graceful shutdown drains in-flight work.
    pub batch_gate: Option<GateHandle>,
    /// A metrics registry fed by the run: evaluation/cache-hit/fault
    /// counters and per-stage timings, plus, from the process backend's
    /// broker, `worker_restarts` (a worker slot respawned) and
    /// `redispatches` (a point whose worker died mid-evaluation queued
    /// again without consuming an attempt) — a flapping worker shows in
    /// both, a slow one in neither.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Evaluation quota: stop with the best-so-far once this many
    /// observations exist. Checked at batch boundaries over the
    /// deterministic observation order, so a resumed run stops at the
    /// identical point with the identical result.
    pub max_evals: Option<usize>,
    /// Wall-clock quota for the whole run, checked at batch boundaries.
    /// The clock restarts on resume: it bounds one process's effort and
    /// is deliberately not part of the deterministic state.
    pub wall_clock: Option<Duration>,
    /// A profile store shared with other searches (the serve daemon's):
    /// each evaluation looks its instantiated workload up before building
    /// it, and a hit is scored without a simulator run. Results are
    /// unchanged, hit or miss; nothing about the store is journalled.
    /// Thread backend only: the process backend's workers profile in
    /// their own processes and never see it.
    pub profiles: Option<Arc<ProfileStore>>,
}

/// Where a search's evaluations execute.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// The in-process worker-thread pool (the default).
    #[default]
    Thread,
    /// A broker-managed pool of `datamime-worker` OS processes speaking
    /// the [`datamime_dist`] wire protocol: deadlines are enforced by
    /// SIGKILL and a crashing evaluation cannot take the search down.
    Process(ProcOptions),
}

/// Options of the process backend.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcOptions {
    /// Worker processes (0 = one).
    pub workers: usize,
    /// Worker binary; defaults to the `DATAMIME_WORKER` environment
    /// variable, then a `datamime-worker` next to the current
    /// executable.
    pub worker_bin: Option<PathBuf>,
}

impl RuntimeOptions {
    /// Evaluate `batch` candidates at a time on `batch` worker threads.
    pub fn parallel(batch: usize) -> Self {
        RuntimeOptions {
            batch_k: batch,
            workers: batch,
            ..RuntimeOptions::default()
        }
    }
}

/// One evaluated point of the search.
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// Unit-hypercube parameters proposed by the optimizer.
    pub unit_params: Vec<f64>,
    /// Total weighted EMD error against the target.
    pub error: f64,
}

/// Evaluation accounting for one search run: how many points actually
/// paid for a simulator profile versus being served for free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Points profiled through the simulator.
    pub evaluated: usize,
    /// Points observed from the evaluation memo cache (the optimizer
    /// re-suggested a point whose quantized dataset parameters were
    /// already evaluated).
    pub cache_hits: usize,
    /// Points re-observed from a resumed journal.
    pub replayed: usize,
}

/// The outcome of a Datamime search.
#[derive(Debug)]
pub struct SearchOutcome {
    /// Best (lowest-error) unit parameters found.
    pub best_unit_params: Vec<f64>,
    /// The corresponding synthesized workload.
    pub best_workload: Workload,
    /// The best workload's profile.
    pub best_profile: Profile,
    /// The best total error.
    pub best_error: f64,
    /// Every evaluated iteration, in order.
    pub history: Vec<IterationRecord>,
    /// Evaluation accounting (memo-cache savings included).
    pub stats: SearchStats,
    /// Set when a per-run quota (`max_evals` / `wall_clock`) stopped the
    /// search before `iterations` observations; the result above is the
    /// best-so-far at that boundary.
    pub quota: Option<QuotaCause>,
}

impl SearchOutcome {
    /// The running minimum error per iteration (the y-axis of Fig. 10).
    pub fn running_min(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.history.len());
        let mut best = f64::INFINITY;
        for r in &self.history {
            best = best.min(r.error);
            out.push(best);
        }
        out
    }
}

fn make_optimizer(cfg: &SearchConfig, dims: usize) -> Box<dyn BlackBoxOptimizer> {
    match cfg.optimizer {
        OptimizerKind::Bayesian => Box::new(BayesOpt::new(BoConfig::for_dims(dims), cfg.seed)),
        OptimizerKind::Random => Box::new(RandomSearch::new(dims, cfg.seed)),
    }
}

/// The run's identity; `workers` is the chosen backend's real pool size
/// (threads or worker processes), recorded for the journal header only.
fn run_meta(
    generator: &dyn DatasetGenerator,
    cfg: &SearchConfig,
    batch_k: usize,
    workers: usize,
) -> RunMeta {
    RunMeta {
        label: generator.name().to_string(),
        seed: cfg.seed,
        dims: generator.dims(),
        iterations: cfg.iterations,
        batch_k: batch_k.max(1),
        workers: workers.max(1),
        optimizer: cfg.optimizer.tag().to_string(),
    }
}

/// Denormalizes a unit point through the generator's parameter specs —
/// the *quantized* parameter values that actually shape the dataset.
/// Integer rounding and log scales map many unit points onto one
/// parameter point, which is exactly what the evaluation memo cache keys
/// on.
fn denormalized_params(specs: &[ParamSpec], unit: &[f64]) -> Vec<f64> {
    specs
        .iter()
        .zip(unit)
        .map(|(spec, &u)| spec.denormalize(u))
        .collect()
}

/// The memo key projection handed to the executor: unit point →
/// quantized parameter point, owned so it outlives the borrowed
/// generator.
fn memo_key(generator: &dyn DatasetGenerator) -> MemoKeyFn {
    let specs: Vec<ParamSpec> = generator.param_specs().to_vec();
    Box::new(move |unit| denormalized_params(&specs, unit))
}

/// FNV-1a over a string, for folding `Debug` representations of
/// configuration into the memo context fingerprint.
pub(crate) fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The memo context: everything beyond the parameter point that fixes an
/// evaluation's outcome — machine configuration, profiling fidelity,
/// error-model weights, and the seed. The process backend extends this
/// with protocol/worker identity (see [`crate::distproc::dist_context`]).
pub(crate) fn memo_context(cfg: &SearchConfig) -> u64 {
    fingerprint(&[
        cfg.seed,
        hash_str(&format!("{:?}", cfg.machine)),
        hash_str(&format!("{:?}", cfg.profiling)),
        hash_str(&format!("{:?}", cfg.weights)),
    ])
}

/// The winning evaluation and the canonical bits of its quantized
/// parameter point, remembered so [`finish`] can package the outcome
/// without re-instantiating and re-profiling the best point (which used
/// to cost one full extra simulator run).
type BestEval = (Vec<u64>, Evaluation);

/// Tracks the lowest-error evaluation seen so far. Shared across worker
/// threads behind a mutex; [`finish`] validates the remembered artifacts
/// against the executor's (deterministic) winner before reusing them, so
/// completion-order races can only cost a recomputation, never change
/// the result.
#[derive(Default)]
struct BestTracker(Mutex<Option<BestEval>>);

impl BestTracker {
    /// Offers one finished evaluation; keeps it if it beats the
    /// incumbent.
    fn offer(&self, key_bits: Vec<u64>, done: Evaluation) {
        if !done.error.is_finite() {
            return;
        }
        // A poisoned lock means another evaluation panicked mid-offer;
        // the slot still holds a complete incumbent (the Option is only
        // ever replaced whole), and `finish` re-validates whatever we
        // keep, so recovering is always safe — and panicking here would
        // burn a supervisor retry on bookkeeping.
        let mut slot = self
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if slot
            .as_ref()
            .is_none_or(|(_, best)| done.error < best.error)
        {
            *slot = Some((key_bits, done));
        }
    }

    fn take(self) -> Option<BestEval> {
        self.0
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The search objective: what one evaluated candidate — its workload and
/// the profile just measured — costs. The engine minimises it and knows
/// nothing else about it: the paper's Eq. 1 is [`emd_objective`], the
/// Sec. III-D extension adds a compression-ratio mismatch to that, and
/// Fig. 11 uses the distance of one metric's mean from a requested value.
pub type Objective<'a> = dyn Fn(&Workload, &Profile) -> f64 + Sync + 'a;

/// The paper's objective (Eq. 1): the weighted normalized-EMD error of the
/// candidate's profile against `target`.
pub fn emd_objective<'a>(
    target: &'a Profile,
    weights: &'a MetricWeights,
) -> impl Fn(&Workload, &Profile) -> f64 + Sync + 'a {
    move |_, profile| profile_error(target, profile, weights).total
}

/// What one [`evaluate`] call produced.
#[derive(Debug)]
pub struct Evaluation {
    /// The dataset the generator instantiated for the point.
    pub workload: Workload,
    /// Its profile (truncated if the evaluation was cancelled).
    pub profile: Profile,
    /// The objective's value for this workload and profile.
    pub error: f64,
}

/// One evaluation: instantiate → build → profile → `objective`, with each
/// stage timed — the only such body; the thread backend, the
/// `datamime-worker` process and the experiments all call it. The dataset
/// is built once, here, by the generator ([`DatasetGenerator::build`]),
/// and the profiler restarts from copies of it. The cancel token reaches
/// the profiler's sampling loops so a deadline can stop a runaway
/// evaluation cooperatively.
///
/// With a `profiles` store the instantiated workload is looked up between
/// instantiate and build: a hit skips build and profile and `objective`
/// scores the stored bits; a miss profiles as usual and stores the
/// profile unless `cancel` fired (a cancelled profile is truncated).
pub fn evaluate(
    generator: &dyn DatasetGenerator,
    cfg: &SearchConfig,
    objective: &Objective<'_>,
    unit: &[f64],
    stages: &mut StageTimes,
    cancel: &CancelToken,
    profiles: Option<&ProfileStore>,
) -> Evaluation {
    let workload = stages.time("instantiate", || generator.instantiate(unit));
    let lookup = profiles.map(|store| {
        let key = ProfileKey::new(&workload, &cfg.machine, &cfg.profiling);
        (store, key)
    });
    let hit = lookup.as_ref().and_then(|(store, key)| store.get(key));
    let profile = match hit {
        Some(profile) => profile,
        None => {
            let app = stages.time("build", || generator.build(&workload));
            let profile = stages.time("profile", || {
                // Each evaluating thread recycles its simulator state across
                // evaluations (and across supervisor retries) through its
                // thread-local arena; results are bit-identical to fresh state.
                EvalArena::with_thread_local(|arena| {
                    profile_app_cancellable_in(
                        app,
                        workload.load,
                        &cfg.machine,
                        &cfg.profiling,
                        cancel,
                        arena,
                    )
                })
            });
            if let Some((store, key)) = lookup {
                if !cancel.is_cancelled() {
                    store.insert(key, profile.clone());
                }
            }
            profile
        }
    };
    let error = stages.time("error", || objective(&workload, &profile));
    Evaluation {
        workload,
        profile,
        error,
    }
}

/// The supervisor configuration implied by `opts` (penalty, backoff, and
/// quarantine knobs keep their defaults).
fn supervision(opts: &RuntimeOptions) -> SupervisorConfig {
    SupervisorConfig {
        deadline: opts.eval_timeout,
        max_retries: opts.max_retries,
        fail_policy: opts.fail_policy,
        faults: opts.faults.plan().clone(),
        ..SupervisorConfig::default()
    }
}

/// Packages the outcome, reusing the tracked best evaluation's workload
/// and profile when they provably belong to the executor's winner (same
/// error bits, same quantized parameter point); otherwise re-profiles the
/// best point as before — the only case left is a resumed run whose best
/// point was replayed from the journal rather than evaluated here.
fn finish(
    generator: &dyn DatasetGenerator,
    cfg: &SearchConfig,
    run: RunOutcome,
    tracked: Option<BestEval>,
) -> SearchOutcome {
    let stats = SearchStats {
        evaluated: run.telemetry.evaluated(),
        cache_hits: run.telemetry.cache_hits(),
        replayed: run.replayed,
    };
    let quota = run.quota;
    let best_key = canonical_bits(&denormalized_params(
        generator.param_specs(),
        &run.best_unit,
    ));
    let reuse = tracked.filter(|(key_bits, best)| {
        best.error.to_bits() == run.best_error.to_bits() && *key_bits == best_key
    });
    let (best_workload, best_profile) = match reuse {
        Some((_, best)) => (best.workload, best.profile),
        None => {
            let w = generator.instantiate(&run.best_unit);
            let p = profile_workload(&w, &cfg.machine, &cfg.profiling);
            (w, p)
        }
    };
    SearchOutcome {
        best_unit_params: run.best_unit,
        best_workload,
        best_profile,
        best_error: run.best_error,
        history: run
            .history
            .into_iter()
            .map(|r| IterationRecord {
                unit_params: r.unit,
                error: r.error,
            })
            .collect(),
        stats,
        quota,
    }
}

/// Builds the executor from `opts`: supervision, memoization, journal,
/// resume, progress sink. Memoization is keyed on the generator's
/// quantized parameter point (not the raw unit point) so re-suggestions
/// that round to an already-evaluated dataset are served from cache.
fn build_executor(
    generator: &dyn DatasetGenerator,
    memo_ctx: u64,
    meta: RunMeta,
    opts: &RuntimeOptions,
) -> Result<Executor, ExecError> {
    let mut exec = Executor::new(meta)
        .supervise(supervision(opts))
        .quota(opts.max_evals, opts.wall_clock);
    if !opts.no_memo {
        exec = exec.memoize_keyed(memo_ctx, memo_key(generator));
    }
    if opts.progress {
        let every = opts.progress_every.unwrap_or(10);
        exec = exec.sink(Box::new(StderrSink::new(every)));
    }
    if let Some(extra) = &opts.extra_sink {
        exec = exec.sink(Box::new(extra.clone()));
    }
    if let Some(metrics) = &opts.metrics {
        exec = exec.sink(Box::new(MetricsSink::new(Arc::clone(metrics))));
    }
    if let Some(gate) = &opts.batch_gate {
        exec = exec.gate(gate.arc());
    }
    let arm = |w: JournalWriter| w.with_faults(opts.faults.clone());
    exec = match (&opts.resume, &opts.journal) {
        // One way to continue a journal: reopen it in place (its torn
        // tail, if any, is cut first). Resuming onto a different path
        // starts that path as a copy.
        (Some(resume_path), Some(journal_path)) => {
            if journal_path != resume_path {
                std::fs::copy(resume_path, journal_path).map_err(JournalError::Io)?;
            }
            let (replayed, writer) = JournalWriter::reopen(journal_path)?;
            exec.resume(replayed)?.journal(arm(writer))
        }
        (Some(resume_path), None) => exec.resume(replay(resume_path)?)?,
        (None, Some(journal_path)) => {
            let writer = JournalWriter::create(journal_path, exec.meta())?;
            exec.journal(arm(writer))
        }
        (None, None) => exec,
    };
    Ok(exec)
}

/// Runs a Datamime search under full runtime control: batched suggestions,
/// a worker pool or worker processes, an optional crash-safe journal, and
/// optional resume. This is the search engine; every other entry point is
/// a thin wrapper over it.
///
/// Results are a deterministic function of `(cfg.seed, opts.batch_k)`:
/// observations are applied in batch order regardless of worker scheduling,
/// and `batch_k <= 1` is bit-for-bit the paper's sequential loop.
///
/// # Errors
///
/// Fails on journal I/O errors, when `opts.resume` names a journal
/// recorded under a different search configuration, or when the process
/// backend cannot be set up.
///
/// # Panics
///
/// Panics if `cfg.iterations == 0`.
pub fn search_with_runtime(
    generator: &(dyn DatasetGenerator + Sync),
    target_profile: &Profile,
    cfg: &SearchConfig,
    opts: &RuntimeOptions,
) -> Result<SearchOutcome, ExecError> {
    match &opts.backend {
        BackendChoice::Thread => {
            let objective = emd_objective(target_profile, &cfg.weights);
            search_with_objective(generator, cfg, opts, &objective)
        }
        BackendChoice::Process(proc) => {
            let mut optimizer = make_optimizer(cfg, generator.dims());
            let drive = |ctx, broker: &mut dyn Backend| {
                let meta = run_meta(generator, cfg, opts.batch_k, proc.workers);
                build_executor(generator, ctx, meta, opts)?.run(optimizer.as_mut(), broker)
            };
            let run =
                search_with_process_backend(generator, target_profile, cfg, opts, proc, drive)?;
            // No in-process evaluation ran, so there is no tracked winner
            // and `finish` re-profiles the best point locally (one extra
            // deterministic simulator run).
            Ok(finish(generator, cfg, run, None))
        }
    }
}

/// The engine on the thread backend, minimising an arbitrary
/// [`Objective`]: [`search_with_runtime`] is this with [`emd_objective`].
/// `opts` means the same thing — batching, memo cache, journal and resume,
/// supervision, quotas.
///
/// # Errors
///
/// As [`search_with_runtime`], plus [`ExecError::Backend`] when `opts`
/// selects the process backend: the objective is a closure, which a
/// worker's command line cannot carry, so that combination is refused,
/// never run under some other objective.
///
/// # Panics
///
/// Panics if `cfg.iterations == 0`.
pub fn search_with_objective(
    generator: &(dyn DatasetGenerator + Sync),
    cfg: &SearchConfig,
    opts: &RuntimeOptions,
    objective: &Objective<'_>,
) -> Result<SearchOutcome, ExecError> {
    if opts.backend != BackendChoice::Thread {
        return Err(ExecError::Backend(
            "the process backend cannot evaluate a custom objective term (a closure cannot \
             cross a worker's command line); use the thread backend"
                .to_string(),
        ));
    }
    let mut optimizer = make_optimizer(cfg, generator.dims());
    let tracker = BestTracker::default();
    let meta = run_meta(generator, cfg, opts.batch_k, opts.workers);
    let exec = build_executor(generator, memo_context(cfg), meta, opts)?;
    let eval = |unit: &[f64], stages: &mut StageTimes, cancel: &CancelToken| {
        let done = evaluate(
            generator,
            cfg,
            objective,
            unit,
            stages,
            cancel,
            opts.profiles.as_deref(),
        );
        let error = done.error;
        // A cancelled evaluation produced a truncated profile and will be
        // penalized by the supervisor — its artifacts must not be
        // remembered.
        if !cancel.is_cancelled() {
            let key = denormalized_params(generator.param_specs(), unit);
            tracker.offer(canonical_bits(&key), done);
        }
        error
    };
    let run = with_local_backend(exec.meta().workers, exec.supervisor(), &eval, |backend| {
        exec.run(optimizer.as_mut(), backend)
    })?;
    Ok(finish(generator, cfg, run, tracker.take()))
}

/// Locates the `datamime-worker` binary: explicit option, then the
/// `DATAMIME_WORKER` environment variable, then a sibling of the current
/// executable.
fn resolve_worker_bin(proc: &ProcOptions) -> Result<PathBuf, String> {
    if let Some(bin) = &proc.worker_bin {
        return Ok(bin.clone());
    }
    if let Ok(bin) = std::env::var("DATAMIME_WORKER") {
        return Ok(PathBuf::from(bin));
    }
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate the current executable: {e}"))?;
    let sibling = exe.with_file_name("datamime-worker");
    if sibling.exists() {
        return Ok(sibling);
    }
    Err(format!(
        "no datamime-worker binary found (looked for {sibling:?}); build one with \
         `cargo build -p datamime --bin datamime-worker`, set DATAMIME_WORKER, or pass \
         ProcOptions::worker_bin"
    ))
}

/// Monotonic suffix for the per-run staging directories holding the
/// target-profile TSV handed to worker processes.
static PROC_RUN_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// The process half of [`search_with_runtime`]: it only *builds* the
/// backend — stages the target profile on disk, starts a
/// [`datamime_dist::Broker`] pool of `datamime-worker` processes — and
/// hands it to `drive` together with the context fingerprint the memo
/// cache must be bound to. `drive` is the same executor engine the thread
/// backend runs under, so journaling, resume, memoization, and
/// observation order are shared and results stay bit-identical. The
/// staging directory is removed when `drive` returns.
fn search_with_process_backend(
    generator: &(dyn DatasetGenerator + Sync),
    target_profile: &Profile,
    cfg: &SearchConfig,
    opts: &RuntimeOptions,
    proc: &ProcOptions,
    drive: impl FnOnce(u64, &mut dyn Backend) -> Result<RunOutcome, ExecError>,
) -> Result<RunOutcome, ExecError> {
    use crate::distproc::{dist_context, EvalSpec};
    use datamime_dist::{Broker, BrokerConfig};

    let dir = std::env::temp_dir().join(format!(
        "datamime-proc-{}-{}",
        std::process::id(),
        PROC_RUN_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir)
        .map_err(|e| ExecError::Backend(format!("cannot create {dir:?}: {e}")))?;
    let result = (|| {
        let target_path = dir.join("target.tsv");
        std::fs::write(&target_path, target_profile.to_tsv())
            .map_err(|e| ExecError::Backend(format!("cannot stage target profile: {e}")))?;
        let spec =
            EvalSpec::from_search(generator, cfg, target_path).map_err(ExecError::Backend)?;
        let ctx = dist_context(generator, cfg, target_profile);
        let mut bcfg = BrokerConfig::new(
            resolve_worker_bin(proc).map_err(ExecError::Backend)?,
            proc.workers.max(1),
        );
        bcfg.worker_args = spec.to_argv();
        if !opts.faults.plan().is_empty() {
            bcfg.worker_args.push("--fault".to_string());
            bcfg.worker_args.push(opts.faults.plan().to_spec());
        }
        bcfg.ctx_fingerprint = ctx;
        bcfg.seed = cfg.seed;
        bcfg.deadline = opts.eval_timeout;
        bcfg.max_retries = opts.max_retries;
        bcfg.fail_policy = opts.fail_policy;
        bcfg.metrics = opts.metrics.clone();
        let mut broker = Broker::start(bcfg).map_err(ExecError::Backend)?;
        drive(ctx, &mut broker)
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Runs a Datamime search for a dataset that makes `generator`'s program
/// mimic `target_profile`: [`search_with_runtime`] with default options —
/// the paper's sequential loop, no journal — except that a failing
/// evaluation aborts (its panic propagates) instead of being penalized.
///
/// # Panics
///
/// Panics if `cfg.iterations == 0`, or when an evaluation panics or
/// returns a non-finite error.
#[expect(
    clippy::expect_used,
    reason = "the engine only fails on journal I/O or backend setup, and these options set neither"
)]
pub fn search(
    generator: &(dyn DatasetGenerator + Sync),
    target_profile: &Profile,
    cfg: &SearchConfig,
) -> SearchOutcome {
    let abort_on_failure = RuntimeOptions {
        fail_policy: FailPolicy::Abort,
        ..RuntimeOptions::default()
    };
    search_with_runtime(generator, target_profile, cfg, &abort_on_failure)
        .expect("journal-less thread-backend run cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::KvGenerator;
    use crate::metrics::DistMetric;
    use crate::workload::Workload;
    use datamime_apps::KvConfig;

    fn small_target() -> Workload {
        let mut w = Workload::mem_fb();
        if let crate::workload::AppConfig::Kv(c) = &mut w.app {
            *c = KvConfig {
                n_keys: 20_000,
                ..c.clone()
            };
        }
        w
    }

    fn parallel(target: &Profile, cfg: &SearchConfig, batch: usize) -> SearchOutcome {
        search_with_runtime(
            &KvGenerator::new(),
            target,
            cfg,
            &RuntimeOptions::parallel(batch),
        )
        .expect("journal-less run cannot fail")
    }

    #[test]
    fn search_reduces_error_over_iterations() {
        let cfg = SearchConfig {
            iterations: 14,
            ..SearchConfig::fast(14)
        };
        let machine = cfg.machine.clone();
        let target = profile_workload(&small_target(), &machine, &cfg.profiling);
        let outcome = search(&KvGenerator::new(), &target, &cfg);

        assert_eq!(outcome.history.len(), 14);
        let mins = outcome.running_min();
        assert!(mins.last().unwrap() <= mins.first().unwrap());
        assert_eq!(*mins.last().unwrap(), outcome.best_error);
        // The best profile should at least be in the same IPC ballpark.
        let t_ipc = target.mean(DistMetric::Ipc);
        let b_ipc = outcome.best_profile.mean(DistMetric::Ipc);
        assert!(
            (t_ipc - b_ipc).abs() / t_ipc < 0.5,
            "target ipc {t_ipc}, best {b_ipc}, err {}",
            outcome.best_error
        );
    }

    #[test]
    fn evaluate_under_the_emd_objective_is_the_profile_error() {
        let mut cfg = SearchConfig::fast(1);
        cfg.profiling = cfg.profiling.without_curves();
        cfg.weights = MetricWeights::equal().with_dist_weight(DistMetric::Ipc, 2.5);
        let target = profile_workload(&small_target(), &cfg.machine, &cfg.profiling);
        let done = evaluate(
            &KvGenerator::new(),
            &cfg,
            &emd_objective(&target, &cfg.weights),
            &[0.3; 6],
            &mut StageTimes::new(),
            &CancelToken::new(),
            None,
        );
        let expected = profile_error(&target, &done.profile, &cfg.weights).total;
        assert_eq!(done.error.to_bits(), expected.to_bits());
        // The weights reach the objective: the same profile under equal
        // weights scores differently.
        let equal = profile_error(&target, &done.profile, &MetricWeights::equal()).total;
        assert_ne!(done.error.to_bits(), equal.to_bits());
    }

    #[test]
    fn random_search_also_runs() {
        let mut cfg = SearchConfig::fast(5);
        cfg.optimizer = OptimizerKind::Random;
        cfg.profiling = cfg.profiling.without_curves();
        let machine = cfg.machine.clone();
        let target = profile_workload(&small_target(), &machine, &cfg.profiling);
        let outcome = search(&KvGenerator::new(), &target, &cfg);
        assert_eq!(outcome.history.len(), 5);
        assert!(outcome.best_error.is_finite());
    }

    #[test]
    fn parallel_search_matches_serial_quality() {
        let mut cfg = SearchConfig::fast(12);
        cfg.profiling = cfg.profiling.without_curves();
        let machine = cfg.machine.clone();
        let target = profile_workload(&small_target(), &machine, &cfg.profiling);
        let par = parallel(&target, &cfg, 4);
        assert_eq!(par.history.len(), 12);
        let ser = search(&KvGenerator::new(), &target, &cfg);
        // Parallel batches explore slightly differently but must land in
        // the same quality regime.
        assert!(
            par.best_error < ser.best_error * 2.0 + 0.2,
            "parallel {} vs serial {}",
            par.best_error,
            ser.best_error
        );
    }

    #[test]
    fn parallel_search_is_deterministic() {
        let mut cfg = SearchConfig::fast(6);
        cfg.profiling = cfg.profiling.without_curves();
        let machine = cfg.machine.clone();
        let target = profile_workload(&small_target(), &machine, &cfg.profiling);
        let a = parallel(&target, &cfg, 3);
        let b = parallel(&target, &cfg, 3);
        assert_eq!(a.best_error, b.best_error);
        assert_eq!(a.best_unit_params, b.best_unit_params);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_panics() {
        let cfg = SearchConfig::fast(0);
        let machine = cfg.machine.clone();
        let target = profile_workload(&small_target(), &machine, &cfg.profiling);
        search(&KvGenerator::new(), &target, &cfg);
    }

    #[test]
    fn faulty_evaluations_do_not_abort_the_search() {
        use datamime_runtime::{EvalFault, FaultPlan};
        let mut cfg = SearchConfig::fast(8);
        cfg.profiling = cfg.profiling.without_curves();
        let machine = cfg.machine.clone();
        let target = profile_workload(&small_target(), &machine, &cfg.profiling);
        let opts = RuntimeOptions {
            batch_k: 2,
            workers: 2,
            faults: FaultInjector::new(
                FaultPlan::new()
                    .fail(1, EvalFault::Panic)
                    .fail(4, EvalFault::Nan),
            ),
            ..RuntimeOptions::default()
        };
        let outcome = search_with_runtime(&KvGenerator::new(), &target, &cfg, &opts)
            .expect("penalized faults must not abort the run");
        assert_eq!(outcome.history.len(), 8);
        assert!(outcome.best_error.is_finite());
        assert_eq!(
            outcome.history[1].error,
            datamime_bayesopt::PENALTY_OBJECTIVE
        );
        assert_eq!(
            outcome.history[4].error,
            datamime_bayesopt::PENALTY_OBJECTIVE
        );
    }

    #[test]
    fn abort_fail_policy_keeps_fail_fast_behavior() {
        use datamime_runtime::{EvalFault, FaultPlan};
        let mut cfg = SearchConfig::fast(4);
        cfg.profiling = cfg.profiling.without_curves();
        let machine = cfg.machine.clone();
        let target = profile_workload(&small_target(), &machine, &cfg.profiling);
        let opts = RuntimeOptions {
            fail_policy: FailPolicy::Abort,
            faults: FaultInjector::new(FaultPlan::new().fail(2, EvalFault::Panic)),
            ..RuntimeOptions::default()
        };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            search_with_runtime(&KvGenerator::new(), &target, &cfg, &opts)
        }))
        .expect_err("abort policy must re-raise the injected panic");
        let msg = datamime_runtime::supervisor::panic_message(err.as_ref());
        assert!(msg.contains("injected panic"), "unexpected payload: {msg}");
    }

    #[test]
    fn eval_timeout_penalizes_instead_of_hanging() {
        // A deadline of zero cancels every evaluation immediately; the
        // profiler returns a truncated profile, the supervisor classifies
        // the attempt as a timeout, and the search still completes.
        let mut cfg = SearchConfig::fast(3);
        cfg.profiling = cfg.profiling.without_curves();
        let machine = cfg.machine.clone();
        let target = profile_workload(&small_target(), &machine, &cfg.profiling);
        let opts = RuntimeOptions {
            eval_timeout: Some(Duration::from_nanos(1)),
            ..RuntimeOptions::default()
        };
        let outcome = search_with_runtime(&KvGenerator::new(), &target, &cfg, &opts)
            .expect("timeouts must be penalized, not fatal");
        assert_eq!(outcome.history.len(), 3);
        for rec in &outcome.history {
            assert_eq!(rec.error, datamime_bayesopt::PENALTY_OBJECTIVE);
        }
    }

    #[test]
    fn resuggested_points_hit_the_memo_cache() {
        // On a bounded-resolution search space, GP-EI's proposals cluster
        // into a few grid cells as it converges, so it re-suggests points
        // whose quantized dataset parameters were already evaluated; those
        // must be served from the memo cache, not re-profiled.
        use crate::generator::QuantizedGenerator;
        let mut cfg = SearchConfig::fast(48);
        cfg.profiling = cfg.profiling.without_curves();
        let machine = cfg.machine.clone();
        let target = profile_workload(&small_target(), &machine, &cfg.profiling);
        let outcome = search(
            &QuantizedGenerator::new(KvGenerator::new(), 4),
            &target,
            &cfg,
        );
        assert_eq!(outcome.history.len(), 48);
        assert_eq!(
            outcome.stats.evaluated + outcome.stats.cache_hits,
            48,
            "every iteration is either profiled or served from cache"
        );
        assert!(
            outcome.stats.cache_hits > 0,
            "expected at least one re-suggested point to hit the memo cache; stats: {:?}",
            outcome.stats
        );
    }

    #[test]
    fn best_profile_matches_fresh_profiling_of_best_workload() {
        // `finish` reuses the tracked winner's profile instead of
        // re-profiling; that cached profile must be byte-identical to a
        // fresh simulation of the same workload.
        let mut cfg = SearchConfig::fast(10);
        cfg.profiling = cfg.profiling.without_curves();
        let machine = cfg.machine.clone();
        let target = profile_workload(&small_target(), &machine, &cfg.profiling);
        let outcome = search(&KvGenerator::new(), &target, &cfg);
        let fresh = profile_workload(&outcome.best_workload, &cfg.machine, &cfg.profiling);
        assert_eq!(
            outcome.best_profile.to_tsv(),
            fresh.to_tsv(),
            "cached best profile diverges from a fresh evaluation"
        );
    }

    #[test]
    fn outcome_is_bit_identical_across_worker_counts() {
        // Memoization and best-profile caching must not perturb the
        // executor's determinism guarantee: same seed + batch_k, different
        // worker counts, byte-identical best profile and identical stats.
        let mut cfg = SearchConfig::fast(12);
        cfg.profiling = cfg.profiling.without_curves();
        let machine = cfg.machine.clone();
        let target = profile_workload(&small_target(), &machine, &cfg.profiling);
        let run = |workers: usize| {
            search_with_runtime(
                &KvGenerator::new(),
                &target,
                &cfg,
                &RuntimeOptions {
                    batch_k: 4,
                    workers,
                    ..RuntimeOptions::default()
                },
            )
            .unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.best_unit_params, b.best_unit_params);
        assert_eq!(a.best_error.to_bits(), b.best_error.to_bits());
        assert_eq!(a.best_profile.to_tsv(), b.best_profile.to_tsv());
        assert_eq!(a.stats, b.stats);
        for (x, y) in a.history.iter().zip(&b.history) {
            assert_eq!(x.unit_params, y.unit_params);
            assert_eq!(x.error.to_bits(), y.error.to_bits());
        }
    }

    #[test]
    fn batch_one_runtime_matches_plain_search() {
        let mut cfg = SearchConfig::fast(8);
        cfg.profiling = cfg.profiling.without_curves();
        let machine = cfg.machine.clone();
        let target = profile_workload(&small_target(), &machine, &cfg.profiling);
        let plain = search(&KvGenerator::new(), &target, &cfg);
        let runtime = search_with_runtime(
            &KvGenerator::new(),
            &target,
            &cfg,
            &RuntimeOptions::default(),
        )
        .unwrap();
        assert_eq!(plain.best_unit_params, runtime.best_unit_params);
        assert_eq!(plain.best_error.to_bits(), runtime.best_error.to_bits());
        for (a, b) in plain.history.iter().zip(&runtime.history) {
            assert_eq!(a.unit_params, b.unit_params);
            assert_eq!(a.error.to_bits(), b.error.to_bits());
        }
    }
}
