//! The shadow search: the search loop rebuilt in this file from the
//! layers' public functions, in the order `core::search::evaluate` and
//! the runtime's executor call them, with a span around every call.
//!
//! The shadow is only trusted when it observes exactly the bits the real
//! search observes (the caller compares history checksums), so the spans
//! describe the real control flow and not an approximation of it.

use crate::estimator::Fnv;
use crate::spans::Recorder;
use crate::units::{Env, Prepared};
use datamime::arena::EvalArena;
use datamime::distproc::{dist_context, EvalSpec};
use datamime::error_model::profile_error;
use datamime::generator::DatasetGenerator;
use datamime::profile::{CurvePoint, Profile};
use datamime::profiler::{profile_workload, CurveMethod};
use datamime_bayesopt::{BayesOpt, BlackBoxOptimizer, BoConfig, PENALTY_OBJECTIVE};
use datamime_dist::{Broker, BrokerConfig};
use datamime_loadgen::Driver;
use datamime_runtime::{Backend, EvalRecord, JournalWriter, MemoCache, MetricsRegistry, RunMeta};
use datamime_sim::{Machine, Sampler};
use std::sync::Arc;
use std::time::Instant;

/// Exact counts gathered while evaluating.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Evaluations that ran (memo hits excluded).
    pub evals: u64,
    /// `AppConfig::build` calls.
    pub builds: u64,
    /// Requests the load generator served.
    pub requests: u64,
}

fn curve_point(sampler: &Sampler, cache_bytes: u64) -> CurvePoint {
    let samples = sampler.samples();
    let n = samples.len() as f64;
    CurvePoint {
        cache_bytes,
        llc_mpki: samples.iter().map(|s| s.llc_mpki).sum::<f64>() / n,
        ipc: samples.iter().map(|s| s.ipc).sum::<f64>() / n,
    }
}

/// One evaluation — instantiate, profile (main run, then the restart
/// curve sweep), assemble, compare — as `core::search::evaluate` and
/// `profiler::profile_app_cancellable_in` perform it, span by span.
pub fn evaluate(
    rec: &mut Recorder,
    p: &Prepared,
    arena: &mut EvalArena,
    unit: &[f64],
    eval: u32,
    counts: &mut Counts,
) -> f64 {
    let id = Some(eval);
    let prof = &p.cfg.profiling;
    assert_eq!(
        prof.curve_method,
        CurveMethod::Restart,
        "the shadow mirrors the restart curve sweep only"
    );
    let whole = rec.enter("bench.eval", id);
    let workload = rec.span("core.instantiate", id, || p.generator.instantiate(unit));

    let main = rec.enter("core.profile_main", id);
    let mut main_app = rec.span("apps.build", id, || workload.app.build());
    let mut machine = arena.take_machine(p.cfg.machine.clone());
    let mut sampler = arena.take_sampler(prof.interval_cycles);
    let mut driver = Driver::new(workload.load, prof.seed);
    let stats = rec.span("loadgen.driver_run", id, || {
        driver.run_cancellable(
            main_app.as_mut(),
            &mut machine,
            &mut sampler,
            prof.n_samples,
            &mut || false,
        )
    });
    counts.builds += 1;
    counts.requests += stats.completed;
    arena.recycle_machine(machine);
    // The profiler keeps the main run's application (its dataset) alive
    // across the curve sweep; so does the shadow.
    rec.exit(main);

    let mut curve = Vec::new();
    if p.cfg.machine.llc.is_some() && !prof.curve_ways.is_empty() {
        let sweep = rec.enter("core.curve_sweep", id);
        for &ways in &prof.curve_ways {
            if ways == 0 || ways > p.cfg.machine.llc_partitions() {
                continue;
            }
            let part = p.cfg.machine.with_llc_ways(ways);
            let mut app = rec.span("apps.build", id, || workload.app.build());
            let mut machine = arena.take_machine(part.clone());
            let mut point = arena.take_sampler(prof.interval_cycles);
            let mut driver = Driver::new(workload.load, prof.seed ^ u64::from(ways));
            let stats = rec.span("loadgen.driver_run", id, || {
                driver.run_cancellable(
                    app.as_mut(),
                    &mut machine,
                    &mut point,
                    prof.curve_samples.max(1),
                    &mut || false,
                )
            });
            counts.builds += 1;
            counts.requests += stats.completed;
            curve.push(curve_point(&point, part.llc_bytes()));
            arena.recycle_machine(machine);
            arena.recycle_sampler(point);
        }
        rec.exit(sweep);
    }

    let profile = rec.span("core.profile_assemble", id, || {
        Profile::from_samples(sampler.samples(), curve).expect("finite samples build a profile")
    });
    arena.recycle_sampler(sampler);
    let error = rec.span("core.profile_error", id, || {
        profile_error(&p.target, &profile, &p.cfg.weights).total
    });
    counts.evals += 1;
    rec.span("apps.drop", id, || drop(main_app));
    rec.exit(whole);
    error
}

/// What kind of work a `suggest` call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuggestKind {
    /// Served from the Latin-hypercube initial design.
    Init,
    /// GP fit with the previous hyperparameters, then acquisition.
    Plain,
    /// Hyperparameter refit (Nelder–Mead multistart), then acquisition.
    Refit,
}

impl SuggestKind {
    /// The span a call of this kind is recorded under. A suggest span's
    /// `eval` id is the number of observations the optimiser held.
    pub fn span_name(self) -> &'static str {
        match self {
            SuggestKind::Init => "bayesopt.suggest_init",
            SuggestKind::Plain => "bayesopt.suggest_plain",
            SuggestKind::Refit => "bayesopt.suggest_refit",
        }
    }
}

/// Predicts, from `BoConfig`'s public fields alone, which `suggest`
/// calls refit hyperparameters: the first model-based one, then whenever
/// `refit_every` observations (pending batch points included) have
/// accumulated since the last refit.
#[derive(Debug)]
pub struct RefitClock {
    init_left: usize,
    refit_every: usize,
    fitted: bool,
    since_fit: usize,
}

impl RefitClock {
    /// A clock for an optimiser built from `cfg`.
    pub fn new(cfg: &BoConfig) -> Self {
        RefitClock {
            init_left: cfg.init_points,
            refit_every: cfg.refit_every,
            fitted: false,
            since_fit: 0,
        }
    }

    /// Classifies a batch of `k` suggestions drawn now.
    pub fn batch(&mut self, k: usize) -> SuggestKind {
        let mut kind = SuggestKind::Init;
        for pending in 0..k {
            if self.init_left > 0 {
                self.init_left -= 1;
                continue;
            }
            if !self.fitted || self.since_fit + pending >= self.refit_every {
                self.fitted = true;
                self.since_fit = 0;
                kind = SuggestKind::Refit;
            } else if kind == SuggestKind::Init {
                kind = SuggestKind::Plain;
            }
        }
        kind
    }

    /// `k` observations were fed back.
    pub fn observed(&mut self, k: usize) {
        self.since_fit += k;
    }
}

/// What a shadow search produced.
#[derive(Debug, Default)]
pub struct ShadowRun {
    /// Every observation, in order.
    pub history: Vec<(Vec<f64>, f64)>,
    /// The best observation.
    pub best: (Vec<f64>, f64),
    /// Exact counts of the in-process evaluations.
    pub counts: Counts,
    /// Observations served by the memo cache.
    pub memo_hits: u64,
    /// Journal appends and the journal's final size in bytes.
    pub journal: (u64, u64),
    /// Failed attempts the backend reported.
    pub failed_attempts: u64,
    /// Each `evaluate_batch` call (process backend): its seconds and the
    /// history indices it evaluated.
    pub batches: Vec<(f64, Vec<usize>)>,
    /// Verdicts answered by a respawned worker incarnation.
    pub respawned_verdicts: u64,
}

impl ShadowRun {
    /// The checksum `units::outcome_checksum` gives the real search.
    pub fn checksum(&self) -> u64 {
        let mut h = Fnv::default();
        for (unit, error) in &self.history {
            h.observation(unit, *error);
        }
        h.observation(&self.best.0, self.best.1);
        h.finish()
    }

    fn observe(&mut self, unit: Vec<f64>, error: f64) {
        if self.history.is_empty() || error < self.best.1 {
            self.best = (unit.clone(), error);
        }
        self.history.push((unit, error));
    }
}

fn denormalized(generator: &dyn DatasetGenerator, unit: &[f64]) -> Vec<f64> {
    generator
        .param_specs()
        .iter()
        .zip(unit)
        .map(|(spec, &u)| spec.denormalize(u))
        .collect()
}

/// The thread-backend search, batch 1: suggest → memo lookup → evaluate →
/// observe, under one `bench.search` span.
pub fn thread_search(rec: &mut Recorder, p: &Prepared, arena: &mut EvalArena) -> ShadowRun {
    let search = rec.enter("bench.search", None);
    let bo_cfg = BoConfig::for_dims(p.generator.dims());
    let mut clock = RefitClock::new(&bo_cfg);
    let mut bo = BayesOpt::new(bo_cfg, p.cfg.seed);
    // The context only separates caches; one cache, any context.
    let mut memo = MemoCache::new(0);
    let mut run = ShadowRun::default();
    for i in 0..p.cfg.iterations {
        let id = Some(i as u32);
        let unit = rec
            .span(clock.batch(1).span_name(), id, || bo.suggest_batch(1))
            .pop()
            .expect("a batch of one");
        let key = denormalized(p.generator.as_ref(), &unit);
        let hit = rec.span("runtime.memo_lookup", id, || memo.lookup(&key).copied());
        let error = match hit {
            Some(entry) => {
                run.memo_hits += 1;
                entry.error
            }
            None => {
                let error = evaluate(rec, p, arena, &unit, i as u32, &mut run.counts);
                memo.insert(&key, error, i, None);
                error
            }
        };
        rec.span("bayesopt.observe", id, || bo.observe(unit.clone(), error));
        clock.observed(1);
        run.observe(unit, error);
    }
    rec.exit(search);
    run
}

/// The process-backend search as `core::search` assembles it: stage the
/// target, start a broker, drive batches through `evaluate_batch`,
/// journal every observation, stop the broker, re-profile the winner.
pub fn proc_search(
    rec: &mut Recorder,
    p: &Prepared,
    env: &Env,
    slot: usize,
    registry: &Arc<MetricsRegistry>,
) -> Result<ShadowRun, String> {
    let search = rec.enter("bench.search", None);
    let opts = p.spec.runtime_options();
    let batch_k = opts.batch_k.max(1);
    let workers = match &opts.backend {
        datamime::search::BackendChoice::Process(proc) => proc.workers.max(1),
        datamime::search::BackendChoice::Thread => {
            return Err("proc_search needs a backend=proc spec".to_string())
        }
    };
    let worker_bin = env
        .worker_bin
        .clone()
        .ok_or("the process backend needs --worker-bin")?;

    let dir = env.work.join(format!("shadow-proc-{slot}"));
    let (spec, ctx) = rec.span("core.target_stage", None, || {
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        let target_path = dir.join("target.tsv");
        std::fs::write(&target_path, p.target.to_tsv())
            .map_err(|e| format!("cannot stage the target profile: {e}"))?;
        let spec = EvalSpec::from_search(p.generator.as_ref(), &p.cfg, target_path)?;
        Ok::<_, String>((spec, dist_context(p.generator.as_ref(), &p.cfg, &p.target)))
    })?;
    let mut bcfg = BrokerConfig::new(worker_bin, workers);
    bcfg.worker_args = spec.to_argv();
    bcfg.ctx_fingerprint = ctx;
    bcfg.seed = p.cfg.seed;
    bcfg.deadline = opts.eval_timeout;
    bcfg.max_retries = opts.max_retries;
    bcfg.fail_policy = opts.fail_policy;
    bcfg.penalty = PENALTY_OBJECTIVE;
    bcfg.metrics = Some(Arc::clone(registry));
    let mut broker = rec.span("dist.broker_start", None, || Broker::start(bcfg))?;

    let bo_cfg = BoConfig::for_dims(p.generator.dims());
    let mut clock = RefitClock::new(&bo_cfg);
    let mut bo = BayesOpt::new(bo_cfg, p.cfg.seed);
    let mut memo = MemoCache::new(ctx);
    let meta = RunMeta {
        label: p.generator.name().to_string(),
        seed: p.cfg.seed,
        dims: p.generator.dims(),
        iterations: p.cfg.iterations,
        batch_k,
        workers: opts.workers.max(1),
        optimizer: p.cfg.optimizer.tag().to_string(),
    };
    let journal_path = env.work.join(format!("shadow-{slot}.jsonl"));
    let mut journal = rec
        .span("runtime.journal_create", None, || {
            JournalWriter::create(&journal_path, &meta)
        })
        .map_err(|e| format!("cannot create the shadow journal: {e}"))?;

    let mut run = ShadowRun::default();
    let mut since_checkpoint = 0;
    while run.history.len() < p.cfg.iterations {
        let done = run.history.len();
        let k = batch_k.min(p.cfg.iterations - done);
        let id = Some(done as u32);
        let units = rec.span(clock.batch(k).span_name(), id, || bo.suggest_batch(k));

        let mut slots: Vec<Result<datamime_runtime::MemoEntry, usize>> = Vec::with_capacity(k);
        let mut jobs: Vec<(usize, Vec<f64>)> = Vec::new();
        for (i, unit) in units.iter().enumerate() {
            let key = denormalized(p.generator.as_ref(), unit);
            let hit = rec.span("runtime.memo_lookup", id, || memo.lookup(&key).copied());
            match hit {
                Some(entry) => {
                    run.memo_hits += 1;
                    slots.push(Ok(entry));
                }
                None => {
                    slots.push(Err(jobs.len()));
                    jobs.push((done + i, unit.clone()));
                }
            }
        }
        let verdicts = if jobs.is_empty() {
            Vec::new()
        } else {
            let started = Instant::now();
            let mut failed_attempts = 0;
            let verdicts = rec.span("dist.evaluate_batch", id, || {
                broker.evaluate_batch(&jobs, &mut |_| failed_attempts += 1)
            })?;
            run.batches.push((
                started.elapsed().as_secs_f64(),
                jobs.iter().map(|(index, _)| *index).collect(),
            ));
            run.failed_attempts += failed_attempts;
            verdicts
        };

        for (i, unit) in units.into_iter().enumerate() {
            let index = done + i;
            let record = match &slots[i] {
                Ok(entry) => EvalRecord {
                    index,
                    unit,
                    error: entry.error,
                    stage_ms: Vec::new(),
                    fault: None,
                    cached: Some(entry.source),
                    worker: entry.worker,
                },
                Err(j) => {
                    let v = &verdicts[*j];
                    EvalRecord {
                        index,
                        unit,
                        error: v.error,
                        stage_ms: v.stages.to_millis(),
                        fault: v.fault.clone(),
                        cached: None,
                        worker: v.worker,
                    }
                }
            };
            if record.cached.is_none() && record.fault.is_none() {
                let key = denormalized(p.generator.as_ref(), &record.unit);
                memo.insert(&key, record.error, index, record.worker);
                run.respawned_verdicts +=
                    u64::from(record.worker.is_some_and(|w| w > workers as u64));
            }
            rec.span("bayesopt.observe", id, || {
                bo.observe(record.unit.clone(), record.error)
            });
            run.observe(record.unit.clone(), record.error);
            rec.span("runtime.journal_append", id, || {
                if record.fault.is_some() {
                    journal.fault(&record)
                } else if record.cached.is_some() {
                    journal.cache_hit(&record)
                } else {
                    journal.eval(&record)
                }
            })
            .map_err(|e| format!("shadow journal append failed: {e}"))?;
            run.journal.0 += 1;
            since_checkpoint += 1;
            if since_checkpoint >= 25 {
                since_checkpoint = 0;
                journal
                    .checkpoint(index + 1, run.best.1, &run.best.0)
                    .map_err(|e| format!("shadow journal checkpoint failed: {e}"))?;
            }
        }
        clock.observed(k);
    }

    let tail = rec.enter("core.search_tail", None);
    rec.span("runtime.journal_done", None, || {
        journal.done(run.history.len(), run.best.1, &run.best.0)
    })
    .map_err(|e| format!("shadow journal done failed: {e}"))?;
    drop(journal);
    rec.span("dist.broker_stop", None, || drop(broker));
    // Workers return only the error, so `finish` re-profiles the winner.
    rec.span("core.tail_reprofile", None, || {
        let w = p.generator.instantiate(&run.best.0);
        profile_workload(&w, &p.cfg.machine, &p.cfg.profiling)
    });
    rec.exit(tail);
    run.journal.1 = std::fs::metadata(&journal_path).map_or(0, |m| m.len());
    // Best effort: the run's scratch directory is removed as a whole.
    let _ = std::fs::remove_dir_all(&dir);
    rec.exit(search);
    Ok(run)
}

/// What replaying recorded event streams measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayStats {
    /// Evaluations whose streams were recorded and replayed.
    pub evals: u64,
    /// Seconds in `Trace::replay`, summed.
    pub replay_secs: f64,
    /// Instructions the replayed streams retired.
    pub instructions: u64,
    /// Events in the replayed streams.
    pub events: u64,
    /// Streams whose replay did not reproduce the recording's counters.
    pub mismatches: u64,
}

/// Records one driver run's event stream and replays it, timing only the
/// replay. The replay runs on the recording machine after `reinit` — the
/// state an arena-recycled machine starts an evaluation in (bit-identical
/// to fresh, its arrays already paged in).
fn record_and_replay(
    app: &mut dyn datamime_apps::App,
    machine_cfg: &datamime_sim::MachineConfig,
    load: datamime_loadgen::WorkloadSpec,
    seed: u64,
    interval: u64,
    samples: usize,
    stats: &mut ReplayStats,
) {
    let mut machine = Machine::new(machine_cfg.clone());
    let mut sampler = Sampler::new(interval);
    machine.start_recording();
    Driver::new(load, seed).run(app, &mut machine, &mut sampler, samples);
    let trace = machine.stop_recording().expect("recording was started");
    let recorded = *machine.counters();
    machine.reinit(machine_cfg.clone());
    let started = Instant::now();
    trace.replay(&mut machine);
    stats.replay_secs += started.elapsed().as_secs_f64();
    stats.instructions += recorded.instructions;
    stats.events += trace.len() as u64;
    stats.mismatches += u64::from(*machine.counters() != recorded);
}

/// Re-runs evaluation `unit` with event recording on — every driver run
/// the evaluation makes — and replays each stream on a fresh machine.
/// The replay is the simulator's share of the driver run; what is left is
/// the application and the load generator.
pub fn replay_evaluation(p: &Prepared, unit: &[f64], stats: &mut ReplayStats) {
    let prof = &p.cfg.profiling;
    let workload = p.generator.instantiate(unit);
    let mut app = workload.app.build();
    record_and_replay(
        app.as_mut(),
        &p.cfg.machine,
        workload.load,
        prof.seed,
        prof.interval_cycles,
        prof.n_samples,
        stats,
    );
    if p.cfg.machine.llc.is_some() {
        for &ways in &prof.curve_ways {
            if ways == 0 || ways > p.cfg.machine.llc_partitions() {
                continue;
            }
            let mut app = workload.app.build();
            record_and_replay(
                app.as_mut(),
                &p.cfg.machine.with_llc_ways(ways),
                workload.load,
                prof.seed ^ u64::from(ways),
                prof.interval_cycles,
                prof.curve_samples.max(1),
                stats,
            );
        }
    }
    stats.evals += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refit_clock_follows_the_public_config() {
        let cfg = BoConfig::for_dims(4); // 8 initial points, refit every 10
        let mut clock = RefitClock::new(&cfg);
        let mut kinds = Vec::new();
        for _ in 0..30 {
            kinds.push(clock.batch(1));
            clock.observed(1);
        }
        assert!(kinds[..8].iter().all(|k| *k == SuggestKind::Init));
        let refits: Vec<usize> = kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == SuggestKind::Refit)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(refits, vec![8, 18, 28]);
        assert_eq!(kinds[9], SuggestKind::Plain);
    }

    #[test]
    fn a_batch_that_crosses_the_threshold_counts_its_pending_points() {
        let cfg = BoConfig::for_dims(3); // 6 initial points
        let mut clock = RefitClock::new(&cfg);
        let mut kinds = Vec::new();
        for _ in 0..10 {
            kinds.push(clock.batch(2));
            clock.observed(2);
        }
        // Batches 0..3 drain the design; batch 3 is the first model fit;
        // batch 7 sees 8 + 1 pending (no refit), batch 8 sees 10.
        assert_eq!(kinds[2], SuggestKind::Init);
        assert_eq!(kinds[3], SuggestKind::Refit);
        assert_eq!(kinds[4], SuggestKind::Plain);
        assert_eq!(kinds[7], SuggestKind::Plain);
        assert_eq!(kinds[8], SuggestKind::Refit);
    }
}
