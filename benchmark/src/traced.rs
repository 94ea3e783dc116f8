//! The traced run: two real units (for floors and the host-noise ratio),
//! one shadow unit under spans, and the probes, reduced to the per-layer
//! metrics. End-to-end numbers never come from here.

use crate::estimator::{mean, median, percentile, Fnv};
use crate::report::{LayerValues, RunResult};
use crate::shadow::{
    evaluate, proc_search, replay_evaluation, thread_search, Counts, ReplayStats, ShadowRun,
    SuggestKind,
};
use crate::spans::{
    attributed_frac, span_cost_secs, totals_under, trace_json, NameTotals, Recorder, Span,
};
use crate::timed::{floors_of, run_repeats, Floors, Repeats};
use crate::units::{
    cpu_seconds, one_shot_reference, prepare, run_search_unit, run_serve_unit, start_daemon,
    ClientTrace, Env, Prepared,
};
use crate::workloads::{Kind, WorkloadDef};
use datamime::arena::EvalArena;
use datamime_runtime::MetricsRegistry;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Real units a traced run makes before the shadow: enough for a floor
/// and a noise ratio, and a second witness for the checksum.
const REAL_UNITS: usize = 2;

/// Every layer must own at least this share of the traced unit.
const MIN_ATTRIBUTED: f64 = 0.90;

type Totals = BTreeMap<&'static str, NameTotals>;

fn total(t: &Totals, name: &str) -> f64 {
    t.get(name).map_or(0.0, |n| n.total)
}

fn count(t: &Totals, name: &str) -> f64 {
    t.get(name).map_or(0.0, |n| n.count as f64)
}

fn per(total: f64, n: f64) -> f64 {
    if n > 0.0 {
        total / n
    } else {
        0.0
    }
}

/// The unit checksum `units::run_search_unit` gives a list of searches.
fn unit_checksum(searches: &[ShadowRun]) -> u64 {
    let mut sum = Fnv::default();
    for s in searches {
        sum.word(s.checksum());
    }
    sum.finish()
}

/// The metrics every workload derives from its real units' floors.
fn floor_metrics(v: &mut LayerValues, floors: &Floors, kind: Kind) {
    v.set("runtime.step_ms_p50", median(&floors.steps) * 1e3);
    v.set("runtime.step_ms_p90", percentile(&floors.steps, 0.9) * 1e3);
    v.set("host.noise_ratio", floors.noise_ratio);
    if kind != Kind::Serve {
        v.set("core.first_eval_ms", mean(&floors.first_steps) * 1e3);
        v.set("core.tail_ms", mean(&floors.tails) * 1e3);
    }
}

/// The per-evaluation metrics of the in-process evaluation spans under
/// `root` (the shadow unit, or the in-process pass of the proc workload).
fn evaluation_metrics(v: &mut LayerValues, t: &Totals, counts: &Counts) {
    let evals = counts.evals as f64;
    v.set(
        "apps.build_ms_per_eval",
        per(total(t, "apps.build"), evals) * 1e3,
    );
    v.set("apps.builds_per_eval", per(counts.builds as f64, evals));
    v.set(
        "loadgen.driver_run_ms_per_eval",
        per(total(t, "loadgen.driver_run"), evals) * 1e3,
    );
    v.set(
        "loadgen.requests_per_eval",
        per(counts.requests as f64, evals),
    );
    v.set(
        "core.instantiate_us",
        per(total(t, "core.instantiate"), evals) * 1e6,
    );
    v.set(
        "core.profile_main_ms_per_eval",
        per(total(t, "core.profile_main"), evals) * 1e3,
    );
    v.set(
        "core.curve_sweep_ms_per_eval",
        per(total(t, "core.curve_sweep"), evals) * 1e3,
    );
    v.set(
        "core.profile_assemble_us",
        per(total(t, "core.profile_assemble"), evals) * 1e6,
    );
    v.set(
        "core.profile_error_us",
        per(total(t, "core.profile_error"), evals) * 1e6,
    );
}

/// The simulator's share: replayed streams against the shadow's own
/// driver-run spans of the same evaluations.
fn replay_metrics(v: &mut LayerValues, stats: &ReplayStats, driver_secs_of_replayed: f64) {
    let n = stats.evals as f64;
    v.set("sim.replay_ms_per_eval", per(stats.replay_secs, n) * 1e3);
    v.set(
        "sim.minstr_per_s",
        per(stats.instructions as f64 / 1e6, stats.replay_secs),
    );
    v.set(
        "sim.instructions_per_eval",
        per(stats.instructions as f64, n),
    );
    v.set("sim.events_per_eval", per(stats.events as f64, n));
    v.set(
        "apps.exec_ms_per_eval",
        per(driver_secs_of_replayed - stats.replay_secs, n) * 1e3,
    );
}

/// The optimiser's metrics from the shadow's `suggest_batch` spans (a
/// suggest span's `eval` is the number of observations held).
fn bayesopt_metrics(v: &mut LayerValues, spans: &[Span], t: &Totals, root_secs: f64) {
    let of = |kind: SuggestKind| spans.iter().filter(move |s| s.name == kind.span_name());
    let ms = |kind: SuggestKind| -> Vec<f64> { of(kind).map(|s| s.secs() * 1e3).collect() };
    v.set(
        "bayesopt.suggest_plain_ms_p50",
        median(&ms(SuggestKind::Plain)),
    );
    v.set(
        "bayesopt.suggest_refit_ms_p50",
        median(&ms(SuggestKind::Refit)),
    );
    v.set("bayesopt.refits", of(SuggestKind::Refit).count() as f64);
    // The refit nearest to n observations, if the search got that far.
    let refit_at = |n: u32| {
        of(SuggestKind::Refit)
            .filter_map(|s| Some((s.eval?.abs_diff(n), s.secs() * 1e3)))
            .filter(|(off, _)| *off < 10)
            .min_by_key(|(off, _)| *off)
            .map_or(0.0, |(_, ms)| ms)
    };
    v.set("bayesopt.refit_ms_at_64", refit_at(64));
    v.set("bayesopt.refit_ms_at_88", refit_at(88));
    v.set(
        "bayesopt.observe_us",
        per(total(t, "bayesopt.observe"), count(t, "bayesopt.observe")) * 1e6,
    );
    let busy: f64 = t
        .iter()
        .filter(|(name, _)| name.starts_with("bayesopt."))
        .map(|(_, n)| n.total)
        .sum();
    v.set("bayesopt.share", per(busy, root_secs));
}

/// Memo counters of the shadow.
fn memo_metrics(v: &mut LayerValues, searches: &[ShadowRun], t: &Totals, observations: usize) {
    let hits: u64 = searches.iter().map(|s| s.memo_hits).sum();
    v.set(
        "runtime.memo_lookup_ns",
        per(
            total(t, "runtime.memo_lookup"),
            count(t, "runtime.memo_lookup"),
        ) * 1e9,
    );
    v.set("runtime.memo_hits", hits as f64);
    v.set(
        "runtime.memo_hit_ratio",
        per(hits as f64, observations as f64),
    );
}

/// The trace's own bookkeeping, and the file.
fn trace_metrics(
    v: &mut LayerValues,
    def: &WorkloadDef,
    spans: &[Span],
    root: usize,
    out: &Path,
) -> Result<f64, String> {
    let attributed = attributed_frac(spans, root);
    v.set("trace.attributed_frac", attributed);
    v.set(
        "trace.overhead_frac",
        per(spans.len() as f64 * span_cost_secs(), spans[root].secs()),
    );
    v.set("trace.spans", spans.len() as f64);
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {out:?}: {e}"))?;
    let path = out.join(format!("{}.trace.json", def.name));
    std::fs::write(&path, trace_json(def.name, spans, root))
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    eprintln!(
        "benchmark: {}: {} spans, {:.1} % attributed, trace in {}",
        def.name,
        spans.len(),
        attributed * 100.0,
        path.display()
    );
    Ok(attributed)
}

/// Seconds of `loadgen.driver_run` spans belonging to evaluation ids in
/// `evals`, under `root`.
fn driver_secs_of(spans: &[Span], evals: &[u32]) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == "loadgen.driver_run" && s.eval.is_some_and(|e| evals.contains(&e)))
        .map(Span::secs)
        .sum()
}

/// What the checks of a traced run found.
#[derive(Debug, Default)]
struct Checks {
    attempted: usize,
    failed: usize,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("benchmark: CHECK FAILED: {what}");
        }
    }
}

/// What the kind-specific half of a traced run reads (the real units
/// that ran first) and writes (metrics, checks).
struct Traced<'a> {
    def: &'a WorkloadDef,
    env: &'a Env,
    out: &'a Path,
    rep: &'a Repeats,
    floors: &'a Floors,
    v: LayerValues,
    checks: Checks,
}

/// The traced run of one workload.
pub fn run(def: &WorkloadDef, env: &Env, out: &Path) -> Result<RunResult, String> {
    let cpu_before = cpu_seconds()?;
    let started = Instant::now();
    let mut v = LayerValues::default();
    let mut checks = Checks::default();

    let rep = run_repeats(def, REAL_UNITS, REAL_UNITS, env)?;
    let real = &rep.units[0];
    checks.attempted += REAL_UNITS * (def.observations() + def.jobs());
    checks.failed += rep.units.iter().map(|u| u.failed).sum::<usize>() + rep.reference_mismatches;
    checks.expect(
        rep.units.iter().all(|u| u.checksum == real.checksum),
        "the real units disagree on their history checksum",
    );
    let floors = floors_of(&rep.units)?;
    floor_metrics(&mut v, &floors, def.kind);
    v.set(
        "runtime.faults",
        rep.units.iter().map(|u| u.failed).sum::<usize>() as f64,
    );
    v.set(
        "runtime.retries",
        rep.units.iter().map(|u| u.failed_attempts).sum::<usize>() as f64,
    );

    let mut t = Traced {
        def,
        env,
        out,
        rep: &rep,
        floors: &floors,
        v,
        checks,
    };
    let attributed = match def.kind {
        Kind::Thread => thread(&mut t)?,
        Kind::Proc => proc(&mut t)?,
        Kind::Serve => serve(&mut t)?,
    };
    let Traced {
        mut v, mut checks, ..
    } = t;
    checks.expect(
        attributed >= MIN_ATTRIBUTED,
        "less than 90 % of the traced unit is attributed to a layer",
    );

    let wall = started.elapsed().as_secs_f64();
    v.set("host.cpu_util", per(cpu_seconds()? - cpu_before, wall));
    Ok(RunResult {
        correct: checks.failed == 0,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: v.into_metrics(),
    })
}

fn thread(t: &mut Traced<'_>) -> Result<f64, String> {
    let (def, env, out, floors) = (t.def, t.env, t.out, t.floors);
    let (setup, real_checksum) = (t.rep.setup_floors()?, t.rep.units[0].checksum);
    let (v, checks) = (&mut t.v, &mut t.checks);
    let specs = def.parsed_specs(env.worker_bin.as_deref())?;
    let p = prepare(&specs[0])?;
    v.set("core.target_profile_ms", mean(&setup) * 1e3);

    let mut rec = Recorder::new();
    let mut arena = EvalArena::new();
    let root = rec.enter("bench.unit", None);
    let shadow = thread_search(&mut rec, &p, &mut arena);
    rec.exit(root);
    let searches = [shadow];
    checks.expect(
        unit_checksum(&searches) == real_checksum,
        "the shadow search observed different bits than the real search",
    );

    let mut stats = ReplayStats::default();
    let replayed: Vec<u32> = (0..p.cfg.iterations as u32)
        .step_by(def.replay_stride)
        .collect();
    for &i in &replayed {
        replay_evaluation(&p, &searches[0].history[i as usize].0, &mut stats);
    }
    checks.expect(
        stats.mismatches == 0,
        "a replayed event stream did not reproduce its recording's counters",
    );

    let spans = rec.into_spans();
    let t = totals_under(&spans, root);
    let root_secs = spans[root].secs();
    evaluation_metrics(v, &t, &searches[0].counts);
    replay_metrics(v, &stats, driver_secs_of(&spans, &replayed));
    bayesopt_metrics(v, &spans, &t, root_secs);
    memo_metrics(v, &searches, &t, def.observations());
    v.set(
        "runtime.overhead_ms_per_eval",
        per(floors.raw_wall - root_secs, def.observations() as f64) * 1e3,
    );
    trace_metrics(v, def, &spans, root, out)
}

fn proc(t: &mut Traced<'_>) -> Result<f64, String> {
    let (def, env, out, floors) = (t.def, t.env, t.out, t.floors);
    let (setup, real_checksum) = (t.rep.setup_floors()?, t.rep.units[0].checksum);
    let (v, checks) = (&mut t.v, &mut t.checks);
    let specs = def.parsed_specs(env.worker_bin.as_deref())?;
    let prepared: Vec<Prepared> = specs.iter().map(prepare).collect::<Result<_, _>>()?;
    v.set("core.target_profile_ms", mean(&setup) * 1e3);

    // The shadow unit: the searches back to back, as the real unit runs
    // them, through a broker this file starts.
    let registry = Arc::new(MetricsRegistry::new());
    let mut rec = Recorder::new();
    let root = rec.enter("bench.unit", None);
    let mut searches = Vec::new();
    for (k, p) in prepared.iter().enumerate() {
        searches.push(proc_search(&mut rec, p, env, k, &registry)?);
    }
    rec.exit(root);
    checks.expect(
        unit_checksum(&searches) == real_checksum,
        "the shadow search observed different bits than the real search",
    );

    // The cross-backend invariant: the same specs on the thread backend
    // observe the same bits.
    let threaded: Vec<Prepared> = specs
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.backend = datamime::jobspec::JobBackend::Thread;
            s.worker_bin = None;
            prepare(&s)
        })
        .collect::<Result<_, _>>()?;
    let twin = run_search_unit(&threaded, true, env)?;
    checks.expect(
        twin.checksum == real_checksum,
        "the thread backend observed different bits than the process backend",
    );

    // Every point again, in this process, one at a time: what a batch
    // would cost without the broker, and the in-process layer split.
    let pass = rec.enter("bench.inproc_pass", None);
    let mut arena = EvalArena::new();
    let mut counts = Counts::default();
    let mut stats = ReplayStats::default();
    let mut replayed = Vec::new();
    let mut eval_secs: Vec<Vec<f64>> = Vec::new();
    let mut next_id = 0u32;
    for (p, s) in prepared.iter().zip(&searches) {
        let mut secs = Vec::with_capacity(s.history.len());
        for (i, (unit, error)) in s.history.iter().enumerate() {
            let t0 = Instant::now();
            let again = evaluate(&mut rec, p, &mut arena, unit, next_id, &mut counts);
            secs.push(t0.elapsed().as_secs_f64());
            checks.expect(
                again.to_bits() == error.to_bits(),
                "an in-process evaluation disagrees with the worker's",
            );
            if i % def.replay_stride == 0 {
                replayed.push((p, unit, next_id));
            }
            next_id += 1;
        }
        eval_secs.push(secs);
    }
    rec.exit(pass);
    // Replays come after the pass: their multi-megabyte streams would
    // otherwise evict what the next timed evaluation is about to use.
    for (p, unit, _) in &replayed {
        replay_evaluation(p, unit, &mut stats);
    }
    let replayed: Vec<u32> = replayed.iter().map(|r| r.2).collect();
    checks.expect(
        stats.mismatches == 0,
        "a replayed event stream did not reproduce its recording's counters",
    );

    let spans = rec.into_spans();
    let t = totals_under(&spans, root);
    let root_secs = spans[root].secs();
    evaluation_metrics(v, &totals_under(&spans, pass), &counts);
    replay_metrics(v, &stats, driver_secs_of(&spans, &replayed));
    bayesopt_metrics(v, &spans, &t, root_secs);
    memo_metrics(v, &searches, &t, def.observations());
    v.set(
        "runtime.overhead_ms_per_eval",
        per(floors.raw_wall - root_secs, def.observations() as f64) * 1e3,
    );
    let n = searches.len() as f64;
    v.set(
        "core.target_stage_ms",
        per(total(&t, "core.target_stage"), n) * 1e3,
    );
    v.set(
        "core.tail_reprofile_ms",
        per(total(&t, "core.tail_reprofile"), n) * 1e3,
    );
    v.set(
        "runtime.journal_append_us",
        per(
            total(&t, "runtime.journal_append"),
            count(&t, "runtime.journal_append"),
        ) * 1e6,
    );
    v.set(
        "runtime.journal_appends",
        searches.iter().map(|s| s.journal.0).sum::<u64>() as f64,
    );
    v.set(
        "runtime.journal_bytes",
        searches.iter().map(|s| s.journal.1).sum::<u64>() as f64,
    );
    v.set(
        "runtime.retries",
        v.get("runtime.retries") + searches.iter().map(|s| s.failed_attempts).sum::<u64>() as f64,
    );

    v.set(
        "dist.broker_start_ms",
        per(total(&t, "dist.broker_start"), n) * 1e3,
    );
    v.set(
        "dist.broker_stop_ms",
        per(total(&t, "dist.broker_stop"), n) * 1e3,
    );
    let firsts: Vec<f64> = searches
        .iter()
        .filter_map(|s| s.batches.first().map(|b| b.0))
        .collect();
    v.set("dist.first_batch_ms", mean(&firsts) * 1e3);
    // The first batch of a search also waits for the workers' handshake;
    // it is reported above and kept out of the steady-state overhead.
    // A batch cannot finish before its slowest evaluation, nor before its
    // total work spread over every worker: what it takes beyond that
    // bound is the broker's.
    let workers = specs[0].workers.max(1) as f64;
    let mut overheads = Vec::new();
    let (mut busy, mut batch_wall) = (0.0, 0.0);
    for (s, secs) in searches.iter().zip(&eval_secs) {
        for (wall, indices) in s.batches.iter().skip(1) {
            let alone: Vec<f64> = indices.iter().map(|&i| secs[i]).collect();
            let work: f64 = alone.iter().sum();
            let slowest = alone.iter().copied().fold(0.0, f64::max);
            overheads.push(wall - slowest.max(work / workers));
            busy += work;
            batch_wall += wall;
        }
    }
    v.set("dist.batch_overhead_ms", mean(&overheads) * 1e3);
    v.set("dist.parallel_efficiency", per(busy, workers * batch_wall));
    v.set(
        "dist.worker_restarts",
        registry.get("worker_restarts") as f64,
    );
    v.set(
        "dist.redispatches",
        searches.iter().map(|s| s.respawned_verdicts).sum::<u64>() as f64,
    );
    trace_metrics(v, def, &spans, root, out)
}

/// The client's calls as spans: one `serve.job` per job, its calls
/// beneath it; the job span's self time is the client waiting on the
/// daemon.
struct TenantTrace<'a> {
    rec: &'a mut Recorder,
    open: Option<usize>,
}

impl ClientTrace for TenantTrace<'_> {
    fn job_start(&mut self, job: u32) {
        self.open = Some(self.rec.enter("serve.job", Some(job)));
    }

    fn call(&mut self, name: &'static str, job: u32, started: Instant, secs: f64) {
        self.rec.closed(name, Some(job), started, secs);
    }

    fn job_end(&mut self, _job: u32) {
        if let Some(id) = self.open.take() {
            self.rec.exit(id);
        }
    }
}

/// Times `Manifest` appends (submit, start, done: three fsynced WAL
/// events per job) on a probe root; mean seconds per append.
fn manifest_append_secs(env: &Env) -> Result<f64, String> {
    const JOBS: usize = 16;
    let root = env.work.join("manifest-probe");
    std::fs::create_dir_all(&root).map_err(|e| format!("cannot create {root:?}: {e}"))?;
    let (mut manifest, _) = datamime_serve::Manifest::open(&root)?;
    let started = Instant::now();
    for j in 0..JOBS {
        let job = format!("job-{j:04}");
        manifest
            .submit(&job, "workload=silo iters=8")
            .and_then(|()| manifest.start(&job))
            .and_then(|()| manifest.done(&job, 0.5, &[0.25, 0.75]))
            .map_err(|e| format!("manifest probe append failed: {}", e.message))?;
    }
    let secs = started.elapsed().as_secs_f64();
    drop(manifest);
    std::fs::remove_dir_all(&root).map_err(|e| format!("cannot remove {root:?}: {e}"))?;
    Ok(secs / (3 * JOBS) as f64)
}

fn serve(t: &mut Traced<'_>) -> Result<f64, String> {
    let (def, env, out, rep, floors) = (t.def, t.env, t.out, t.rep, t.floors);
    let (v, checks) = (&mut t.v, &mut t.checks);
    let specs = def.parsed_specs(env.worker_bin.as_deref())?;
    // Each tenant's one-shot twin: the job's checksum, and what the same
    // search costs without a daemon around it (the best of three walls,
    // to set against a floor).
    let twins = &rep.twins;
    let mut twin_walls: Vec<f64> = twins.iter().map(|t| t.wall).collect();
    for _ in 0..2 {
        for (spec, wall) in specs.iter().zip(twin_walls.iter_mut()) {
            *wall = wall.min(one_shot_reference(spec, env)?.wall);
        }
    }
    // The set-up sample's last segment: state root and daemon start to the
    // first accepted connection (the tenants' target profiles precede it).
    let daemon_start = rep.setup_floors()?.last().copied().unwrap_or(0.0);
    v.set("serve.daemon_start_ms", daemon_start * 1e3);
    v.set("serve.job_turnaround_ms_p50", median(&floors.steps) * 1e3);
    v.set("serve.jobs_per_s", per(def.jobs() as f64, floors.wall));

    // The traced unit: client-side spans cost nanoseconds against
    // millisecond calls, so this is a real unit with a recorder attached.
    let mut rec = Recorder::new();
    let daemon = start_daemon(env)?;
    let root = rec.enter("bench.unit", None);
    let mut trace = TenantTrace {
        rec: &mut rec,
        open: None,
    };
    let unit = run_serve_unit(&daemon, &specs, def.jobs_per_tenant, &mut trace);
    rec.exit(root);
    let stats = daemon.client.stats();
    let shutdown = daemon.stop()?;
    let (unit, jobs) = unit?;
    let stats = stats?;
    let stat = |name: &str| stats.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);

    checks.expect(
        jobs.iter()
            .zip(twins.iter().cycle())
            .all(|(job, twin)| job.checksum == twin.checksum),
        "a daemon job differs from its one-shot twin",
    );
    checks.expect(
        stat("evals") == unit.observations as u64 && unit.observations == def.observations(),
        "the admin plane's eval counter disagrees with the clients' count",
    );
    let cache_hits: u64 =
        twins.iter().map(|t| t.cache_hits as u64).sum::<u64>() * def.jobs_per_tenant as u64;
    checks.expect(
        stat("cache_hits") == cache_hits,
        "the admin plane's cache-hit counter disagrees with the one-shot twins",
    );
    checks.expect(
        stat("jobs_completed") == def.jobs() as u64,
        "the admin plane did not count every job as completed",
    );

    v.set("serve.shutdown_ms", shutdown * 1e3);
    v.set(
        "serve.submit_ms",
        mean(&jobs.iter().map(|j| j.submit).collect::<Vec<_>>()) * 1e3,
    );
    let status: Vec<f64> = jobs
        .iter()
        .flat_map(|j| j.status_calls.iter().copied())
        .collect();
    v.set("serve.status_us", median(&status) * 1e6);
    v.set(
        "serve.result_ms",
        mean(&jobs.iter().map(|j| j.result).collect::<Vec<_>>()) * 1e3,
    );
    v.set(
        "serve.submit_to_first_eval_ms",
        median(&jobs.iter().map(|j| j.to_first_eval).collect::<Vec<_>>()) * 1e3,
    );
    // Every job's floor turnaround minus its one-shot twin's wall.
    let fixed: Vec<f64> = floors
        .steps
        .iter()
        .zip(twin_walls.iter().cycle())
        .map(|(job, twin)| job - twin)
        .collect();
    v.set("serve.job_fixed_ms", mean(&fixed) * 1e3);
    v.set("serve.manifest_append_us", manifest_append_secs(env)? * 1e6);
    v.set("serve.stats_evals", stat("evals") as f64);
    v.set("serve.stats_cache_hits", stat("cache_hits") as f64);
    v.set("runtime.memo_hits", stat("cache_hits") as f64);
    v.set(
        "runtime.memo_hit_ratio",
        per(stat("cache_hits") as f64, stat("evals") as f64),
    );
    v.set(
        "runtime.journal_appends",
        jobs.iter().map(|j| j.journal_lines).sum::<u64>() as f64,
    );
    v.set(
        "runtime.journal_bytes",
        jobs.iter().map(|j| j.journal_bytes).sum::<u64>() as f64,
    );
    // From outside the daemon the optimiser is only visible through the
    // admin plane's per-stage totals (whole milliseconds per search).
    let job_secs: f64 = jobs.iter().map(|j| j.turnaround).sum();
    v.set(
        "bayesopt.share",
        per(stat("stage_suggest_ms") as f64 / 1e3, job_secs),
    );

    let spans = rec.into_spans();
    trace_metrics(v, def, &spans, root, out)
}
