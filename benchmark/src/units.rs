//! The real units of work: whole searches through the public entry
//! points, cut into segments, with their set-up and their correctness
//! checks.
//!
//! Nothing here is instrumented beyond a progress sink: these are the
//! runs every end-to-end metric comes from.

use crate::estimator::Fnv;
use crate::workloads::{Kind, WorkloadDef};
use datamime::jobspec::{BoxedGenerator, JobSpec};
use datamime::profile::Profile;
use datamime::profiler::profile_workload;
use datamime::search::{search_with_runtime, SearchConfig, SearchOutcome};
use datamime::servectl::{JobState, ServeClient};
use datamime_runtime::{FailedAttempt, FaultInfo, ProgressSink, SharedSink, TermSignal};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Where a run keeps its files and finds the worker binary.
#[derive(Debug, Clone)]
pub struct Env {
    /// Scratch directory (journals, daemon roots, staged targets), inside
    /// the checkout and removed when the run ends.
    pub work: PathBuf,
    /// The `datamime-worker` binary for the process backend.
    pub worker_bin: Option<PathBuf>,
}

/// Everything a search needs, built from one spec line: this *is* the
/// set-up the `setup_s` metric times on the in-process workloads.
pub struct Prepared {
    /// The parsed spec.
    pub spec: JobSpec,
    /// Machine, iterations, seed, profiling fidelity.
    pub cfg: SearchConfig,
    /// The dataset generator for the spec's program.
    pub generator: BoxedGenerator,
    /// The target workload's profile.
    pub target: Profile,
}

/// Spec → generator → search config → target profile.
pub fn prepare(spec: &JobSpec) -> Result<Prepared, String> {
    let target = spec.target()?;
    let cfg = spec.search_config()?;
    let generator = spec.generator()?;
    let target = profile_workload(&target, &cfg.machine, &cfg.profiling);
    Ok(Prepared {
        spec: spec.clone(),
        cfg,
        generator,
        target,
    })
}

/// Whether the `count`-th observation is the last of its executor batch
/// (batches are `batch_k` wide; the final one may be short).
fn closes_batch(count: usize, batch_k: usize, iterations: usize) -> bool {
    count.is_multiple_of(batch_k) || count == iterations
}

/// What the segment sink saw.
#[derive(Debug, Default)]
struct Marks {
    batch_k: usize,
    iterations: usize,
    /// The instant each executor batch's last observation was committed.
    batch_done: Vec<Instant>,
    faults: usize,
    failed_attempts: usize,
    cache_hits: usize,
    evals: usize,
}

/// The `extra_sink` that cuts a search into segments, one per executor
/// batch (memo-served batches included: every repeat sees the same cuts).
struct MarkSink(Arc<Mutex<Marks>>);

impl ProgressSink for MarkSink {
    fn on_eval(&mut self, index: usize, _error: f64, _best_error: f64) {
        let now = Instant::now();
        let mut m = self.0.lock().expect("mark sink lock");
        m.evals += 1;
        if closes_batch(index + 1, m.batch_k, m.iterations) {
            m.batch_done.push(now);
        }
    }

    fn on_attempt(&mut self, _attempt: &FailedAttempt) {
        self.0.lock().expect("mark sink lock").failed_attempts += 1;
    }

    fn on_cache_hit(&mut self, _index: usize, _source: usize) {
        self.0.lock().expect("mark sink lock").cache_hits += 1;
    }

    fn on_fault(&mut self, _index: usize, _fault: &FaultInfo) {
        self.0.lock().expect("mark sink lock").faults += 1;
    }
}

/// One search, measured from outside.
#[derive(Debug, Clone)]
pub struct SearchRun {
    /// Seconds per executor batch, call → first batch observed included
    /// in the first.
    pub steps: Vec<f64>,
    /// Seconds from the last observation to the call's return (winner
    /// packaging, journal `done`, broker stop).
    pub tail: f64,
    /// Call to return, seconds.
    pub wall: f64,
    /// FNV over every observation's `(unit bits, error bits)`.
    pub checksum: u64,
    /// The search's final error.
    pub best_error: f64,
    /// Observations delivered to the optimiser.
    pub observations: usize,
    /// Observations served from the memo cache.
    pub cache_hits: usize,
    /// Penalised observations.
    pub faults: usize,
    /// Failed evaluation attempts (retries included).
    pub failed_attempts: usize,
}

/// The checksum of a finished search.
pub fn outcome_checksum(out: &SearchOutcome) -> u64 {
    let mut h = Fnv::default();
    for rec in &out.history {
        h.observation(&rec.unit_params, rec.error);
    }
    h.observation(&out.best_unit_params, out.best_error);
    h.finish()
}

/// Runs one search through `search_with_runtime`, journalled to
/// `journal` when given.
pub fn run_search(p: &Prepared, journal: Option<&Path>) -> Result<SearchRun, String> {
    let mut opts = p.spec.runtime_options();
    let marks = Arc::new(Mutex::new(Marks {
        batch_k: opts.batch_k.max(1),
        iterations: p.cfg.iterations,
        ..Marks::default()
    }));
    opts.extra_sink = Some(SharedSink::new(MarkSink(Arc::clone(&marks))));
    opts.journal = journal.map(Path::to_path_buf);
    let started = Instant::now();
    let out = search_with_runtime(p.generator.as_ref(), &p.target, &p.cfg, &opts)
        .map_err(|e| format!("search `{}` failed: {e}", p.spec.workload))?;
    let returned = Instant::now();
    let m = marks.lock().expect("mark sink lock");
    let mut steps = Vec::with_capacity(m.batch_done.len());
    let mut prev = started;
    for &t in &m.batch_done {
        steps.push(t.duration_since(prev).as_secs_f64());
        prev = t;
    }
    Ok(SearchRun {
        steps,
        tail: returned.duration_since(prev).as_secs_f64(),
        wall: returned.duration_since(started).as_secs_f64(),
        checksum: outcome_checksum(&out),
        best_error: out.best_error,
        observations: out.history.len(),
        cache_hits: m.cache_hits,
        faults: m.faults,
        failed_attempts: m.failed_attempts,
    })
}

/// One repeat of a workload's unit, reduced to what the estimator and the
/// checks need.
#[derive(Debug, Clone, Default)]
pub struct UnitRun {
    /// The unit's consecutive segments, seconds.
    pub segments: Vec<f64>,
    /// The *steps* (one executor batch, or one whole job) as segment
    /// ranges `start..end`; segments in no step are search tails.
    pub steps: Vec<(usize, usize)>,
    /// The unit's raw wall, seconds.
    pub wall: f64,
    /// Checksum over the unit's searches or jobs, in order.
    pub checksum: u64,
    /// Final error of each search or job.
    pub best_errors: Vec<f64>,
    /// Observations delivered.
    pub observations: usize,
    /// Memo-cache hits.
    pub cache_hits: usize,
    /// Penalised observations plus jobs that did not end `Done`.
    pub failed: usize,
    /// Failed evaluation attempts (retries).
    pub failed_attempts: usize,
}

impl UnitRun {
    fn push_search(&mut self, run: &SearchRun, sum: &mut Fnv) {
        for s in &run.steps {
            self.steps
                .push((self.segments.len(), self.segments.len() + 1));
            self.segments.push(*s);
        }
        self.segments.push(run.tail);
        sum.word(run.checksum);
        self.best_errors.push(run.best_error);
        self.observations += run.observations;
        self.cache_hits += run.cache_hits;
        self.failed += run.faults;
        self.failed_attempts += run.failed_attempts;
    }
}

/// Runs the searches of a `Thread` or `Proc` unit back to back.
pub fn run_search_unit(
    prepared: &[Prepared],
    journalled: bool,
    env: &Env,
) -> Result<UnitRun, String> {
    let mut unit = UnitRun::default();
    let mut sum = Fnv::default();
    let started = Instant::now();
    for (k, p) in prepared.iter().enumerate() {
        let journal = journalled.then(|| env.work.join(format!("search-{k}.jsonl")));
        let run = run_search(p, journal.as_deref())?;
        unit.push_search(&run, &mut sum);
    }
    unit.wall = started.elapsed().as_secs_f64();
    unit.checksum = sum.finish();
    Ok(unit)
}

/// A running in-process daemon.
pub struct Daemon {
    root: PathBuf,
    thread: std::thread::JoinHandle<Result<(), String>>,
    /// A client bound to the daemon's root.
    pub client: ServeClient,
}

static DAEMON_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Creates a state root and starts `serve::run_with` on it; returns once
/// the job socket has accepted a connection.
pub fn start_daemon(env: &Env) -> Result<Daemon, String> {
    let n = DAEMON_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let root = env.work.join(format!("serve-{n}"));
    let started = Instant::now();
    std::fs::create_dir_all(&root).map_err(|e| format!("cannot create {root:?}: {e}"))?;
    let client = ServeClient::new(&root);
    let thread = {
        let root = root.clone();
        let term = TermSignal::at(root.join("term.sentinel"));
        std::thread::spawn(move || {
            datamime_serve::run_with(root, term, datamime_serve::ServeOptions::default())
        })
    };
    let deadline = started + Duration::from_secs(30);
    while client.list().is_err() {
        if thread.is_finished() || Instant::now() > deadline {
            return Err("the daemon never became reachable".to_string());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(Daemon {
        root,
        thread,
        client,
    })
}

impl Daemon {
    /// The daemon's state root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Drains the daemon through the admin plane, joins it and removes
    /// its root; returns the seconds from the request to the join.
    pub fn stop(self) -> Result<f64, String> {
        let started = Instant::now();
        let reply = self.client.admin("shutdown")?;
        if !reply.starts_with("OK") {
            return Err(format!("shutdown refused: {reply}"));
        }
        self.thread
            .join()
            .map_err(|_| "the daemon thread panicked".to_string())??;
        let secs = started.elapsed().as_secs_f64();
        std::fs::remove_dir_all(&self.root)
            .map_err(|e| format!("cannot remove {:?}: {e}", self.root))?;
        Ok(secs)
    }
}

/// One job, as its tenant saw it.
#[derive(Debug, Clone)]
pub struct JobRun {
    /// Consecutive segments of the job, seconds: submit → first batch in
    /// the journal, one per further batch, last batch → result in hand.
    pub segments: Vec<f64>,
    /// Submit → result fetched, seconds.
    pub turnaround: f64,
    /// Submit → first observation in the journal, seconds.
    pub to_first_eval: f64,
    /// Seconds in the `submit` call.
    pub submit: f64,
    /// Seconds per `status` call.
    pub status_calls: Vec<f64>,
    /// Seconds in the `result` call.
    pub result: f64,
    /// Terminal state.
    pub state: JobState,
    /// Observations in the job's journal.
    pub observations: usize,
    /// Final error.
    pub best_error: f64,
    /// Checksum of the job's journal plus its served result.
    pub checksum: u64,
    /// Journal size in bytes.
    pub journal_bytes: u64,
    /// Journal lines.
    pub journal_lines: u64,
}

/// Observer of a tenant's client calls (the traced run records spans;
/// the timed runs pass [`NoTrace`]).
pub trait ClientTrace {
    /// A job starts (`job` counts across the tenant's jobs).
    fn job_start(&mut self, job: u32);
    /// A client call returned after `secs`.
    fn call(&mut self, name: &'static str, job: u32, started: Instant, secs: f64);
    /// The job's result is in hand.
    fn job_end(&mut self, job: u32);
}

/// The observer that records nothing.
pub struct NoTrace;

impl ClientTrace for NoTrace {
    fn job_start(&mut self, _job: u32) {}
    fn call(&mut self, _name: &'static str, _job: u32, _started: Instant, _secs: f64) {}
    fn job_end(&mut self, _job: u32) {}
}

/// How often a tenant looks at its job's journal. Reading a few bytes of
/// a file costs the daemon nothing, so the cuts are sharp (a job's
/// segments are then as short as an executor batch, which is what lets a
/// floor find an undisturbed reading of each on a busy host).
const WATCH_PAUSE: Duration = Duration::from_micros(400);

/// How often a tenant also asks the daemon for the job's status while it
/// runs: rarely, because a call blocks for the accept loop's 0–10 ms and
/// the journal is not watched meanwhile. It catches a job that ends
/// without a `done` line (failed, cancelled).
const STATUS_EVERY: Duration = Duration::from_millis(250);

/// Follows a job's journal as it grows: the instant each executor batch's
/// last observation landed, and whether the `done` line has.
struct JournalWatch {
    path: PathBuf,
    file: Option<std::fs::File>,
    partial: Vec<u8>,
    batch_k: usize,
    iterations: usize,
    observations: usize,
    batch_done: Vec<Instant>,
    first_observation: Option<Instant>,
    done: bool,
}

impl JournalWatch {
    fn new(path: PathBuf, spec: &JobSpec) -> Self {
        JournalWatch {
            path,
            file: None,
            partial: Vec::new(),
            batch_k: spec.batch.max(1),
            iterations: spec.iters,
            observations: 0,
            batch_done: Vec::new(),
            first_observation: None,
            done: false,
        }
    }

    /// Reads what the journal has gained since the last poll.
    fn poll(&mut self) {
        use std::io::Read;
        if self.file.is_none() {
            self.file = std::fs::File::open(&self.path).ok();
        }
        let Some(file) = self.file.as_mut() else {
            return;
        };
        let before = self.partial.len();
        if file.read_to_end(&mut self.partial).is_err() || self.partial.len() == before {
            return;
        }
        let now = Instant::now();
        while let Some(nl) = self.partial.iter().position(|b| *b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=nl).collect();
            let event = std::str::from_utf8(&line)
                .ok()
                .and_then(|l| datamime_runtime::json::Json::parse(l.trim()).ok())
                .and_then(|v| v.get("event").and_then(|e| e.as_str().map(str::to_string)));
            match event.as_deref() {
                Some("eval" | "cache_hit" | "fault") => {
                    self.observations += 1;
                    self.first_observation.get_or_insert(now);
                    if closes_batch(self.observations, self.batch_k, self.iterations) {
                        self.batch_done.push(now);
                    }
                }
                Some("done") => self.done = true,
                _ => {}
            }
        }
    }
}

/// Submits `spec` and follows it to its result: one closed-loop job.
pub fn run_job(
    daemon_root: &Path,
    client: &ServeClient,
    spec: &JobSpec,
    job_no: u32,
    trace: &mut dyn ClientTrace,
) -> Result<JobRun, String> {
    let line = spec.to_line()?;
    trace.job_start(job_no);
    let submitted = Instant::now();
    let job = client.submit_line(&line)?;
    let submit = submitted.elapsed().as_secs_f64();
    trace.call("serve.submit", job_no, submitted, submit);

    // The layout `<root>/jobs/<id>/journal.jsonl` is the daemon's
    // documented durable surface (DESIGN.md §9); the served result names
    // the same path and is checked against it below.
    let journal_rel = format!("jobs/{job}/journal.jsonl");
    let mut watch = JournalWatch::new(daemon_root.join(&journal_rel), spec);
    let mut status_calls = Vec::new();
    let deadline = submitted + Duration::from_secs(150);
    let mut last_status = submitted;
    let status = loop {
        watch.poll();
        let now = Instant::now();
        if watch.done || now.duration_since(last_status) >= STATUS_EVERY {
            let status = client.status(&job)?;
            let secs = now.elapsed().as_secs_f64();
            trace.call("serve.status", job_no, now, secs);
            status_calls.push(secs);
            last_status = Instant::now();
            if status.state.is_terminal() {
                break status;
            }
            if last_status > deadline {
                return Err(format!(
                    "job {job} still {} after 150 s",
                    status.state.as_str()
                ));
            }
        }
        std::thread::sleep(if watch.done {
            Duration::from_millis(1)
        } else {
            WATCH_PAUSE
        });
    };
    let asked = Instant::now();
    let result = client.result(&job)?;
    let result_secs = asked.elapsed().as_secs_f64();
    trace.call("serve.result", job_no, asked, result_secs);
    let finished = Instant::now();
    trace.job_end(job_no);
    watch.poll();

    let mut segments = Vec::with_capacity(watch.batch_done.len() + 1);
    let mut prev = submitted;
    for &t in &watch.batch_done {
        segments.push(t.duration_since(prev).as_secs_f64());
        prev = t;
    }
    segments.push(finished.duration_since(prev).as_secs_f64());

    if result.journal != journal_rel {
        return Err(format!(
            "job {job} journals to {}, not {journal_rel}",
            result.journal
        ));
    }
    let journal_path = daemon_root.join(&result.journal);
    let journal = datamime_runtime::replay(&journal_path)
        .map_err(|e| format!("cannot replay {journal_path:?}: {e}"))?;
    let text = std::fs::read_to_string(&journal_path)
        .map_err(|e| format!("cannot read {journal_path:?}: {e}"))?;
    let mut sum = Fnv::default();
    for rec in &journal.evals {
        sum.observation(&rec.unit, rec.error);
    }
    sum.observation(&result.best_unit, result.best_error);
    let since_submit = |t: Instant| t.duration_since(submitted).as_secs_f64();
    Ok(JobRun {
        segments,
        turnaround: since_submit(finished),
        to_first_eval: since_submit(watch.first_observation.unwrap_or(finished)),
        submit,
        status_calls,
        result: result_secs,
        state: status.state,
        observations: journal.evals.len(),
        best_error: result.best_error,
        checksum: sum.finish(),
        journal_bytes: text.len() as u64,
        journal_lines: text.lines().count() as u64,
    })
}

/// One daemon session: a single closed-loop client submits the tenants'
/// jobs in turn (`rounds` rounds of one job per tenant), each followed to
/// its result before the next is sent. The jobs come back in submit
/// order; job `i` belongs to tenant `i % specs.len()`.
///
/// One outstanding job at a time is deliberate. With two jobs in flight
/// the fair gate interleaves their batches, and whether a given batch
/// waits for the other tenant's depends on millisecond phase (the accept
/// loop alone jitters by 10 ms), so the same segment holds different work
/// in different repeats and a floor over repeats stops meaning anything:
/// measured that way, identical runs ranged 3.6–4.4 s.
pub fn run_serve_unit(
    daemon: &Daemon,
    specs: &[JobSpec],
    rounds: usize,
    trace: &mut dyn ClientTrace,
) -> Result<(UnitRun, Vec<JobRun>), String> {
    let started = Instant::now();
    let mut unit = UnitRun::default();
    let mut sum = Fnv::default();
    let mut jobs = Vec::with_capacity(rounds * specs.len());
    for round in 0..rounds {
        for (t, spec) in specs.iter().enumerate() {
            let job_no = (round * specs.len() + t) as u32;
            let job = run_job(daemon.root(), &daemon.client, spec, job_no, trace)?;
            // On this workload a step is a whole job.
            let first = unit.segments.len();
            unit.steps.push((first, first + job.segments.len()));
            unit.segments.extend_from_slice(&job.segments);
            sum.word(job.checksum);
            unit.best_errors.push(job.best_error);
            unit.observations += job.observations;
            unit.failed += usize::from(job.state != JobState::Done);
            jobs.push(job);
        }
    }
    unit.wall = started.elapsed().as_secs_f64();
    unit.checksum = sum.finish();
    Ok((unit, jobs))
}

/// The one-shot twin of a daemon job: the same spec through
/// `search_with_runtime`, journalled, checksummed the way [`run_job`]
/// checksums the daemon's journal and result.
pub fn one_shot_reference(spec: &JobSpec, env: &Env) -> Result<SearchRun, String> {
    let journal = env.work.join("one-shot.jsonl");
    run_search(&prepare(spec)?, Some(&journal))
}

/// The seed canary: a short search whose seed derives from `--seed`, run
/// down the workload's own path (process backend, daemon job, or the
/// plain search itself) and down the reference path (thread backend, no
/// daemon); both must observe the same bits. Returns
/// `(attempted, failed)`.
pub fn canary(def: &WorkloadDef, seed: u64, env: &Env) -> Result<(usize, usize), String> {
    let line = def.canary_line(seed);
    let spec = crate::workloads::parse_line(&line, env.worker_bin.as_deref())?;
    let (own_checksum, own_failed) = match def.kind {
        Kind::Thread | Kind::Proc => {
            let run = run_search(&prepare(&spec)?, None)?;
            (run.checksum, run.faults)
        }
        Kind::Serve => {
            let daemon = start_daemon(env)?;
            let job = run_job(daemon.root(), &daemon.client, &spec, 0, &mut NoTrace);
            daemon.stop()?;
            let job = job?;
            (job.checksum, usize::from(job.state != JobState::Done))
        }
    };
    let mut plain = spec.clone();
    plain.backend = datamime::jobspec::JobBackend::Thread;
    plain.worker_bin = None;
    let reference = one_shot_reference(&plain, env)?;
    let failed = usize::from(own_checksum != reference.checksum) + own_failed + reference.faults;
    Ok((2 * spec.iters, failed))
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Resets `VmHWM` to the current resident size, so the next reading is the
/// peak since now; `false` where the kernel does not offer it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// CPU seconds this process (and the children it has reaped) has used.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime is field 14.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    // utime, stime, cutime, cstime at 11..=14 once pid and comm are gone.
    match (tick(11), tick(12), tick(13), tick(14)) {
        (Some(u), Some(s), Some(cu), Some(cs)) => Ok((u + s + cu + cs) / 100.0),
        _ => Err("cannot parse /proc/self/stat".to_string()),
    }
}
