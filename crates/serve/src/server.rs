//! The daemon: one socket, job lifecycle, durability.
//!
//! One process, three concerns:
//!
//! - **the plane** (`serve.sock`): one UTF-8 request line per connection,
//!   `verb [argument]`, read under a 64 KiB cap and one 5 s deadline —
//!   the job verbs `submit <JobSpec line>`, `status|result|cancel <job>`,
//!   `list`, and the admin verbs `stats` / `health` / `version` /
//!   `shutdown`. The grammar and its reply text live in
//!   [`datamime::servectl`]; specs are validated at submit time. `stats`
//!   is the daemon's [`MetricsRegistry`] (monotonic counters plus the GC
//!   and profile-store gauges) in sorted order, `health` the durability
//!   dashboard (uptime, GC progress, the read-only state with its
//!   reason), and `shutdown` drains: gates close, jobs stop at their
//!   next batch boundary leaving resumable journals, and the process
//!   exits 0;
//! - **scheduling**: every accepted job runs the unmodified
//!   `search_with_runtime` loop on its own thread, interleaved with its
//!   tenants through the [`FairGate`] round-robin (see [`crate::sched`]).
//!   All jobs share one [`ProfileStore`]: a target or a thread-backend
//!   candidate that some job already profiled is scored from the store,
//!   bit for bit, without another simulator run (`profile_reuses`);
//! - **durability**: the [`Manifest`] snapshot is atomically rewritten
//!   on every lifecycle transition, and each job journals its
//!   evaluations under `jobs/<id>/journal.jsonl`. On startup both are
//!   read back: pending GC intents are finished, and every job whose
//!   manifest state is non-terminal reopens its journal in place and
//!   runs to the same result it would have reached uninterrupted.
//!   Terminal jobs beyond the `keep_terminal` retention budget are
//!   garbage-collected via two-phase delete (durable intent, then
//!   directory removal), so `jobs/` stops accumulating. An out-of-space
//!   condition on any manifest write flips the daemon into
//!   *draining read-only* mode: running jobs stop at their next batch
//!   boundary with resumable journals, new submissions are refused, and
//!   every other verb stays up.

use crate::manifest::{GcStats, JobEntry, Manifest, ManifestError};
use crate::sched::FairGate;
use datamime::jobspec::{JobBackend, JobSpec};
use datamime::profile_store::ProfileStore;
use datamime::search::search_with_runtime;
use datamime::servectl::{JobResult, JobState, JobStatus, SERVE_SOCKET};
use datamime_runtime::{
    ExecError, FaultInjector, GateClosed, GateHandle, MetricsRegistry, ProgressSink, RunMeta,
    SharedSink, TermSignal, WriteSite,
};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Live progress of one job, updated by its [`JobSink`] and read by the
/// status endpoint.
#[derive(Debug)]
struct JobProgress {
    /// Observations so far (fresh evaluations, cache hits, and replayed
    /// journal points).
    evals: AtomicU64,
    /// IEEE-754 bits of the incumbent best error (`f64::INFINITY` until
    /// the first fresh observation).
    best_bits: AtomicU64,
}

impl JobProgress {
    fn new() -> Self {
        JobProgress {
            evals: AtomicU64::new(0),
            best_bits: AtomicU64::new(f64::INFINITY.to_bits()),
        }
    }
}

/// The per-job progress sink installed as the run's `extra_sink`.
#[derive(Debug)]
struct JobSink {
    progress: Arc<JobProgress>,
}

impl ProgressSink for JobSink {
    fn on_start(&mut self, _meta: &RunMeta) {}

    fn on_replay(&mut self, count: usize) {
        self.progress
            .evals
            .fetch_add(count as u64, Ordering::SeqCst);
    }

    fn on_eval(&mut self, _index: usize, _error: f64, best_error: f64) {
        self.progress.evals.fetch_add(1, Ordering::SeqCst);
        self.progress
            .best_bits
            .store(best_error.to_bits(), Ordering::SeqCst);
    }
}

/// Server-side record of one job.
#[derive(Debug)]
struct JobRecord {
    state: JobState,
    iterations: u64,
    progress: Arc<JobProgress>,
    gate_seq: Option<u64>,
    cancel_requested: bool,
    result: Option<(f64, Vec<f64>)>,
    detail: Option<String>,
}

/// Daemon-level options beyond the state root: retention and the
/// deterministic fault plan (tests only).
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Keep at most this many terminal jobs; older ones (by id) are
    /// garbage-collected via two-phase delete. `None` keeps everything.
    pub keep_terminal: Option<usize>,
    /// Deterministic faults (`--fault`): write entries hit the
    /// manifest, journal and GC write paths; eval entries reach every
    /// job's supervisor. Empty by default.
    pub faults: FaultInjector,
}

/// State shared between the accept loop, connection handlers, and job
/// threads.
struct Shared {
    root: PathBuf,
    jobs: Mutex<BTreeMap<String, JobRecord>>,
    manifest: Mutex<Manifest>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    gate: FairGate,
    metrics: Arc<MetricsRegistry>,
    /// Every profile any job measured, target or candidate: a job that
    /// instantiates a dataset some job already profiled scores the stored
    /// profile instead of simulating it again.
    profiles: Arc<ProfileStore>,
    started: Instant,
    keep_terminal: Option<usize>,
    faults: FaultInjector,
    read_only: AtomicBool,
    read_only_reason: Mutex<String>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn job_dir(&self, job: &str) -> PathBuf {
        self.root.join("jobs").join(job)
    }

    fn journal_path(&self, job: &str) -> PathBuf {
        self.job_dir(job).join("journal.jsonl")
    }

    fn journal_rel(job: &str) -> String {
        format!("jobs/{job}/journal.jsonl")
    }

    fn set_state(&self, job: &str, state: JobState) {
        let mut jobs = lock(&self.jobs);
        if let Some(rec) = jobs.get_mut(job) {
            rec.state = state;
        }
        let active = jobs
            .values()
            .filter(|r| r.state == JobState::Running)
            .count();
        self.metrics.set_gauge("jobs_active", active as u64);
    }
}

/// Flips the daemon into draining read-only mode (idempotent): running
/// jobs stop at their next batch boundary with resumable journals, new
/// submissions are refused, and status/result/admin stay up. The way
/// back is an operator restart with space freed.
fn enter_read_only(shared: &Shared, reason: &str) {
    if shared.read_only.swap(true, Ordering::SeqCst) {
        return;
    }
    *lock(&shared.read_only_reason) = reason.to_string();
    shared.metrics.set_gauge("read_only", 1);
    eprintln!("datamime-served: entering read-only mode: {reason}");
    // Drain, do not kill: jobs see GateClosed::Shutdown at their next
    // batch boundary, make no manifest transition, and stay resumable.
    shared.gate.close();
}

/// Post-processes one manifest mutation: refreshes the GC gauges, flips
/// read-only if the write ran out of space, and converts the error for
/// `?` in `Result<_, String>` contexts.
fn manifest_op(shared: &Shared, res: Result<(), ManifestError>) -> Result<(), String> {
    refresh_gc_gauges(shared);
    res.map_err(|e| {
        if e.no_space {
            enter_read_only(shared, &e.message);
        }
        e.message
    })
}

/// The durable GC progress: the rows `health` prints and the gauges that
/// let the plain `stats` command expose the same. `wal_pending_gc` keeps
/// its write-ahead-log-era name: operators and the crash matrix read it.
fn gc_rows(gc: &GcStats) -> [(&'static str, u64); 2] {
    [
        ("wal_pending_gc", gc.pending_gc),
        ("jobs_gcd_total", gc.gcd_jobs),
    ]
}

fn refresh_gc_gauges(shared: &Shared) {
    let gc = lock(&shared.manifest).gc_stats();
    for (name, value) in gc_rows(&gc) {
        shared.metrics.set_gauge(name, value);
    }
}

/// Runs the daemon rooted at `root` with default [`ServeOptions`]. See
/// [`run_with`].
///
/// # Errors
///
/// As [`run_with`].
pub fn run(root: PathBuf, term: TermSignal) -> Result<(), String> {
    run_with(root, term, ServeOptions::default())
}

/// Runs the daemon rooted at `root` until `term` requests termination
/// (SIGTERM/SIGINT via the sentinel, or the admin `shutdown` command).
/// Reads the manifest first, finishing any pending GC intents and
/// resuming every non-terminal job; then applies the retention policy.
///
/// # Errors
///
/// Fails on state-root or socket I/O errors; job failures are recorded
/// in the manifest, not returned.
pub fn run_with(root: PathBuf, term: TermSignal, options: ServeOptions) -> Result<(), String> {
    let shared = open_shared(&root, options)?;
    let listener = bind(&root.join(SERVE_SOCKET))?;
    eprintln!("datamime-served: listening under {}", root.display());

    // Each connection is handled on its own short-lived thread: a client
    // that connects and then stalls (up to the request deadline) must not
    // freeze the plane or shutdown observation.
    while !term.requested() {
        if let Ok((mut conn, _)) = listener.accept() {
            let shared = Arc::clone(&shared);
            let term = term.clone();
            std::thread::spawn(move || handle_conn(&shared, &mut conn, &term));
        } else {
            // Short: a pending connection waits out this poll, so every
            // request (a client's first call after start included) pays
            // up to one interval before it is read.
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // Drain: stop admitting batches, let every job thread stop at its
    // next batch boundary (journals and the manifest are already safe on
    // disk — an interrupted job replays on the next start).
    eprintln!("datamime-served: draining ...");
    shared.gate.close();
    let threads = std::mem::take(&mut *lock(&shared.threads));
    for t in threads {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a job thread that panicked has already reported it through the panic hook; the drain only waits for it"
        )]
        let _ = t.join();
    }
    #[expect(
        clippy::let_underscore_must_use,
        reason = "shutdown cleanup is best-effort — a leftover socket file is replaced by the next bind"
    )]
    let _ = std::fs::remove_file(root.join(SERVE_SOCKET));
    Ok(())
}

/// Reads the state under `root` into the daemon's shared state: finishes
/// pending GC intents, resumes every non-terminal job, and applies the
/// retention policy.
fn open_shared(root: &Path, options: ServeOptions) -> Result<Arc<Shared>, String> {
    std::fs::create_dir_all(root.join("jobs"))
        .map_err(|e| format!("cannot create state root {root:?}: {e}"))?;
    let (manifest, entries) = Manifest::open_with(root, options.faults.clone())?;
    let pending_gc = manifest.take_pending_gc();
    let metrics = Arc::new(MetricsRegistry::new());
    let shared = Arc::new(Shared {
        root: root.to_path_buf(),
        jobs: Mutex::new(BTreeMap::new()),
        manifest: Mutex::new(manifest),
        threads: Mutex::new(Vec::new()),
        gate: FairGate::new(),
        profiles: Arc::new(ProfileStore::with_metrics(Arc::clone(&metrics))),
        metrics,
        // Only feeds the admin plane's uptime line; taint analysis sees
        // it never reaches a journaled or wire surface.
        started: Instant::now(),
        keep_terminal: options.keep_terminal,
        faults: options.faults,
        read_only: AtomicBool::new(false),
        read_only_reason: Mutex::new(String::new()),
    });
    // Finish interrupted deletions before anything else: the intents are
    // durable and the directory removals are idempotent.
    for job in pending_gc {
        finish_gc(&shared, &job);
    }
    resume_jobs(&shared, entries);
    maybe_gc(&shared);
    refresh_gc_gauges(&shared);
    Ok(shared)
}

fn bind(path: &PathBuf) -> Result<UnixListener, String> {
    // A daemon killed with SIGKILL leaves its socket files behind; a
    // fresh bind must replace them.
    #[expect(
        clippy::let_underscore_must_use,
        reason = "the file usually does not exist — a real collision surfaces as the bind error below"
    )]
    let _ = std::fs::remove_file(path);
    let listener =
        UnixListener::bind(path).map_err(|e| format!("cannot listen on {path:?}: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot poll {path:?}: {e}"))?;
    Ok(listener)
}

/// Applies the retention policy: terminal jobs beyond the newest
/// `keep_terminal` (in id order) are garbage-collected. Skipped while
/// read-only — GC itself must write the manifest.
fn maybe_gc(shared: &Arc<Shared>) {
    let Some(keep) = shared.keep_terminal else {
        return;
    };
    if shared.read_only.load(Ordering::SeqCst) {
        return;
    }
    let victims: Vec<String> = {
        let jobs = lock(&shared.jobs);
        let terminal: Vec<&String> = jobs
            .iter()
            .filter(|(_, r)| r.state.is_terminal())
            .map(|(id, _)| id)
            .collect();
        terminal
            .iter()
            .take(terminal.len().saturating_sub(keep))
            .map(|s| (*s).clone())
            .collect()
    };
    for job in victims {
        gc_job(shared, &job);
    }
}

/// Two-phase delete of one terminal job: durable intent first, then the
/// directory, then the closing record. A crash at any point either
/// leaves the job untouched or leaves a pending intent the next startup
/// finishes.
fn gc_job(shared: &Arc<Shared>, job: &str) {
    let res = lock(&shared.manifest).gc_intent(job);
    if let Err(e) = manifest_op(shared, res) {
        eprintln!("datamime-served: cannot record gc intent for {job}: {e}");
        return;
    }
    // The intent is durable: the job is gone from the manifest, so
    // it leaves the live table now regardless of how phase two fares.
    lock(&shared.jobs).remove(job);
    finish_gc(shared, job);
}

/// Phase two of GC: remove the job directory (idempotent) and close the
/// intent. On failure the intent stays pending for the next startup.
fn finish_gc(shared: &Arc<Shared>, job: &str) {
    if let Some(kind) = shared.faults.next_write(WriteSite::GcDir) {
        eprintln!("datamime-served: injected {kind:?} during gc of {job}; intent stays pending");
        return;
    }
    let dir = shared.job_dir(job);
    match std::fs::remove_dir_all(&dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => {
            eprintln!("datamime-served: cannot remove {dir:?}: {e}; gc intent stays pending");
            return;
        }
    }
    let res = lock(&shared.manifest).gc_done(job);
    match manifest_op(shared, res) {
        Ok(()) => shared.metrics.incr("jobs_gcd"),
        Err(e) => eprintln!("datamime-served: cannot close gc intent for {job}: {e}"),
    }
}

/// Re-creates job records from the manifest's entries and restarts
/// every non-terminal job from its journal.
fn resume_jobs(shared: &Arc<Shared>, entries: BTreeMap<String, JobEntry>) {
    for (id, entry) in entries {
        let iterations = JobSpec::parse(&entry.spec).map_or(0, |s| s.iters as u64);
        let progress = Arc::new(JobProgress::new());
        if let Some(err) = entry.best_error {
            progress.best_bits.store(err.to_bits(), Ordering::SeqCst);
        }
        let record = JobRecord {
            state: entry.state,
            iterations,
            progress,
            gate_seq: None,
            cancel_requested: false,
            result: entry.best_error.map(|e| (e, entry.best_unit.clone())),
            detail: entry.detail,
        };
        let resume = !record.state.is_terminal();
        lock(&shared.jobs).insert(id.clone(), record);
        if resume {
            shared.metrics.incr("jobs_resumed");
            spawn_job(shared, id, entry.spec, true);
        }
    }
}

fn spawn_job(shared: &Arc<Shared>, job: String, spec_line: String, resume: bool) {
    let shared2 = Arc::clone(shared);
    let handle = std::thread::spawn(move || run_job(&shared2, &job, &spec_line, resume));
    lock(&shared.threads).push(handle);
}

/// The body of one job thread: build the search exactly as the one-shot
/// CLI would, run it under the fair gate, and record the outcome.
fn run_job(shared: &Arc<Shared>, job: &str, spec_line: &str, resume: bool) {
    let outcome = (|| -> Result<(), String> {
        let mut spec = JobSpec::parse(spec_line)?;
        // Worker processes are the daemon's own choice (`DATAMIME_WORKER`,
        // else the `datamime-worker` beside this binary), never a path
        // from a request: `submit` refuses the key, and one that a
        // manifest written before that refusal still holds is dropped.
        spec.worker_bin = None;
        let target = spec.target()?;
        let cfg = spec.search_config()?;
        let generator = spec.generator()?;
        std::fs::create_dir_all(shared.job_dir(job))
            .map_err(|e| format!("cannot create job dir: {e}"))?;

        shared.set_state(job, JobState::Running);
        {
            let res = lock(&shared.manifest).start(job);
            if let Err(e) = manifest_op(shared, res) {
                eprintln!("datamime-served: cannot record start of {job}: {e}");
            }
        }

        let progress = lock(&shared.jobs)
            .get(job)
            .map(|r| Arc::clone(&r.progress))
            .ok_or("job record vanished")?;

        // Profiling runs *outside* the fair rotation: it only touches
        // this job's own target workload, and joining the round-robin
        // before this potentially minutes-long phase would make every
        // other tenant block on its turn until profiling finished.
        let target_profile =
            shared
                .profiles
                .profile_workload(&target, &cfg.machine, &cfg.profiling);

        // Join the rotation only now, at the edge of the search. A
        // cancel that arrived while profiling (gate_seq was still None)
        // is honoured here; one that lands after this check is caught by
        // the gate at the first batch boundary.
        let ticket = shared.gate.register();
        let seq = ticket.seq();
        let cancelled = {
            let mut jobs = lock(&shared.jobs);
            let rec = jobs.get_mut(job).ok_or("job record vanished")?;
            rec.gate_seq = Some(seq);
            if rec.cancel_requested {
                shared.gate.cancel(seq);
            }
            rec.cancel_requested
        };
        if cancelled {
            drop(ticket); // deregisters from the rotation
            record_cancelled(shared, job);
            return Ok(());
        }

        // A resumed job reopens its journal in place (the torn tail a
        // SIGKILL mid-write leaves is cut before the first append). A
        // journal without a readable header (killed before the first
        // append) is ignored and the job simply starts over.
        let journal = shared.journal_path(job);
        let reopen = resume && datamime_runtime::replay(&journal).is_ok();

        let mut opts = spec.runtime_options();
        // Every thread job gets two lanes: a sequential job fills the
        // second with its initial design (see `Executor::run`), which no
        // observation shapes, so its results stay those of one lane. A
        // spec that names `workers` keeps its own count.
        if spec.backend == JobBackend::Thread && spec.workers == 0 {
            opts.workers = opts.workers.max(2);
        }
        opts.resume = reopen.then(|| journal.clone());
        opts.journal = Some(journal);
        opts.extra_sink = Some(SharedSink::new(JobSink { progress }));
        opts.batch_gate = Some(GateHandle::new(Arc::new(ticket)));
        opts.metrics = Some(Arc::clone(&shared.metrics));
        opts.profiles = Some(Arc::clone(&shared.profiles));
        opts.faults = shared.faults.clone();

        let result = search_with_runtime(generator.as_ref(), &target_profile, &cfg, &opts);
        shared.gate.finish(seq);
        match result {
            Ok(outcome) => {
                // The terminal transition must be durable *before* the
                // result is served: a Done record without a published
                // `done` transition would be re-run (and re-acknowledged with
                // a possibly different journal) by a restarted daemon.
                let (state, counter) = match outcome.quota {
                    Some(cause) => {
                        let res = lock(&shared.manifest).quota(
                            job,
                            outcome.best_error,
                            &outcome.best_unit_params,
                            cause.as_str(),
                        );
                        manifest_op(shared, res).map_err(|e| {
                            format!("search stopped on its {} quota but the best-so-far could not be committed to the manifest: {e}", cause.as_str())
                        })?;
                        if let Some(rec) = lock(&shared.jobs).get_mut(job) {
                            rec.detail = Some(cause.as_str().to_string());
                        }
                        (JobState::QuotaExceeded, "jobs_quota_exceeded")
                    }
                    None => {
                        let res = lock(&shared.manifest).done(
                            job,
                            outcome.best_error,
                            &outcome.best_unit_params,
                        );
                        manifest_op(shared, res).map_err(|e| {
                            format!("search finished but its result could not be committed to the manifest: {e}")
                        })?;
                        (JobState::Done, "jobs_completed")
                    }
                };
                if let Some(rec) = lock(&shared.jobs).get_mut(job) {
                    rec.result = Some((outcome.best_error, outcome.best_unit_params.clone()));
                }
                shared.set_state(job, state);
                shared.metrics.incr(counter);
                Ok(())
            }
            Err(ExecError::Stopped(GateClosed::Shutdown)) => {
                // Deliberately NOT a manifest transition: the job is
                // still `running`, and the next daemon start resumes it
                // from the journal it just flushed.
                Ok(())
            }
            Err(ExecError::Stopped(GateClosed::Cancelled)) => {
                record_cancelled(shared, job);
                Ok(())
            }
            Err(e) => Err(e.to_string()),
        }
    })();
    if let Err(detail) = outcome {
        let res = lock(&shared.manifest).fail(job, &detail);
        if let Err(e) = manifest_op(shared, res) {
            eprintln!("datamime-served: cannot record failure of {job}: {e}");
        }
        if let Some(rec) = lock(&shared.jobs).get_mut(job) {
            rec.detail = Some(detail);
        }
        shared.set_state(job, JobState::Failed);
        shared.metrics.incr("jobs_failed");
    }
    // One more terminal job may now exceed the retention budget.
    maybe_gc(shared);
}

fn record_cancelled(shared: &Arc<Shared>, job: &str) {
    let res = lock(&shared.manifest).cancel(job);
    if let Err(e) = manifest_op(shared, res) {
        eprintln!("datamime-served: cannot record cancellation of {job}: {e}");
    }
    shared.set_state(job, JobState::Cancelled);
    shared.metrics.incr("jobs_cancelled");
}

/// Longest request line the plane reads before refusing the connection.
const MAX_REQUEST: usize = 64 << 10;
/// One deadline for the whole request line, however slowly it trickles.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// Reads the one request line: bytes up to the first `\n` (or EOF),
/// bounded in size and in time, and UTF-8.
fn read_request(conn: &mut UnixStream) -> Result<String, String> {
    // Bounds a stalled client only; never reaches a reply or a journal.
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let late = || format!("request not finished within {REQUEST_DEADLINE:?}");
    let mut line = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(late());
        }
        conn.set_read_timeout(Some(left))
            .map_err(|e| format!("cannot bound the read: {e}"))?;
        let n = match conn.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(late())
            }
            Err(e) => return Err(format!("request failed: {e}")),
        };
        // The cap applies to the line itself, also when its end arrives
        // in the chunk that crosses the cap.
        let newline = chunk[..n].iter().position(|&b| b == b'\n');
        line.extend_from_slice(&chunk[..newline.unwrap_or(n)]);
        if line.len() > MAX_REQUEST {
            return Err(format!("request longer than {MAX_REQUEST} bytes"));
        }
        if newline.is_some() {
            break;
        }
    }
    String::from_utf8(line).map_err(|_| "request is not UTF-8".to_string())
}

fn handle_conn(shared: &Arc<Shared>, conn: &mut UnixStream, term: &TermSignal) {
    // A socket we cannot put back into blocking mode would busy-spin this
    // thread; drop the connection instead — the client sees EOF and retries.
    if conn.set_nonblocking(false).is_err() {
        return;
    }
    let reply = read_request(conn)
        .and_then(|line| answer(shared, term, &line))
        .unwrap_or_else(|detail| format!("ERROR {}\n", detail.replace('\n', " ")));
    #[expect(
        clippy::let_underscore_must_use,
        reason = "reply is best-effort — the client may already have hung up"
    )]
    let _ = conn.write_all(reply.as_bytes());
}

/// Answers one request line in the reply text of [`datamime::servectl`];
/// an `Err` becomes the `ERROR <detail>` line.
fn answer(shared: &Arc<Shared>, term: &TermSignal, line: &str) -> Result<String, String> {
    let line = line.trim();
    let (verb, arg) = line
        .split_once(char::is_whitespace)
        .map_or((line, ""), |(verb, arg)| (verb, arg.trim_start()));
    let job = || match arg.split_whitespace().collect::<Vec<_>>()[..] {
        [job] => Ok(job),
        _ => Err(format!("{verb} takes one job id")),
    };
    match verb {
        "submit" => submit(shared, arg).map(|job| format!("{job}\n")),
        "status" => status(shared, job()?).map(|s| format!("{s}\n")),
        "result" => result(shared, job()?).map(|r| format!("{r}\nEND\n")),
        "cancel" => cancel(shared, job()?).map(|()| "cancelled\n".to_string()),
        "list" | "stats" | "health" | "version" | "shutdown" if !arg.is_empty() => {
            Err(format!("{verb} takes no argument"))
        }
        "list" => {
            let mut out = String::new();
            for (id, rec) in lock(&shared.jobs).iter() {
                out.push_str(&format!("{id} {}\n", rec.state.as_str()));
            }
            out.push_str("END\n");
            Ok(out)
        }
        "stats" => {
            let mut out = String::new();
            let counters = shared.metrics.snapshot();
            for (name, value) in counters.into_iter().chain(shared.metrics.gauge_snapshot()) {
                out.push_str(&format!("STAT {name} {value}\n"));
            }
            out.push_str("END\n");
            Ok(out)
        }
        "version" => Ok(format!("datamime-served {}\n", env!("CARGO_PKG_VERSION"))),
        "health" => {
            let gc = lock(&shared.manifest).gc_stats();
            let read_only = shared.read_only.load(Ordering::SeqCst);
            let mut out = format!("STAT uptime_s {}\n", shared.started.elapsed().as_secs());
            for (name, value) in gc_rows(&gc) {
                out.push_str(&format!("STAT {name} {value}\n"));
            }
            out.push_str(&format!("STAT read_only {}\n", u64::from(read_only)));
            if read_only {
                out.push_str(&format!("READONLY {}\n", lock(&shared.read_only_reason)));
            }
            out.push_str("END\n");
            Ok(out)
        }
        // A shutdown the daemon cannot act on must not be acknowledged
        // as OK — the operator would walk away from a server that is
        // still running.
        "shutdown" => match term.trigger() {
            Ok(()) => Ok("OK draining\n".to_string()),
            Err(e) => Err(format!("cannot trigger drain: {e}")),
        },
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Accepts one job; returns its id.
fn submit(shared: &Arc<Shared>, spec_line: &str) -> Result<String, String> {
    if shared.read_only.load(Ordering::SeqCst) {
        return Err(format!(
            "daemon is read-only ({}); submissions are disabled",
            lock(&shared.read_only_reason)
        ));
    }
    // Validate the whole spec now so a bad submit fails the submitter,
    // not a job thread minutes later.
    let spec = JobSpec::parse_request(spec_line)?;
    spec.target()?;
    spec.search_config()?;
    spec.generator()?;
    let canonical = spec.to_line()?;
    // Id allocation and the submit record commit under one manifest
    // lock, so concurrent submitters cannot race the same number. The
    // high-water mark lives in the manifest, so GC of old jobs never
    // recycles an id.
    let (job, res) = {
        let mut m = lock(&shared.manifest);
        let job = format!("job-{:04}", m.next_job_number());
        let res = m.submit(&job, &canonical);
        (job, res)
    };
    manifest_op(shared, res)?;
    lock(&shared.jobs).insert(
        job.clone(),
        JobRecord {
            state: JobState::Submitted,
            iterations: spec.iters as u64,
            progress: Arc::new(JobProgress::new()),
            gate_seq: None,
            cancel_requested: false,
            result: None,
            detail: None,
        },
    );
    shared.metrics.incr("jobs_submitted");
    spawn_job(shared, job.clone(), canonical, false);
    Ok(job)
}

fn status(shared: &Arc<Shared>, job: &str) -> Result<JobStatus, String> {
    let jobs = lock(&shared.jobs);
    let rec = jobs.get(job).ok_or_else(|| no_such_job(job))?;
    Ok(JobStatus {
        state: rec.state,
        evals: rec.progress.evals.load(Ordering::SeqCst),
        iterations: rec.iterations,
        best_error: match &rec.result {
            Some((err, _)) => *err,
            None => f64::from_bits(rec.progress.best_bits.load(Ordering::SeqCst)),
        },
    })
}

fn result(shared: &Arc<Shared>, job: &str) -> Result<JobResult, String> {
    let jobs = lock(&shared.jobs);
    let rec = jobs.get(job).ok_or_else(|| no_such_job(job))?;
    match (&rec.state, &rec.result) {
        (state, Some((err, unit))) if state.has_result() => Ok(JobResult {
            best_error: *err,
            best_unit: unit.clone(),
            journal: Shared::journal_rel(job),
        }),
        (JobState::Failed, _) => Err(format!(
            "job {job} failed: {}",
            rec.detail.as_deref().unwrap_or("unknown error")
        )),
        _ => Err(format!(
            "job {job} is {}, no result to serve",
            rec.state.as_str()
        )),
    }
}

fn cancel(shared: &Arc<Shared>, job: &str) -> Result<(), String> {
    let mut jobs = lock(&shared.jobs);
    let rec = jobs.get_mut(job).ok_or_else(|| no_such_job(job))?;
    if rec.state.is_terminal() {
        return Err(format!("job {job} is already {}", rec.state.as_str()));
    }
    rec.cancel_requested = true;
    if let Some(seq) = rec.gate_seq {
        shared.gate.cancel(seq);
    }
    Ok(())
}

fn no_such_job(job: &str) -> String {
    format!("no such job: {job}")
}

#[cfg(test)]
mod request_props;

#[cfg(test)]
mod tests {
    use super::*;

    /// Sends `len` bytes of `a` plus a newline down one end of a socket
    /// pair and reads the request off the other.
    fn read_line_of(len: usize) -> Result<String, String> {
        let (mut client, mut server) = UnixStream::pair().unwrap();
        let writer = std::thread::spawn(move || {
            let mut bytes = vec![b'a'; len];
            bytes.push(b'\n');
            // A refused request stops being read; the write then fails.
            let _ = client.write_all(&bytes);
        });
        let got = read_request(&mut server);
        drop(server);
        writer.join().unwrap();
        got
    }

    #[test]
    fn the_request_cap_holds_wherever_the_newline_lands() {
        assert_eq!(read_line_of(MAX_REQUEST).unwrap().len(), MAX_REQUEST);
        for len in [MAX_REQUEST + 1, 70_000] {
            let err = read_line_of(len).unwrap_err();
            assert!(err.contains("request longer than"), "{len}: {err}");
        }
    }
}
