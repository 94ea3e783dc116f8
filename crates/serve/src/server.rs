//! The daemon: sockets, job lifecycle, and the admin plane.
//!
//! One process, three concerns:
//!
//! - **job API** (`job.sock`): the [`datamime_dist`] frame protocol, one
//!   request/response per connection — submit, status, result, cancel,
//!   list. Specs are [`JobSpec`] `key=value` lines, validated at submit
//!   time;
//! - **scheduling**: every accepted job runs the unmodified
//!   `search_with_runtime` loop on its own thread, interleaved with its
//!   tenants through the [`FairGate`] round-robin (see [`crate::sched`]);
//! - **durability**: the segmented, checkpointed [`Manifest`] WAL
//!   records lifecycle transitions with fsync-on-commit, and each job
//!   journals its evaluations under `jobs/<id>/journal.jsonl`. On
//!   startup both are replayed: pending GC intents are finished, and
//!   every job whose manifest state is non-terminal is resumed from its
//!   journal and runs to the same result it would have reached
//!   uninterrupted. Terminal jobs beyond the `keep_terminal` retention
//!   budget are garbage-collected via two-phase delete (durable intent,
//!   then directory removal), so `jobs/` stops accumulating. An
//!   out-of-space condition on any WAL write flips the daemon into
//!   *draining read-only* mode: running jobs stop at their next batch
//!   boundary with resumable journals, new submissions are refused, and
//!   status/result/admin stay up;
//! - **admin plane** (`admin.sock`): plain text `stats` / `version` /
//!   `health` / `shutdown`. Stats are the daemon's [`MetricsRegistry`] —
//!   monotonic counters (jobs submitted/completed/failed/quota-stopped,
//!   evaluations, cache hits, worker restarts, per-stage milliseconds)
//!   plus gauges (WAL segments and bytes, checkpoint seq, GC'd jobs,
//!   read-only flag) — in deterministic sorted order. `health` is the
//!   durability dashboard: uptime, WAL shape, checkpoint and GC
//!   progress, and the read-only state with its reason. `shutdown`
//!   drains: gates close, jobs stop at their next batch boundary leaving
//!   resumable journals, and the process exits 0.

use crate::manifest::{JobEntry, Manifest, ManifestOptions, WalError};
use crate::sched::FairGate;
use datamime::jobspec::JobSpec;
use datamime::profiler::profile_workload;
use datamime::search::search_with_runtime;
use datamime::servectl::{JobState, ADMIN_SOCKET, JOB_SOCKET};
use datamime_dist::{read_frame, write_frame, Frame};
use datamime_runtime::diskfault::DiskTarget;
use datamime_runtime::{
    DiskFaultInjector, DiskFaultPlan, ExecError, GateClosed, GateHandle, MetricsRegistry,
    ProgressSink, RunMeta, SharedSink, TermSignal,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
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

/// Daemon-level options beyond the state root: retention, WAL tuning,
/// and the deterministic disk-fault plan (tests only).
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Keep at most this many terminal jobs; older ones (by id) are
    /// garbage-collected via two-phase delete. `None` keeps everything.
    pub keep_terminal: Option<usize>,
    /// Manifest segment-rotation threshold in bytes (`None` = default).
    pub segment_bytes: Option<u64>,
    /// Deterministic disk faults injected into the manifest, checkpoint,
    /// journal, and GC write paths.
    pub disk_faults: Option<DiskFaultPlan>,
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
    started: Instant,
    keep_terminal: Option<usize>,
    injector: Option<DiskFaultInjector>,
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

/// Post-processes one manifest mutation: refreshes the WAL gauges,
/// flips read-only on any out-of-space sighting (the mutation's own, or
/// a checkpoint's recorded inside the manifest), and converts the error
/// for `?` in `Result<_, String>` contexts.
fn manifest_op(shared: &Shared, res: Result<(), WalError>) -> Result<(), String> {
    let no_space_seen = lock(&shared.manifest).no_space_seen();
    refresh_wal_gauges(shared);
    if no_space_seen || res.as_ref().is_err_and(|e| e.no_space) {
        let detail = match &res {
            Err(e) => e.message.clone(),
            Ok(()) => "out of disk space during a WAL checkpoint".to_string(),
        };
        enter_read_only(shared, &detail);
    }
    res.map_err(|e| e.message)
}

/// Mirrors the durable WAL shape into gauges so the plain `stats`
/// command exposes what `health` reports.
fn refresh_wal_gauges(shared: &Shared) {
    let stats = lock(&shared.manifest).wal_stats();
    shared.metrics.set_gauge("wal_segments", stats.segments);
    shared
        .metrics
        .set_gauge("wal_segment_bytes", stats.segment_bytes);
    shared
        .metrics
        .set_gauge("wal_checkpoint_seq", stats.checkpoint_seq);
    shared
        .metrics
        .set_gauge("wal_checkpoint_failures", stats.checkpoint_failures);
    shared.metrics.set_gauge("wal_pending_gc", stats.pending_gc);
    shared.metrics.set_gauge("jobs_gcd_total", stats.gcd_jobs);
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
/// Replays the manifest first, finishing any pending GC intents and
/// resuming every non-terminal job; then applies the retention policy.
///
/// # Errors
///
/// Fails on state-root or socket I/O errors; job failures are recorded
/// in the manifest, not returned.
pub fn run_with(root: PathBuf, term: TermSignal, options: ServeOptions) -> Result<(), String> {
    std::fs::create_dir_all(root.join("jobs"))
        .map_err(|e| format!("cannot create state root {root:?}: {e}"))?;
    let injector = options.disk_faults.map(DiskFaultInjector::new);
    let (manifest, entries) = Manifest::open_with(
        &root,
        ManifestOptions {
            segment_bytes: options.segment_bytes,
            faults: injector.clone(),
        },
    )?;
    let pending_gc = manifest.take_pending_gc();
    let shared = Arc::new(Shared {
        root: root.clone(),
        jobs: Mutex::new(BTreeMap::new()),
        manifest: Mutex::new(manifest),
        threads: Mutex::new(Vec::new()),
        gate: FairGate::new(),
        metrics: Arc::new(MetricsRegistry::new()),
        // Only feeds the admin plane's uptime line; taint analysis sees
        // it never reaches a journaled or wire surface.
        started: Instant::now(),
        keep_terminal: options.keep_terminal,
        injector,
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
    refresh_wal_gauges(&shared);

    let job_listener = bind(&root.join(JOB_SOCKET))?;
    let admin_listener = bind(&root.join(ADMIN_SOCKET))?;
    eprintln!("datamime-served: listening under {}", root.display());

    // Each connection is handled on its own short-lived thread: a client
    // that connects and then stalls (up to the 5s read timeout) must not
    // freeze the job API, the admin plane, or shutdown observation.
    while !term.requested() {
        let mut idle = true;
        if let Ok((conn, _)) = job_listener.accept() {
            idle = false;
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut conn = conn;
                handle_job_conn(&shared, &mut conn);
            });
        }
        if let Ok((conn, _)) = admin_listener.accept() {
            idle = false;
            let shared = Arc::clone(&shared);
            let term = term.clone();
            std::thread::spawn(move || {
                let mut conn = conn;
                handle_admin_conn(&shared, &mut conn, &term);
            });
        }
        if idle {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    // Drain: stop admitting batches, let every job thread stop at its
    // next batch boundary (journals and the manifest are already safe on
    // disk — an interrupted job replays on the next start).
    eprintln!("datamime-served: draining ...");
    shared.gate.close();
    let threads = std::mem::take(&mut *lock(&shared.threads));
    for t in threads {
        let _ = t.join();
    }
    // audit:allow(swallowed-result): shutdown cleanup is best-effort — a leftover socket file is replaced by the next bind
    let _ = std::fs::remove_file(root.join(JOB_SOCKET));
    // audit:allow(swallowed-result): shutdown cleanup is best-effort — a leftover socket file is replaced by the next bind
    let _ = std::fs::remove_file(root.join(ADMIN_SOCKET));
    Ok(())
}

fn bind(path: &PathBuf) -> Result<UnixListener, String> {
    // A daemon killed with SIGKILL leaves its socket files behind; a
    // fresh bind must replace them.
    // audit:allow(swallowed-result): the file usually does not exist — a real collision surfaces as the bind error below
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
/// read-only — GC itself must append to the WAL.
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
    // The intent is durable: the job is gone from the manifest fold, so
    // it leaves the live table now regardless of how phase two fares.
    lock(&shared.jobs).remove(job);
    finish_gc(shared, job);
}

/// Phase two of GC: remove the job directory (idempotent) and close the
/// intent. On failure the intent stays pending for the next startup.
fn finish_gc(shared: &Arc<Shared>, job: &str) {
    if let Some(inj) = &shared.injector {
        if let Some(kind) = inj.next(DiskTarget::GcDir) {
            eprintln!(
                "datamime-served: injected {kind:?} during gc of {job}; intent stays pending"
            );
            return;
        }
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

/// Re-creates job records from replayed manifest entries and restarts
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
        let spec = JobSpec::parse(spec_line)?;
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
        let target_profile = profile_workload(&target, &cfg.machine, &cfg.profiling);

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

        let journal = shared.journal_path(job);
        // Resume via a sidecar: the previous journal is renamed aside and
        // the run rewrites a fresh, self-contained journal (the executor
        // re-records the replayed prefix). Appending to the crashed file
        // instead would glue new records onto a torn final line if the
        // SIGKILL landed mid-write. A journal without a readable header
        // (killed before the first append) is ignored and the job simply
        // starts over.
        let sidecar = shared.job_dir(job).join("journal.resume.jsonl");
        if sidecar.exists() {
            // Orphaned sidecar: a previous daemon crashed between staging
            // the resume and finishing the rewrite. If the fresh journal
            // replays, it is self-contained (its prefix came from the
            // sidecar) and the sidecar is stale; otherwise the sidecar IS
            // the journal — put it back. Either way the determinism of
            // the search makes the resumed result identical.
            if journal.exists() && datamime_runtime::replay(&journal).is_ok() {
                std::fs::remove_file(&sidecar)
                    .map_err(|e| format!("cannot drop the stale resume sidecar: {e}"))?;
            } else {
                std::fs::rename(&sidecar, &journal)
                    .map_err(|e| format!("cannot restore the resume sidecar: {e}"))?;
                // The restored name must survive a crash before we rely
                // on it: rename durability requires the parent fsync.
                crate::manifest::sync_dir(sidecar.parent().unwrap_or(Path::new(".")))?;
            }
        }
        let resume_from =
            if resume && journal.exists() && datamime_runtime::replay(&journal).is_ok() {
                std::fs::rename(&journal, &sidecar)
                    .map_err(|e| format!("cannot stage the resume journal: {e}"))?;
                // Make the staging durable: if we crash mid-rewrite, the
                // orphaned-sidecar recovery above only works if the
                // sidecar's name actually reached the disk.
                crate::manifest::sync_dir(sidecar.parent().unwrap_or(Path::new(".")))?;
                Some(sidecar.clone())
            } else {
                None
            };

        let mut opts = spec.runtime_options();
        opts.journal = Some(journal);
        opts.resume = resume_from.clone();
        opts.extra_sink = Some(SharedSink::new(JobSink { progress }));
        opts.batch_gate = Some(GateHandle::new(Arc::new(ticket)));
        opts.metrics = Some(Arc::clone(&shared.metrics));
        opts.disk_faults = shared.injector.clone();

        let result = search_with_runtime(generator.as_ref(), &target_profile, &cfg, &opts);
        shared.gate.finish(seq);
        if resume_from.is_some() {
            // The fresh journal now carries the whole observed prefix.
            // audit:allow(swallowed-result): best effort — a surviving stale sidecar is dropped by the orphan recovery on the next start
            let _ = std::fs::remove_file(&sidecar);
        }
        match result {
            Ok(outcome) => {
                // The terminal transition must be durable *before* the
                // result is served: a Done record without a fsynced
                // `done` event would be re-run (and re-acknowledged with
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

fn handle_job_conn(shared: &Arc<Shared>, conn: &mut UnixStream) {
    // A socket we cannot put back into blocking mode or bound the read
    // on would either busy-spin or hang this thread; drop the
    // connection instead — the client sees EOF and retries.
    if conn.set_nonblocking(false).is_err()
        || conn.set_read_timeout(Some(Duration::from_secs(5))).is_err()
    {
        return;
    }
    let Ok(req) = read_frame(conn) else { return };
    let resp = match req {
        Frame::SubmitJob { spec } => submit(shared, &spec),
        Frame::JobStatusReq { job } => status(shared, &job),
        Frame::JobResultReq { job } => result(shared, &job),
        Frame::CancelJob { job } => cancel(shared, &job),
        Frame::ListJobsReq => Frame::JobList {
            jobs: lock(&shared.jobs)
                .iter()
                .map(|(id, rec)| (id.clone(), rec.state.as_str().to_string()))
                .collect(),
        },
        other => Frame::ServeErr {
            detail: format!("unexpected frame on the job socket: {other:?}"),
        },
    };
    // audit:allow(swallowed-result): response is best-effort — the client may already have hung up
    let _ = write_frame(conn, &resp);
}

fn submit(shared: &Arc<Shared>, spec_line: &str) -> Frame {
    if shared.read_only.load(Ordering::SeqCst) {
        return Frame::ServeErr {
            detail: format!(
                "daemon is read-only ({}); submissions are disabled",
                lock(&shared.read_only_reason)
            ),
        };
    }
    // Validate the whole spec now so a bad submit fails the submitter,
    // not a job thread minutes later.
    let spec = match JobSpec::parse(spec_line)
        .and_then(|s| s.target().map(|_| s))
        .and_then(|s| s.search_config().map(|_| s))
        .and_then(|s| s.generator().map(|_| s))
    {
        Ok(spec) => spec,
        Err(detail) => return Frame::ServeErr { detail },
    };
    let canonical = match spec.to_line() {
        Ok(line) => line,
        Err(detail) => return Frame::ServeErr { detail },
    };
    // Id allocation and the submit record commit under one manifest
    // lock, so concurrent submitters cannot race the same number. The
    // high-water mark lives in the manifest fold (and its checkpoints),
    // so GC of old jobs never recycles an id.
    let submitted = {
        let mut m = lock(&shared.manifest);
        let job = format!("job-{:04}", m.next_job_number());
        (job.clone(), m.submit(&job, &canonical))
    };
    let (job, res) = submitted;
    if let Err(e) = manifest_op(shared, res) {
        return Frame::ServeErr { detail: e };
    }
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
    Frame::JobAck { job }
}

fn status(shared: &Arc<Shared>, job: &str) -> Frame {
    let jobs = lock(&shared.jobs);
    let Some(rec) = jobs.get(job) else {
        return no_such_job(job);
    };
    let best_bits = match &rec.result {
        Some((err, _)) => err.to_bits(),
        None => rec.progress.best_bits.load(Ordering::SeqCst),
    };
    Frame::JobStatusResp {
        job: job.to_string(),
        state: rec.state.as_str().to_string(),
        evals: rec.progress.evals.load(Ordering::SeqCst),
        iterations: rec.iterations,
        best_error_bits: best_bits,
    }
}

fn result(shared: &Arc<Shared>, job: &str) -> Frame {
    let jobs = lock(&shared.jobs);
    let Some(rec) = jobs.get(job) else {
        return no_such_job(job);
    };
    match (&rec.state, &rec.result) {
        (state, Some((err, unit))) if state.has_result() => Frame::JobResultResp {
            job: job.to_string(),
            best_error_bits: err.to_bits(),
            best_unit_bits: unit.iter().map(|u| u.to_bits()).collect(),
            journal: Shared::journal_rel(job),
        },
        (JobState::Failed, _) => Frame::ServeErr {
            detail: format!(
                "job {job} failed: {}",
                rec.detail.as_deref().unwrap_or("unknown error")
            ),
        },
        _ => Frame::ServeErr {
            detail: format!("job {job} is {}, no result to serve", rec.state.as_str()),
        },
    }
}

fn cancel(shared: &Arc<Shared>, job: &str) -> Frame {
    let mut jobs = lock(&shared.jobs);
    let Some(rec) = jobs.get_mut(job) else {
        return no_such_job(job);
    };
    if rec.state.is_terminal() {
        return Frame::ServeErr {
            detail: format!("job {job} is already {}", rec.state.as_str()),
        };
    }
    rec.cancel_requested = true;
    if let Some(seq) = rec.gate_seq {
        shared.gate.cancel(seq);
    }
    Frame::JobAck {
        job: job.to_string(),
    }
}

fn no_such_job(job: &str) -> Frame {
    Frame::ServeErr {
        detail: format!("no such job: {job}"),
    }
}

fn handle_admin_conn(shared: &Arc<Shared>, conn: &mut UnixStream, term: &TermSignal) {
    // A socket we cannot put back into blocking mode or bound the read
    // on would either busy-spin or hang this thread; drop the
    // connection instead — the client sees EOF and retries.
    if conn.set_nonblocking(false).is_err()
        || conn.set_read_timeout(Some(Duration::from_secs(5))).is_err()
    {
        return;
    }
    let mut line = String::new();
    if BufReader::new(&mut *conn).read_line(&mut line).is_err() {
        return;
    }
    let reply = match line.trim() {
        "stats" => {
            let mut out = String::new();
            for (name, value) in shared.metrics.snapshot() {
                out.push_str(&format!("STAT {name} {value}\n"));
            }
            for (name, value) in shared.metrics.gauge_snapshot() {
                out.push_str(&format!("STAT {name} {value}\n"));
            }
            out.push_str("END\n");
            out
        }
        "version" => format!("datamime-served {}\n", env!("CARGO_PKG_VERSION")),
        "health" => {
            let wal = lock(&shared.manifest).wal_stats();
            let read_only = shared.read_only.load(Ordering::SeqCst);
            let mut out = String::new();
            out.push_str(&format!(
                "STAT uptime_s {}\n",
                shared.started.elapsed().as_secs()
            ));
            out.push_str(&format!("STAT wal_segments {}\n", wal.segments));
            out.push_str(&format!("STAT wal_segment_bytes {}\n", wal.segment_bytes));
            out.push_str(&format!("STAT wal_checkpoint_seq {}\n", wal.checkpoint_seq));
            out.push_str(&format!(
                "STAT wal_checkpoint_failures {}\n",
                wal.checkpoint_failures
            ));
            out.push_str(&format!("STAT wal_pending_gc {}\n", wal.pending_gc));
            out.push_str(&format!("STAT jobs_gcd_total {}\n", wal.gcd_jobs));
            out.push_str(&format!("STAT read_only {}\n", u64::from(read_only)));
            if read_only {
                out.push_str(&format!("READONLY {}\n", lock(&shared.read_only_reason)));
            }
            out.push_str("END\n");
            out
        }
        "shutdown" => match term.trigger() {
            Ok(()) => "OK draining\n".to_string(),
            // A shutdown the daemon cannot act on must not be
            // acknowledged as OK — the operator would walk away from a
            // server that is still running.
            Err(e) => format!("ERROR cannot trigger drain: {e}\n"),
        },
        other => format!("ERROR unknown admin command `{other}`\n"),
    };
    // audit:allow(swallowed-result): reply is best-effort — the admin client may already have hung up
    let _ = conn.write_all(reply.as_bytes());
}
