//! The broker: the engine-side half of the distributed evaluation plane.
//!
//! [`Broker::start`] binds a Unix domain socket, spawns `workers` worker
//! processes, and validates each one's `Hello` (protocol version, context
//! fingerprint, worker-binary identity) before admitting it to the pool.
//! [`Broker`] implements [`datamime_runtime::Backend`], so
//! `Executor::run` drives it exactly like the in-process thread
//! pool — and because verdicts are returned in job order and every
//! retry/penalty decision is a pure function of `(seed, index, attempt)`,
//! a proc-backend run is bit-identical to a thread-backend run for any
//! worker count.
//!
//! Failure model (the delta against the in-process supervisor, see
//! DESIGN.md §8):
//!
//! - **deadlines** are enforced by SIGKILL-ing the worker process —
//!   strictly stronger than the watchdog's cooperative [`CancelToken`]
//!   cancellation, because a wedged simulator that never polls the token
//!   still dies. The killed attempt is classified `timeout` with the
//!   supervisor's exact detail string and consumes a retry, exactly as
//!   in-process;
//! - **spontaneous worker death** (crash, OOM-kill, `KillWorker` fault)
//!   is *transparent*: the in-flight point is re-dispatched to another
//!   worker without consuming a retry, because in-process evaluation has
//!   no equivalent failure and charging one would diverge the runs. The
//!   re-dispatch budget bounds the loop; exhausting it yields a final
//!   [`FailureKind::WorkerLost`] fault;
//! - **respawn** of dead workers is bounded by a per-slot restart budget;
//!   when every slot has exhausted its budget the batch fails with a
//!   [`Backend`](datamime_runtime::ExecError::Backend) error.
//!
//! [`CancelToken`]: datamime_runtime::CancelToken

use crate::protocol::{
    read_frame, worker_identity, write_frame, Frame, ProtocolError, PROTOCOL_VERSION,
};
use datamime_runtime::supervisor::{
    AfterFailure, Evaluated, FailPolicy, FailedAttempt, FailureKind, SupervisorConfig,
};
use datamime_runtime::telemetry::StageTimes;
use datamime_runtime::Backend;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Configuration of a [`Broker`]. The supervision fields mirror
/// [`SupervisorConfig`]; [`Broker::start`] builds one from them, so both
/// backends penalize, retry, and back off through the same
/// [`SupervisorConfig::after_failure`] for the same run seed.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Path of the worker binary to spawn.
    pub worker_bin: PathBuf,
    /// Arguments passed to every worker (the broker appends `--socket`
    /// and `--worker-id` itself).
    pub worker_args: Vec<String>,
    /// Number of worker processes.
    pub workers: usize,
    /// Evaluation-context fingerprint every worker must echo in `Hello`.
    pub ctx_fingerprint: u64,
    /// Run seed — the retry backoff schedule is a pure function of
    /// `(seed, index, attempt)`, shared with the in-process supervisor.
    pub seed: u64,
    /// Wall-clock budget per evaluation attempt; exceeding it SIGKILLs
    /// the worker (`None` = unlimited).
    pub deadline: Option<Duration>,
    /// Retries after the first failed attempt.
    pub max_retries: u32,
    /// First-retry backoff; doubles per retry.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff.
    pub backoff_cap: Duration,
    /// What to do once retries are exhausted.
    pub fail_policy: FailPolicy,
    /// The finite objective observed for a penalized failure.
    pub penalty: f64,
    /// Respawns allowed per worker slot before the slot is abandoned.
    pub restart_budget: u32,
    /// Transparent re-dispatches allowed per point after spontaneous
    /// worker deaths, before the point fails with
    /// [`FailureKind::WorkerLost`].
    pub redispatch_budget: u32,
    /// Optional metrics registry; the broker bumps `worker_restarts`
    /// there whenever a slot is respawned and `redispatches` whenever a
    /// point whose worker died is silently queued again.
    pub metrics: Option<Arc<datamime_runtime::MetricsRegistry>>,
}

impl BrokerConfig {
    /// A config with the supervision defaults (penalize at the in-process
    /// supervisor's penalty, no deadline, no retries) and modest
    /// restart/re-dispatch budgets.
    pub fn new(worker_bin: PathBuf, workers: usize) -> Self {
        BrokerConfig {
            worker_bin,
            worker_args: Vec::new(),
            workers,
            ctx_fingerprint: 0,
            seed: 0,
            deadline: None,
            max_retries: 0,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(10),
            fail_policy: FailPolicy::Penalize,
            penalty: SupervisorConfig::default().penalty,
            restart_budget: 3,
            redispatch_budget: 3,
            metrics: None,
        }
    }
}

/// Messages flowing from the acceptor/reader threads to the event loop.
enum Msg {
    /// A worker finished its handshake; `conn` is the write half.
    Ready { id: u64, conn: UnixStream },
    /// A worker failed protocol/context/identity negotiation.
    Rejected { reason: String },
    /// An `EvalOk`/`EvalErr` frame from worker `id`.
    Result { id: u64, frame: Frame },
    /// Worker `id`'s connection closed.
    Closed { id: u64 },
}

/// One worker slot. `id` names the current process *incarnation* — it
/// changes on every respawn, so messages from a killed predecessor are
/// recognizably stale and ignored.
struct Slot {
    id: u64,
    child: Option<Child>,
    conn: Option<UnixStream>,
    /// Batch position of the job in flight, if any.
    busy: Option<usize>,
    /// Deadline of the in-flight attempt.
    due: Option<Instant>,
    restarts: u32,
    /// Restart budget exhausted; the slot spawns no more workers.
    dead: bool,
}

/// Per-point dispatch state within one batch.
struct Job {
    index: usize,
    unit: Vec<f64>,
    /// Supervision attempt number (0-based), advanced by real failures.
    attempt: u32,
    /// Total dispatches, including transparent re-dispatches.
    dispatch: u32,
    /// Spontaneous worker deaths charged to this point.
    lost: u32,
    /// Earliest instant the next attempt may start (retry backoff).
    ready_at: Option<Instant>,
    /// Slot currently evaluating the point.
    running_on: Option<usize>,
    verdict: Option<Evaluated>,
}

/// The broker-side worker pool; see the module docs.
pub struct Broker {
    cfg: BrokerConfig,
    /// The retry policy, built from `cfg`'s supervision fields.
    supervision: SupervisorConfig,
    dir: PathBuf,
    socket_path: PathBuf,
    events: mpsc::Receiver<Msg>,
    slots: Vec<Slot>,
    next_id: u64,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

static SOCKET_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

impl Broker {
    /// Binds the broker socket and spawns `cfg.workers` worker processes.
    /// Handshakes complete asynchronously; a version- or context-skewed
    /// worker surfaces as a clear [`evaluate_batch`](Backend) error, never
    /// a hang.
    ///
    /// # Errors
    ///
    /// Fails if the socket directory or listener cannot be created, or a
    /// worker process cannot be spawned at all.
    pub fn start(cfg: BrokerConfig) -> Result<Self, String> {
        if cfg.workers == 0 {
            return Err("broker needs at least one worker".to_string());
        }
        let dir = std::env::temp_dir().join(format!(
            "datamime-dist-{}-{}",
            std::process::id(),
            SOCKET_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        let socket_path = dir.join("broker.sock");
        let listener = UnixListener::bind(&socket_path)
            .map_err(|e| format!("cannot bind {socket_path:?}: {e}"))?;

        let (tx, rx) = mpsc::channel();
        let shutdown = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let tx = tx.clone();
            let shutdown = Arc::clone(&shutdown);
            let expect_ctx = cfg.ctx_fingerprint;
            std::thread::Builder::new()
                .name("datamime-broker-accept".to_string())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(conn) = conn else { continue };
                        let tx = tx.clone();
                        let _ = std::thread::Builder::new()
                            .name("datamime-broker-reader".to_string())
                            .spawn(move || handshake_and_read(conn, expect_ctx, &tx));
                    }
                })
                .map_err(|e| format!("cannot spawn acceptor: {e}"))?
        };

        let supervision = SupervisorConfig {
            deadline: cfg.deadline,
            max_retries: cfg.max_retries,
            backoff_base: cfg.backoff_base,
            backoff_cap: cfg.backoff_cap,
            fail_policy: cfg.fail_policy,
            penalty: cfg.penalty,
            ..SupervisorConfig::default()
        };
        let mut broker = Broker {
            cfg,
            supervision,
            dir,
            socket_path,
            events: rx,
            slots: Vec::new(),
            next_id: 1,
            shutdown,
            acceptor: Some(acceptor),
        };
        for _ in 0..broker.cfg.workers {
            let slot = Slot {
                id: 0,
                child: None,
                conn: None,
                busy: None,
                due: None,
                restarts: 0,
                dead: false,
            };
            broker.slots.push(slot);
        }
        for i in 0..broker.slots.len() {
            broker.spawn_worker(i)?;
        }
        Ok(broker)
    }

    /// Spawns a fresh worker process into slot `i` under a new
    /// incarnation id.
    fn spawn_worker(&mut self, i: usize) -> Result<(), String> {
        let id = self.next_id;
        self.next_id += 1;
        // Point the worker's termination sentinel into the broker's own
        // socket dir. Besides giving broker-managed workers a drain path,
        // this disables the worker's `/bin/sh` trampoline (see
        // `datamime_runtime::termsig`): the PID the broker holds must be
        // the real worker, or deadline SIGKILLs would hit the wrapper and
        // orphan the evaluation process.
        let sentinel = self.dir.join(format!("term-{id}.sentinel"));
        let child = Command::new(&self.cfg.worker_bin)
            .args(&self.cfg.worker_args)
            .arg("--socket")
            .arg(&self.socket_path)
            .arg("--worker-id")
            .arg(id.to_string())
            .env(datamime_runtime::TERM_SENTINEL_ENV, &sentinel)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn worker {:?}: {e}", self.cfg.worker_bin))?;
        let slot = &mut self.slots[i];
        slot.id = id;
        slot.child = Some(child);
        slot.conn = None;
        slot.busy = None;
        slot.due = None;
        Ok(())
    }

    /// Kills and reaps slot `i`'s worker process, then respawns it if the
    /// restart budget allows. Retires the incarnation id either way, so
    /// late messages from the old process are ignored.
    fn retire_and_respawn(&mut self, i: usize) -> Result<(), String> {
        if let Some(mut child) = self.slots[i].child.take() {
            // audit:allow(swallowed-result): the worker may already have exited — kill failing means there is nothing left to kill
            let _ = child.kill();
            let _ = child.wait();
        }
        self.slots[i].id = 0;
        self.slots[i].conn = None;
        self.slots[i].busy = None;
        self.slots[i].due = None;
        if self.slots[i].restarts >= self.cfg.restart_budget {
            self.slots[i].dead = true;
            if self.slots.iter().all(|s| s.dead) {
                return Err(format!(
                    "every worker slot exhausted its restart budget of {}",
                    self.cfg.restart_budget
                ));
            }
            return Ok(());
        }
        self.slots[i].restarts += 1;
        if let Some(m) = &self.cfg.metrics {
            m.incr("worker_restarts");
        }
        self.spawn_worker(i)
    }

    /// Sends queued, ready jobs to idle connected workers, in job order.
    fn dispatch_ready(&mut self, jobs: &mut [Job], now: Instant) {
        for (j, job) in jobs.iter_mut().enumerate() {
            if job.verdict.is_some() || job.running_on.is_some() {
                continue;
            }
            if job.ready_at.is_some_and(|t| t > now) {
                continue;
            }
            let Some(i) = self
                .slots
                .iter()
                .position(|s| !s.dead && s.conn.is_some() && s.busy.is_none())
            else {
                return; // no idle worker; try again on the next event
            };
            let frame = Frame::Eval {
                index: job.index as u64,
                attempt: job.attempt,
                dispatch: job.dispatch,
                unit_bits: job.unit.iter().map(|x| x.to_bits()).collect(),
            };
            let slot = &mut self.slots[i];
            let sent = match slot.conn.as_mut() {
                Some(c) => write_frame(c, &frame).is_ok(),
                None => false,
            };
            if !sent {
                // Broken pipe: the reader thread will report Closed for
                // this incarnation; stop handing it work meanwhile.
                slot.conn = None;
                continue;
            }
            slot.busy = Some(j);
            slot.due = self.cfg.deadline.map(|d| now + d);
            job.running_on = Some(i);
            job.dispatch += 1;
            job.ready_at = None;
        }
    }

    /// Charges a real failed attempt (timeout, panic, non-finite) to
    /// `jobs[j]`, scheduling a retry or producing the final verdict by
    /// the supervisor's own [`SupervisorConfig::after_failure`].
    #[allow(clippy::too_many_arguments)]
    fn failed_attempt(
        &mut self,
        jobs: &mut [Job],
        j: usize,
        kind: FailureKind,
        detail: String,
        worker: Option<u64>,
        on_attempt: &mut dyn FnMut(FailedAttempt),
        done: &mut usize,
    ) {
        let job = &mut jobs[j];
        on_attempt(FailedAttempt {
            index: job.index,
            attempt: job.attempt,
            kind,
            detail: detail.clone(),
            worker,
        });
        let next = self.supervision.after_failure(
            self.cfg.seed,
            job.index,
            job.attempt,
            kind,
            detail,
            None,
        );
        match next {
            AfterFailure::Retry(backoff) => {
                job.attempt += 1;
                // Wall-clock only gates *when* the retry starts; the
                // backoff length itself is the seeded pure function
                // shared with the supervisor, and taint analysis sees
                // the timestamp never reaches a journaled surface.
                job.ready_at = Some(Instant::now() + backoff);
            }
            AfterFailure::Penalized(mut verdict) => {
                verdict.worker = worker;
                job.verdict = Some(verdict);
                *done += 1;
            }
        }
    }

    /// SIGKILLs workers whose in-flight attempt is past its deadline and
    /// charges the timeout, matching the supervisor's classification.
    fn enforce_deadlines(
        &mut self,
        jobs: &mut [Job],
        now: Instant,
        on_attempt: &mut dyn FnMut(FailedAttempt),
        done: &mut usize,
    ) -> Result<(), String> {
        let budget = match self.cfg.deadline {
            Some(d) => d,
            None => return Ok(()),
        };
        for i in 0..self.slots.len() {
            let overdue = self.slots[i].due.is_some_and(|d| d <= now);
            if !overdue {
                continue;
            }
            let worker = Some(self.slots[i].id);
            let j = self.slots[i].busy;
            self.retire_and_respawn(i)?;
            if let Some(j) = j {
                jobs[j].running_on = None;
                self.failed_attempt(
                    jobs,
                    j,
                    FailureKind::Timeout,
                    format!("evaluation exceeded its {budget:?} deadline"),
                    worker,
                    on_attempt,
                    done,
                );
            }
        }
        Ok(())
    }

    /// The instant of the nearest pending timer (attempt deadline or
    /// retry `ready_at`), for sizing the event-loop wait.
    fn next_timer(&self, jobs: &[Job]) -> Option<Instant> {
        let deadlines = self.slots.iter().filter_map(|s| s.due);
        let retries = jobs
            .iter()
            .filter(|job| job.verdict.is_none() && job.running_on.is_none())
            .filter_map(|job| job.ready_at);
        deadlines.chain(retries).min()
    }

    fn slot_by_id(&self, id: u64) -> Option<usize> {
        self.slots.iter().position(|s| s.id == id && id != 0)
    }
}

impl Backend for Broker {
    fn evaluate_batch(
        &mut self,
        batch: &[(usize, Vec<f64>)],
        on_attempt: &mut dyn FnMut(FailedAttempt),
    ) -> Result<Vec<Evaluated>, String> {
        let mut jobs: Vec<Job> = batch
            .iter()
            .map(|(index, unit)| Job {
                index: *index,
                unit: unit.clone(),
                attempt: 0,
                dispatch: 0,
                lost: 0,
                ready_at: None,
                running_on: None,
                verdict: None,
            })
            .collect();
        let mut done = 0usize;

        while done < jobs.len() {
            // The event loop's clock schedules dispatch and enforces
            // deadlines; observed values never depend on it.
            let now = Instant::now();
            self.enforce_deadlines(&mut jobs, now, on_attempt, &mut done)?;
            self.dispatch_ready(&mut jobs, now);
            if done >= jobs.len() {
                break;
            }

            // Workers that died before ever connecting (bad binary, early
            // abort) produce no Closed event; poll their exit instead.
            for i in 0..self.slots.len() {
                if self.slots[i].conn.is_none() && !self.slots[i].dead {
                    let exited = match self.slots[i].child.as_mut() {
                        Some(c) => c.try_wait().map(|s| s.is_some()).unwrap_or(true),
                        None => false,
                    };
                    if exited {
                        self.retire_and_respawn(i)?;
                    }
                }
            }

            let wait = self
                .next_timer(&jobs)
                .map(|t| t.saturating_duration_since(now))
                .unwrap_or(Duration::from_millis(200))
                .clamp(Duration::from_millis(1), Duration::from_millis(200));
            let msg = match self.events.recv_timeout(wait) {
                Ok(msg) => msg,
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err("broker acceptor thread died".to_string())
                }
            };
            match msg {
                Msg::Ready { id, conn } => {
                    if let Some(i) = self.slot_by_id(id) {
                        self.slots[i].conn = Some(conn);
                    }
                }
                Msg::Rejected { reason } => return Err(reason),
                Msg::Result { id, frame } => {
                    let Some(i) = self.slot_by_id(id) else {
                        continue; // stale incarnation (killed after sending)
                    };
                    let Some(j) = self.slots[i].busy.take() else {
                        continue;
                    };
                    self.slots[i].due = None;
                    jobs[j].running_on = None;
                    match frame {
                        Frame::EvalOk {
                            index,
                            error_bits,
                            stage_ms,
                        } => {
                            if index as usize != jobs[j].index {
                                return Err(format!(
                                    "worker {id} answered for evaluation {index}, \
                                     expected {}",
                                    jobs[j].index
                                ));
                            }
                            let error = f64::from_bits(error_bits);
                            if error.is_finite() {
                                jobs[j].verdict = Some(Evaluated {
                                    error,
                                    stages: rebuild_stages(&stage_ms),
                                    fault: None,
                                    worker: Some(id),
                                });
                                done += 1;
                            } else {
                                // Defense in depth: workers classify
                                // non-finite objectives themselves.
                                self.failed_attempt(
                                    &mut jobs,
                                    j,
                                    FailureKind::NonFinite,
                                    format!("objective evaluated to {error}"),
                                    Some(id),
                                    on_attempt,
                                    &mut done,
                                );
                            }
                        }
                        Frame::EvalErr {
                            index: _,
                            kind,
                            detail,
                        } => {
                            let kind = FailureKind::from_tag(&kind).unwrap_or(FailureKind::Panic);
                            self.failed_attempt(
                                &mut jobs,
                                j,
                                kind,
                                detail,
                                Some(id),
                                on_attempt,
                                &mut done,
                            );
                        }
                        _ => return Err(format!("worker {id} sent an unexpected frame")),
                    }
                }
                Msg::Closed { id } => {
                    let Some(i) = self.slot_by_id(id) else {
                        continue; // already retired (deadline kill)
                    };
                    let j = self.slots[i].busy;
                    self.retire_and_respawn(i)?;
                    if let Some(j) = j {
                        jobs[j].running_on = None;
                        jobs[j].lost += 1;
                        if jobs[j].lost > self.cfg.redispatch_budget {
                            let lost = jobs[j].lost;
                            self.failed_attempt(
                                &mut jobs,
                                j,
                                FailureKind::WorkerLost,
                                format!("worker process died {lost} time(s) evaluating this point"),
                                Some(id),
                                on_attempt,
                                &mut done,
                            );
                        } else {
                            // Transparent re-dispatch — no attempt is
                            // consumed, because the in-process backend has
                            // no equivalent failure and determinism demands
                            // both backends observe the same values; the
                            // counter is the only trace it leaves.
                            if let Some(m) = &self.cfg.metrics {
                                m.incr("redispatches");
                            }
                        }
                    }
                }
            }
        }

        Ok(jobs
            .into_iter()
            .map(|job| {
                job.verdict
                    // audit:allow(panic-safety): the loop above only exits once every job holds a verdict
                    .expect("evaluate_batch loop left a job unresolved")
            })
            .collect())
    }
}

impl Drop for Broker {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for slot in &mut self.slots {
            if let Some(conn) = slot.conn.as_mut() {
                // audit:allow(swallowed-result): courtesy frame in Drop — the kill below is the enforcement
                let _ = write_frame(conn, &Frame::Shutdown);
            }
            if let Some(mut child) = slot.child.take() {
                // audit:allow(swallowed-result): the worker may already have exited — kill failing means there is nothing left to kill
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        // Unblock the acceptor's `incoming()` so it observes the flag.
        let _ = UnixStream::connect(&self.socket_path);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Maps wire stage names back onto the `&'static str` names the runtime
/// uses; stages the runtime does not know are dropped (they could only
/// come from a newer worker, which the identity check already rejects).
fn rebuild_stages(stage_ms: &[(String, u64)]) -> StageTimes {
    const KNOWN: [&str; 5] = ["instantiate", "build", "profile", "error", "evaluate"];
    let mut stages = StageTimes::new();
    for (name, ms_bits) in stage_ms {
        if let Some(known) = KNOWN.iter().find(|k| *k == name) {
            let ms = f64::from_bits(*ms_bits);
            if ms.is_finite() && ms >= 0.0 {
                stages.record(known, Duration::from_secs_f64(ms / 1e3));
            }
        }
    }
    stages
}

/// Per-connection thread: validates the worker's `Hello`, then pumps its
/// frames into the event channel until the socket closes.
fn handshake_and_read(mut conn: UnixStream, expect_ctx: u64, tx: &mpsc::Sender<Msg>) {
    let reject = |reason: String| {
        let _ = tx.send(Msg::Rejected { reason });
    };
    // Without the handshake deadline a silent client would pin this
    // thread forever; if the socket cannot take a timeout, reject it.
    if let Err(e) = conn.set_read_timeout(Some(Duration::from_secs(10))) {
        return reject(format!("cannot arm the handshake timeout: {e}"));
    }
    let hello = match read_frame(&mut conn) {
        Ok(f) => f,
        Err(ProtocolError::VersionMismatch { got, want }) => {
            return reject(format!(
                "worker handshake failed: it speaks protocol v{got}, this broker speaks \
                 v{want} — rebuild or repoint the worker binary"
            ));
        }
        Err(ProtocolError::Closed) => return, // e.g. the Drop unblock probe
        Err(e) => return reject(format!("worker handshake failed: {e}")),
    };
    let Frame::Hello {
        protocol_version,
        ctx_fingerprint,
        identity,
        worker_id,
    } = hello
    else {
        return reject("worker opened with a non-Hello frame".to_string());
    };
    if protocol_version != PROTOCOL_VERSION {
        return reject(format!(
            "worker {worker_id} negotiated protocol v{protocol_version}, this broker \
             speaks v{PROTOCOL_VERSION} — rebuild or repoint the worker binary"
        ));
    }
    if identity != worker_identity() {
        return reject(format!(
            "worker {worker_id} was built from different evaluation code (identity \
             {identity:#018x}, expected {:#018x}) — a stale datamime-worker on PATH \
             cannot serve this run",
            worker_identity()
        ));
    }
    if ctx_fingerprint != expect_ctx {
        return reject(format!(
            "worker {worker_id} derived context fingerprint {ctx_fingerprint:#018x}, \
             the broker expects {expect_ctx:#018x} — its command line does not \
             reproduce this run's evaluation context"
        ));
    }
    if write_frame(
        &mut conn,
        &Frame::HelloAck {
            protocol_version: PROTOCOL_VERSION,
        },
    )
    .is_err()
    {
        return;
    }
    // The worker connection must outlive the handshake deadline: a
    // leftover 10s timeout would sever an idle worker mid-run.
    if let Err(e) = conn.set_read_timeout(None) {
        return reject(format!("cannot disarm the handshake timeout: {e}"));
    }
    let writer = match conn.try_clone() {
        Ok(w) => w,
        Err(e) => return reject(format!("cannot clone worker {worker_id} socket: {e}")),
    };
    if tx
        .send(Msg::Ready {
            id: worker_id,
            conn: writer,
        })
        .is_err()
    {
        return;
    }
    loop {
        match read_frame(&mut conn) {
            Ok(frame @ (Frame::EvalOk { .. } | Frame::EvalErr { .. })) => {
                if tx
                    .send(Msg::Result {
                        id: worker_id,
                        frame,
                    })
                    .is_err()
                {
                    return;
                }
            }
            Ok(_) | Err(_) => {
                let _ = tx.send(Msg::Closed { id: worker_id });
                return;
            }
        }
    }
}
