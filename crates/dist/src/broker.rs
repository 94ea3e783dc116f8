//! The broker: the engine-side half of the distributed evaluation plane.
//!
//! [`Broker::start`] spawns `workers` worker processes as its children
//! and speaks frames over each child's stdin and stdout. One reader
//! thread per incarnation validates the child's `Hello` (protocol
//! version, context fingerprint, worker-binary identity), which must
//! arrive within ten seconds of the spawn, admits it to the pool, and
//! then forwards its replies to the event loop.
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
//!   strictly stronger than the in-process deadline on the cooperative
//!   [`CancelToken`], because a wedged simulator that never polls the
//!   token still dies. The killed attempt is classified `timeout` with
//!   the supervisor's own [`timeout_detail`] and consumes a retry,
//!   exactly as in-process; every other attempt is classified
//!   worker-side by the supervisor's own
//!   [`run_attempt`](datamime_runtime::supervisor::run_attempt);
//! - **spontaneous worker death** (crash, OOM-kill, `KillWorker` fault)
//!   is *transparent*: the in-flight point is re-dispatched to another
//!   worker without consuming a retry, because in-process evaluation has
//!   no equivalent failure and charging one would diverge the runs. The
//!   re-dispatch budget bounds the loop; exhausting it yields a final
//!   [`FailureKind::WorkerLost`] fault;
//! - **respawn** of dead workers is bounded by a per-slot restart budget;
//!   when every slot has exhausted its budget the batch fails with a
//!   [`Backend`](datamime_runtime::ExecError::Backend) error. A child
//!   that exits before its `Hello` closes its stdout, so its reader
//!   reports it like any other death.
//!
//! [`CancelToken`]: datamime_runtime::CancelToken

// Supervised evaluation path: no panics outside tests (crates/audit/README.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::protocol::{
    read_frame, worker_identity, write_frame, Frame, ProtocolError, PROTOCOL_VERSION,
};
use datamime_runtime::supervisor::{
    nonfinite_detail, timeout_detail, AfterFailure, Evaluated, FailPolicy, FailedAttempt,
    FailureKind, SupervisorConfig,
};
use datamime_runtime::telemetry::StageTimes;
use datamime_runtime::Backend;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How long a freshly spawned worker has to complete its `Hello`; past
/// it the batch fails with an error naming the handshake.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Configuration of a [`Broker`]. The supervision fields mirror
/// [`SupervisorConfig`]; [`Broker::start`] builds one from them, so both
/// backends penalize, retry, and back off through the same
/// [`SupervisorConfig::after_failure`] for the same run seed.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Path of the worker binary to spawn.
    pub worker_bin: PathBuf,
    /// Arguments passed to every worker, verbatim.
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

/// Messages flowing from the reader threads to the event loop.
enum Msg {
    /// Worker `id` finished its handshake; `conn` is its stdin.
    Ready { id: u64, conn: ChildStdin },
    /// A worker failed protocol/context/identity negotiation.
    Rejected { reason: String },
    /// An `EvalOk`/`EvalErr` frame from worker `id`.
    Result { id: u64, frame: Frame },
    /// Worker `id`'s stdout closed (it exited) or carried garbage.
    Closed { id: u64 },
}

/// One worker slot. `id` names the current process *incarnation* — it
/// changes on every respawn, so messages from a killed predecessor are
/// recognizably stale and ignored.
#[derive(Default)]
struct Slot {
    id: u64,
    child: Option<Child>,
    /// The worker's stdin, once its handshake has completed.
    conn: Option<ChildStdin>,
    /// Until the handshake completes: when it must have.
    hello_due: Option<Instant>,
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
    /// Cloned into every reader thread; holding it keeps `events` open.
    tx: mpsc::Sender<Msg>,
    events: mpsc::Receiver<Msg>,
    slots: Vec<Slot>,
    next_id: u64,
}

impl Broker {
    /// Spawns `cfg.workers` worker processes. Handshakes complete
    /// asynchronously; a version- or context-skewed or silent worker
    /// surfaces as a clear [`evaluate_batch`](Backend) error, never a
    /// hang.
    ///
    /// # Errors
    ///
    /// Fails if a worker process or its reader thread cannot be spawned
    /// at all.
    pub fn start(cfg: BrokerConfig) -> Result<Self, String> {
        if cfg.workers == 0 {
            return Err("broker needs at least one worker".to_string());
        }
        let (tx, events) = mpsc::channel();
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
            slots: (0..cfg.workers).map(|_| Slot::default()).collect(),
            cfg,
            supervision,
            tx,
            events,
            next_id: 1,
        };
        for i in 0..broker.slots.len() {
            broker.spawn_worker(i)?;
        }
        Ok(broker)
    }

    /// Spawns a fresh worker process into slot `i` under a new
    /// incarnation id, with a reader thread that owns its stdout.
    fn spawn_worker(&mut self, i: usize) -> Result<(), String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut child = Command::new(&self.cfg.worker_bin)
            .args(&self.cfg.worker_args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn worker {:?}: {e}", self.cfg.worker_bin))?;
        let pipes = child.stdin.take().zip(child.stdout.take());
        // The slot owns the child from here on, so an early return below
        // still kills and reaps it when the slot is retired or dropped.
        let slot = &mut self.slots[i];
        slot.id = id;
        slot.child = Some(child);
        // The handshake bound is wall-clock by nature; it gates only
        // whether the batch fails, never an observed value.
        slot.hello_due = Some(Instant::now() + HANDSHAKE_TIMEOUT);
        let (stdin, stdout) = pipes.ok_or("worker spawned without piped stdin/stdout")?;
        let tx = self.tx.clone();
        let expect_ctx = self.cfg.ctx_fingerprint;
        // Detached, not joined: the reader ends when the worker's stdout
        // closes, and a grandchild the worker left holding that pipe must
        // not be able to hang the broker.
        std::thread::Builder::new()
            .name("datamime-broker-reader".to_string())
            .spawn(move || handshake_and_read(id, stdin, stdout, expect_ctx, &tx))
            .map_err(|e| format!("cannot spawn reader for worker {id}: {e}"))?;
        Ok(())
    }

    /// Kills and reaps slot `i`'s worker process, then respawns it if the
    /// restart budget allows. Retires the incarnation id either way, so
    /// late messages from the old process are ignored.
    fn retire_and_respawn(&mut self, i: usize) -> Result<(), String> {
        if let Some(child) = self.slots[i].child.take() {
            kill_and_reap(child);
        }
        self.slots[i].id = 0;
        self.slots[i].conn = None;
        self.slots[i].hello_due = None;
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
                // Broken pipe: the worker exited, and its reader will
                // report Closed; stop handing it work meanwhile.
                slot.conn = None;
                continue;
            }
            slot.busy = Some(j);
            // A deadline past the clock's range is no deadline, as with
            // the thread backend's `CancelToken::with_deadline`.
            slot.due = self.cfg.deadline.and_then(|d| now.checked_add(d));
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

    /// Fails the batch if a worker is past its handshake bound; SIGKILLs
    /// workers whose in-flight attempt is past its deadline and charges
    /// the timeout, matching the supervisor's classification.
    fn enforce_deadlines(
        &mut self,
        jobs: &mut [Job],
        now: Instant,
        on_attempt: &mut dyn FnMut(FailedAttempt),
        done: &mut usize,
    ) -> Result<(), String> {
        if let Some(slot) = self
            .slots
            .iter()
            .find(|s| s.hello_due.is_some_and(|d| d <= now))
        {
            return Err(format!(
                "worker {} ({:?}) did not complete the handshake within \
                 {HANDSHAKE_TIMEOUT:?} of its spawn",
                slot.id, self.cfg.worker_bin
            ));
        }
        let Some(budget) = self.cfg.deadline else {
            return Ok(());
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
                    timeout_detail(budget),
                    worker,
                    on_attempt,
                    done,
                );
            }
        }
        Ok(())
    }

    /// The instant of the nearest pending timer (handshake bound, attempt
    /// deadline or retry `ready_at`), for sizing the event-loop wait.
    fn next_timer(&self, jobs: &[Job]) -> Option<Instant> {
        let deadlines = self
            .slots
            .iter()
            .flat_map(|s| s.hello_due.into_iter().chain(s.due));
        let retries = jobs
            .iter()
            .filter(|job| job.verdict.is_none() && job.running_on.is_none())
            .filter_map(|job| job.ready_at);
        deadlines.chain(retries).min()
    }

    fn slot_by_id(&self, id: u64) -> Option<usize> {
        self.slots.iter().position(|s| s.id == id && id != 0)
    }

    /// Applies one reader message to the pool and the batch.
    fn on_msg(
        &mut self,
        msg: Msg,
        jobs: &mut [Job],
        on_attempt: &mut dyn FnMut(FailedAttempt),
        done: &mut usize,
    ) -> Result<(), String> {
        match msg {
            Msg::Ready { id, conn } => {
                if let Some(i) = self.slot_by_id(id) {
                    self.slots[i].conn = Some(conn);
                    self.slots[i].hello_due = None;
                }
            }
            Msg::Rejected { reason } => return Err(reason),
            Msg::Result { id, frame } => {
                let Some(i) = self.slot_by_id(id) else {
                    return Ok(()); // stale incarnation (killed after sending)
                };
                let Some(j) = self.slots[i].busy.take() else {
                    return Ok(());
                };
                self.slots[i].due = None;
                jobs[j].running_on = None;
                match classify(id, jobs[j].index, frame)? {
                    Reply::Value(verdict) => {
                        jobs[j].verdict = Some(verdict);
                        *done += 1;
                    }
                    Reply::Failed(kind, detail) => {
                        self.failed_attempt(jobs, j, kind, detail, Some(id), on_attempt, done)
                    }
                }
            }
            Msg::Closed { id } => {
                let Some(i) = self.slot_by_id(id) else {
                    return Ok(()); // already retired (deadline kill)
                };
                let j = self.slots[i].busy;
                self.retire_and_respawn(i)?;
                if let Some(j) = j {
                    jobs[j].running_on = None;
                    jobs[j].lost += 1;
                    if jobs[j].lost > self.cfg.redispatch_budget {
                        let lost = jobs[j].lost;
                        self.failed_attempt(
                            jobs,
                            j,
                            FailureKind::WorkerLost,
                            format!("worker process died {lost} time(s) evaluating this point"),
                            Some(id),
                            on_attempt,
                            done,
                        );
                    } else if let Some(m) = &self.cfg.metrics {
                        // Transparent re-dispatch — no attempt is
                        // consumed, because the in-process backend has
                        // no equivalent failure and determinism demands
                        // both backends observe the same values; the
                        // counter is the only trace it leaves.
                        m.incr("redispatches");
                    }
                }
            }
        }
        Ok(())
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
            // What the readers have already reported comes first, so no
            // timer below fires on a stale view of the pool.
            while let Ok(msg) = self.events.try_recv() {
                self.on_msg(msg, &mut jobs, on_attempt, &mut done)?;
            }
            // The event loop's clock schedules dispatch and enforces
            // deadlines; observed values never depend on it.
            let now = Instant::now();
            self.enforce_deadlines(&mut jobs, now, on_attempt, &mut done)?;
            self.dispatch_ready(&mut jobs, now);
            if done >= jobs.len() {
                break;
            }
            let wait = self
                .next_timer(&jobs)
                .map(|t| t.saturating_duration_since(now))
                .unwrap_or(Duration::from_millis(200))
                .clamp(Duration::from_millis(1), Duration::from_millis(200));
            // `self.tx` keeps the channel open, so the only error is a timeout.
            if let Ok(msg) = self.events.recv_timeout(wait) {
                self.on_msg(msg, &mut jobs, on_attempt, &mut done)?;
            }
        }

        #[expect(
            clippy::expect_used,
            reason = "the loop above only exits once every job holds a verdict"
        )]
        let verdicts = jobs
            .into_iter()
            .map(|job| {
                job.verdict
                    .expect("evaluate_batch loop left a job unresolved")
            })
            .collect();
        Ok(verdicts)
    }
}

impl Drop for Broker {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            // EOF on stdin is the stop; the kill below is the enforcement.
            slot.conn = None;
            if let Some(child) = slot.child.take() {
                kill_and_reap(child);
            }
        }
    }
}

/// Kills a worker process and reaps it.
#[expect(
    clippy::let_underscore_must_use,
    reason = "the worker may already have exited — kill failing means there is nothing left to kill, and there is no exit status left to report"
)]
fn kill_and_reap(mut child: Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// What a worker's reply says about the job it was answering.
enum Reply {
    /// A finite objective, with the worker's stage timings.
    Value(Evaluated),
    /// A failed attempt to charge to the job.
    Failed(FailureKind, String),
}

/// Checks worker `id`'s reply `frame` against the evaluation `expected`
/// its slot holds and classifies it. A reply for another evaluation, an
/// `EvalErr` kind no worker sends (only `panic` and `nonfinite` are
/// worker-side failures), or a frame that is no reply is a protocol
/// error that fails the batch.
fn classify(id: u64, expected: usize, frame: Frame) -> Result<Reply, String> {
    let (echoed, reply) = match frame {
        Frame::EvalOk {
            index,
            error_bits,
            stage_ms,
        } => {
            let error = f64::from_bits(error_bits);
            let reply = if error.is_finite() {
                Reply::Value(Evaluated {
                    error,
                    stages: rebuild_stages(&stage_ms),
                    fault: None,
                    worker: Some(id),
                })
            } else {
                // Defense in depth: workers classify non-finite
                // objectives themselves.
                Reply::Failed(FailureKind::NonFinite, nonfinite_detail(error))
            };
            (index, reply)
        }
        Frame::EvalErr {
            index,
            kind,
            detail,
        } => match FailureKind::from_tag(&kind) {
            Some(kind @ (FailureKind::Panic | FailureKind::NonFinite)) => {
                (index, Reply::Failed(kind, detail))
            }
            _ => {
                return Err(format!(
                    "worker {id} reported failure kind `{kind}`, which no worker sends"
                ))
            }
        },
        _ => return Err(format!("worker {id} sent an unexpected frame")),
    };
    if echoed != expected as u64 {
        return Err(format!(
            "worker {id} answered for evaluation {echoed}, expected {expected}"
        ));
    }
    Ok(reply)
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

/// Per-incarnation reader thread: validates worker `id`'s `Hello`,
/// answers it on `stdin` and hands `stdin` to the event loop, then pumps
/// the worker's frames into the event channel until its stdout closes.
fn handshake_and_read(
    id: u64,
    mut stdin: ChildStdin,
    stdout: ChildStdout,
    expect_ctx: u64,
    tx: &mpsc::Sender<Msg>,
) {
    let send = |msg: Msg| {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a failed send means the broker dropped its receiver — nobody is left to tell"
        )]
        let _ = tx.send(msg);
    };
    let reject = |reason: String| send(Msg::Rejected { reason });
    let closed = || send(Msg::Closed { id });
    let mut stdout = std::io::BufReader::new(stdout);
    let hello = match read_frame(&mut stdout) {
        Ok(f) => f,
        Err(ProtocolError::VersionMismatch { got, want }) => {
            return reject(format!(
                "worker handshake failed: it speaks protocol v{got}, this broker speaks \
                 v{want} — rebuild or repoint the worker binary"
            ));
        }
        Err(ProtocolError::Closed) => return closed(), // exited before its Hello
        Err(e) => return reject(format!("worker handshake failed: {e}")),
    };
    let Frame::Hello {
        protocol_version,
        ctx_fingerprint,
        identity,
    } = hello
    else {
        return reject("worker opened with a non-Hello frame".to_string());
    };
    if protocol_version != PROTOCOL_VERSION {
        return reject(format!(
            "worker {id} negotiated protocol v{protocol_version}, this broker \
             speaks v{PROTOCOL_VERSION} — rebuild or repoint the worker binary"
        ));
    }
    if identity != worker_identity() {
        return reject(format!(
            "worker {id} was built from different evaluation code (identity \
             {identity:#018x}, expected {:#018x}) — a stale datamime-worker on PATH \
             cannot serve this run",
            worker_identity()
        ));
    }
    if ctx_fingerprint != expect_ctx {
        return reject(format!(
            "worker {id} derived context fingerprint {ctx_fingerprint:#018x}, \
             the broker expects {expect_ctx:#018x} — its command line does not \
             reproduce this run's evaluation context"
        ));
    }
    let ack = Frame::HelloAck {
        protocol_version: PROTOCOL_VERSION,
    };
    if write_frame(&mut stdin, &ack).is_err() || tx.send(Msg::Ready { id, conn: stdin }).is_err() {
        return closed();
    }
    loop {
        match read_frame(&mut stdout) {
            Ok(frame @ (Frame::EvalOk { .. } | Frame::EvalErr { .. })) => {
                if tx.send(Msg::Result { id, frame }).is_err() {
                    return;
                }
            }
            Ok(_) | Err(_) => return closed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamime_runtime::supervisor::Supervisor;
    use std::os::unix::net::UnixStream;

    /// Runs `eval` as evaluation 3 in a worker's `serve` over a socket
    /// pair and returns the failure the broker reads from its reply.
    fn failure_through_a_worker(eval: fn() -> f64) -> (FailureKind, String) {
        let (mut conn, worker_end) = UnixStream::pair().unwrap();
        let worker = std::thread::spawn(move || {
            let writer = worker_end.try_clone().unwrap();
            crate::serve(&crate::WorkerConfig::new(9), worker_end, writer, |_, _| {
                eval()
            })
        });
        assert!(matches!(read_frame(&mut conn), Ok(Frame::Hello { .. })));
        let ack = Frame::HelloAck {
            protocol_version: PROTOCOL_VERSION,
        };
        write_frame(&mut conn, &ack).unwrap();
        let request = Frame::Eval {
            index: 3,
            attempt: 0,
            dispatch: 0,
            unit_bits: vec![0.5f64.to_bits()],
        };
        write_frame(&mut conn, &request).unwrap();
        let reply = read_frame(&mut conn).unwrap();
        drop(conn);
        worker.join().unwrap().expect("serve returns Ok on hang-up");
        match classify(1, 3, reply) {
            Ok(Reply::Failed(kind, detail)) => (kind, detail),
            _ => panic!("the worker's reply must be a failed attempt"),
        }
    }

    /// Runs `eval` as evaluation 3 under the in-process supervisor and
    /// returns the failure it reports.
    fn failure_in_process(eval: fn() -> f64) -> (FailureKind, String) {
        let sup = Supervisor::new(SupervisorConfig::default(), 0);
        let mut failed = Vec::new();
        sup.evaluate(3, &[0.5], &mut |_, _, _| eval(), &mut |a| {
            failed.push((a.kind, a.detail))
        });
        failed.pop().expect("the evaluation must fail")
    }

    #[test]
    fn a_failure_reads_the_same_in_process_and_through_a_worker() {
        let evals: [fn() -> f64; 4] = [
            || std::panic::panic_any(7u32),
            || panic!("simulated profiler crash"),
            || f64::NAN,
            || f64::NEG_INFINITY,
        ];
        for eval in evals {
            assert_eq!(failure_through_a_worker(eval), failure_in_process(eval));
        }
    }

    fn err(index: u64, kind: &str) -> Frame {
        Frame::EvalErr {
            index,
            kind: kind.to_string(),
            detail: "boom".to_string(),
        }
    }

    #[test]
    fn a_reply_for_another_evaluation_is_a_protocol_error() {
        let ok = Frame::EvalOk {
            index: 4,
            error_bits: 0.5f64.to_bits(),
            stage_ms: Vec::new(),
        };
        for frame in [ok, err(4, "panic")] {
            let e = classify(1, 3, frame).err().expect("index mismatch");
            assert!(e.contains("answered for evaluation 4, expected 3"), "{e}");
        }
    }

    #[test]
    fn only_worker_side_failure_kinds_are_charged() {
        for kind in [FailureKind::Panic, FailureKind::NonFinite] {
            match classify(1, 3, err(3, kind.tag())) {
                Ok(Reply::Failed(k, detail)) => assert_eq!((k, detail.as_str()), (kind, "boom")),
                _ => panic!("{kind} must be charged as a failed attempt"),
            }
        }
        for kind in ["timeout", "quarantined", "workerlost", "bogus"] {
            let e = classify(1, 3, err(3, kind)).err().expect("refused");
            assert!(e.contains(&format!("`{kind}`")), "{e}");
        }
    }

    #[test]
    fn eval_ok_is_a_value_unless_non_finite() {
        let ok = |bits: u64| Frame::EvalOk {
            index: 3,
            error_bits: bits,
            stage_ms: vec![("evaluate".to_string(), 2.0f64.to_bits())],
        };
        match classify(7, 3, ok(0.25f64.to_bits())) {
            Ok(Reply::Value(v)) => {
                assert_eq!(v.error.to_bits(), 0.25f64.to_bits());
                assert_eq!(v.worker, Some(7));
                assert!(v.fault.is_none());
            }
            _ => panic!("a finite EvalOk is a value"),
        }
        assert!(matches!(
            classify(7, 3, ok(f64::NAN.to_bits())),
            Ok(Reply::Failed(FailureKind::NonFinite, _))
        ));
        let hello = Frame::HelloAck {
            protocol_version: PROTOCOL_VERSION,
        };
        assert!(classify(7, 3, hello).is_err());
    }
}
