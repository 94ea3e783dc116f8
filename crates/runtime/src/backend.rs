//! Evaluation backends: where a batch of suggested points is turned into
//! verdicts.
//!
//! [`Backend`] is the one seam [`Executor::run`](crate::Executor::run)
//! drives. This module supplies the two in-process implementations —
//! inline on the calling thread, and a pool of scoped worker threads
//! draining a bounded work queue — through [`with_local_backend`]; the
//! out-of-process broker (`datamime-dist`) implements the same trait.

use crate::supervisor::{CancelToken, Evaluated, FailedAttempt, Supervisor};
use crate::telemetry::StageTimes;
use std::sync::{mpsc, Mutex, PoisonError};

/// A batch evaluation backend the executor drives through
/// [`Executor::run`](crate::Executor::run).
///
/// Contract: `evaluate_batch` returns exactly one verdict per job, **in
/// job order**, regardless of internal scheduling — the executor commits
/// observations in that order, which is what keeps runs bit-identical
/// across backends and worker counts. Failed attempts (retries included)
/// are reported through `on_attempt` as they happen so the engine can
/// journal them eagerly. Returning `Err` aborts the whole run.
pub trait Backend {
    /// Evaluates one batch of `(global index, unit)` jobs.
    ///
    /// # Errors
    ///
    /// An error means the backend itself failed (lost its workers, could
    /// not respawn within budget) — per-point failures must be returned
    /// as penalty verdicts instead.
    fn evaluate_batch(
        &mut self,
        jobs: &[(usize, Vec<f64>)],
        on_attempt: &mut dyn FnMut(FailedAttempt),
    ) -> Result<Vec<Evaluated>, String>;
}

/// The evaluation function an in-process backend shares across its
/// worker threads.
pub type SyncEvalFn<'a> = dyn Fn(&[f64], &mut StageTimes, &CancelToken) -> f64 + Sync + 'a;

/// Evaluates each batch in job order on the calling thread.
struct Inline<'a> {
    supervisor: Supervisor,
    eval: &'a SyncEvalFn<'a>,
}

impl Backend for Inline<'_> {
    fn evaluate_batch(
        &mut self,
        jobs: &[(usize, Vec<f64>)],
        on_attempt: &mut dyn FnMut(FailedAttempt),
    ) -> Result<Vec<Evaluated>, String> {
        let eval = self.eval;
        Ok(jobs
            .iter()
            .map(|(index, unit)| {
                self.supervisor
                    .evaluate(*index, unit, &mut |u, st, t| eval(u, st, t), on_attempt)
            })
            .collect())
    }
}

enum WorkerMsg {
    Attempt(FailedAttempt),
    Done(usize, std::thread::Result<Evaluated>),
}

/// The coordinator's end of the worker pool. Owns the job sender:
/// dropping the pool hangs up the queue, which is what lets the workers
/// exit before their scope joins them.
struct Pool {
    job_tx: mpsc::SyncSender<(usize, usize, Vec<f64>)>,
    res_rx: mpsc::Receiver<WorkerMsg>,
}

impl Backend for Pool {
    fn evaluate_batch(
        &mut self,
        jobs: &[(usize, Vec<f64>)],
        on_attempt: &mut dyn FnMut(FailedAttempt),
    ) -> Result<Vec<Evaluated>, String> {
        for (slot, (index, unit)) in jobs.iter().enumerate() {
            self.job_tx
                .send((slot, *index, unit.clone()))
                .map_err(|_| "worker pool died before the batch was queued".to_string())?;
        }
        let mut slots: Vec<Option<Evaluated>> = (0..jobs.len()).map(|_| None).collect();
        let mut filled = 0;
        while filled < jobs.len() {
            let msg = self
                .res_rx
                .recv()
                .map_err(|_| "worker pool died before the batch finished".to_string())?;
            match msg {
                WorkerMsg::Attempt(a) => on_attempt(a),
                WorkerMsg::Done(slot, Ok(verdict)) => {
                    slots[slot] = Some(verdict);
                    filled += 1;
                }
                WorkerMsg::Done(_, Err(panic)) => std::panic::resume_unwind(panic),
            }
        }
        slots
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| "a worker answered the same slot twice".to_string())
    }
}

/// Runs `body` with the in-process backend for `workers` threads: the
/// calling thread itself for `workers <= 1`, otherwise a pool of scoped
/// worker threads that stay alive until `body` returns (thread-local
/// evaluation state — simulator arenas — is therefore built once per
/// worker per run, not once per batch).
///
/// Every point is evaluated under `supervisor` (the one
/// [`Executor::supervisor`](crate::Executor::supervisor) returns).
///
/// # Panics
///
/// Re-raises, on the calling thread, the final panic of an evaluation
/// under [`FailPolicy::Abort`](crate::FailPolicy::Abort).
pub fn with_local_backend<R>(
    workers: usize,
    supervisor: Supervisor,
    eval: &SyncEvalFn<'_>,
    body: impl FnOnce(&mut dyn Backend) -> R,
) -> R {
    if workers <= 1 {
        return body(&mut Inline { supervisor, eval });
    }
    let supervisor = &supervisor;
    // Bounded job queue: the coordinator blocks rather than buffering a
    // whole oversized batch. Created outside the scope so worker borrows
    // outlive every spawned thread.
    let (job_tx, job_rx) = mpsc::sync_channel::<(usize, usize, Vec<f64>)>(2 * workers);
    let job_rx = Mutex::new(job_rx);
    let (res_tx, res_rx) = mpsc::channel::<WorkerMsg>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let res_tx = res_tx.clone();
            let job_rx = &job_rx;
            scope.spawn(move || loop {
                // A poisoned lock still guards a usable receiver: the
                // only code that runs under it is `recv` itself.
                let job = job_rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                let Ok((slot, index, unit)) = job else { break };
                // The catch keeps the pool alive so an Abort re-raise
                // propagates via the coordinator's resume_unwind, not a
                // dead worker.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    supervisor.evaluate(index, &unit, &mut |u, st, t| eval(u, st, t), &mut |a| {
                        let _ = res_tx.send(WorkerMsg::Attempt(a));
                    })
                }));
                if res_tx.send(WorkerMsg::Done(slot, outcome)).is_err() {
                    break;
                }
            });
        }
        drop(res_tx); // workers hold the only senders now
        let mut pool = Pool { job_tx, res_rx };
        body(&mut pool)
    })
}
