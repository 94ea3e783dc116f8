//! The fault-tolerant evaluation supervisor.
//!
//! Datamime searches run hundreds of expensive profile evaluations over
//! hours; one flaky run must not discard the whole search. The
//! [`Supervisor`] wraps the raw evaluation callback and turns every way
//! an evaluation can die into a structured verdict the executor can
//! journal, penalize, and keep going past:
//!
//! - **panic containment** — a panic inside the evaluation becomes a
//!   [`FailureKind::Panic`] with the payload string, not a dead run;
//! - **deadlines** — an attempt's [`CancelToken`] carries its wall-clock
//!   deadline and reads as cancelled once it passes
//!   ([`FailureKind::Timeout`]); the profiler's sampling loops poll the
//!   token and return early;
//! - **non-finite objectives** — NaN/±Inf become
//!   [`FailureKind::NonFinite`] instead of corrupting the optimizer;
//! - **bounded retries** — transient failures are retried up to
//!   `max_retries` times with exponential backoff and *deterministic*
//!   jitter (seeded by `(run seed, eval index, attempt)`, never by the
//!   wall clock), so a rerun of the same seed backs off identically;
//! - **fail policy** — after retries are exhausted the failure either
//!   aborts the run (the legacy fail-fast behavior) or is *penalized*:
//!   the executor observes a large finite objective so Bayesian
//!   optimization steers away from the failed region and the search
//!   survives.
//!
//! Both backends share the two halves of that work. [`run_attempt`] runs
//! and classifies one attempt, and a worker process calls it too, so a
//! failure reads the same whichever backend met it; the broker words its
//! own verdicts with [`timeout_detail`] and [`nonfinite_detail`]. The
//! retry-or-verdict decision is [`SupervisorConfig::after_failure`],
//! which the out-of-process broker drives too. Deterministic fault
//! injection ([`crate::faultinject::FaultPlan`]) plugs into
//! [`run_attempt`] so every one of those paths is testable in CI.

use crate::faultinject::FaultPlan;
use crate::telemetry::StageTimes;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation flag, optionally with a wall-clock
/// deadline. Cloning yields a handle to the *same* flag and deadline.
///
/// Long-running evaluation loops (the profiler's sampling loops, curve
/// sweeps) poll [`is_cancelled`](Self::is_cancelled) and return early
/// once it fires; the supervisor then classifies the evaluation as timed
/// out and discards its truncated result.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, un-cancelled token without a deadline.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A fresh token that also reads as cancelled once `budget` has
    /// passed from now (never, if that instant is unrepresentable).
    pub fn with_deadline(budget: Duration) -> Self {
        CancelToken {
            flag: Arc::default(),
            // Wall-clock by design: a deadline cancels work but never
            // feeds results.
            deadline: Instant::now().checked_add(budget),
        }
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested or the deadline has
    /// passed. Reads the clock only when the token has a deadline.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// How an evaluation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The evaluation panicked.
    Panic,
    /// The evaluation ran past its wall-clock deadline.
    Timeout,
    /// The evaluation returned NaN or ±Inf.
    NonFinite,
    /// The point was not evaluated at all: it matched the quarantine set
    /// of repeatedly-failing points and was penalized directly.
    Quarantined,
    /// The out-of-process backend lost the worker evaluating the point
    /// (crash, SIGKILL, closed stdout) more times than its re-dispatch
    /// budget allows. Never produced by the in-process supervisor.
    WorkerLost,
}

impl FailureKind {
    /// The journal tag for this kind.
    pub fn tag(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
            FailureKind::NonFinite => "nonfinite",
            FailureKind::Quarantined => "quarantined",
            FailureKind::WorkerLost => "workerlost",
        }
    }

    /// Parses a journal tag back into a kind.
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "panic" => Some(FailureKind::Panic),
            "timeout" => Some(FailureKind::Timeout),
            "nonfinite" => Some(FailureKind::NonFinite),
            "quarantined" => Some(FailureKind::Quarantined),
            "workerlost" => Some(FailureKind::WorkerLost),
            _ => None,
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// The final failure record attached to a penalized evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultInfo {
    /// How the evaluation failed.
    pub kind: FailureKind,
    /// Human-readable detail (panic payload, deadline, offending value).
    pub detail: String,
    /// Retries performed before giving up.
    pub retries: u32,
}

/// One failed attempt, reported while retries may still follow. The
/// executor journals these eagerly so a process killed *mid-retry* can
/// resume without re-running the failing point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedAttempt {
    /// Global evaluation index.
    pub index: usize,
    /// Zero-based attempt number (0 = first try).
    pub attempt: u32,
    /// How this attempt failed.
    pub kind: FailureKind,
    /// Human-readable detail.
    pub detail: String,
    /// Worker-process id that ran the attempt (out-of-process backend
    /// only; `None` on the in-process paths). Diagnostic metadata, never
    /// compared when checking run determinism.
    pub worker: Option<u64>,
}

/// What happens when an evaluation still fails after all retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailPolicy {
    /// Observe a large finite penalty and keep searching (the default).
    #[default]
    Penalize,
    /// Re-raise the failure and kill the run — the legacy fail-fast
    /// behavior, still available behind `--fail-policy abort`.
    Abort,
}

/// Configuration of the supervisor. [`SupervisorConfig::default`] — a
/// penalizing supervisor with no deadline and no retries — is what every
/// executor run starts from; as long as every evaluation succeeds it
/// changes nothing.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Wall-clock budget per evaluation attempt (`None` = unlimited).
    pub deadline: Option<Duration>,
    /// Retries after the first failed attempt.
    pub max_retries: u32,
    /// First-retry backoff; doubles per retry (exponential).
    pub backoff_base: Duration,
    /// Upper bound on any single backoff sleep.
    pub backoff_cap: Duration,
    /// What to do once retries are exhausted.
    pub fail_policy: FailPolicy,
    /// The finite objective observed for a penalized failure.
    pub penalty: f64,
    /// Consecutive failed evaluations before the executor halves its
    /// batch (graceful degradation); `0` disables degradation.
    pub degrade_after: u32,
    /// Deterministic fault-injection plan (tests/CI only; empty by
    /// default).
    pub faults: FaultPlan,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            deadline: None,
            max_retries: 0,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(10),
            fail_policy: FailPolicy::Penalize,
            penalty: datamime_bayesopt::PENALTY_OBJECTIVE,
            degrade_after: 5,
            faults: FaultPlan::new(),
        }
    }
}

/// What follows a failed evaluation attempt.
#[derive(Debug)]
pub enum AfterFailure {
    /// Try again after this deterministic backoff.
    Retry(Duration),
    /// Retries are exhausted: the penalty verdict.
    Penalized(Evaluated),
}

impl SupervisorConfig {
    /// The one retry policy both backends share: after failed `attempt`
    /// (0-based) of evaluation `index` in a run seeded `seed`, either
    /// retry after the seeded backoff or settle on the penalty verdict.
    ///
    /// # Panics
    ///
    /// Under [`FailPolicy::Abort`], once retries are exhausted: re-raises
    /// `payload` (the evaluation's own panic) when there is one, and
    /// panics with a descriptive message otherwise — the legacy
    /// fail-fast behavior.
    pub fn after_failure(
        &self,
        seed: u64,
        index: usize,
        attempt: u32,
        kind: FailureKind,
        detail: String,
        payload: Option<PanicPayload>,
    ) -> AfterFailure {
        if attempt < self.max_retries {
            let backoff = retry_backoff(
                self.backoff_base,
                self.backoff_cap,
                seed,
                index,
                attempt + 1,
            );
            return AfterFailure::Retry(backoff);
        }
        if self.fail_policy == FailPolicy::Abort {
            let attempts = self.max_retries + 1;
            match payload {
                Some(p) => std::panic::resume_unwind(p),
                None => panic!(
                    "evaluation {index} failed ({kind} after {attempts} attempt(s)): {detail}"
                ),
            }
        }
        AfterFailure::Penalized(Evaluated::penalized(
            self.penalty,
            FaultInfo {
                kind,
                detail,
                retries: self.max_retries,
            },
        ))
    }
}

/// The verdict of one supervised evaluation: either a real objective, or
/// the penalty with the failure attached.
#[derive(Debug)]
pub struct Evaluated {
    /// Objective value (the configured penalty when `fault` is set).
    pub error: f64,
    /// Stage timings of the successful attempt (empty on failure).
    pub stages: StageTimes,
    /// The failure, if the evaluation was penalized.
    pub fault: Option<FaultInfo>,
    /// Worker-process id that produced the verdict (out-of-process
    /// backend only; `None` on the in-process paths). Diagnostic
    /// metadata, never compared when checking run determinism.
    pub worker: Option<u64>,
}

impl Evaluated {
    /// A synthesized penalty verdict (quarantine hit, replayed fault).
    pub fn penalized(penalty: f64, fault: FaultInfo) -> Self {
        Evaluated {
            error: penalty,
            stages: StageTimes::new(),
            fault: Some(fault),
            worker: None,
        }
    }
}

/// The evaluation callback the supervisor drives: unit point in, stage
/// times and a cancel token threaded through, objective out.
pub type EvalFn<'a> = dyn FnMut(&[f64], &mut StageTimes, &CancelToken) -> f64 + 'a;

/// Why one evaluation attempt failed, as [`run_attempt`] classifies it.
#[derive(Debug)]
pub struct AttemptError {
    /// How the attempt failed.
    pub kind: FailureKind,
    /// Human-readable detail (panic payload, deadline, offending value).
    pub detail: String,
    /// The evaluation's own panic payload, which [`FailPolicy::Abort`]
    /// re-raises.
    pub payload: Option<PanicPayload>,
}

/// Runs attempt `attempt` (0-based) of evaluation `index` and classifies
/// it — the one attempt both backends share. The fault `faults`
/// schedules for `(index, attempt)` runs in place of `eval`; otherwise
/// `eval` runs, under `catch_unwind`, on a token that expires `deadline`
/// from now (never, for `None`). A finite value is the attempt's result
/// with its stage timings; a panic, an expired deadline, or a non-finite
/// value is an [`AttemptError`].
///
/// # Errors
///
/// Returns the classified failure; see [`FailureKind`].
pub fn run_attempt(
    faults: &FaultPlan,
    index: usize,
    attempt: u32,
    deadline: Option<Duration>,
    unit: &[f64],
    eval: &mut EvalFn<'_>,
) -> Result<(f64, StageTimes), AttemptError> {
    let token = deadline.map_or_else(CancelToken::new, CancelToken::with_deadline);
    let mut stages = StageTimes::new();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(injected) = faults.apply(index, attempt, &token) {
            injected
        } else if token.is_cancelled() {
            // The deadline passed before the evaluation could start;
            // the value is discarded below.
            f64::NAN
        } else {
            eval(unit, &mut stages, &token)
        }
    }));
    let (kind, detail, payload) = match result {
        Ok(_) if token.is_cancelled() => (
            FailureKind::Timeout,
            timeout_detail(deadline.unwrap_or_default()),
            None,
        ),
        Ok(value) if !value.is_finite() => (FailureKind::NonFinite, nonfinite_detail(value), None),
        Ok(value) => return Ok((value, stages)),
        Err(payload) => (
            FailureKind::Panic,
            panic_message(payload.as_ref()),
            Some(payload),
        ),
    };
    Err(AttemptError {
        kind,
        detail,
        payload,
    })
}

/// The detail of an attempt that outlived its `budget`.
pub fn timeout_detail(budget: Duration) -> String {
    format!("evaluation exceeded its {budget:?} deadline")
}

/// The detail of an attempt whose objective came out non-finite.
pub fn nonfinite_detail(value: f64) -> String {
    format!("objective evaluated to {value}")
}

/// Drives one evaluation attempt after another until it succeeds, runs
/// out of retries, or the fail policy aborts; see the module docs.
///
/// The supervisor is `Sync`: a pooled executor shares one instance
/// across its worker threads.
#[derive(Debug)]
pub struct Supervisor {
    cfg: SupervisorConfig,
    /// Run seed; the retry jitter is a pure function of
    /// `(seed, index, attempt)` so backoff schedules replay exactly.
    seed: u64,
}

impl Supervisor {
    /// Builds a supervisor for a run with the given seed.
    pub fn new(cfg: SupervisorConfig, seed: u64) -> Self {
        Supervisor { cfg, seed }
    }

    /// The configuration this supervisor runs under.
    pub fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// Evaluates `unit` (global evaluation `index`) under full
    /// supervision: [`run_attempt`] until it succeeds or
    /// [`SupervisorConfig::after_failure`] settles on a verdict.
    /// `on_attempt` is invoked for every *failed* attempt — including
    /// the final one — before the verdict is returned, so the caller can
    /// journal retry progress eagerly.
    ///
    /// # Panics
    ///
    /// As [`SupervisorConfig::after_failure`] under [`FailPolicy::Abort`].
    pub fn evaluate(
        &self,
        index: usize,
        unit: &[f64],
        eval: &mut EvalFn<'_>,
        on_attempt: &mut dyn FnMut(FailedAttempt),
    ) -> Evaluated {
        let mut attempt = 0;
        loop {
            let failed = match run_attempt(
                &self.cfg.faults,
                index,
                attempt,
                self.cfg.deadline,
                unit,
                eval,
            ) {
                Ok((error, stages)) => {
                    return Evaluated {
                        error,
                        stages,
                        fault: None,
                        worker: None,
                    }
                }
                Err(failed) => failed,
            };
            on_attempt(FailedAttempt {
                index,
                attempt,
                kind: failed.kind,
                detail: failed.detail.clone(),
                worker: None,
            });
            match self.cfg.after_failure(
                self.seed,
                index,
                attempt,
                failed.kind,
                failed.detail,
                failed.payload,
            ) {
                AfterFailure::Retry(backoff) => std::thread::sleep(backoff),
                AfterFailure::Penalized(verdict) => return verdict,
            }
            attempt += 1;
        }
    }
}

/// A caught panic's payload, as `catch_unwind` returns it.
pub type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Extracts a human-readable message from a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// The deterministic backoff before retry `attempt` (≥ 1):
/// `base · 2^(attempt-1)`, jittered to `[0.5×, 1.5×)` by a hash of
/// `(seed, index, attempt)`, capped at `cap`. A pure function — both
/// backends replay the exact same backoff schedule for the same run seed.
fn retry_backoff(base: Duration, cap: Duration, seed: u64, index: usize, attempt: u32) -> Duration {
    let exp = base.as_secs_f64() * 2f64.powi(attempt as i32 - 1);
    let h = splitmix64(
        seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ u64::from(attempt).wrapping_mul(0xBF58_476D_1CE4_E5B9),
    );
    let jitter = 0.5 + (h >> 11) as f64 / (1u64 << 53) as f64;
    Duration::from_secs_f64((exp * jitter).min(cap.as_secs_f64()))
}

/// SplitMix64: a tiny, high-quality mixing function — the deterministic
/// jitter source (no wall-clock entropy anywhere in the retry path).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn supervisor(cfg: SupervisorConfig) -> Supervisor {
        Supervisor::new(cfg, 42)
    }

    fn no_attempt() -> impl FnMut(FailedAttempt) {
        |_| {}
    }

    #[test]
    fn successful_evaluation_passes_through() {
        let sup = supervisor(SupervisorConfig::default());
        let out = sup.evaluate(
            0,
            &[0.5],
            &mut |unit, stages, _| stages.time("profile", || unit[0] * 2.0),
            &mut no_attempt(),
        );
        assert_eq!(out.error, 1.0);
        assert!(out.fault.is_none());
        assert_eq!(out.stages.entries().len(), 1);
    }

    #[test]
    fn panic_is_contained_and_penalized() {
        let sup = supervisor(SupervisorConfig::default());
        let mut attempts = Vec::new();
        let out = sup.evaluate(
            3,
            &[0.5],
            &mut |_, _, _| panic!("simulated profiler crash"),
            &mut |a| attempts.push(a),
        );
        let fault = out.fault.expect("must be penalized");
        assert_eq!(fault.kind, FailureKind::Panic);
        assert!(fault.detail.contains("simulated profiler crash"));
        assert_eq!(out.error, datamime_bayesopt::PENALTY_OBJECTIVE);
        assert_eq!(attempts.len(), 1);
        assert_eq!(attempts[0].index, 3);
    }

    #[test]
    fn non_finite_objective_is_detected() {
        let sup = supervisor(SupervisorConfig::default());
        for bad in [f64::NAN, f64::INFINITY] {
            let out = sup.evaluate(0, &[0.1], &mut |_, _, _| bad, &mut no_attempt());
            assert_eq!(out.fault.unwrap().kind, FailureKind::NonFinite);
        }
    }

    #[test]
    fn transient_failure_succeeds_on_retry() {
        let cfg = SupervisorConfig {
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            ..SupervisorConfig::default()
        };
        let sup = supervisor(cfg);
        let mut calls = 0;
        let mut failed = Vec::new();
        let out = sup.evaluate(
            1,
            &[0.2],
            &mut |_, _, _| {
                calls += 1;
                if calls < 3 {
                    panic!("flaky")
                }
                7.5
            },
            &mut |a| failed.push(a.attempt),
        );
        assert_eq!(out.error, 7.5);
        assert!(out.fault.is_none());
        assert_eq!(failed, vec![0, 1]);
    }

    #[test]
    fn deadline_cancels_a_cooperative_stall() {
        let cfg = SupervisorConfig {
            deadline: Some(Duration::from_millis(20)),
            ..SupervisorConfig::default()
        };
        let sup = supervisor(cfg);
        let out = sup.evaluate(
            0,
            &[0.3],
            &mut |_, _, token| {
                // A cooperative runaway: spins until the deadline passes.
                let start = Instant::now();
                while !token.is_cancelled() {
                    assert!(
                        start.elapsed() < Duration::from_secs(10),
                        "deadline never fired"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                123.0 // discarded: the deadline already passed
            },
            &mut no_attempt(),
        );
        let fault = out.fault.expect("timeout must be penalized");
        assert_eq!(fault.kind, FailureKind::Timeout);
    }

    #[test]
    fn abort_policy_reraises_the_panic() {
        let cfg = SupervisorConfig {
            fail_policy: FailPolicy::Abort,
            ..SupervisorConfig::default()
        };
        let sup = supervisor(cfg);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sup.evaluate(
                0,
                &[0.5],
                &mut |_, _, _| panic!("original payload"),
                &mut no_attempt(),
            )
        }))
        .unwrap_err();
        assert_eq!(panic_message(err.as_ref()), "original payload");
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let cfg = SupervisorConfig {
            max_retries: 1,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_millis(250),
            ..SupervisorConfig::default()
        };
        let backoff =
            |index, attempt| retry_backoff(cfg.backoff_base, cfg.backoff_cap, 42, index, attempt);
        for attempt in 1..6 {
            assert_eq!(backoff(7, attempt), backoff(7, attempt));
            assert!(backoff(7, attempt) <= Duration::from_millis(250));
        }
        // Jitter stays within [0.5, 1.5) of the exponential base.
        let first = backoff(7, 1);
        assert!(first >= Duration::from_millis(50) && first < Duration::from_millis(150));
        // Different indexes jitter differently (with overwhelming odds).
        assert_ne!(backoff(7, 1), backoff(8, 1));
        // The retry decision hands out the same schedule.
        match cfg.after_failure(42, 7, 0, FailureKind::Panic, String::new(), None) {
            AfterFailure::Retry(d) => assert_eq!(d, first),
            AfterFailure::Penalized(_) => panic!("a first failure under max_retries 1 must retry"),
        }
    }

    #[test]
    fn a_deadline_token_fires_only_once_its_deadline_passes() {
        let fast = CancelToken::with_deadline(Duration::from_millis(10));
        let slow = CancelToken::with_deadline(Duration::from_secs(60));
        let never = CancelToken::with_deadline(Duration::MAX);
        let clone = fast.clone();
        let start = Instant::now();
        while !fast.is_cancelled() {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "deadline never fired"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert!(clone.is_cancelled(), "clones share the deadline");
        assert!(!slow.is_cancelled() && !never.is_cancelled());
    }

    #[test]
    fn a_token_without_a_deadline_fires_only_when_cancelled() {
        let token = CancelToken::new();
        std::thread::sleep(Duration::from_millis(5));
        assert!(!token.is_cancelled());
        token.clone().cancel();
        assert!(token.is_cancelled(), "clones share the flag");
    }
}
