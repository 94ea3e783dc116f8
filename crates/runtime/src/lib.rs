//! datamime-runtime: the run harness under the Datamime search loop.
//!
//! Its layers, each usable on its own:
//!
//! - [`executor`] — the engine draining batch-`k` suggestions from any
//!   [`datamime_bayesopt::BlackBoxOptimizer`] with seed-stable
//!   deterministic ordering;
//! - [`backend`] — where a batch is evaluated: the [`Backend`] seam plus
//!   the in-process implementations (inline, or a pool of scoped worker
//!   threads over a bounded work queue);
//! - [`supervisor`] — fault-tolerant evaluation: one attempt function
//!   both backends run (panic containment, deadlines carried on a
//!   cooperative [`CancelToken`], one failure wording), bounded retry
//!   with deterministic backoff, and penalty verdicts the executor
//!   quarantines and degrades on;
//! - [`faultinject`] — one deterministic [`FaultPlan`] for every
//!   injection point: chosen evaluations panic, stall, return NaN/Inf or
//!   kill their worker, and the Nth write on a durability site (manifest
//!   snapshot, run journal, GC sweep) hits ENOSPC, tears short, fails its
//!   fsync, or aborts the process, so every failure path is testable in
//!   CI (the `faultinject` cargo feature only gates extra stress tests —
//!   the module is always available);
//! - [`journal`] — an append-only JSONL run journal plus [`replay`] for
//!   crash-safe resume, with `fault`/`attempt` events that replay
//!   failures faithfully and `cache_hit` events that replay memoized
//!   observations;
//! - [`memo`] — a deterministic evaluation memo cache keyed by the
//!   canonical bit pattern of the parameter point under a machine-config
//!   + seed fingerprint, so re-suggested points skip the simulator;
//! - [`telemetry`] — per-stage wall-clock timers, eval/fault counters,
//!   and a pluggable [`ProgressSink`];
//! - [`metrics`] — a registry of named monotonic counters/gauges with
//!   deterministic snapshot ordering, backing both [`Telemetry`] and
//!   long-lived stats surfaces (the serve daemon's admin plane);
//! - [`termsig`] — cooperative SIGTERM/SIGINT observation without
//!   `unsafe`, via a sentinel file and an optional `/bin/sh` trampoline.
//!
//! The crate is std-only by necessity (the build environment has no
//! crates.io access), which is why [`json`] hand-rolls the small JSON
//! subset the journal needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod executor;
pub mod faultinject;
pub mod journal;
pub mod json;
pub mod memo;
pub mod metrics;
pub mod supervisor;
pub mod telemetry;
pub mod termsig;

pub use backend::{with_local_backend, Backend, SyncEvalFn};
pub use executor::{
    BatchGate, EvalRecord, ExecError, Executor, GateClosed, GateHandle, MemoKeyFn, QuotaCause,
    RunMeta, RunOutcome,
};
pub use faultinject::{EvalFault, FaultInjector, FaultPlan, WriteFault, WriteSite};
pub use journal::{
    replay, JournalError, JournalWriter, PendingFault, Replay, JOURNAL_VERSION,
    OLDEST_READABLE_VERSION,
};
pub use memo::{canonical_bits, fingerprint, MemoCache, MemoEntry};
pub use metrics::{MetricsRegistry, MetricsSink};
pub use supervisor::{
    AfterFailure, CancelToken, Evaluated, FailPolicy, FailedAttempt, FailureKind, FaultInfo,
    Supervisor, SupervisorConfig,
};
pub use telemetry::{ProgressSink, SharedSink, StageTimes, StderrSink, Telemetry};
pub use termsig::{TermSignal, TERM_SENTINEL_ENV};
