//! Deterministic fault injection: one plan for every injection point.
//!
//! A [`FaultPlan`] is pure data — cloneable, comparable, independent of
//! wall clock and scheduling — naming where the system must fail and
//! how. Its spec form is entries `site:n:kind[@attempts]` joined by `;`:
//!
//! - `eval:<index>:panic|nan|inf|stall<ms>|kill[@k]` — evaluation
//!   `index` misbehaves on its first `k` attempts (on every attempt
//!   without `@k`). The supervisor consults the plan before running the
//!   real evaluation ([`FaultPlan::apply`]) and so does a worker process,
//!   which honours `kill` by aborting ([`FaultPlan::kills`]); the same
//!   plan therefore fails the same evaluations on every backend and for
//!   any worker count.
//! - `manifest|journal|gcdir:<nth>:enospc|short|syncfail|crash` — write
//!   number `nth` (zero-based, counted per site) fails: `enospc` before
//!   any byte lands, `short` after half the record (a torn tail),
//!   `syncfail` after the whole record without acknowledging durability,
//!   and `crash` by aborting the process at the boundary — no unwinding,
//!   no destructors, indistinguishable from SIGKILL there.
//!
//! A [`FaultInjector`] arms a plan with the per-site write counters and
//! is shared, cheaply cloned, by every writer of one run or daemon. The
//! binaries build it from their one `--fault <spec>` flag. An empty plan
//! costs one emptiness check per evaluation and per write.
//!
//! The module is always compiled; the cargo feature `faultinject` only
//! gates the long-running stress and crash-matrix tests.

// Durability/IPC path: no discarded results outside tests (crates/audit/README.md).
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), deny(clippy::unused_result_ok, unused_must_use))]

use crate::supervisor::CancelToken;
use std::io::{self, Write};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The raw OS error code injected for no-space faults (`ENOSPC`).
const ENOSPC_CODE: i32 = 28;

/// What an injected fault does to an evaluation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalFault {
    /// Panic with a recognizable payload (`"injected panic"`).
    Panic,
    /// Stall cooperatively for up to this many milliseconds, polling the
    /// cancel token every millisecond. With a deadline shorter than the
    /// stall the token expires first and the attempt times out;
    /// without one the stall simply elapses and the attempt falls
    /// through as a timeout-free NaN (see [`FaultPlan::apply`]).
    StallMs(u64),
    /// Return `f64::NAN`.
    Nan,
    /// Return `f64::INFINITY`.
    Inf,
    /// Kill the worker *process* evaluating the point (the worker calls
    /// `std::process::abort()`, so not even `catch_unwind` sees it).
    /// Only the out-of-process backend can express this; the in-process
    /// paths treat it as a no-op ([`FaultPlan::apply`] returns `None` and
    /// the real evaluation runs), which is exactly what makes a
    /// `KillWorker` run comparable bit-for-bit against a thread-backend
    /// run: the broker re-dispatches the point transparently and the
    /// observed value is the same either way.
    KillWorker,
}

impl EvalFault {
    fn spec(self) -> String {
        match self {
            EvalFault::Panic => "panic".to_string(),
            EvalFault::StallMs(ms) => format!("stall{ms}"),
            EvalFault::Nan => "nan".to_string(),
            EvalFault::Inf => "inf".to_string(),
            EvalFault::KillWorker => "kill".to_string(),
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "panic" => Some(EvalFault::Panic),
            "nan" => Some(EvalFault::Nan),
            "inf" => Some(EvalFault::Inf),
            "kill" => Some(EvalFault::KillWorker),
            _ => s
                .strip_prefix("stall")?
                .parse()
                .ok()
                .map(EvalFault::StallMs),
        }
    }
}

/// A durability site; each has its own write counter in the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteSite {
    /// Manifest snapshot writes (one lifecycle transition each).
    Manifest,
    /// Run-journal appends (one event line each).
    Journal,
    /// GC directory removals (one per job directory).
    GcDir,
}

impl WriteSite {
    const ALL: [WriteSite; 3] = [WriteSite::Manifest, WriteSite::Journal, WriteSite::GcDir];

    fn name(self) -> &'static str {
        match self {
            WriteSite::Manifest => "manifest",
            WriteSite::Journal => "journal",
            WriteSite::GcDir => "gcdir",
        }
    }
}

/// What an injected fault does to a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The write fails with `ENOSPC` before any byte reaches the file.
    NoSpace,
    /// Half the record is written, then the operation errors — a torn
    /// final line, as a real short write or mid-write crash leaves.
    ShortWrite,
    /// The bytes are written but the flush/fsync reports failure, so
    /// durability was never acknowledged.
    SyncFail,
    /// The process aborts at the boundary (before the write).
    Crash,
}

impl WriteFault {
    const ALL: [WriteFault; 4] = [
        WriteFault::NoSpace,
        WriteFault::ShortWrite,
        WriteFault::SyncFail,
        WriteFault::Crash,
    ];

    fn name(self) -> &'static str {
        match self {
            WriteFault::NoSpace => "enospc",
            WriteFault::ShortWrite => "short",
            WriteFault::SyncFail => "syncfail",
            WriteFault::Crash => "crash",
        }
    }

    /// Applies this fault to an append of `bytes` through `w`, returning
    /// the error the real failure would produce. [`WriteFault::ShortWrite`]
    /// writes (and flushes) the first half of `bytes` first, so the file
    /// is left with exactly the torn tail the repair path must handle;
    /// [`WriteFault::SyncFail`] writes everything but reports that
    /// durability was not achieved.
    #[expect(
        clippy::let_underscore_must_use,
        reason = "fault injection deliberately tears these writes — the error it returns is the product"
    )]
    pub fn corrupt_append<W: Write>(self, w: &mut W, bytes: &[u8]) -> io::Error {
        match self {
            WriteFault::NoSpace => io::Error::from_raw_os_error(ENOSPC_CODE),
            WriteFault::ShortWrite => {
                let _ = w.write_all(&bytes[..bytes.len() / 2]);
                let _ = w.flush();
                io::Error::new(io::ErrorKind::WriteZero, "injected short write")
            }
            WriteFault::SyncFail => {
                let _ = w.write_all(bytes);
                let _ = w.flush();
                io::Error::other("injected fsync failure")
            }
            // Crash faults abort inside `FaultInjector::next_write`; a
            // direct call is defense in depth, not a reachable path.
            WriteFault::Crash => std::process::abort(),
        }
    }
}

/// Whether `e` is a no-space condition (real or injected) — the error
/// class that flips the serve daemon into draining read-only mode.
pub fn is_no_space(e: &io::Error) -> bool {
    e.raw_os_error() == Some(ENOSPC_CODE)
}

/// One plan entry. The two shapes keep an eval kind off a write site and
/// back: a mismatch is unrepresentable, and the parser refuses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    Eval {
        index: usize,
        kind: EvalFault,
        /// Attempts that fail (`None` = all of them).
        attempts: Option<u32>,
    },
    Write {
        site: WriteSite,
        nth: u64,
        kind: WriteFault,
    },
}

/// A deterministic schedule of faults; see the module docs for the spec
/// grammar. First match in insertion order wins wherever two entries
/// name the same evaluation or write.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    entries: Vec<Entry>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a persistent fault: evaluation `index` fails with `kind` on
    /// every attempt.
    #[must_use]
    pub fn fail(mut self, index: usize, kind: EvalFault) -> Self {
        self.entries.push(Entry::Eval {
            index,
            kind,
            attempts: None,
        });
        self
    }

    /// Adds a transient fault: evaluation `index` fails with `kind` on
    /// its first `attempts` attempts, then behaves normally — the
    /// retry-path test vehicle.
    #[must_use]
    pub fn fail_first(mut self, index: usize, kind: EvalFault, attempts: u32) -> Self {
        self.entries.push(Entry::Eval {
            index,
            kind,
            attempts: Some(attempts),
        });
        self
    }

    /// Adds a write fault: write `nth` on `site` fails with `kind`.
    #[must_use]
    pub fn fail_write(mut self, site: WriteSite, nth: u64, kind: WriteFault) -> Self {
        self.entries.push(Entry::Write { site, nth, kind });
        self
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The eval fault scheduled for `(index, attempt)`, if any.
    fn lookup(&self, index: usize, attempt: u32) -> Option<EvalFault> {
        self.entries.iter().find_map(|e| match *e {
            Entry::Eval {
                index: i,
                kind,
                attempts,
            } if i == index && attempts.is_none_or(|n| attempt < n) => Some(kind),
            _ => None,
        })
    }

    /// Whether an [`EvalFault::KillWorker`] fault is scheduled for
    /// dispatch number `dispatch` of evaluation `index`. The worker
    /// consults this with the broker's *dispatch* counter (not the
    /// supervision attempt), so `eval:i:kill@1` kills only the first
    /// process that picks the point up and the transparent re-dispatch
    /// then succeeds.
    pub fn kills(&self, index: usize, dispatch: u32) -> bool {
        self.entries.iter().any(|e| {
            matches!(*e, Entry::Eval { index: i, kind: EvalFault::KillWorker, attempts }
                if i == index && attempts.is_none_or(|n| dispatch < n))
        })
    }

    /// Serializes the plan to the spec [`from_spec`](Self::from_spec)
    /// reads, so a plan survives a process boundary.
    pub fn to_spec(&self) -> String {
        let entries: Vec<String> = self
            .entries
            .iter()
            .map(|e| match *e {
                Entry::Eval {
                    index,
                    kind,
                    attempts: None,
                } => format!("eval:{index}:{}", kind.spec()),
                Entry::Eval {
                    index,
                    kind,
                    attempts: Some(n),
                } => format!("eval:{index}:{}@{n}", kind.spec()),
                Entry::Write { site, nth, kind } => {
                    format!("{}:{nth}:{}", site.name(), kind.name())
                }
            })
            .collect();
        entries.join(";")
    }

    /// Parses a spec (an empty string is the empty plan).
    ///
    /// # Errors
    ///
    /// Names the first malformed entry: a wrong field count, an unknown
    /// site, a bad number, a kind that does not apply to its site,
    /// `@attempts` on a write site, or `@0`.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for entry in spec.split(';').filter(|e| !e.is_empty()) {
            let bad = |why: String| format!("fault `{entry}`: {why}");
            let fields: Vec<&str> = entry.split(':').collect();
            let [site, n, kind] = fields[..] else {
                return Err(bad("expected site:n:kind[@attempts]".to_string()));
            };
            if site == "eval" {
                let index = n
                    .parse()
                    .map_err(|e| bad(format!("bad evaluation index: {e}")))?;
                let (kind, attempts) = match kind.split_once('@') {
                    None => (kind, None),
                    Some((kind, k)) => match k.parse::<u32>() {
                        Ok(0) => return Err(bad("`@0` fails no attempt".to_string())),
                        Ok(k) => (kind, Some(k)),
                        Err(e) => return Err(bad(format!("bad attempt count: {e}"))),
                    },
                };
                let kind = EvalFault::parse(kind).ok_or_else(|| {
                    bad(format!(
                        "`{kind}` is not an eval fault (panic, nan, inf, stall<ms>, kill)"
                    ))
                })?;
                plan.entries.push(Entry::Eval {
                    index,
                    kind,
                    attempts,
                });
                continue;
            }
            let site = WriteSite::ALL
                .into_iter()
                .find(|s| s.name() == site)
                .ok_or_else(|| {
                    bad(format!(
                        "unknown site `{site}` (eval, manifest, journal, gcdir)"
                    ))
                })?;
            let nth = n
                .parse()
                .map_err(|e| bad(format!("bad write number: {e}")))?;
            if kind.contains('@') {
                return Err(bad("`@attempts` applies only to eval faults".to_string()));
            }
            let kind = WriteFault::ALL
                .into_iter()
                .find(|k| k.name() == kind)
                .ok_or_else(|| {
                    bad(format!(
                        "`{kind}` is not a write fault (enospc, short, syncfail, crash)"
                    ))
                })?;
            plan.entries.push(Entry::Write { site, nth, kind });
        }
        Ok(plan)
    }

    /// Executes the eval fault scheduled for `(index, attempt)`, if any:
    /// panics for [`EvalFault::Panic`], returns a non-finite value for
    /// [`EvalFault::Nan`]/[`EvalFault::Inf`], and for
    /// [`EvalFault::StallMs`] sleeps cooperatively (checking `token`
    /// every millisecond) then returns NaN — the supervisor classifies
    /// the attempt as a timeout when the token fired, or as non-finite
    /// when the stall outlived no deadline.
    ///
    /// Returns `None` when no fault is scheduled, in which case the
    /// caller runs the real evaluation.
    pub fn apply(&self, index: usize, attempt: u32, token: &CancelToken) -> Option<f64> {
        match self.lookup(index, attempt)? {
            EvalFault::Panic => panic!("injected panic at evaluation {index}"),
            EvalFault::Nan => Some(f64::NAN),
            EvalFault::Inf => Some(f64::INFINITY),
            // In-process there is no worker process to kill; the worker
            // checks `kills()` before evaluating instead.
            EvalFault::KillWorker => None,
            EvalFault::StallMs(ms) => {
                let bound = Duration::from_millis(ms);
                let start = Instant::now();
                while !token.is_cancelled() && start.elapsed() < bound {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Some(f64::NAN)
            }
        }
    }

    /// The write fault scheduled for write `nth` on `site`, if any.
    fn write_fault(&self, site: WriteSite, nth: u64) -> Option<WriteFault> {
        self.entries.iter().find_map(|e| match *e {
            Entry::Write {
                site: s,
                nth: n,
                kind,
            } if s == site && n == nth => Some(kind),
            _ => None,
        })
    }
}

/// A [`FaultPlan`] armed with per-site write counters. Clones share the
/// plan and the counters, so one injector threads through every writer
/// of a run or daemon; the default injects nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    plan: Arc<FaultPlan>,
    /// Writes counted so far, indexed by [`WriteSite`].
    writes: Arc<Mutex<[u64; 3]>>,
}

impl FaultInjector {
    /// Arms `plan` with zeroed counters.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan: Arc::new(plan),
            writes: Arc::default(),
        }
    }

    /// The armed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counts one write on `site` and returns the fault scheduled for
    /// it, if any. A scheduled [`WriteFault::Crash`] aborts the process
    /// here and never returns, so every instrumented boundary is a crash
    /// point without caller cooperation — which is why in-process tests
    /// must only use crash faults against an out-of-process daemon.
    pub fn next_write(&self, site: WriteSite) -> Option<WriteFault> {
        if self.plan.is_empty() {
            return None;
        }
        let nth = {
            let mut writes = self.writes.lock().unwrap_or_else(PoisonError::into_inner);
            writes[site as usize] += 1;
            writes[site as usize] - 1
        };
        let fault = self.plan.write_fault(site, nth);
        if fault == Some(WriteFault::Crash) {
            // Abort, not exit: no unwinding, no atexit hooks, no flushes
            // — indistinguishable from SIGKILL at this exact boundary.
            std::process::abort();
        }
        fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.lookup(0, 0), None);
        assert!(plan.apply(0, 0, &CancelToken::new()).is_none());
        assert_eq!(
            FaultInjector::default().next_write(WriteSite::Manifest),
            None
        );
    }

    #[test]
    fn persistent_fault_applies_to_every_attempt() {
        let plan = FaultPlan::new().fail(2, EvalFault::Nan);
        for attempt in 0..5 {
            assert_eq!(plan.lookup(2, attempt), Some(EvalFault::Nan));
        }
        assert_eq!(plan.lookup(1, 0), None);
    }

    #[test]
    fn transient_fault_clears_after_n_attempts() {
        let plan = FaultPlan::new().fail_first(4, EvalFault::Panic, 2);
        assert_eq!(plan.lookup(4, 0), Some(EvalFault::Panic));
        assert_eq!(plan.lookup(4, 1), Some(EvalFault::Panic));
        assert_eq!(plan.lookup(4, 2), None);
    }

    #[test]
    fn nan_and_inf_injections_return_nonfinite() {
        let token = CancelToken::new();
        let plan = FaultPlan::new()
            .fail(0, EvalFault::Nan)
            .fail(1, EvalFault::Inf);
        assert!(plan.apply(0, 0, &token).unwrap().is_nan());
        assert_eq!(plan.apply(1, 0, &token), Some(f64::INFINITY));
    }

    #[test]
    fn injected_panic_carries_recognizable_payload() {
        let plan = FaultPlan::new().fail(7, EvalFault::Panic);
        let err = std::panic::catch_unwind(|| plan.apply(7, 0, &CancelToken::new())).unwrap_err();
        let msg = crate::supervisor::panic_message(err.as_ref());
        assert!(msg.contains("injected panic at evaluation 7"));
    }

    #[test]
    fn stall_respects_cancellation() {
        let token = CancelToken::new();
        token.cancel();
        let plan = FaultPlan::new().fail(0, EvalFault::StallMs(60_000));
        let start = Instant::now();
        let out = plan.apply(0, 0, &token);
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(out.unwrap().is_nan());
    }

    #[test]
    fn kill_worker_is_a_noop_in_process_but_visible_via_kills() {
        let plan = FaultPlan::new().fail_first(3, EvalFault::KillWorker, 1);
        assert!(plan.apply(3, 0, &CancelToken::new()).is_none());
        assert!(plan.kills(3, 0));
        assert!(!plan.kills(3, 1), "only the first dispatch dies");
        assert!(!plan.kills(2, 0));
        assert!(FaultPlan::new().fail(5, EvalFault::KillWorker).kills(5, 17));
    }

    #[test]
    fn spec_round_trips_every_fault_kind() {
        let plan = FaultPlan::new()
            .fail(0, EvalFault::Panic)
            .fail_first(1, EvalFault::Nan, 2)
            .fail(2, EvalFault::Inf)
            .fail_first(3, EvalFault::StallMs(250), 1)
            .fail_first(4, EvalFault::KillWorker, 1);
        let spec = plan.to_spec();
        assert_eq!(
            spec,
            "eval:0:panic;eval:1:nan@2;eval:2:inf;eval:3:stall250@1;eval:4:kill@1"
        );
        assert_eq!(FaultPlan::from_spec(&spec).unwrap(), plan);
        assert_eq!(FaultPlan::from_spec("").unwrap(), FaultPlan::new());
    }

    #[test]
    fn write_spec_round_trips_every_site_and_kind() {
        let plan = FaultPlan::new()
            .fail_write(WriteSite::Manifest, 3, WriteFault::NoSpace)
            .fail_write(WriteSite::Manifest, 0, WriteFault::Crash)
            .fail_write(WriteSite::Journal, 7, WriteFault::ShortWrite)
            .fail_write(WriteSite::GcDir, 1, WriteFault::SyncFail);
        let spec = plan.to_spec();
        assert_eq!(
            spec,
            "manifest:3:enospc;manifest:0:crash;journal:7:short;gcdir:1:syncfail"
        );
        assert_eq!(FaultPlan::from_spec(&spec).unwrap(), plan);
        // Eval and write entries share one spec.
        let mixed = format!("{spec};eval:0:panic");
        assert_eq!(
            FaultPlan::from_spec(&mixed).unwrap(),
            plan.fail(0, EvalFault::Panic)
        );
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        for bad in [
            "eval",
            "eval:7",
            "eval:x:panic",
            "eval:1:frob",
            "eval:1:stallx",
            "eval:1:panic@y",
            "eval:1:panic@0",
            "eval:1:enospc",
            "eval:1:panic:extra",
        ] {
            let err = FaultPlan::from_spec(bad).unwrap_err();
            assert!(err.contains(&format!("fault `{bad}`")), "{bad}: {err}");
        }
    }

    #[test]
    fn malformed_write_specs_are_rejected_with_context() {
        for bad in [
            "manifest",
            "manifest:x:enospc",
            "manifest:1:frob",
            "manifest:1:kill",
            "manifest:1:enospc@2",
            "floppy:1:enospc",
            "manifest:1:enospc:extra",
        ] {
            let err = FaultPlan::from_spec(bad).unwrap_err();
            assert!(err.contains(&format!("fault `{bad}`")), "{bad}: {err}");
        }
    }

    #[test]
    fn bounded_stall_elapses_without_cancellation() {
        let token = CancelToken::new();
        let plan = FaultPlan::new().fail(0, EvalFault::StallMs(5));
        assert!(plan.apply(0, 0, &token).unwrap().is_nan());
    }

    #[test]
    fn injector_counts_operations_per_target() {
        let plan = FaultPlan::new().fail_write(WriteSite::Manifest, 2, WriteFault::NoSpace);
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.next_write(WriteSite::Manifest), None); // op 0
        assert_eq!(inj.next_write(WriteSite::Journal), None); // separate counter
        assert_eq!(inj.next_write(WriteSite::Manifest), None); // op 1
        assert_eq!(
            inj.next_write(WriteSite::Manifest),
            Some(WriteFault::NoSpace)
        ); // op 2
        assert_eq!(inj.next_write(WriteSite::Manifest), None); // op 3
    }

    #[test]
    fn clones_share_one_counter() {
        let plan = FaultPlan::new().fail_write(WriteSite::Journal, 1, WriteFault::SyncFail);
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.clone().next_write(WriteSite::Journal), None); // op 0
        assert_eq!(
            inj.next_write(WriteSite::Journal),
            Some(WriteFault::SyncFail)
        ); // op 1, counted across the clone
    }

    #[test]
    fn no_space_error_is_classified() {
        let mut sink: Vec<u8> = Vec::new();
        assert!(is_no_space(
            &WriteFault::NoSpace.corrupt_append(&mut sink, b"x")
        ));
        assert!(!is_no_space(&io::Error::other("boom")));
    }

    #[test]
    fn short_write_leaves_a_torn_half() {
        let mut buf: Vec<u8> = Vec::new();
        let err = WriteFault::ShortWrite.corrupt_append(&mut buf, b"0123456789");
        assert_eq!(buf, b"01234");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn sync_fail_writes_everything_but_errors() {
        let mut buf: Vec<u8> = Vec::new();
        let err = WriteFault::SyncFail.corrupt_append(&mut buf, b"abc");
        assert_eq!(buf, b"abc");
        assert!(err.to_string().contains("fsync"));
    }

    #[test]
    fn no_space_writes_nothing() {
        let mut buf: Vec<u8> = Vec::new();
        let err = WriteFault::NoSpace.corrupt_append(&mut buf, b"abc");
        assert!(buf.is_empty());
        assert!(is_no_space(&err));
    }
}
