//! Deterministic disk-fault injection for the durability plane.
//!
//! A [`DiskFaultPlan`] is pure data, exactly like the evaluation-side
//! [`crate::faultinject::FaultPlan`]: it names *which append operation*
//! on *which durability surface* must misbehave, and how. A
//! [`DiskFaultInjector`] wraps a plan with per-target operation counters;
//! writers on the durability path (the serve daemon's manifest, the run
//! journal, the GC directory sweep) consult it once per logical
//! operation, so the same plan produces the same failure at the same
//! boundary on every run.
//!
//! Fault kinds model the disk failures that matter for durable writes:
//!
//! - **no-space** (`enospc`) — the append fails up front with the OS
//!   `ENOSPC` error and nothing reaches the file;
//! - **short write** (`short`) — half the record reaches the file before
//!   the error, leaving a torn tail;
//! - **fsync failure** (`syncfail`) — the bytes are written but
//!   durability is never acknowledged, so the caller must treat the
//!   record as lost even though it may survive;
//! - **crash** (`crash`) — the process aborts *at* the boundary
//!   (`std::process::abort`, no unwinding, no destructors), which is how
//!   the crash-matrix harness SIGKILLs a daemon at every manifest write
//!   and GC edge without racing a signal.
//!
//! The module is always compiled (an absent injector costs one `Option`
//! check per append); the cargo feature `faultinject` only gates the
//! long-running torture tests that use it.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// Environment variable carrying a [`DiskFaultPlan`] spec into the
/// `datamime-served` binary (tests spawn the daemon with it set).
pub const DISK_FAULT_ENV: &str = "DATAMIME_DISK_FAULT";

/// The raw OS error code injected for no-space faults (`ENOSPC`).
pub const ENOSPC_CODE: i32 = 28;

/// What an injected disk fault does to the targeted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFaultKind {
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

/// Which durability surface an injected fault targets. Each target has
/// its own operation counter inside the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskTarget {
    /// Manifest snapshot writes (one lifecycle transition each).
    Manifest,
    /// Run-journal appends (one event line each).
    Journal,
    /// GC directory removals (one per job directory).
    GcDir,
}

impl DiskTarget {
    fn index(self) -> usize {
        match self {
            DiskTarget::Manifest => 0,
            DiskTarget::Journal => 1,
            DiskTarget::GcDir => 2,
        }
    }

    fn name(self) -> &'static str {
        match self {
            DiskTarget::Manifest => "manifest",
            DiskTarget::Journal => "journal",
            DiskTarget::GcDir => "gcdir",
        }
    }
}

/// One planned disk fault: operation number `nth` (zero-based, counted
/// per target) fails with `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedDiskFault {
    /// The durability surface the fault hits.
    pub target: DiskTarget,
    /// Zero-based operation number on that surface.
    pub nth: u64,
    /// What happens.
    pub kind: DiskFaultKind,
}

/// A deterministic schedule of disk faults. Plain data — cloneable,
/// comparable, string-serializable, independent of wall clock and
/// scheduling (given a deterministic sequence of operations per target,
/// which single-writer logs guarantee).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskFaultPlan {
    faults: Vec<PlannedDiskFault>,
}

impl DiskFaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        DiskFaultPlan::default()
    }

    /// Adds a fault: operation `nth` on `target` fails with `kind`.
    #[must_use]
    pub fn fail(mut self, target: DiskTarget, nth: u64, kind: DiskFaultKind) -> Self {
        self.faults.push(PlannedDiskFault { target, nth, kind });
        self
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The planned faults, in insertion order.
    pub fn faults(&self) -> &[PlannedDiskFault] {
        &self.faults
    }

    /// The fault scheduled for operation `nth` on `target`, if any.
    /// First match in insertion order wins.
    pub fn lookup(&self, target: DiskTarget, nth: u64) -> Option<DiskFaultKind> {
        self.faults
            .iter()
            .find(|f| f.target == target && f.nth == nth)
            .map(|f| f.kind)
    }

    /// Serializes the plan to its compact spec form: faults joined by
    /// `;`, each `target:nth:kind` with targets `manifest`, `journal`,
    /// `gcdir` and kinds `enospc`, `short`, `syncfail`,
    /// `crash` — the format the daemon accepts via `--disk-fault` or the
    /// [`DISK_FAULT_ENV`] environment variable.
    pub fn to_spec(&self) -> String {
        let mut out = String::new();
        for (i, f) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            out.push_str(f.target.name());
            out.push(':');
            out.push_str(&f.nth.to_string());
            out.push(':');
            out.push_str(match f.kind {
                DiskFaultKind::NoSpace => "enospc",
                DiskFaultKind::ShortWrite => "short",
                DiskFaultKind::SyncFail => "syncfail",
                DiskFaultKind::Crash => "crash",
            });
        }
        out
    }

    /// Parses a spec produced by [`to_spec`](Self::to_spec) (an empty
    /// string is the empty plan).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed fault entry.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut plan = DiskFaultPlan::new();
        for part in spec.split(';').filter(|p| !p.is_empty()) {
            let mut it = part.split(':');
            let (Some(target_s), Some(nth_s), Some(kind_s), None) =
                (it.next(), it.next(), it.next(), it.next())
            else {
                return Err(format!("disk fault `{part}`: expected target:nth:kind"));
            };
            let target = match target_s {
                "manifest" => DiskTarget::Manifest,
                "journal" => DiskTarget::Journal,
                "gcdir" => DiskTarget::GcDir,
                other => return Err(format!("disk fault `{part}`: unknown target `{other}`")),
            };
            let nth: u64 = nth_s
                .parse()
                .map_err(|e| format!("disk fault `{part}`: bad operation number: {e}"))?;
            let kind = match kind_s {
                "enospc" => DiskFaultKind::NoSpace,
                "short" => DiskFaultKind::ShortWrite,
                "syncfail" => DiskFaultKind::SyncFail,
                "crash" => DiskFaultKind::Crash,
                other => return Err(format!("disk fault `{part}`: unknown kind `{other}`")),
            };
            plan.faults.push(PlannedDiskFault { target, nth, kind });
        }
        Ok(plan)
    }
}

/// The per-target counting state behind a [`DiskFaultInjector`].
#[derive(Debug)]
struct InjectorState {
    plan: DiskFaultPlan,
    /// Operations seen so far per [`DiskTarget::index`].
    counts: [u64; 3],
}

/// A [`DiskFaultPlan`] armed with per-target operation counters, shared
/// (cheaply cloneable) across every writer of one daemon or run.
///
/// Each call to [`next`](DiskFaultInjector::next) consumes one operation
/// number on the given target. [`DiskFaultKind::Crash`] faults abort the
/// process *inside* `next`, so every instrumented boundary is a crash
/// point without any caller cooperation — which is why in-process tests
/// must only use crash faults against an out-of-process daemon.
#[derive(Debug, Clone)]
pub struct DiskFaultInjector {
    inner: Arc<Mutex<InjectorState>>,
}

impl DiskFaultInjector {
    /// Arms `plan` with zeroed counters.
    pub fn new(plan: DiskFaultPlan) -> Self {
        DiskFaultInjector {
            inner: Arc::new(Mutex::new(InjectorState {
                plan,
                counts: [0; 3],
            })),
        }
    }

    /// Builds an injector from the [`DISK_FAULT_ENV`] environment
    /// variable, if set (`None` when absent or empty).
    ///
    /// # Errors
    ///
    /// Fails on a malformed spec, naming the offending entry.
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var(DISK_FAULT_ENV) {
            Ok(spec) if !spec.trim().is_empty() => Ok(Some(DiskFaultInjector::new(
                DiskFaultPlan::from_spec(spec.trim())?,
            ))),
            _ => Ok(None),
        }
    }

    /// Counts one operation on `target` and returns the fault scheduled
    /// for it, if any. A scheduled [`DiskFaultKind::Crash`] aborts the
    /// process here and never returns.
    pub fn next(&self, target: DiskTarget) -> Option<DiskFaultKind> {
        let mut state = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let nth = state.counts[target.index()];
        state.counts[target.index()] += 1;
        let fault = state.plan.lookup(target, nth);
        if fault == Some(DiskFaultKind::Crash) {
            // Abort, not exit: no unwinding, no atexit hooks, no flushes
            // — indistinguishable from SIGKILL at this exact boundary.
            std::process::abort();
        }
        fault
    }

    /// Operations counted so far on `target` (tests and diagnostics).
    pub fn count(&self, target: DiskTarget) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .counts[target.index()]
    }
}

/// The injected `ENOSPC` I/O error.
pub fn no_space_error() -> io::Error {
    io::Error::from_raw_os_error(ENOSPC_CODE)
}

/// Whether `e` is a no-space condition (real or injected) — the error
/// class that flips the serve daemon into draining read-only mode.
pub fn is_no_space(e: &io::Error) -> bool {
    e.raw_os_error() == Some(ENOSPC_CODE)
}

impl DiskFaultKind {
    /// Applies this fault to an append of `bytes` through `w`, returning
    /// the error the real failure would produce. [`DiskFaultKind::ShortWrite`]
    /// writes (and flushes) the first half of `bytes` first, so the file
    /// is left with exactly the torn tail the repair path must handle;
    /// [`DiskFaultKind::SyncFail`] writes everything but reports that
    /// durability was not achieved.
    pub fn corrupt_append<W: Write>(self, w: &mut W, bytes: &[u8]) -> io::Error {
        match self {
            DiskFaultKind::NoSpace => no_space_error(),
            DiskFaultKind::ShortWrite => {
                // audit:allow(swallowed-result): fault injection deliberately tears this write — the error it returns is the product
                let _ = w.write_all(&bytes[..bytes.len() / 2]);
                let _ = w.flush();
                io::Error::new(io::ErrorKind::WriteZero, "injected short write")
            }
            DiskFaultKind::SyncFail => {
                // audit:allow(swallowed-result): fault injection deliberately tears this write — the error it returns is the product
                let _ = w.write_all(bytes);
                let _ = w.flush();
                io::Error::other("injected fsync failure")
            }
            // Crash faults abort inside `DiskFaultInjector::next`; a
            // direct call is defense in depth, not a reachable path.
            DiskFaultKind::Crash => std::process::abort(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_every_target_and_kind() {
        let plan = DiskFaultPlan::new()
            .fail(DiskTarget::Manifest, 3, DiskFaultKind::NoSpace)
            .fail(DiskTarget::Manifest, 0, DiskFaultKind::Crash)
            .fail(DiskTarget::Journal, 7, DiskFaultKind::ShortWrite)
            .fail(DiskTarget::GcDir, 1, DiskFaultKind::SyncFail);
        let spec = plan.to_spec();
        assert_eq!(
            spec,
            "manifest:3:enospc;manifest:0:crash;journal:7:short;gcdir:1:syncfail"
        );
        assert_eq!(DiskFaultPlan::from_spec(&spec).unwrap(), plan);
        assert_eq!(DiskFaultPlan::from_spec("").unwrap(), DiskFaultPlan::new());
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        for bad in [
            "manifest",
            "manifest:x:enospc",
            "manifest:1:frob",
            "floppy:1:enospc",
            "manifest:1:enospc:extra",
        ] {
            let err = DiskFaultPlan::from_spec(bad).unwrap_err();
            assert!(err.contains("disk fault `"), "{bad}: {err}");
        }
    }

    #[test]
    fn injector_counts_operations_per_target() {
        let plan = DiskFaultPlan::new().fail(DiskTarget::Manifest, 2, DiskFaultKind::NoSpace);
        let inj = DiskFaultInjector::new(plan);
        assert_eq!(inj.next(DiskTarget::Manifest), None); // op 0
        assert_eq!(inj.next(DiskTarget::Journal), None); // separate counter
        assert_eq!(inj.next(DiskTarget::Manifest), None); // op 1
        assert_eq!(inj.next(DiskTarget::Manifest), Some(DiskFaultKind::NoSpace)); // op 2
        assert_eq!(inj.next(DiskTarget::Manifest), None); // op 3
        assert_eq!(inj.count(DiskTarget::Manifest), 4);
        assert_eq!(inj.count(DiskTarget::Journal), 1);
        assert_eq!(inj.count(DiskTarget::GcDir), 0);
    }

    #[test]
    fn clones_share_one_counter() {
        let inj = DiskFaultInjector::new(DiskFaultPlan::new());
        let other = inj.clone();
        other.next(DiskTarget::Journal);
        assert_eq!(inj.count(DiskTarget::Journal), 1);
    }

    #[test]
    fn no_space_error_is_classified() {
        assert!(is_no_space(&no_space_error()));
        assert!(!is_no_space(&io::Error::other("boom")));
    }

    #[test]
    fn short_write_leaves_a_torn_half() {
        let mut buf: Vec<u8> = Vec::new();
        let err = DiskFaultKind::ShortWrite.corrupt_append(&mut buf, b"0123456789");
        assert_eq!(buf, b"01234");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn sync_fail_writes_everything_but_errors() {
        let mut buf: Vec<u8> = Vec::new();
        let err = DiskFaultKind::SyncFail.corrupt_append(&mut buf, b"abc");
        assert_eq!(buf, b"abc");
        assert!(err.to_string().contains("fsync"));
    }

    #[test]
    fn no_space_writes_nothing() {
        let mut buf: Vec<u8> = Vec::new();
        let err = DiskFaultKind::NoSpace.corrupt_append(&mut buf, b"abc");
        assert!(buf.is_empty());
        assert!(is_no_space(&err));
    }

    #[test]
    fn from_env_absent_is_none() {
        // The test environment never sets the variable; a set-and-unset
        // dance would race other tests in this process.
        assert!(DiskFaultInjector::from_env().unwrap().is_none());
    }
}
