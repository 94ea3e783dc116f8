//! Client side of the serve daemon, and the grammar of its one plane.
//!
//! `datamime-served` listens on one Unix socket, `<root>/serve.sock`, one
//! request and one reply per connection, both plain text — an operator
//! can drive it with `nc -U` alone. A request is one UTF-8 line,
//! `verb [argument]`; a reply is `ERROR <one-line detail>` or the text
//! `datamime ctl <verb>` prints, multi-record replies closed by `END` so
//! one cut short is refused instead of parsed:
//!
//! | request | reply |
//! |---|---|
//! | `submit <JobSpec line>` | `<job>` |
//! | `status <job>` | `state=… evals=… iterations=… best_error=…` |
//! | `result <job>` | `best_error=…`, `best_unit=…,…`, `journal=…`, `END` |
//! | `cancel <job>` | `cancelled` |
//! | `list` | `<job> <state>` per job, `END` |
//! | `stats`, `health` | `STAT <name> <value>` lines (`health` adds `READONLY <reason>`), `END` |
//! | `version` / `shutdown` | `datamime-served <version>` / `OK draining` |
//!
//! Floats are written with `{}`, which round-trips every finite `f64` and
//! `inf` bit for bit. [`ServeClient`] is [`ServeClient::admin`] plus the
//! parsers of those replies; `datamime ctl` prints them.

use crate::jobspec::JobSpec;
use std::fmt;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Name of the daemon's socket under its state root.
pub const SERVE_SOCKET: &str = "serve.sock";

/// A job's externally visible lifecycle state, as reported by the
/// daemon. The strings on the wire are the lowercase variant names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and journaled, not yet scheduled onto the backend.
    Submitted,
    /// Actively interleaved on the shared backend.
    Running,
    /// Completed; the result is available.
    Done,
    /// Cancelled by request; the journal survives.
    Cancelled,
    /// The search failed; see the manifest for the error.
    Failed,
    /// A per-job quota (`max_evals=` / `wall_clock_s=`) stopped the
    /// search early; the best-so-far result is available.
    QuotaExceeded,
}

impl JobState {
    /// Parses the wire string.
    pub fn parse(s: &str) -> Option<JobState> {
        Some(match s {
            "submitted" => JobState::Submitted,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "cancelled" => JobState::Cancelled,
            "failed" => JobState::Failed,
            "quota_exceeded" => JobState::QuotaExceeded,
            _ => return None,
        })
    }

    /// The wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Submitted => "submitted",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
            JobState::QuotaExceeded => "quota_exceeded",
        }
    }

    /// Whether the state is final (no further transitions).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::Failed | JobState::QuotaExceeded
        )
    }

    /// Whether a result is served in this state (`done`, or stopped by
    /// quota with a best-so-far).
    pub fn has_result(self) -> bool {
        matches!(self, JobState::Done | JobState::QuotaExceeded)
    }
}

/// The `status` reply.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Lifecycle state.
    pub state: JobState,
    /// Evaluations observed so far.
    pub evals: u64,
    /// Total iterations the job was submitted with.
    pub iterations: u64,
    /// Best error so far (`f64::INFINITY` until the first observation).
    pub best_error: f64,
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "state={} evals={} iterations={} best_error={}",
            self.state.as_str(),
            self.evals,
            self.iterations,
            self.best_error
        )
    }
}

impl JobStatus {
    /// Parses a whole `status` reply (its newline included).
    ///
    /// # Errors
    ///
    /// Fails on a reply cut short or not in the `status` shape.
    pub fn parse(reply: &str) -> Result<Self, String> {
        let bad = || format!("bad status reply `{}`", reply.trim_end());
        let line = reply.strip_suffix('\n').ok_or_else(bad)?;
        let mut fields = line.split(' ');
        let mut field = |key: &str| fields.next()?.strip_prefix(key)?.strip_prefix('=');
        let status = (|| {
            Some(JobStatus {
                state: JobState::parse(field("state")?)?,
                evals: field("evals")?.parse().ok()?,
                iterations: field("iterations")?.parse().ok()?,
                best_error: field("best_error")?.parse().ok()?,
            })
        })();
        status.filter(|_| fields.next().is_none()).ok_or_else(bad)
    }
}

/// The `result` reply.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Best total weighted EMD error.
    pub best_error: f64,
    /// Best unit-hypercube point.
    pub best_unit: Vec<f64>,
    /// Path of the job's journal, relative to the daemon state root.
    pub journal: String,
}

impl fmt::Display for JobResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let unit: Vec<String> = self.best_unit.iter().map(f64::to_string).collect();
        write!(
            f,
            "best_error={}\nbest_unit={}\njournal={}",
            self.best_error,
            unit.join(","),
            self.journal
        )
    }
}

impl JobResult {
    /// Parses a whole `result` reply (its `END` included).
    ///
    /// # Errors
    ///
    /// Fails on a reply cut short or not in the `result` shape.
    pub fn parse(reply: &str) -> Result<Self, String> {
        let mut lines = records(reply)?.lines();
        let mut field = |key: &str| lines.next()?.strip_prefix(key)?.strip_prefix('=');
        let result = (|| {
            Some(JobResult {
                best_error: field("best_error")?.parse().ok()?,
                best_unit: field("best_unit")?
                    .split(',')
                    .filter(|u| !u.is_empty())
                    .map(|u| u.parse().ok())
                    .collect::<Option<_>>()?,
                journal: field("journal")?.to_string(),
            })
        })();
        result
            .filter(|_| lines.next().is_none())
            .ok_or_else(|| format!("bad result reply `{}`", reply.trim_end()))
    }
}

/// The records of a multi-record reply: everything before its closing
/// `END` line.
///
/// # Errors
///
/// Fails when the terminator is missing — the reply was cut short.
pub fn records(reply: &str) -> Result<&str, String> {
    reply
        .strip_suffix("END\n")
        .filter(|body| body.is_empty() || body.ends_with('\n'))
        .ok_or_else(|| "reply cut short: no END".to_string())
}

/// A client for one daemon state root. Cheap to construct; every call
/// opens a fresh connection.
#[derive(Debug, Clone)]
pub struct ServeClient {
    root: PathBuf,
}

impl ServeClient {
    /// A client for the daemon rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ServeClient { root: root.into() }
    }

    /// The daemon state root this client talks to.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Submits a job; returns the daemon-assigned job id.
    ///
    /// # Errors
    ///
    /// Fails on connection errors, an unserializable spec, or a daemon
    /// rejection (unknown workload, bad machine, ...).
    pub fn submit(&self, spec: &JobSpec) -> Result<String, String> {
        self.submit_line(&spec.to_line()?)
    }

    /// Submits a raw `key=value` spec line (validated daemon-side).
    ///
    /// # Errors
    ///
    /// As [`ServeClient::submit`].
    pub fn submit_line(&self, line: &str) -> Result<String, String> {
        if line.contains('\n') {
            return Err("a job spec is one line".to_string());
        }
        Ok(self
            .admin(&format!("submit {line}"))?
            .trim_end()
            .to_string())
    }

    /// Fetches a job's status.
    ///
    /// # Errors
    ///
    /// Fails on connection errors or an unknown job id.
    pub fn status(&self, job: &str) -> Result<JobStatus, String> {
        JobStatus::parse(&self.admin(&format!("status {job}"))?)
    }

    /// Fetches a completed job's result.
    ///
    /// # Errors
    ///
    /// Fails on connection errors, an unknown job id, or a job that has
    /// not finished.
    pub fn result(&self, job: &str) -> Result<JobResult, String> {
        JobResult::parse(&self.admin(&format!("result {job}"))?)
    }

    /// Requests cancellation of a job (takes effect at its next batch
    /// boundary; the journal survives for a later resume).
    ///
    /// # Errors
    ///
    /// Fails on connection errors or an unknown job id.
    pub fn cancel(&self, job: &str) -> Result<(), String> {
        self.admin(&format!("cancel {job}")).map(|_| ())
    }

    /// Lists all jobs the daemon knows, as `(id, state)` pairs in id
    /// order.
    ///
    /// # Errors
    ///
    /// Fails on connection errors or a malformed reply.
    pub fn list(&self) -> Result<Vec<(String, String)>, String> {
        records(&self.admin("list")?)?
            .lines()
            .map(|line| {
                line.split_once(' ')
                    .map(|(job, state)| (job.to_string(), state.to_string()))
                    .ok_or_else(|| format!("bad list line `{line}`"))
            })
            .collect()
    }

    /// Polls a job until it reaches a terminal state, then returns that
    /// status. Polling backs off exponentially from 25ms to a 1s cap, so
    /// a long-running job costs a connection per second instead of
    /// twenty.
    ///
    /// # Errors
    ///
    /// Fails on connection errors or when `timeout` elapses first. A
    /// `timeout` past the clock's range waits without a deadline.
    pub fn wait(&self, job: &str, timeout: Duration) -> Result<JobStatus, String> {
        let deadline = Instant::now().checked_add(timeout);
        let mut pause = Duration::from_millis(25);
        loop {
            let status = self.status(job)?;
            if status.state.is_terminal() {
                return Ok(status);
            }
            let now = Instant::now();
            if deadline.is_some_and(|d| now >= d) {
                return Err(format!(
                    "job {job} still {} after {timeout:?}",
                    status.state.as_str()
                ));
            }
            std::thread::sleep(deadline.map_or(pause, |d| pause.min(d - now)));
            pause = (pause * 2).min(Duration::from_secs(1));
        }
    }

    /// One round trip: sends the request line `command`, returns the whole
    /// reply.
    ///
    /// # Errors
    ///
    /// Fails on connection errors, on a reply that does not end in a
    /// newline (cut short), and on an `ERROR <detail>` reply, whose
    /// detail is the error.
    pub fn admin(&self, command: &str) -> Result<String, String> {
        let path = self.root.join(SERVE_SOCKET);
        let mut conn = UnixStream::connect(&path)
            .map_err(|e| format!("cannot reach the daemon at {path:?}: {e}"))?;
        conn.write_all(format!("{command}\n").as_bytes())
            .and_then(|()| conn.shutdown(std::net::Shutdown::Write))
            .map_err(|e| format!("request failed: {e}"))?;
        let mut reply = String::new();
        conn.read_to_string(&mut reply)
            .map_err(|e| format!("reply failed: {e}"))?;
        let body = reply
            .strip_suffix('\n')
            .ok_or_else(|| format!("reply cut short: `{reply}`"))?;
        match body.strip_prefix("ERROR ") {
            Some(detail) => Err(detail.to_string()),
            None => Ok(reply),
        }
    }

    /// Fetches the `stats` snapshot as sorted `(name, value)` pairs.
    ///
    /// # Errors
    ///
    /// Fails on connection errors or a malformed reply.
    pub fn stats(&self) -> Result<Vec<(String, u64)>, String> {
        records(&self.admin("stats")?)?
            .lines()
            .map(|line| {
                let mut it = line.split_whitespace();
                match (it.next(), it.next(), it.next(), it.next()) {
                    (Some("STAT"), Some(name), Some(value), None) => value
                        .parse()
                        .map(|value| (name.to_string(), value))
                        .map_err(|_| format!("bad stat value in `{line}`")),
                    _ => Err(format!("bad stats line `{line}`")),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Any `f64` a daemon can report: arbitrary bit patterns with NaNs
    /// mapped to `inf` (the "no observation yet" value), plus the corners
    /// a uniform draw never hits.
    fn reportable() -> impl Strategy<Value = f64> {
        prop_oneof![
            any::<u64>()
                .prop_map(f64::from_bits)
                .prop_map(|x| if x.is_nan() { f64::INFINITY } else { x }),
            (1u64..1 << 52).prop_map(f64::from_bits), // subnormals
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::MIN_POSITIVE),
            Just(f64::MAX),
        ]
    }

    proptest! {
        #[test]
        fn status_and_result_replies_round_trip_by_bits(
            best in reportable(),
            unit in prop::collection::vec(reportable(), 0..6),
            evals in any::<u64>(),
        ) {
            let status = JobStatus {
                state: JobState::QuotaExceeded,
                evals,
                iterations: evals / 2,
                best_error: best,
            };
            let back = JobStatus::parse(&format!("{status}\n")).unwrap();
            prop_assert_eq!(back.state, status.state);
            prop_assert_eq!((back.evals, back.iterations), (evals, evals / 2));
            prop_assert_eq!(back.best_error.to_bits(), best.to_bits());
            prop_assert!(JobStatus::parse(&status.to_string()).is_err(), "no newline");

            let result = JobResult {
                best_error: best,
                best_unit: unit.clone(),
                journal: "jobs/job-0001/journal.jsonl".to_string(),
            };
            let reply = format!("{result}\nEND\n");
            let back = JobResult::parse(&reply).unwrap();
            prop_assert_eq!(back.best_error.to_bits(), best.to_bits());
            let bits = |v: &[f64]| v.iter().map(|u| u.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&back.best_unit), bits(&unit));
            prop_assert_eq!(&back.journal, &result.journal);
            // Cut anywhere, the reply is refused, never half-parsed.
            let cut = (evals as usize) % reply.len();
            prop_assert!(JobResult::parse(&reply[..cut]).is_err(), "cut at {}", cut);
        }
    }

    #[test]
    fn multi_record_replies_need_their_terminator() {
        assert_eq!(records("END\n"), Ok(""));
        assert_eq!(records("job-0001 done\nEND\n"), Ok("job-0001 done\n"));
        assert!(records("job-0001 done\n").is_err());
        assert!(records("job-0001 doneEND\n").is_err());
        assert!(records("").is_err());
        assert!(JobStatus::parse("state=zombie evals=1 iterations=1 best_error=0\n").is_err());
        assert!(JobStatus::parse("state=done evals=1 iterations=1 best_error=0 x=1\n").is_err());
    }

    #[test]
    fn job_states_round_trip() {
        for s in [
            JobState::Submitted,
            JobState::Running,
            JobState::Done,
            JobState::Cancelled,
            JobState::Failed,
            JobState::QuotaExceeded,
        ] {
            assert_eq!(JobState::parse(s.as_str()), Some(s));
        }
        assert_eq!(JobState::parse("zombie"), None);
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::QuotaExceeded.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(!JobState::Submitted.is_terminal());
        assert!(JobState::Done.has_result());
        assert!(JobState::QuotaExceeded.has_result());
        assert!(!JobState::Failed.has_result());
    }

    #[test]
    fn calls_fail_cleanly_without_a_daemon() {
        let client = ServeClient::new("/nonexistent/serve-root");
        assert!(client.list().is_err());
        assert!(client.admin("stats").is_err());
        assert!(client.status("job-0001").is_err());
    }
}
