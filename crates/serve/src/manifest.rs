//! The daemon's crash-safe job manifest: one snapshot, rewritten whole on
//! every job transition.
//!
//! `<root>/manifest.json` holds the live job table, the pending GC
//! intents, the cumulative GC count and the high-water job number. Every
//! mutator folds its transition into a copy of the table and publishes
//! the copy: write `manifest.json.tmp` → fsync → rename over
//! `manifest.json` → fsync the directory. Only then does the in-memory
//! table change, so an acknowledged transition is one a restarted daemon
//! reads back, and a failed write (its error always reaches the caller)
//! changes nothing.
//!
//! A crash before the rename leaves the previous snapshot authoritative
//! and a stale temp that open deletes. The rename is atomic, so a
//! snapshot that does not parse, carries another format revision, or
//! holds anything but one whole table (a missing, unknown or repeated
//! field, a repeated job, a non-finite number, a count past 2^53) was
//! damaged or written by another daemon: open refuses it loudly rather
//! than resurrect GC'd jobs, forget live ones, or read part of a job.
//! Open likewise refuses a root holding any file of the old
//! write-ahead-log layout, untouched.
//!
//! GC is two-phase: `gc_intent` is durable before any file is unlinked,
//! `gc_done` follows the directory removal, and a crash in between leaves
//! an intent [`Manifest::take_pending_gc`] hands to the next startup.
//! Every publish consults the [`FaultInjector`], so the crash matrix
//! hits each durability edge deterministically.

use datamime::servectl::JobState;
use datamime_runtime::faultinject::{is_no_space, FaultInjector, WriteSite};
use datamime_runtime::json::{push_f64, push_f64_array, push_str_escaped, Json};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};

/// The snapshot under the daemon state root.
const MANIFEST_FILE: &str = "manifest.json";

/// The snapshot staging file; deleted on open if a crash left it.
const MANIFEST_TMP: &str = "manifest.json.tmp";

/// Manifest format revision, recorded in every snapshot. Open reads only
/// this revision: revision 3 replaced the write-ahead log (`manifest.log`,
/// `manifest.NNNNNN.log`, `manifest.ckpt`) with the one snapshot. The
/// golden test `snapshot_format_is_pinned_to_its_revision` pins it with
/// the exact snapshot text and fails until both move together.
pub const MANIFEST_FORMAT_REVISION: u32 = 3;

/// A manifest publish failure. `no_space` marks the ENOSPC class that should
/// flip the daemon into draining read-only mode.
#[derive(Debug, Clone)]
pub struct ManifestError {
    /// Whether the failure was an out-of-space condition.
    pub no_space: bool,
    /// Human-readable description.
    pub message: String,
}

/// GC bookkeeping for the admin plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcStats {
    /// Jobs whose GC completed (cumulative, survives restarts).
    pub gcd_jobs: u64,
    /// GC intents not yet closed by a `gc_done`.
    pub pending_gc: u64,
}

/// A job's row in the manifest.
#[derive(Debug, Clone)]
pub struct JobEntry {
    /// The submitted spec, verbatim `key=value` line.
    pub spec: String,
    /// Lifecycle state implied by the last transition.
    pub state: JobState,
    /// Best error recorded by a `done` or `quota` transition.
    pub best_error: Option<f64>,
    /// Best unit point recorded by a `done` or `quota` transition.
    pub best_unit: Vec<f64>,
    /// Failure detail (`fail`) or quota cause (`quota`).
    pub detail: Option<String>,
}

/// Everything one snapshot holds.
#[derive(Debug, Clone, Default)]
struct Table {
    jobs: BTreeMap<String, JobEntry>,
    /// GC intents whose directory removal has not been confirmed.
    pending_gc: Vec<String>,
    /// Jobs fully garbage-collected (cumulative).
    gcd: u64,
    /// Highest numeric job id ever submitted, so GC never recycles an id.
    max_job: u64,
}

/// The manifest writer: the acknowledged table plus the means to publish
/// its successors. Every mutator publishes one snapshot; on an I/O error
/// (injected faults included), or a transition of a job the table does
/// not hold, it returns the error and changes nothing.
#[derive(Debug)]
pub struct Manifest {
    root: PathBuf,
    table: Table,
    faults: FaultInjector,
}

impl Manifest {
    /// Opens the manifest under `root` without fault injection. See
    /// [`Manifest::open_with`].
    ///
    /// # Errors
    ///
    /// As [`Manifest::open_with`].
    pub fn open(root: &Path) -> Result<(Manifest, BTreeMap<String, JobEntry>), String> {
        Manifest::open_with(root, FaultInjector::default())
    }

    /// Opens the manifest under `root` (an absent snapshot is an empty
    /// table), deleting a stale temp, and returns the writer plus the job
    /// table in id order. `faults` arms write-fault injection on every
    /// publish.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, a corrupt snapshot, a snapshot of another
    /// format revision, or any old-layout file under `root` (left as is).
    pub fn open_with(
        root: &Path,
        faults: FaultInjector,
    ) -> Result<(Manifest, BTreeMap<String, JobEntry>), String> {
        let listing =
            std::fs::read_dir(root).map_err(|e| format!("cannot list state root {root:?}: {e}"))?;
        for entry in listing {
            let entry = entry.map_err(|e| format!("cannot list state root {root:?}: {e}"))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name == "manifest.ckpt" || (name.starts_with("manifest.") && name.ends_with(".log"))
            {
                return Err(format!(
                    "{:?} belongs to a manifest layout this daemon no longer reads \
                     (manifest format revision {MANIFEST_FORMAT_REVISION}); refusing to \
                     start without its jobs",
                    entry.path()
                ));
            }
        }
        let tmp = root.join(MANIFEST_TMP);
        if tmp.exists() {
            std::fs::remove_file(&tmp)
                .map_err(|e| format!("cannot remove stale manifest temp {tmp:?}: {e}"))?;
        }
        let path = root.join(MANIFEST_FILE);
        let table = match std::fs::read_to_string(&path) {
            Ok(text) => {
                parse_snapshot(&text).map_err(|e| format!("refusing manifest {path:?}: {e}"))?
            }
            Err(e) if e.kind() == ErrorKind::NotFound => Table::default(),
            Err(e) => return Err(format!("cannot read manifest {path:?}: {e}")),
        };
        let jobs = table.jobs.clone();
        let root = root.to_path_buf();
        Ok((
            Manifest {
                root,
                table,
                faults,
            },
            jobs,
        ))
    }

    /// The next unused job number (1-based). Survives GC, so a collected
    /// job's id is never recycled.
    pub fn next_job_number(&self) -> u64 {
        self.table.max_job + 1
    }

    /// GC intents recorded but not yet closed by `gc_done` — directories
    /// a crashed daemon may have half-deleted. The caller should finish
    /// each (idempotent removal, then [`Manifest::gc_done`]).
    pub fn take_pending_gc(&self) -> Vec<String> {
        self.table.pending_gc.clone()
    }

    /// GC progress for the admin plane.
    pub fn gc_stats(&self) -> GcStats {
        GcStats {
            gcd_jobs: self.table.gcd,
            pending_gc: self.table.pending_gc.len() as u64,
        }
    }

    /// Records a job submission (once this returns, a restart will know
    /// the job).
    pub fn submit(&mut self, job: &str, spec: &str) -> Result<(), ManifestError> {
        self.commit(|t| {
            if let Some(n) = job_number(job) {
                t.max_job = t.max_job.max(n);
            }
            t.jobs.insert(
                job.to_string(),
                JobEntry {
                    spec: spec.to_string(),
                    state: JobState::Submitted,
                    best_error: None,
                    best_unit: Vec::new(),
                    detail: None,
                },
            );
        })
    }

    /// Records that a job started running.
    pub fn start(&mut self, job: &str) -> Result<(), ManifestError> {
        self.transition(job, |e| e.state = JobState::Running)
    }

    /// Records successful completion with the result.
    pub fn done(
        &mut self,
        job: &str,
        best_error: f64,
        best_unit: &[f64],
    ) -> Result<(), ManifestError> {
        self.transition(job, |e| {
            e.state = JobState::Done;
            e.best_error = Some(best_error);
            e.best_unit = best_unit.to_vec();
        })
    }

    /// Records a quota stop (`max_evals=` / `wall_clock_s=`) with the
    /// best-so-far result and the cause string.
    pub fn quota(
        &mut self,
        job: &str,
        best_error: f64,
        best_unit: &[f64],
        cause: &str,
    ) -> Result<(), ManifestError> {
        self.transition(job, |e| {
            e.state = JobState::QuotaExceeded;
            e.best_error = Some(best_error);
            e.best_unit = best_unit.to_vec();
            e.detail = Some(cause.to_string());
        })
    }

    /// Records cancellation.
    pub fn cancel(&mut self, job: &str) -> Result<(), ManifestError> {
        self.transition(job, |e| e.state = JobState::Cancelled)
    }

    /// Records failure with a human-readable reason.
    pub fn fail(&mut self, job: &str, detail: &str) -> Result<(), ManifestError> {
        self.transition(job, |e| {
            e.state = JobState::Failed;
            e.detail = Some(detail.to_string());
        })
    }

    /// Records the durable *intent* to garbage-collect a terminal job
    /// (phase one of two-phase delete: nothing may be unlinked before
    /// this returns). The job leaves the table immediately.
    pub fn gc_intent(&mut self, job: &str) -> Result<(), ManifestError> {
        self.commit(|t| {
            t.jobs.remove(job);
            if !t.pending_gc.iter().any(|j| j == job) {
                t.pending_gc.push(job.to_string());
            }
        })
    }

    /// Records that a GC'd job's directory is gone (phase two; closes
    /// the pending intent).
    pub fn gc_done(&mut self, job: &str) -> Result<(), ManifestError> {
        self.commit(|t| {
            t.pending_gc.retain(|j| j != job);
            t.gcd += 1;
        })
    }

    fn transition(
        &mut self,
        job: &str,
        f: impl FnOnce(&mut JobEntry),
    ) -> Result<(), ManifestError> {
        if !self.table.jobs.contains_key(job) {
            return Err(ManifestError {
                no_space: false,
                message: format!("the manifest has no job {job}"),
            });
        }
        self.commit(|t| {
            if let Some(entry) = t.jobs.get_mut(job) {
                f(entry);
            }
        })
    }

    /// Folds `f` into a copy of the table, publishes the copy, and only
    /// then makes it the acknowledged table.
    fn commit(&mut self, f: impl FnOnce(&mut Table)) -> Result<(), ManifestError> {
        let mut next = self.table.clone();
        f(&mut next);
        self.publish(&next)?;
        self.table = next;
        Ok(())
    }

    /// Writes `table` to the temp, fsyncs it, renames it over the
    /// snapshot, and fsyncs the directory so the new name is durable.
    fn publish(&self, table: &Table) -> Result<(), ManifestError> {
        let body = snapshot_json(table);
        let tmp = self.root.join(MANIFEST_TMP);
        let failed = |step: &'static str| {
            move |e: std::io::Error| ManifestError {
                no_space: is_no_space(&e),
                message: format!("cannot publish the manifest ({step}): {e}"),
            }
        };
        let injected = self.faults.next_write(WriteSite::Manifest);
        let mut f = File::create(&tmp).map_err(failed("create temp"))?;
        if let Some(kind) = injected {
            return Err(failed("write temp")(
                kind.corrupt_append(&mut f, body.as_bytes()),
            ));
        }
        f.write_all(body.as_bytes())
            .and_then(|()| f.sync_all())
            .map_err(failed("write temp"))?;
        drop(f);
        std::fs::rename(&tmp, self.root.join(MANIFEST_FILE)).map_err(failed("rename"))?;
        sync_dir(&self.root).map_err(failed("fsync directory"))
    }
}

/// Fsyncs a directory so a just-renamed entry survives a crash.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir).and_then(|d| d.sync_all())
}

fn snapshot_json(t: &Table) -> String {
    let mut s = format!(
        "{{\"revision\":{MANIFEST_FORMAT_REVISION},\"gcd\":{},\"max_job\":{},\"pending_gc\":[",
        t.gcd, t.max_job
    );
    for (i, job) in t.pending_gc.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_str_escaped(&mut s, job);
    }
    s.push_str("],\"jobs\":[");
    for (i, (id, e)) in t.jobs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"job\":");
        push_str_escaped(&mut s, id);
        s.push_str(",\"spec\":");
        push_str_escaped(&mut s, &e.spec);
        s.push_str(",\"state\":\"");
        s.push_str(e.state.as_str());
        s.push('"');
        if let Some(err) = e.best_error {
            s.push_str(",\"best_error\":");
            push_f64(&mut s, err);
        }
        s.push_str(",\"best_unit\":");
        push_f64_array(&mut s, &e.best_unit);
        if let Some(d) = &e.detail {
            s.push_str(",\"detail\":");
            push_str_escaped(&mut s, d);
        }
        s.push('}');
    }
    s.push_str("]}\n");
    s
}

/// Largest count a snapshot may hold: every integer up to 2^53 is exact
/// in a JSON number, and the daemon adds one to `max_job` and `gcd`.
const MAX_COUNT: f64 = 9_007_199_254_740_992.0;

/// The fields of a snapshot object by name: every name in `required`
/// present, any in `optional`, no other and none twice. A snapshot this
/// daemon did not write whole is refused, never read in part.
fn fields<'a>(
    v: &'a Json,
    what: &str,
    required: &[&str],
    optional: &[&str],
) -> Result<BTreeMap<&'a str, &'a Json>, String> {
    let Json::Obj(pairs) = v else {
        return Err(format!("{what} is not an object"));
    };
    let mut out = BTreeMap::new();
    for (key, value) in pairs {
        if !required.contains(&key.as_str()) && !optional.contains(&key.as_str()) {
            return Err(format!("{what} has an unknown field `{key}`"));
        }
        if out.insert(key.as_str(), value).is_some() {
            return Err(format!("{what} has field `{key}` twice"));
        }
    }
    match required.iter().find(|key| !out.contains_key(*key)) {
        Some(key) => Err(format!("{what} has no `{key}`")),
        None => Ok(out),
    }
}

fn array<'a>(v: &'a Json, what: &str) -> Result<&'a [Json], String> {
    v.as_arr().ok_or_else(|| format!("{what} is not an array"))
}

fn parse_snapshot(text: &str) -> Result<Table, String> {
    let v = Json::parse(text.trim()).map_err(|e| format!("corrupt JSON: {e}"))?;
    let count = |v: &Json, key: &str| {
        v.as_f64()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_COUNT)
            .map(|n| n as u64)
            .ok_or_else(|| format!("{key} is not a count"))
    };
    // The revision first: another revision's layout is refused as such.
    let revision = count(v.get("revision").ok_or("missing revision")?, "revision")?;
    if revision != u64::from(MANIFEST_FORMAT_REVISION) {
        return Err(format!(
            "format revision {revision}, but this daemon reads revision \
             {MANIFEST_FORMAT_REVISION} only"
        ));
    }
    let top = fields(
        &v,
        "the snapshot",
        &["revision", "gcd", "max_job", "pending_gc", "jobs"],
        &[],
    )?;
    let mut table = Table {
        gcd: count(top["gcd"], "gcd")?,
        max_job: count(top["max_job"], "max_job")?,
        ..Table::default()
    };
    for j in array(top["pending_gc"], "pending_gc")? {
        let job = j.as_str().ok_or("pending_gc holds a non-string")?;
        table.pending_gc.push(job.to_string());
    }
    for jv in array(top["jobs"], "jobs")? {
        let job = fields(
            jv,
            "a job",
            &["job", "spec", "state", "best_unit"],
            &["best_error", "detail"],
        )?;
        let id = job["job"].as_str().ok_or("a job id is not a string")?;
        let string = |key: &str| {
            job[key]
                .as_str()
                .ok_or_else(|| format!("job {id}: {key} is not a string"))
        };
        // Finite only: a publish cannot write anything else back.
        let number = |v: &Json| {
            v.as_f64()
                .filter(|n| n.is_finite())
                .ok_or_else(|| format!("job {id}: not a finite number"))
        };
        let spec = string("spec")?;
        let state_s = string("state")?;
        let state = JobState::parse(state_s)
            .ok_or_else(|| format!("job {id} has unknown state `{state_s}`"))?;
        let entry = JobEntry {
            spec: spec.to_string(),
            state,
            best_error: job.get("best_error").map(|v| number(v)).transpose()?,
            best_unit: array(job["best_unit"], "best_unit")?
                .iter()
                .map(number)
                .collect::<Result<_, _>>()?,
            detail: job
                .get("detail")
                .map(|_| string("detail"))
                .transpose()?
                .map(str::to_string),
        };
        if table.jobs.insert(id.to_string(), entry).is_some() {
            return Err(format!("job {id} appears twice"));
        }
    }
    Ok(table)
}

/// Numeric suffix of a `job-NNNN` id, for high-water tracking.
fn job_number(job: &str) -> Option<u64> {
    job.rsplit('-').next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamime_runtime::faultinject::{FaultPlan, WriteFault};

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("datamime-manifest-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn with_faults(plan: FaultPlan) -> FaultInjector {
        FaultInjector::new(plan)
    }

    /// Every file name under `root`, sorted.
    fn listing(root: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(root)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn transitions_fold_and_survive_reopen() {
        let root = tmp("fold");
        {
            let (mut m, jobs) = Manifest::open(&root).unwrap();
            assert!(jobs.is_empty());
            m.submit("job-0001", "workload=mem-fb iters=4").unwrap();
            m.submit("job-0002", "workload=xapian iters=4").unwrap();
            m.start("job-0001").unwrap();
            m.start("job-0002").unwrap();
            m.done("job-0001", 0.25, &[0.5, 0.75]).unwrap();
            m.cancel("job-0002").unwrap();
        }
        assert_eq!(listing(&root), vec![MANIFEST_FILE]);
        let (_m, jobs) = Manifest::open(&root).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs["job-0001"].state, JobState::Done);
        assert_eq!(jobs["job-0001"].best_error, Some(0.25));
        assert_eq!(jobs["job-0001"].best_unit, vec![0.5, 0.75]);
        assert_eq!(jobs["job-0002"].state, JobState::Cancelled);
        assert_eq!(jobs["job-0002"].spec, "workload=xapian iters=4");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn failure_detail_is_preserved() {
        let root = tmp("fail");
        {
            let (mut m, _) = Manifest::open(&root).unwrap();
            m.submit("job-0001", "workload=nope").unwrap();
            m.fail("job-0001", "unknown workload \"nope\"").unwrap();
        }
        let (_m, jobs) = Manifest::open(&root).unwrap();
        assert_eq!(jobs["job-0001"].state, JobState::Failed);
        assert_eq!(
            jobs["job-0001"].detail.as_deref(),
            Some("unknown workload \"nope\"")
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn quota_stop_folds_with_best_so_far_and_cause() {
        let root = tmp("quota");
        {
            let (mut m, _) = Manifest::open(&root).unwrap();
            m.submit("job-0001", "workload=mem-fb iters=24 max_evals=8")
                .unwrap();
            m.start("job-0001").unwrap();
            m.quota("job-0001", 0.5, &[0.25], "max_evals").unwrap();
        }
        let (_m, jobs) = Manifest::open(&root).unwrap();
        assert_eq!(jobs["job-0001"].state, JobState::QuotaExceeded);
        assert_eq!(jobs["job-0001"].best_error, Some(0.5));
        assert_eq!(jobs["job-0001"].best_unit, vec![0.25]);
        assert_eq!(jobs["job-0001"].detail.as_deref(), Some("max_evals"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn two_phase_gc_folds_and_pending_intent_survives_crash() {
        let root = tmp("gc");
        {
            let (mut m, _) = Manifest::open(&root).unwrap();
            m.submit("job-0001", "workload=mem-fb").unwrap();
            m.done("job-0001", 0.5, &[]).unwrap();
            m.submit("job-0002", "workload=mem-fb").unwrap();
            m.gc_intent("job-0001").unwrap();
            // Crash here: directory removal never confirmed.
        }
        {
            let (mut m, jobs) = Manifest::open(&root).unwrap();
            assert!(!jobs.contains_key("job-0001"), "gc'd job left the table");
            assert_eq!(m.take_pending_gc(), vec!["job-0001".to_string()]);
            assert_eq!(m.gc_stats().gcd_jobs, 0);
            m.gc_done("job-0001").unwrap();
            assert!(m.take_pending_gc().is_empty());
            assert_eq!(m.gc_stats().gcd_jobs, 1);
        }
        let (m, jobs) = Manifest::open(&root).unwrap();
        assert_eq!(jobs.len(), 1);
        assert!(m.take_pending_gc().is_empty());
        // Numbering never recycles a GC'd id.
        assert_eq!(m.next_job_number(), 3);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The snapshot is the checkpoint now: a crash between its temp write
    /// and the rename leaves a stale `manifest.json.tmp`, which open
    /// ignores and deletes.
    #[test]
    fn stale_checkpoint_temp_is_removed_on_open() {
        let root = tmp("staletmp");
        {
            let (mut m, _) = Manifest::open(&root).unwrap();
            m.submit("job-0001", "workload=mem-fb").unwrap();
        }
        std::fs::write(root.join(MANIFEST_TMP), b"{\"revision\":3,\"gcd\":0,\"jo").unwrap();
        let (_m, jobs) = Manifest::open(&root).unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(listing(&root), vec![MANIFEST_FILE]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stray_legacy_manifest_is_refused_loudly() {
        for old in ["manifest.log", "manifest.000001.log", "manifest.ckpt"] {
            let root = tmp("legacy");
            std::fs::write(root.join(old), "{}\n").unwrap();
            // A stale temp beside it must survive too: open touches nothing.
            std::fs::write(root.join(MANIFEST_TMP), "{}\n").unwrap();
            let err = Manifest::open(&root).expect_err("an old-layout file must not be ignored");
            assert!(err.contains(old), "{err}");
            assert!(err.contains("no longer reads"), "{err}");
            let mut untouched = vec![old, MANIFEST_TMP];
            untouched.sort_unstable();
            assert_eq!(listing(&root), untouched);
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn corrupt_or_wrong_revision_snapshot_is_refused_loudly() {
        let root = tmp("loud");
        for (body, why) in [
            ("{\"revision\":3,\"gcd\":0,", "corrupt JSON"),
            ("{\"revision\":2,\"gcd\":0,\"max_job\":0}", "revision 2"),
            ("{\"gcd\":0,\"max_job\":0,\"jobs\":[]}", "missing revision"),
        ] {
            std::fs::write(root.join(MANIFEST_FILE), body).unwrap();
            let err = Manifest::open(&root).expect_err(body);
            assert!(err.contains(why), "{body}: {err}");
            assert_eq!(
                std::fs::read_to_string(root.join(MANIFEST_FILE)).unwrap(),
                body
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_snapshot_is_read_whole_or_refused() {
        let root = tmp("whole");
        let job = |fields: &str| {
            format!(
                "{{\"revision\":3,\"gcd\":0,\"max_job\":1,\"pending_gc\":[],\"jobs\":[{{\"job\":\"job-0001\",\"spec\":\"s\",\"state\":\"done\",{fields}}}]}}"
            )
        };
        for (body, why) in [
            // Each of these opened before, and panicked at the next
            // publish or job number, or lost part of the table.
            (
                "{\"revision\":3,\"gcd\":0,\"max_job\":18446744073709551615,\"pending_gc\":[],\"jobs\":[]}".to_string(),
                "max_job is not a count",
            ),
            (job("\"best_error\":1e999,\"best_unit\":[]"), "not a finite number"),
            (job("\"best_unit\":[1e999]"), "not a finite number"),
            (
                "{\"revision\":3,\"gcd\":0,\"max_job\":1,\"pending_gc\":[],\"jobz\":[]}".to_string(),
                "unknown field `jobz`",
            ),
            (job("\"best_unit\":[0.5,\"x\"]"), "not a finite number"),
            (job("\"best_unit\":[],\"state\":\"failed\""), "field `state` twice"),
            (
                job("\"best_unit\":[]},{\"job\":\"job-0001\",\"spec\":\"t\",\"state\":\"failed\",\"best_unit\":[]"),
                "job job-0001 appears twice",
            ),
        ] {
            std::fs::write(root.join(MANIFEST_FILE), &body).unwrap();
            let err = Manifest::open(&root).expect_err(&body);
            assert!(err.contains(why) && err.contains(MANIFEST_FILE), "{body}: {err}");
        }
        std::fs::write(root.join(MANIFEST_FILE), job("\"best_unit\":[0.5]")).unwrap();
        let (_m, jobs) = Manifest::open(&root).unwrap();
        assert_eq!(jobs["job-0001"].best_unit, [0.5]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_enospc_fails_the_append_and_flags_no_space() {
        let root = tmp("enospc");
        let plan = FaultPlan::new().fail_write(WriteSite::Manifest, 1, WriteFault::NoSpace);
        {
            let (mut m, _) = Manifest::open_with(&root, with_faults(plan)).unwrap();
            m.submit("job-0001", "workload=mem-fb").unwrap(); // op 0 ok
            let err = m.start("job-0001").unwrap_err(); // op 1 injected
            assert!(err.no_space, "{}", err.message);
            // Later transitions start from the acknowledged table.
            m.cancel("job-0001").unwrap();
        }
        let (_m, jobs) = Manifest::open(&root).unwrap();
        assert_eq!(jobs["job-0001"].state, JobState::Cancelled);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_short_write_self_repairs_so_later_appends_fold() {
        let root = tmp("short");
        let plan = FaultPlan::new().fail_write(WriteSite::Manifest, 1, WriteFault::ShortWrite);
        {
            let (mut m, _) = Manifest::open_with(&root, with_faults(plan)).unwrap();
            m.submit("job-0001", "workload=mem-fb").unwrap();
            // Tears the temp only; the next publish rewrites it whole.
            assert!(!m.start("job-0001").unwrap_err().no_space);
            m.done("job-0001", 0.5, &[0.1]).unwrap();
        }
        let (_m, jobs) = Manifest::open(&root).unwrap();
        assert_eq!(jobs["job-0001"].state, JobState::Done);
        assert_eq!(jobs["job-0001"].best_error, Some(0.5));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A failed publish leaves the last published snapshot authoritative:
    /// on disk, in memory, and for the next open.
    #[test]
    fn failed_checkpoint_keeps_previous_one_authoritative() {
        let root = tmp("ckptfail");
        // Every publish after the first two hits ENOSPC.
        let plan = (2..64).fold(FaultPlan::new(), |p, n| {
            p.fail_write(WriteSite::Manifest, n, WriteFault::NoSpace)
        });
        {
            let (mut m, _) = Manifest::open_with(&root, with_faults(plan)).unwrap();
            m.submit("job-0001", "workload=mem-fb").unwrap();
            m.done("job-0001", 0.5, &[]).unwrap();
            assert!(
                m.submit("job-0002", "workload=mem-fb")
                    .unwrap_err()
                    .no_space
            );
            assert!(m.gc_intent("job-0001").unwrap_err().no_space);
            assert_eq!(m.next_job_number(), 2);
            assert_eq!(m.gc_stats().pending_gc, 0);
            assert!(
                m.start("job-0002").is_err(),
                "job-0002 was never acknowledged"
            );
        }
        let (_m, jobs) = Manifest::open(&root).unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs["job-0001"].state, JobState::Done);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The snapshot format, pinned: the revision and the exact text a
    /// fixed sequence of every transition publishes, which open must read
    /// back. A restarted daemon reads what the previous one wrote, so a
    /// change here is a change to every upgrade.
    #[test]
    fn snapshot_format_is_pinned_to_its_revision() {
        const GOLDEN: &str = concat!(
            r#"{"revision":3,"gcd":1,"max_job":8,"pending_gc":["job-0007"],"jobs":["#,
            r#"{"job":"job-0001","spec":"workload=mem-fb iters=4","state":"done","best_error":0.25,"best_unit":[0.5,1]},"#,
            r#"{"job":"job-0002","spec":"workload=mem-fb iters=4","state":"quota_exceeded","best_error":1.5,"best_unit":[0.125],"detail":"max_evals"},"#,
            r#"{"job":"job-0003","spec":"workload=mem-fb iters=4","state":"failed","best_unit":[],"detail":"unknown \"x\""},"#,
            r#"{"job":"job-0004","spec":"workload=mem-fb iters=4","state":"cancelled","best_unit":[]},"#,
            r#"{"job":"job-0005","spec":"workload=mem-fb iters=4","state":"running","best_unit":[]},"#,
            r#"{"job":"job-0006","spec":"workload=mem-fb iters=4","state":"submitted","best_unit":[]}"#,
            "]}\n",
        );
        let root = tmp("golden");
        let (mut m, _) = Manifest::open(&root).unwrap();
        for n in 1..=8 {
            m.submit(&format!("job-{n:04}"), "workload=mem-fb iters=4")
                .unwrap();
        }
        m.start("job-0001").unwrap();
        m.done("job-0001", 0.25, &[0.5, 1.0]).unwrap();
        m.quota("job-0002", 1.5, &[0.125], "max_evals").unwrap();
        m.fail("job-0003", "unknown \"x\"").unwrap();
        m.cancel("job-0004").unwrap();
        m.start("job-0005").unwrap();
        m.gc_intent("job-0007").unwrap();
        m.gc_intent("job-0008").unwrap();
        m.gc_done("job-0008").unwrap();
        drop(m);
        let text = std::fs::read_to_string(root.join(MANIFEST_FILE)).unwrap();
        let (m, jobs) = Manifest::open(&root).unwrap();
        assert_eq!(snapshot_json(&m.table), text, "open reads it back whole");
        assert_eq!(jobs.len(), 6);
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(
            (MANIFEST_FORMAT_REVISION, text.as_str()),
            (3, GOLDEN),
            "the manifest snapshot format changed: bump MANIFEST_FORMAT_REVISION and \
             re-pin this text in the same change"
        );
    }
}
