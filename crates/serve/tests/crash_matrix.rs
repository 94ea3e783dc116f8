//! The crash-matrix torture harness (`--features faultinject`).
//!
//! Each case arms `datamime-served` with a deterministic `--fault` plan
//! whose `crash` faults abort the process (no unwinding — bit-for-bit a
//! SIGKILL) at one exact durability boundary: the Nth manifest write, a
//! GC directory removal. The daemon
//! is then restarted *without* faults on the same state root and must
//! satisfy the durability contract:
//!
//! - every job whose submission was acknowledged is still known;
//! - every known job runs (or resumes) to `done` with a best error and
//!   best unit point bit-identical to an uninterrupted one-shot run of
//!   the same spec;
//! - a half-done GC is finished, never half-remembered.
//!
//! The matrix runs the thread backend across every manifest write and
//! repeats a representative one on the process backend. Separate cases cover
//! quota stops resuming bit-identically through a mid-run crash, and
//! injected ENOSPC flipping the daemon into draining read-only mode.

#![cfg(feature = "faultinject")]

use datamime::jobspec::{JobBackend, JobSpec};
use datamime::profiler::profile_workload;
use datamime::search::{search_with_runtime, SearchOutcome};
use datamime::servectl::{JobState, ServeClient};
use datamime_runtime::{replay, QuotaCause, TERM_SENTINEL_ENV};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Cheap fixed-seed specs: small enough that a full matrix stays in test
/// time, long enough that mid-run crash points land mid-run.
const SPECS: [&str; 2] = [
    "workload=mem-fb iters=10 seed=7 curves=false grid=3",
    "workload=mem-fb iters=10 seed=11 curves=false grid=3",
];

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("datamime-crashmx-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawns the daemon with the termination trampoline disabled (so an
/// injected abort is the process dying, not a shell) and an optional
/// `--fault` spec.
fn start_daemon(root: &Path, args: &[&str], fault: Option<&str>) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_datamime-served"));
    cmd.arg("--root")
        .arg(root)
        .env(TERM_SENTINEL_ENV, root.join("term.sentinel"))
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for a in args {
        cmd.arg(a);
    }
    if let Some(spec) = fault {
        cmd.arg("--fault").arg(spec);
    }
    cmd.spawn().expect("spawn datamime-served")
}

fn await_ready(client: &ServeClient, daemon: &mut Child) -> bool {
    let deadline = Instant::now() + Duration::from_secs(30);
    while client.list().is_err() {
        if daemon.try_wait().expect("poll daemon").is_some() {
            return false; // died (at an injected boundary) before binding
        }
        assert!(Instant::now() < deadline, "daemon never became reachable");
        std::thread::sleep(Duration::from_millis(20));
    }
    true
}

/// Waits for the daemon to hit its injected crash boundary and die.
fn await_death(daemon: &mut Child) {
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        if daemon.try_wait().expect("poll daemon").is_some() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never reached its injected crash boundary"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The uninterrupted reference outcome for a spec line. A process
/// backend spec runs the worker the daemon runs: the one beside it.
fn one_shot(spec_line: &str) -> SearchOutcome {
    let mut spec = JobSpec::parse(spec_line).unwrap();
    if spec.backend == JobBackend::Proc {
        spec.worker_bin = Some(ensure_worker_built());
    }
    let target = spec.target().unwrap();
    let cfg = spec.search_config().unwrap();
    let generator = spec.generator().unwrap();
    let opts = spec.runtime_options();
    let profile = profile_workload(&target, &cfg.machine, &cfg.profiling);
    search_with_runtime(generator.as_ref(), &profile, &cfg, &opts).unwrap()
}

fn assert_bit_identical(job: &str, client: &ServeClient, reference: &SearchOutcome) {
    let result = client.result(job).expect("result after recovery");
    assert_eq!(
        result.best_error.to_bits(),
        reference.best_error.to_bits(),
        "{job}: best error after crash recovery"
    );
    let got: Vec<u64> = result.best_unit.iter().map(|u| u.to_bits()).collect();
    let want: Vec<u64> = reference
        .best_unit_params
        .iter()
        .map(|u| u.to_bits())
        .collect();
    assert_eq!(got, want, "{job}: best unit point after crash recovery");
}

/// One matrix cell: crash the daemon at `fault`, restart clean, and
/// check the durability contract for every acknowledged job. `specs`
/// parameterizes the backend.
fn run_cell(tag: &str, fault: &str, specs: &[String]) {
    let root = tmp_root(tag);
    let client = ServeClient::new(&root);

    let mut daemon = start_daemon(&root, &[], Some(fault));
    let mut acked: Vec<(String, String)> = Vec::new();
    if await_ready(&client, &mut daemon) {
        for spec in specs {
            match client.submit_line(spec) {
                Ok(job) => acked.push((job, spec.clone())),
                Err(_) => break, // daemon hit its boundary mid-submit
            }
        }
        await_death(&mut daemon);
    }
    daemon.wait().expect("reap crashed daemon");

    // Recovery run: no faults, same root.
    let mut daemon = start_daemon(&root, &[], None);
    assert!(
        await_ready(&client, &mut daemon),
        "{tag}: recovery daemon must come up after a crash at `{fault}`"
    );
    let listed = client.list().expect("list after recovery");
    for (job, _) in &acked {
        assert!(
            listed.iter().any(|(id, _)| id == job),
            "{tag}: acknowledged {job} lost after crash at `{fault}`: {listed:?}"
        );
    }
    for (job, spec) in &acked {
        let status = client.wait(job, Duration::from_secs(600)).expect("wait");
        assert_eq!(
            status.state,
            JobState::Done,
            "{tag}: {job} after crash at `{fault}`"
        );
        assert_bit_identical(job, &client, &one_shot(spec));
    }

    assert_eq!(client.admin("shutdown").unwrap(), "OK draining\n");
    let status = daemon.wait().unwrap();
    assert!(status.success(), "recovery daemon exits 0, got {status:?}");
    let _ = std::fs::remove_dir_all(&root);
}

/// Thread backend, the full matrix: every manifest write the two-job
/// script reaches (2 submits + 2 starts + 2 dones).
#[test]
fn crash_matrix_thread_backend() {
    let specs: Vec<String> = SPECS.iter().map(|s| s.to_string()).collect();
    for nth in 0..6 {
        run_cell(
            &format!("manifest-{nth}"),
            &format!("manifest:{nth}:crash"),
            &specs,
        );
    }
    // The GC boundaries (intent write, directory removal) are covered
    // by `gc_retention_is_enforced_and_reported_after_recovery`: a GC'd
    // job is *supposed* to vanish, so the keep-everything contract this
    // cell asserts does not apply there.
}

/// Process backend: a representative boundary (a mid-lifecycle manifest
/// write). Worker crashes are already covered by
/// the runtime's own supervision tests; here the daemon process is the
/// one that dies.
#[test]
fn crash_matrix_proc_backend() {
    // The daemon refuses `worker_bin=`; it runs the worker beside it.
    ensure_worker_built();
    let specs: Vec<String> = SPECS
        .iter()
        .map(|s| format!("{s} backend=proc workers=2"))
        .collect();
    run_cell("proc-manifest-3", "manifest:3:crash", &specs);
}

/// Resolves (building if necessary) the `datamime-worker` binary the
/// process backend execs. It lives in the same target directory as the
/// daemon binary under test.
fn ensure_worker_built() -> PathBuf {
    let worker = Path::new(env!("CARGO_BIN_EXE_datamime-served"))
        .parent()
        .expect("binary dir")
        .join("datamime-worker");
    if !worker.exists() {
        let status = Command::new(env!("CARGO"))
            .args(["build", "-q", "-p", "datamime", "--bin", "datamime-worker"])
            .status()
            .expect("run cargo build for datamime-worker");
        assert!(status.success(), "building datamime-worker failed");
    }
    assert!(
        worker.exists(),
        "datamime-worker not found at {worker:?} after building"
    );
    worker
}

/// A fixed-seed `max_evals=` job crash-resumes to the same quota stop:
/// same terminal state, same cause, and a best-so-far bit-identical to
/// the uninterrupted run. The crash point is a mid-run journal append,
/// so the quota accounting itself is interrupted and must re-derive the
/// observation count from the replayed journal.
#[test]
fn quota_stop_survives_crash_resume_bit_identically() {
    let spec = "workload=mem-fb iters=24 seed=7 curves=false grid=3 max_evals=12";
    let reference = one_shot(spec);
    assert_eq!(
        reference.quota,
        Some(QuotaCause::MaxEvals),
        "reference run must stop on quota, not finish — lower max_evals"
    );

    let root = tmp_root("quota-crash");
    let client = ServeClient::new(&root);
    let mut daemon = start_daemon(&root, &[], Some("journal:6:crash"));
    assert!(await_ready(&client, &mut daemon));
    let job = client.submit_line(spec).expect("submit quota job");
    await_death(&mut daemon);
    daemon.wait().expect("reap crashed daemon");

    let mut daemon = start_daemon(&root, &[], None);
    assert!(await_ready(&client, &mut daemon));
    let status = client.wait(&job, Duration::from_secs(600)).expect("wait");
    assert_eq!(status.state, JobState::QuotaExceeded, "{job} after resume");
    assert_bit_identical(&job, &client, &reference);

    assert_eq!(client.admin("shutdown").unwrap(), "OK draining\n");
    assert!(daemon.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&root);
}

/// A sequential job runs its initial design two points at a time in the
/// daemon. Killed between the two journal appends of one such pair —
/// both points evaluated, one committed — the job resumes to the
/// one-shot run's bits, and its journal to the one-shot records.
#[test]
fn a_crash_inside_a_paired_design_batch_resumes_bit_identically() {
    let spec = SPECS[0];
    let reference = one_shot(spec);
    let root = tmp_root("pair-crash");
    let client = ServeClient::new(&root);
    // Journal appends after the header count from 0, so append 3 is the
    // fourth observation: the second of the pair (2, 3), as no memo hit
    // among the first five reshapes the pairs (asserted below).
    let mut daemon = start_daemon(&root, &[], Some("journal:3:crash"));
    assert!(await_ready(&client, &mut daemon));
    let job = client.submit_line(spec).expect("submit");
    await_death(&mut daemon);
    daemon.wait().expect("reap crashed daemon");
    let journal = root.join("jobs").join(&job).join("journal.jsonl");
    let cut = replay(&journal).expect("journal after the crash");
    assert_eq!((cut.meta.batch_k, cut.meta.workers), (1, 2));
    assert_eq!(cut.evals.len(), 3, "the crash lands inside the pair");

    let mut daemon = start_daemon(&root, &[], None);
    assert!(await_ready(&client, &mut daemon));
    let status = client.wait(&job, Duration::from_secs(600)).expect("wait");
    assert_eq!(status.state, JobState::Done, "{job} after resume");
    assert_bit_identical(&job, &client, &reference);
    let resumed = replay(&journal).expect("journal after resume");
    assert!(resumed.complete);
    assert!(resumed.evals[..5].iter().all(|r| r.cached.is_none()));
    assert_eq!(resumed.evals.len(), reference.history.len());
    for (rec, want) in resumed.evals.iter().zip(&reference.history) {
        assert_eq!(rec.error.to_bits(), want.error.to_bits(), "{}", rec.index);
        let bits = |u: &[f64]| u.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rec.unit), bits(&want.unit_params), "{}", rec.index);
    }

    assert_eq!(client.admin("shutdown").unwrap(), "OK draining\n");
    assert!(daemon.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&root);
}

/// Injected ENOSPC on the `done` write: the daemon must not panic and
/// must not serve a result whose terminal event was never fsynced.
/// Instead it drains into read-only mode — the job fails loudly, new
/// submissions are refused, status/health stay up, and shutdown is
/// still graceful.
#[test]
fn enospc_drains_the_daemon_read_only() {
    let root = tmp_root("enospc");
    let client = ServeClient::new(&root);
    // Single job: manifest write 0 = submit, 1 = start, 2 = done.
    let mut daemon = start_daemon(&root, &[], Some("manifest:2:enospc"));
    assert!(await_ready(&client, &mut daemon));
    let job = client.submit_line(SPECS[0]).expect("submit");

    let status = client.wait(&job, Duration::from_secs(600)).expect("wait");
    assert_eq!(
        status.state,
        JobState::Failed,
        "{job}: an unacknowledged `done` must fail the job, not serve it"
    );
    let err = client.result(&job).expect_err("no result may be served");
    assert!(
        err.contains("failed"),
        "result refusal names the state: {err}"
    );

    // The daemon survives in read-only mode and says so everywhere.
    let health = client.admin("health").expect("health while read-only");
    assert!(
        health.contains("STAT read_only 1\n") && health.contains("READONLY "),
        "health reports the read-only state: {health}"
    );
    let refused = client
        .submit_line(SPECS[1])
        .expect_err("submissions are refused while read-only");
    assert!(refused.contains("read-only"), "refusal says why: {refused}");
    assert!(client.status(&job).is_ok(), "status stays up");

    assert_eq!(client.admin("shutdown").unwrap(), "OK draining\n");
    let status = daemon.wait().unwrap();
    assert!(status.success(), "read-only daemon drains and exits 0");
    let _ = std::fs::remove_dir_all(&root);
}

/// Retention bookkeeping survives the full crash cycle: after recovery
/// from a crash at either GC boundary, re-listing shows at most `keep`
/// terminal jobs and `health` counts the collected ones.
#[test]
fn gc_retention_is_enforced_and_reported_after_recovery() {
    // Both phase boundaries of the two-phase delete: the directory
    // removal (intent already durable — recovery must finish it) and the
    // intent write itself (nothing durable — recovery re-decides GC).
    gc_retention_cell("gcdir-crash", "gcdir:0:crash");
    gc_retention_cell("gcintent-crash", "manifest:6:crash");
}

fn gc_retention_cell(tag: &str, fault: &str) {
    let specs: Vec<String> = SPECS.iter().map(|s| s.to_string()).collect();
    let root = tmp_root(tag);
    let client = ServeClient::new(&root);
    let args = ["--keep-terminal", "1"];

    let mut daemon = start_daemon(&root, &args, Some(fault));
    assert!(await_ready(&client, &mut daemon));
    for spec in &specs {
        client.submit_line(spec).expect("submit");
    }
    // The daemon aborts at the injected GC boundary after the second job
    // turns terminal.
    await_death(&mut daemon);
    daemon.wait().expect("reap crashed daemon");

    let mut daemon = start_daemon(&root, &args, None);
    assert!(await_ready(&client, &mut daemon));
    // Recovery finishes the pending intent; whichever job survives the
    // retention policy still completes.
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        let listed = client.list().expect("list");
        let terminal = listed
            .iter()
            .filter(|(_, s)| JobState::parse(s).is_some_and(JobState::is_terminal))
            .count();
        if terminal == listed.len() && !listed.is_empty() {
            assert!(
                listed.len() <= 1,
                "retention keeps at most one terminal job: {listed:?}"
            );
            break;
        }
        assert!(Instant::now() < deadline, "jobs never settled: {listed:?}");
        std::thread::sleep(Duration::from_millis(50));
    }
    let health = client.admin("health").expect("health");
    let gcd: u64 = health
        .lines()
        .find_map(|l| l.strip_prefix("STAT jobs_gcd_total "))
        .expect("health reports jobs_gcd_total")
        .trim()
        .parse()
        .expect("gcd count parses");
    assert!(gcd >= 1, "at least one job was collected: {health}");
    assert!(
        health.contains("STAT wal_pending_gc 0\n"),
        "no GC intent left pending after recovery: {health}"
    );

    assert_eq!(client.admin("shutdown").unwrap(), "OK draining\n");
    assert!(daemon.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&root);
}
