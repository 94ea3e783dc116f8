//! Crash-resume integration for `datamime-served`: submit two fixed-seed
//! jobs, SIGKILL the daemon while both are mid-run, restart it on the
//! same state root, and assert both jobs complete with results and
//! journals semantically identical to uninterrupted one-shot runs.
//!
//! `DATAMIME_TERM_SENTINEL` is set explicitly when spawning the daemon,
//! which disables the `/bin/sh` termination trampoline — the SIGKILL
//! therefore hits the real daemon process, exactly the crash the
//! manifest and journals exist to survive.

use datamime::jobspec::JobSpec;
use datamime::profiler::profile_workload;
use datamime::search::{search_with_runtime, SearchOutcome};
use datamime::servectl::{JobState, ServeClient};
use datamime_runtime::{replay, TERM_SENTINEL_ENV};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Two tenants, same workload, different seeds — cheap enough to finish
/// in test time, long enough that the SIGKILL lands mid-run.
const SPECS: [&str; 2] = [
    "workload=mem-fb iters=24 seed=7 curves=false grid=4",
    "workload=mem-fb iters=24 seed=11 curves=false grid=4",
];

fn tmp_root() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("datamime-serve-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_daemon(root: &Path, sentinel: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_datamime-served"))
        .arg("--root")
        .arg(root)
        .env(TERM_SENTINEL_ENV, sentinel)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn datamime-served")
}

fn await_ready(client: &ServeClient) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while client.list().is_err() {
        assert!(Instant::now() < deadline, "daemon never became reachable");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The uninterrupted reference: the exact search the one-shot CLI would
/// run for this spec line, journaled to `journal`.
fn one_shot(spec_line: &str, journal: &Path) -> SearchOutcome {
    let spec = JobSpec::parse(spec_line).unwrap();
    let target = spec.target().unwrap();
    let cfg = spec.search_config().unwrap();
    let generator = spec.generator().unwrap();
    let mut opts = spec.runtime_options();
    opts.journal = Some(journal.to_path_buf());
    let profile = profile_workload(&target, &cfg.machine, &cfg.profiling);
    search_with_runtime(generator.as_ref(), &profile, &cfg, &opts).unwrap()
}

#[test]
fn sigkilled_daemon_resumes_all_jobs_to_identical_results() {
    let root = tmp_root();
    let sentinel = root.join("term.sentinel");
    let client = ServeClient::new(&root);

    let mut daemon = start_daemon(&root, &sentinel);
    await_ready(&client);
    let jobs: Vec<String> = SPECS
        .iter()
        .map(|s| client.submit_line(s).unwrap())
        .collect();

    // Let both jobs make real progress, then SIGKILL the daemon mid-run.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let statuses: Vec<_> = jobs.iter().map(|j| client.status(j).unwrap()).collect();
        assert!(
            statuses.iter().all(|s| !s.state.is_terminal()),
            "a job finished before the crash point — raise iters: {statuses:?}"
        );
        if statuses.iter().all(|s| s.evals >= 4) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "jobs made no progress before the crash point: {statuses:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    daemon.kill().unwrap();
    daemon.wait().unwrap();

    // Make the worst case certain for one job: the SIGKILL landed mid-write
    // and left half of its last journal line.
    let torn = root.join("jobs").join(&jobs[0]).join("journal.jsonl");
    let text = std::fs::read_to_string(&torn).unwrap();
    let last = text.lines().last().unwrap().len();
    std::fs::write(&torn, &text[..text.len() - 1 - last / 2]).unwrap();

    // Restart on the same root: the manifest is read back and both in-flight
    // jobs resume from their journals.
    let mut daemon = start_daemon(&root, &sentinel);
    await_ready(&client);
    for job in &jobs {
        let status = client.wait(job, Duration::from_secs(600)).unwrap();
        assert_eq!(status.state, JobState::Done, "{job} after restart");
    }
    let resumed: Vec<_> = jobs.iter().map(|j| client.result(j).unwrap()).collect();

    let stats = client.stats().unwrap();
    let resumed_count = stats
        .iter()
        .find(|(name, _)| name == "jobs_resumed")
        .map_or(0, |(_, v)| *v);
    assert_eq!(resumed_count, 2, "both in-flight jobs resumed: {stats:?}");

    for ((spec, job), result) in SPECS.iter().zip(&jobs).zip(&resumed) {
        let ref_journal = root.join(format!("{job}.reference.jsonl"));
        let reference = one_shot(spec, &ref_journal);
        assert_eq!(
            result.best_error.to_bits(),
            reference.best_error.to_bits(),
            "{job}: best error after crash-resume"
        );
        let got: Vec<u64> = result.best_unit.iter().map(|u| u.to_bits()).collect();
        let want: Vec<u64> = reference
            .best_unit_params
            .iter()
            .map(|u| u.to_bits())
            .collect();
        assert_eq!(got, want, "{job}: best unit point after crash-resume");

        let daemon_journal = replay(&root.join(&result.journal)).unwrap();
        let ref_replay = replay(&ref_journal).unwrap();
        assert!(daemon_journal.complete, "{job}: journal records completion");
        assert_eq!(daemon_journal.dropped_lines, 0, "{job}: journal is whole");
        assert!(
            !root
                .join("jobs")
                .join(job)
                .join("journal.resume.jsonl")
                .exists(),
            "{job}: resume goes through no sidecar"
        );
        assert_eq!(
            daemon_journal.evals.len(),
            ref_replay.evals.len(),
            "{job}: journal length"
        );
        for (a, b) in daemon_journal.evals.iter().zip(&ref_replay.evals) {
            assert!(
                a.semantic_eq(b),
                "{job}: journal diverges at {}: {a:?} vs {b:?}",
                a.index
            );
        }
    }

    // Graceful shutdown of the restarted daemon: drain and exit 0.
    assert_eq!(client.admin("shutdown").unwrap(), "OK draining\n");
    let status = daemon.wait().unwrap();
    assert!(status.success(), "drained daemon exits 0, got {status:?}");

    let _ = std::fs::remove_dir_all(&root);
}
