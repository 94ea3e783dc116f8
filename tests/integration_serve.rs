//! Integration of the serve daemon with the core search: a fixed-seed
//! job submitted through `datamime-served` must be bit-identical to the
//! same search run one-shot (modulo the informational `worker` field),
//! for both the thread and the process backend, while the admin plane
//! reports live evaluation and cache-hit counters.
//!
//! The daemon runs in-process on a background thread (core integration
//! tests cannot see another crate's binaries); the process-backend job
//! uses the real `datamime-worker` via `CARGO_BIN_EXE_datamime-worker`.

use datamime::jobspec::JobSpec;
use datamime::profiler::profile_workload;
use datamime::search::{search_with_runtime, SearchOutcome};
use datamime::servectl::{JobResult, JobState, ServeClient, SERVE_SOCKET};
use datamime_runtime::{replay, EvalRecord, FaultInjector, FaultPlan, TermSignal};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("datamime-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Blocks until the daemon thread answers on its socket.
fn wait_reachable(client: &ServeClient) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while client.list().is_err() {
        assert!(Instant::now() < deadline, "daemon never became reachable");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The exact search the one-shot CLI would run for this spec line.
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

/// Daemon result and journal vs the uninterrupted one-shot run: same
/// bits, same observations (`worker` ids excluded by `semantic_eq`).
fn assert_matches_one_shot(root: &Path, result: &JobResult, reference: &SearchOutcome, what: &str) {
    assert_eq!(
        result.best_error.to_bits(),
        reference.best_error.to_bits(),
        "{what}: best error"
    );
    let got: Vec<u64> = result.best_unit.iter().map(|u| u.to_bits()).collect();
    let want: Vec<u64> = reference
        .best_unit_params
        .iter()
        .map(|u| u.to_bits())
        .collect();
    assert_eq!(got, want, "{what}: best unit point");
    let daemon_journal = replay(&root.join(&result.journal)).unwrap();
    assert!(daemon_journal.complete, "{what}: journal completion");
    assert_eq!(
        daemon_journal.evals.len(),
        reference.history.len(),
        "{what}: journal length"
    );
}

fn stat(stats: &[(String, u64)], name: &str) -> u64 {
    stats.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
}

#[test]
fn daemon_jobs_are_bit_identical_to_one_shot_runs_on_both_backends() {
    let root = tmp_root("it");
    let sentinel = root.join("term.sentinel");
    let client = ServeClient::new(&root);

    let daemon = {
        let root = root.clone();
        let term = TermSignal::at(sentinel.clone());
        std::thread::spawn(move || datamime_serve::run(root, term))
    };
    wait_reachable(&client);

    // Thread-backend tenant: grid-quantized with enough iterations that
    // the optimizer re-suggests points and the memo cache gets hits.
    let thread_spec = "workload=mem-fb iters=48 seed=7 curves=false grid=4";
    // Process-backend tenant: same fixed-seed contract through real
    // datamime-worker processes. A request cannot name the worker
    // binary; the daemon (this process) finds it through
    // `DATAMIME_WORKER`, as the one-shot twin below does.
    std::env::set_var("DATAMIME_WORKER", env!("CARGO_BIN_EXE_datamime-worker"));
    let proc_spec = "workload=mem-fb iters=10 seed=9 curves=false grid=4 backend=proc";
    let thread_job = client.submit_line(thread_spec).unwrap();
    let proc_job = client.submit_line(proc_spec).unwrap();

    // The admin plane must report live counters while jobs are running.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let stats = client.stats().unwrap();
        if stat(&stats, "evals") > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no live eval counter appeared: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    for job in [&thread_job, &proc_job] {
        let status = client.wait(job, Duration::from_secs(600)).unwrap();
        assert_eq!(status.state, JobState::Done, "{job}");
    }

    let stats = client.stats().unwrap();
    assert!(stat(&stats, "evals") > 0, "evals counter: {stats:?}");
    assert!(
        stat(&stats, "cache_hits") > 0,
        "cache-hit counter: {stats:?}"
    );
    assert_eq!(stat(&stats, "jobs_submitted"), 2, "submissions: {stats:?}");
    assert_eq!(stat(&stats, "jobs_completed"), 2, "completions: {stats:?}");

    let thread_result = client.result(&thread_job).unwrap();
    let thread_ref = one_shot(thread_spec, &root.join("thread.reference.jsonl"));
    assert_matches_one_shot(&root, &thread_result, &thread_ref, "thread backend");
    // The daemon's status view agrees with the result once done.
    let status = client.status(&thread_job).unwrap();
    assert_eq!(
        status.best_error.to_bits(),
        thread_ref.best_error.to_bits(),
        "status best error"
    );
    // A memo hit reaches the job's sink as `on_eval` *and*
    // `on_cache_hit`; the status view must still count it once.
    let hits = replay(&root.join(&thread_result.journal))
        .unwrap()
        .evals
        .iter()
        .filter(|rec| rec.cached.is_some())
        .count();
    assert!(hits > 0, "the grid-quantised job never hit the memo");
    assert_eq!(status.evals, 48, "status evals with {hits} memo hits");

    let proc_result = client.result(&proc_job).unwrap();
    let proc_ref = one_shot(proc_spec, &root.join("proc.reference.jsonl"));
    assert_matches_one_shot(&root, &proc_result, &proc_ref, "process backend");

    assert!(client
        .admin("version")
        .unwrap()
        .starts_with("datamime-served "));
    assert_eq!(client.admin("shutdown").unwrap(), "OK draining\n");
    daemon.join().unwrap().unwrap();

    let _ = std::fs::remove_dir_all(&root);
}

fn health_stat(health: &str, name: &str) -> u64 {
    health
        .lines()
        .find_map(|l| l.strip_prefix(&format!("STAT {name} ")))
        .unwrap_or_else(|| panic!("health lacks {name}: {health}"))
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("health {name} is not a number: {health}"))
}

/// A `max_evals=` quota stop through the daemon: the job terminates
/// gracefully in the distinct `quota_exceeded` state, its best-so-far is
/// served and bit-identical to the one-shot quota stop, the `health`
/// command reports a healthy daemon, and the retention policy then
/// garbage-collects the oldest terminal job.
#[test]
fn quota_stops_health_reporting_and_retention() {
    let root = tmp_root("it2");
    let sentinel = root.join("term.sentinel");
    let client = ServeClient::new(&root);

    let daemon = {
        let root = root.clone();
        let term = TermSignal::at(sentinel.clone());
        let options = datamime_serve::ServeOptions {
            keep_terminal: Some(1),
            ..datamime_serve::ServeOptions::default()
        };
        std::thread::spawn(move || datamime_serve::run_with(root, term, options))
    };
    wait_reachable(&client);

    // 24 iterations, capped at 8 observations: the quota, not the
    // iteration budget, ends this search.
    let quota_spec = "workload=mem-fb iters=24 seed=5 curves=false grid=4 max_evals=8";
    let quota_job = client.submit_line(quota_spec).unwrap();
    let status = client.wait(&quota_job, Duration::from_secs(600)).unwrap();
    assert_eq!(status.state, JobState::QuotaExceeded, "{quota_job}");

    // The best-so-far is served, and it is the same best-so-far the
    // one-shot CLI reaches under the same quota.
    let result = client.result(&quota_job).unwrap();
    let reference = one_shot(quota_spec, &root.join("quota.reference.jsonl"));
    assert!(reference.quota.is_some(), "reference must also quota-stop");
    assert_eq!(
        result.best_error.to_bits(),
        reference.best_error.to_bits(),
        "quota best error"
    );
    let got: Vec<u64> = result.best_unit.iter().map(|u| u.to_bits()).collect();
    let want: Vec<u64> = reference
        .best_unit_params
        .iter()
        .map(|u| u.to_bits())
        .collect();
    assert_eq!(got, want, "quota best unit point");

    let stats = client.stats().unwrap();
    assert_eq!(
        stat(&stats, "jobs_quota_exceeded"),
        1,
        "quota counter: {stats:?}"
    );

    // The health dashboard reflects a healthy daemon.
    let health = client.admin("health").unwrap();
    assert!(health.ends_with("END\n"), "health terminates: {health}");
    assert_eq!(health_stat(&health, "read_only"), 0, "{health}");
    assert!(!health.contains("READONLY"), "not read-only: {health}");

    // A second terminal job pushes the first past the retention budget.
    let second = client
        .submit_line("workload=mem-fb iters=6 seed=3 curves=false grid=4")
        .unwrap();
    let status = client.wait(&second, Duration::from_secs(600)).unwrap();
    assert_eq!(status.state, JobState::Done, "{second}");
    let deadline = Instant::now() + Duration::from_secs(60);
    while client
        .list()
        .unwrap()
        .iter()
        .any(|(id, _)| id == &quota_job)
    {
        assert!(
            Instant::now() < deadline,
            "retention never collected {quota_job}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        !root.join("jobs").join(&quota_job).exists(),
        "GC removes the collected job's directory"
    );
    let health = client.admin("health").unwrap();
    assert_eq!(health_stat(&health, "jobs_gcd_total"), 1, "{health}");
    assert_eq!(health_stat(&health, "wal_pending_gc"), 0, "{health}");

    // Job ids never recycle, even though the GC'd job was the newest
    // number's predecessor.
    let third = client
        .submit_line("workload=mem-fb iters=6 seed=4 curves=false grid=4")
        .unwrap();
    assert_ne!(third, quota_job, "GC must not recycle job ids");
    let status = client.wait(&third, Duration::from_secs(600)).unwrap();
    assert_eq!(status.state, JobState::Done, "{third}");

    assert_eq!(client.admin("shutdown").unwrap(), "OK draining\n");
    daemon.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

/// A spec the search would panic on is refused at submit with an
/// `ERROR` naming the key — not a hang-up — and the daemon goes on to
/// run the next job to the one-shot result.
#[test]
fn hostile_specs_are_refused_and_the_daemon_keeps_serving() {
    let root = tmp_root("hostile");
    let client = ServeClient::new(&root);
    let daemon = {
        let root = root.clone();
        let term = TermSignal::at(root.join("term.sentinel"));
        std::thread::spawn(move || datamime_serve::run(root, term))
    };
    wait_reachable(&client);

    for (key, line) in [
        ("iters", "workload=mem-fb iters=0"),
        ("grid", "workload=mem-fb grid=0"),
        (
            "worker_bin",
            "workload=mem-fb iters=2 backend=proc worker_bin=/bin/true",
        ),
    ] {
        let err = client.submit_line(line).unwrap_err();
        assert!(err.contains(&format!("job-spec key `{key}`")), "{err}");
    }
    assert!(
        client.list().unwrap().is_empty(),
        "a refused spec made a job"
    );
    let health = client.admin("health").unwrap();
    assert!(health.ends_with("END\n"), "health terminates: {health}");

    let spec = "workload=mem-fb iters=6 seed=3 curves=false grid=4";
    let job = client.submit_line(spec).unwrap();
    let status = client.wait(&job, Duration::from_secs(600)).unwrap();
    assert_eq!(status.state, JobState::Done, "{job}");
    let result = client.result(&job).unwrap();
    let reference = one_shot(spec, &root.join("reference.jsonl"));
    assert_matches_one_shot(&root, &result, &reference, "after hostile submits");
    assert_eq!(stat(&client.stats().unwrap(), "jobs_submitted"), 1);

    assert_eq!(client.admin("shutdown").unwrap(), "OK draining\n");
    daemon.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

/// One exchange on a raw connection: write `request`, half-close, read
/// until the daemon hangs up. A refusal may hang up before an oversized
/// request is fully written, and the unread rest then ends the reply with
/// a reset instead of EOF — both are "closed".
fn raw_exchange(root: &Path, request: &[u8]) -> String {
    let mut conn = UnixStream::connect(root.join(SERVE_SOCKET)).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let _ = conn.write_all(request);
    let _ = conn.shutdown(std::net::Shutdown::Write);
    let mut reply = Vec::new();
    let mut chunk = [0u8; 4096];
    while let Ok(n @ 1..) = conn.read(&mut chunk) {
        reply.extend_from_slice(&chunk[..n]);
    }
    String::from_utf8(reply).unwrap()
}

/// The plane is one socket and one bounded line grammar: whatever bytes
/// arrive, the answer is one `ERROR` line and a closed connection, well
/// inside the request deadline, and the daemon keeps serving.
#[test]
fn malformed_requests_are_refused_on_the_one_socket() {
    let root = tmp_root("raw");
    let client = ServeClient::new(&root);
    let daemon = {
        let root = root.clone();
        let term = TermSignal::at(root.join("term.sentinel"));
        std::thread::spawn(move || datamime_serve::run(root, term))
    };
    wait_reachable(&client);

    let started = Instant::now();
    assert_eq!(
        raw_exchange(&root, b"status job-9999\n"),
        "ERROR no such job: job-9999\n"
    );
    let oversized = raw_exchange(&root, &vec![b'a'; 1 << 20]);
    assert!(
        oversized.starts_with("ERROR request longer than"),
        "{oversized}"
    );
    assert_eq!(
        raw_exchange(&root, b"status \xff\xfe\n"),
        "ERROR request is not UTF-8\n"
    );
    assert_eq!(
        raw_exchange(&root, b"frobnicate now\n"),
        "ERROR unknown command `frobnicate`\n"
    );
    assert_eq!(
        raw_exchange(&root, b"status\n"),
        "ERROR status takes one job id\n"
    );
    assert_eq!(
        raw_exchange(&root, b"list all\n"),
        "ERROR list takes no argument\n"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "refusals took {:?}",
        started.elapsed()
    );
    // The typed client surfaces the same refusal as an error.
    assert_eq!(
        client.status("job-9999").unwrap_err(),
        "no such job: job-9999"
    );

    let health = raw_exchange(&root, b"health\n");
    assert!(health.ends_with("END\n"), "health terminates: {health}");
    let sockets: Vec<_> = std::fs::read_dir(&root)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".sock"))
        .collect();
    assert_eq!(sockets, [SERVE_SOCKET], "one socket under the root");

    assert_eq!(client.admin("shutdown").unwrap(), "OK draining\n");
    daemon.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

/// Starts a daemon under `options` on a fresh root.
fn start(
    tag: &str,
    options: datamime_serve::ServeOptions,
) -> (
    PathBuf,
    ServeClient,
    std::thread::JoinHandle<Result<(), String>>,
) {
    let root = tmp_root(tag);
    let client = ServeClient::new(&root);
    let daemon = {
        let root = root.clone();
        let term = TermSignal::at(root.join("term.sentinel"));
        std::thread::spawn(move || datamime_serve::run_with(root, term, options))
    };
    wait_reachable(&client);
    (root, client, daemon)
}

/// Runs one job to `done`; returns its journal's observations.
fn run_to_done(root: &Path, client: &ServeClient, spec: &str) -> Vec<EvalRecord> {
    let job = client.submit_line(spec).unwrap();
    let status = client.wait(&job, Duration::from_secs(600)).unwrap();
    assert_eq!(status.state, JobState::Done, "{job}");
    let journal = replay(&root.join(client.result(&job).unwrap().journal)).unwrap();
    assert!(journal.complete, "{job}");
    journal.evals
}

fn assert_same_observations(a: &[EvalRecord], b: &[EvalRecord], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (x, y) in a.iter().zip(b) {
        assert!(x.semantic_eq(y), "{what}:\n{x:?}\n{y:?}");
    }
}

/// Observations the job dispatched to an evaluation (not memo hits).
fn dispatched(evals: &[EvalRecord]) -> Vec<&EvalRecord> {
    evals.iter().filter(|r| r.cached.is_none()).collect()
}

/// The same job twice: the second is served entirely from the daemon's
/// profile store — its target and every evaluation it dispatches, none of
/// which builds a dataset or runs the simulator — and observes exactly
/// what the first job and the one-shot run observe.
#[test]
fn a_repeated_job_runs_no_simulator() {
    let (root, client, daemon) = start("store", datamime_serve::ServeOptions::default());
    let spec = "workload=mem-fb iters=12 curves=false grid=3 batch=2 seed=21";
    let first = run_to_done(&root, &client, spec);
    let cold = stat(&client.stats().unwrap(), "profile_reuses");
    let second = run_to_done(&root, &client, spec);
    let stats = client.stats().unwrap();

    let fresh = dispatched(&second);
    assert_eq!(
        stat(&stats, "profile_reuses") - cold,
        fresh.len() as u64 + 1,
        "every dispatched evaluation and the target were reused: {stats:?}"
    );
    for rec in fresh {
        let stages: Vec<&str> = rec.stage_ms.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(stages, ["instantiate", "error"], "index {}", rec.index);
    }
    assert!(stat(&stats, "profile_store_entries") > 0, "{stats:?}");
    assert_same_observations(&second, &first, "job two vs job one");
    let reference = one_shot(spec, &root.join("reference.jsonl"));
    let twin = replay(&root.join("reference.jsonl")).unwrap().evals;
    assert_eq!(reference.history.len(), twin.len());
    assert_same_observations(&second, &twin, "job two vs its one-shot twin");

    assert_eq!(client.admin("shutdown").unwrap(), "OK draining\n");
    daemon.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

/// Same generator and seed, another target: the GP's initial design is
/// the same points, so the second job reuses at least those profiles —
/// and, scoring them against its own target, still observes exactly what
/// its one-shot twin does.
#[test]
fn another_target_reuses_the_initial_design() {
    let (root, client, daemon) = start("design", datamime_serve::ServeOptions::default());
    run_to_done(
        &root,
        &client,
        "workload=mem-fb iters=13 curves=false seed=8",
    );
    let cold = stat(&client.stats().unwrap(), "profile_reuses");
    let spec = "workload=mem-twtr iters=13 curves=false seed=8";
    let second = run_to_done(&root, &client, spec);
    // The memcached generator has six dimensions: twelve initial points.
    let reused = stat(&client.stats().unwrap(), "profile_reuses") - cold;
    assert!(reused >= 12, "reused {reused} profiles");
    one_shot(spec, &root.join("reference.jsonl"));
    let twin = replay(&root.join("reference.jsonl")).unwrap().evals;
    assert_same_observations(&second, &twin, "job two vs its one-shot twin");

    assert_eq!(client.admin("shutdown").unwrap(), "OK draining\n");
    daemon.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

/// The journal's `attempt` events, in order.
fn attempt_lines(root: &Path, evals_of: &str) -> Vec<String> {
    std::fs::read_to_string(root.join("jobs").join(evals_of).join("journal.jsonl"))
        .unwrap()
        .lines()
        .filter(|l| l.contains("\"event\":\"attempt\""))
        .map(str::to_string)
        .collect()
}

/// A store hit happens inside the supervised attempt, after the fault
/// plan has had its say: a warm store fails exactly the attempts a cold
/// one does, and journals the same records.
#[test]
fn a_warm_store_fails_the_same_attempts_as_a_cold_one() {
    let options = datamime_serve::ServeOptions {
        faults: FaultInjector::new(FaultPlan::from_spec("eval:1:panic;eval:3:nan").unwrap()),
        ..datamime_serve::ServeOptions::default()
    };
    let (root, client, daemon) = start("store-faults", options);
    let spec = "workload=mem-fb iters=6 curves=false seed=3";
    let cold = run_to_done(&root, &client, spec);
    let before = stat(&client.stats().unwrap(), "profile_reuses");
    let warm = run_to_done(&root, &client, spec);
    let reused = stat(&client.stats().unwrap(), "profile_reuses") - before;
    assert_eq!(reused, 4 + 1, "four healthy evaluations and the target");

    assert_same_observations(&warm, &cold, "warm vs cold");
    let faulted: Vec<usize> = warm
        .iter()
        .filter(|r| r.fault.is_some())
        .map(|r| r.index)
        .collect();
    assert_eq!(faulted, [1, 3]);
    let (cold_attempts, warm_attempts) = (
        attempt_lines(&root, "job-0001"),
        attempt_lines(&root, "job-0002"),
    );
    assert_eq!(cold_attempts.len(), 2, "{cold_attempts:?}");
    assert_eq!(warm_attempts, cold_attempts);

    assert_eq!(client.admin("shutdown").unwrap(), "OK draining\n");
    daemon.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

/// A sequential thread job gets two lanes in the daemon: its journal
/// header says so, its initial design runs two points at a time, and
/// still every record is its one-shot twin's (one lane), and its memo
/// hits and store reuses are those of the same job held to one lane.
#[test]
fn a_sequential_job_runs_its_design_on_two_lanes() {
    let spec = "workload=mem-fb iters=14 curves=false grid=3 seed=5";
    let (root, client, daemon) = start("lanes", datamime_serve::ServeOptions::default());
    let evals = run_to_done(&root, &client, spec);
    let header = replay(&root.join("jobs/job-0001/journal.jsonl"))
        .unwrap()
        .meta;
    assert_eq!((header.batch_k, header.workers), (1, 2));
    let stats = client.stats().unwrap();
    assert_eq!(client.admin("shutdown").unwrap(), "OK draining\n");
    daemon.join().unwrap().unwrap();

    one_shot(spec, &root.join("reference.jsonl"));
    let twin = replay(&root.join("reference.jsonl")).unwrap();
    assert_eq!(twin.meta.workers, 1, "one-shot runs keep workers = batch");
    assert_same_observations(&evals, &twin.evals, "two lanes vs its one-shot twin");

    let (one_root, one_client, one_daemon) =
        start("one-lane", datamime_serve::ServeOptions::default());
    let one_lane = run_to_done(&one_root, &one_client, &format!("{spec} workers=1"));
    let one_stats = one_client.stats().unwrap();
    assert_eq!(one_client.admin("shutdown").unwrap(), "OK draining\n");
    one_daemon.join().unwrap().unwrap();
    assert_same_observations(&evals, &one_lane, "two lanes vs one");
    for name in ["evals", "cache_hits", "profile_reuses"] {
        assert_eq!(
            stat(&stats, name),
            stat(&one_stats, name),
            "{name}: {stats:?} vs {one_stats:?}"
        );
    }
    assert!(stat(&stats, "cache_hits") > 0, "{stats:?}");
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&one_root);
}
