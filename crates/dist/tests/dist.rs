//! Broker/worker integration tests, driven through the `dist-worker-stub`
//! test binary (built by cargo alongside this test and located via
//! `CARGO_BIN_EXE_dist-worker-stub`).

use datamime_dist::{
    read_frame, write_frame, Broker, BrokerConfig, Frame, WorkerConfig, PROTOCOL_VERSION,
};
use datamime_runtime::supervisor::{FailPolicy, FailureKind};
use datamime_runtime::{Backend, EvalFault, FaultPlan};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn stub_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_dist-worker-stub"))
}

/// The stub's objective, duplicated so tests can assert exact bits.
fn objective(unit: &[f64]) -> f64 {
    unit.iter()
        .enumerate()
        .map(|(i, x)| {
            let target = 0.25 * (i as f64 + 1.0);
            (x - target) * (x - target)
        })
        .sum()
}

fn base_cfg(workers: usize) -> BrokerConfig {
    let mut cfg = BrokerConfig::new(stub_bin(), workers);
    cfg.seed = 42;
    cfg
}

fn batch(n: usize) -> Vec<(usize, Vec<f64>)> {
    (0..n)
        .map(|i| (i, vec![0.1 + 0.07 * i as f64, 0.9 - 0.05 * i as f64]))
        .collect()
}

#[test]
fn happy_path_returns_exact_bits_in_job_order() {
    let mut broker = Broker::start(base_cfg(2)).expect("broker start");
    let jobs = batch(5);
    let out = broker
        .evaluate_batch(&jobs, &mut |a| panic!("unexpected failed attempt: {a:?}"))
        .expect("batch");
    assert_eq!(out.len(), jobs.len());
    for (verdict, (_, unit)) in out.iter().zip(&jobs) {
        assert_eq!(verdict.error.to_bits(), objective(unit).to_bits());
        assert!(verdict.fault.is_none());
        assert!(verdict.worker.is_some(), "proc verdicts carry a worker id");
    }
}

#[test]
fn version_skewed_worker_is_rejected_with_a_clear_error_not_a_hang() {
    let mut cfg = base_cfg(1);
    cfg.worker_args = vec!["--bad-version".to_string()];
    cfg.restart_budget = 0;
    let mut broker = Broker::start(cfg).expect("broker start");
    let err = broker
        .evaluate_batch(&batch(1), &mut |_| {})
        .expect_err("skewed worker must fail the batch");
    assert!(
        err.contains("protocol") && err.contains("rebuild or repoint"),
        "unhelpful version-skew error: {err}"
    );
}

#[test]
fn identity_skewed_worker_is_rejected() {
    let mut cfg = base_cfg(1);
    cfg.worker_args = vec!["--bad-identity".to_string()];
    cfg.restart_budget = 0;
    let mut broker = Broker::start(cfg).expect("broker start");
    let err = broker
        .evaluate_batch(&batch(1), &mut |_| {})
        .expect_err("identity-skewed worker must fail the batch");
    assert!(err.contains("identity"), "unhelpful identity error: {err}");
}

#[test]
fn context_skewed_worker_is_rejected() {
    let mut cfg = base_cfg(1);
    cfg.ctx_fingerprint = 7;
    cfg.worker_args = vec!["--ctx".to_string(), "8".to_string()];
    cfg.restart_budget = 0;
    let mut broker = Broker::start(cfg).expect("broker start");
    let err = broker
        .evaluate_batch(&batch(1), &mut |_| {})
        .expect_err("context-skewed worker must fail the batch");
    assert!(
        err.contains("context fingerprint"),
        "unhelpful context error: {err}"
    );
}

#[test]
fn killed_worker_is_respawned_and_the_point_redispatched_transparently() {
    // Index 1 aborts the worker on its first dispatch only; the respawned
    // worker answers the re-dispatch. No supervision attempt is consumed.
    let mut cfg = base_cfg(2);
    cfg.worker_args = vec!["--fault".to_string(), "eval:1:kill@1".to_string()];
    let mut attempts = 0usize;
    let jobs = batch(4);
    let mut broker = Broker::start(cfg).expect("broker start");
    let out = broker
        .evaluate_batch(&jobs, &mut |_| attempts += 1)
        .expect("batch survives the crash");
    assert_eq!(attempts, 0, "worker death must not consume retries");
    for (verdict, (_, unit)) in out.iter().zip(&jobs) {
        assert_eq!(verdict.error.to_bits(), objective(unit).to_bits());
        assert!(verdict.fault.is_none());
    }
}

#[test]
fn unbounded_kills_exhaust_the_redispatch_budget_into_worker_lost() {
    let mut cfg = base_cfg(1);
    cfg.worker_args = vec!["--fault".to_string(), "eval:0:kill".to_string()];
    cfg.redispatch_budget = 2;
    cfg.restart_budget = 10;
    let mut broker = Broker::start(cfg).expect("broker start");
    let out = broker
        .evaluate_batch(&batch(1), &mut |_| {})
        .expect("penalized, not errored");
    let fault = out[0].fault.as_ref().expect("final verdict is a fault");
    assert_eq!(fault.kind, FailureKind::WorkerLost);
    // `base_cfg` leaves the penalty at `BrokerConfig::new`'s default, which
    // must be what the thread backend's supervisor observes for the same
    // failure — a journal written by either backend replays under the other.
    assert_eq!(
        out[0].error,
        datamime_runtime::SupervisorConfig::default().penalty
    );
}

#[test]
fn injected_panic_retries_then_penalizes_like_the_supervisor() {
    let mut cfg = base_cfg(1);
    cfg.worker_args = vec!["--fault".to_string(), "eval:0:panic".to_string()];
    cfg.max_retries = 1;
    cfg.backoff_base = Duration::from_millis(1);
    cfg.fail_policy = FailPolicy::Penalize;
    let mut seen = Vec::new();
    let mut broker = Broker::start(cfg).expect("broker start");
    let out = broker
        .evaluate_batch(&batch(1), &mut |a| seen.push((a.attempt, a.kind)))
        .expect("penalized, not errored");
    assert_eq!(seen, vec![(0, FailureKind::Panic), (1, FailureKind::Panic)]);
    let fault = out[0].fault.as_ref().expect("fault recorded");
    assert_eq!(fault.kind, FailureKind::Panic);
    assert!(fault.detail.contains("injected panic"));
    assert_eq!(fault.retries, 1);
}

#[test]
fn deadline_overrun_is_sigkilled_and_classified_timeout() {
    // First attempt stalls 30s; the broker SIGKILLs it at the 250ms
    // deadline and charges a Timeout attempt. The retry (attempt 1) is
    // past the fault window and succeeds.
    let mut cfg = base_cfg(1);
    cfg.worker_args = vec!["--fault".to_string(), "eval:0:stall30000@1".to_string()];
    cfg.deadline = Some(Duration::from_millis(250));
    cfg.max_retries = 1;
    cfg.backoff_base = Duration::from_millis(1);
    let mut seen = Vec::new();
    let jobs = batch(1);
    let mut broker = Broker::start(cfg).expect("broker start");
    let out = broker
        .evaluate_batch(&jobs, &mut |a| seen.push((a.kind, a.detail.clone())))
        .expect("retry succeeds");
    assert_eq!(seen.len(), 1);
    assert_eq!(seen[0].0, FailureKind::Timeout);
    assert!(
        seen[0].1.contains("exceeded its") && seen[0].1.contains("deadline"),
        "supervisor-shaped detail expected, got: {}",
        seen[0].1
    );
    assert_eq!(out[0].error.to_bits(), objective(&jobs[0].1).to_bits());
    assert!(out[0].fault.is_none());
}

#[test]
fn backpressure_queues_without_reordering_commits_across_worker_counts() {
    // More outstanding points than workers: the broker must queue the
    // excess and still return verdicts in job order with identical bits
    // for every worker count.
    let jobs = batch(8);
    let reference: Vec<u64> = jobs.iter().map(|(_, u)| objective(u).to_bits()).collect();
    for workers in [1usize, 2, 4] {
        let mut broker = Broker::start(base_cfg(workers)).expect("broker start");
        let out = broker
            .evaluate_batch(&jobs, &mut |a| panic!("unexpected attempt: {a:?}"))
            .expect("batch");
        let got: Vec<u64> = out.iter().map(|v| v.error.to_bits()).collect();
        assert_eq!(got, reference, "worker count {workers} reordered commits");
    }
}

#[test]
fn fault_plan_spec_round_trips_across_the_process_boundary() {
    let plan = FaultPlan::new()
        .fail_first(1, EvalFault::KillWorker, 1)
        .fail(3, EvalFault::Nan);
    let respawned = FaultPlan::from_spec(&plan.to_spec()).expect("spec parses");
    assert_eq!(plan, respawned);
}

#[test]
fn worker_serve_answers_evals_and_returns_ok_on_hang_up() {
    // Drive serve() directly over a socket pair standing in for the
    // child's stdin and stdout.
    let (broker_end, worker_end) = UnixStream::pair().unwrap();
    let worker = std::thread::spawn(move || {
        let writer = worker_end.try_clone().unwrap();
        datamime_dist::serve(&WorkerConfig::new(9), worker_end, writer, |_, _| 0.5)
    });

    let mut conn = broker_end;
    match read_frame(&mut conn).unwrap() {
        Frame::Hello {
            protocol_version,
            ctx_fingerprint,
            ..
        } => {
            assert_eq!(protocol_version, PROTOCOL_VERSION);
            assert_eq!(ctx_fingerprint, 9);
        }
        other => panic!("expected Hello, got {other:?}"),
    }
    write_frame(
        &mut conn,
        &Frame::HelloAck {
            protocol_version: PROTOCOL_VERSION,
        },
    )
    .unwrap();
    write_frame(
        &mut conn,
        &Frame::Eval {
            index: 7,
            attempt: 0,
            dispatch: 0,
            unit_bits: vec![0.25f64.to_bits()],
        },
    )
    .unwrap();
    match read_frame(&mut conn).unwrap() {
        Frame::EvalOk {
            index, error_bits, ..
        } => {
            assert_eq!(index, 7);
            assert_eq!(error_bits, 0.5f64.to_bits());
        }
        other => panic!("expected EvalOk, got {other:?}"),
    }
    drop(conn);
    worker.join().unwrap().expect("serve returns Ok on hang-up");
}

#[test]
fn worker_exiting_before_hello_exhausts_the_restart_budget() {
    let mut cfg = BrokerConfig::new(PathBuf::from("/bin/true"), 1);
    cfg.restart_budget = 2;
    let mut broker = Broker::start(cfg).expect("broker start");
    let err = broker
        .evaluate_batch(&batch(1), &mut |_| {})
        .expect_err("a worker that never speaks must fail the batch");
    assert!(
        err.contains("restart budget of 2"),
        "unexpected error: {err}"
    );
}

#[test]
fn silent_worker_fails_the_batch_on_the_handshake_bound() {
    let mut cfg = BrokerConfig::new(PathBuf::from("/bin/sleep"), 1);
    cfg.worker_args = vec!["60".to_string()];
    let mut broker = Broker::start(cfg).expect("broker start");
    let started = Instant::now();
    let err = broker
        .evaluate_batch(&batch(1), &mut |_| {})
        .expect_err("a worker that never says Hello must fail the batch");
    assert!(err.contains("handshake"), "unexpected error: {err}");
    let waited = started.elapsed();
    assert!(
        (Duration::from_secs(9)..Duration::from_secs(30)).contains(&waited),
        "failed after {waited:?}"
    );
}
