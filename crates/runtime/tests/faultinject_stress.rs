//! Heavier fault-injection stress runs, gated behind the `faultinject`
//! cargo feature so the default test pass stays fast:
//!
//! ```text
//! cargo test -q -p datamime-runtime --features faultinject
//! ```
//!
//! Each storm derives a deterministic fault plan from a small seed, runs
//! the same search serially and through the worker pool, and requires the
//! two outcomes to be bit-identical.
#![cfg(feature = "faultinject")]

mod common;

use common::RunLocal;
use datamime_bayesopt::{BayesOpt, BoConfig};
use datamime_runtime::{
    CancelToken, EvalFault, EvalRecord, Executor, FaultPlan, RunMeta, StageTimes, SupervisorConfig,
};
use std::time::Duration;

fn eval(unit: &[f64], stages: &mut StageTimes, _cancel: &CancelToken) -> f64 {
    stages.time("profile", || unit.iter().map(|x| (x - 0.3).powi(2)).sum())
}

fn meta(label: &str, iterations: usize, batch_k: usize, workers: usize) -> RunMeta {
    RunMeta {
        label: label.to_string(),
        seed: 42,
        dims: 3,
        iterations,
        batch_k,
        workers,
        optimizer: "bayesian".to_string(),
    }
}

fn points(history: &[EvalRecord]) -> Vec<(Vec<f64>, u64)> {
    history
        .iter()
        .map(|r| (r.unit.clone(), r.error.to_bits()))
        .collect()
}

/// Deterministically derive a fault plan from a storm seed: roughly one in
/// three evaluations fails, with the failure mode cycling through the
/// injectable kinds.
fn storm_plan(storm: u64, iterations: usize) -> FaultPlan {
    let mut plan = FaultPlan::new();
    let mut state = storm.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for index in 0..iterations {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if state.is_multiple_of(3) {
            let kind = match (state >> 32) % 3 {
                0 => EvalFault::Panic,
                1 => EvalFault::Nan,
                _ => EvalFault::StallMs(10_000),
            };
            plan = plan.fail(index, kind);
        }
    }
    plan
}

#[test]
fn fault_storms_stay_deterministic_across_worker_counts() {
    for storm in 0..4u64 {
        let iterations = 16;
        let plan = storm_plan(storm, iterations);
        assert!(!plan.is_empty(), "storm {storm} injected nothing");
        let run = |workers: usize| {
            let cfg = SupervisorConfig {
                deadline: Some(Duration::from_millis(40)),
                max_retries: 1,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(4),
                degrade_after: 3,
                faults: plan.clone(),
                ..SupervisorConfig::default()
            };
            Executor::new(meta("storm", iterations, 4, workers))
                .supervise(cfg)
                .run_local(&mut BayesOpt::new(BoConfig::for_dims(3), 42 + storm), &eval)
                .expect("a fault storm must never abort the run")
        };
        let serial = run(1);
        for workers in [2, 4] {
            let pooled = run(workers);
            assert_eq!(
                points(&serial.history),
                points(&pooled.history),
                "storm {storm} diverged at {workers} workers"
            );
            assert_eq!(
                serial.telemetry.faults_total(),
                pooled.telemetry.faults_total(),
                "storm {storm} fault count diverged at {workers} workers"
            );
        }
        assert_eq!(serial.history.len(), iterations);
        assert!(serial.telemetry.faults_total() > 0);
    }
}

#[test]
fn all_evaluations_failing_still_completes() {
    let iterations = 10;
    let mut plan = FaultPlan::new();
    for index in 0..iterations {
        plan = plan.fail(index, EvalFault::Panic);
    }
    let cfg = SupervisorConfig {
        max_retries: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(2),
        degrade_after: 2,
        faults: plan,
        ..SupervisorConfig::default()
    };
    let out = Executor::new(meta("total-loss", iterations, 4, 3))
        .supervise(cfg)
        .run_local(&mut BayesOpt::new(BoConfig::for_dims(3), 42), &eval)
        .expect("even a total loss must complete under the penalize policy");
    assert_eq!(out.history.len(), iterations);
    assert!(out.history.iter().all(|r| r.fault.is_some()));
    assert!(
        out.telemetry.degradations() >= 1,
        "batch should have shrunk"
    );
}
