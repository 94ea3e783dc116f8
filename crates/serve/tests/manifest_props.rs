//! Property tests for the manifest snapshot: random operation sequences
//! read back to exactly the state a simple in-memory model predicts,
//! across reopen cycles and injected write faults.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use datamime::servectl::JobState;
use datamime_runtime::{FaultInjector, FaultPlan, WriteFault, WriteSite};
use datamime_serve::{JobEntry, Manifest, ManifestError};
use proptest::prelude::*;

/// A unique scratch directory per test case (proptest runs many cases
/// per process, so the counter disambiguates them).
fn scratch(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "datamime-manifest-props-{}-{tag}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// In-test mirror of the manifest's folded state. Deliberately written
/// against the documented semantics, not the implementation.
#[derive(Debug, Clone, Default, PartialEq)]
struct Model {
    jobs: BTreeMap<String, ModelJob>,
    pending_gc: Vec<String>,
    gcd: u64,
    max_job: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct ModelJob {
    spec: String,
    state: JobState,
    best_error: Option<f64>,
    best_unit: Vec<f64>,
    detail: Option<String>,
}

fn model_of(table: &BTreeMap<String, JobEntry>, pending: Vec<String>, gcd: u64, max: u64) -> Model {
    Model {
        jobs: table
            .iter()
            .map(|(id, e)| {
                (
                    id.clone(),
                    ModelJob {
                        spec: e.spec.clone(),
                        state: e.state,
                        best_error: e.best_error,
                        best_unit: e.best_unit.clone(),
                        detail: e.detail.clone(),
                    },
                )
            })
            .collect(),
        pending_gc: pending,
        gcd,
        max_job: max,
    }
}

fn observed(manifest: &Manifest, table: &BTreeMap<String, JobEntry>) -> Model {
    model_of(
        table,
        manifest.take_pending_gc(),
        manifest.gc_stats().gcd_jobs,
        manifest.next_job_number() - 1,
    )
}

/// Applies one (code, pick) choice to the real manifest and, if the
/// write is acknowledged, to the model. Choices are mapped onto *valid*
/// operations deterministically, so the two sides always see the same op
/// sequence.
fn apply_step(
    m: &mut Manifest,
    model: &mut Model,
    step: usize,
    code: u8,
    pick: u8,
) -> Result<(), ManifestError> {
    let mut next = model.clone();
    let pick_job = |model: &Model| -> Option<String> {
        let ids: Vec<&String> = model.jobs.keys().collect();
        if ids.is_empty() {
            None
        } else {
            Some(ids[pick as usize % ids.len()].clone())
        }
    };
    let submit = |m: &mut Manifest, model: &mut Model| {
        let id = format!("job-{:04}", model.max_job + 1);
        let spec = format!("workload=mem-fb iters=8 seed={step}");
        model.max_job += 1;
        model.jobs.insert(
            id.clone(),
            ModelJob {
                spec: spec.clone(),
                state: JobState::Submitted,
                best_error: None,
                best_unit: Vec::new(),
                detail: None,
            },
        );
        m.submit(&id, &spec)
    };
    let res = match code % 8 {
        0 => submit(m, &mut next),
        1 => match pick_job(&next) {
            Some(job) => {
                next.jobs.get_mut(&job).unwrap().state = JobState::Running;
                m.start(&job)
            }
            None => submit(m, &mut next),
        },
        2 => match pick_job(&next) {
            Some(job) => {
                let err = step as f64 * 0.25;
                let unit = vec![step as f64 * 0.125, 0.5];
                let res = m.done(&job, err, &unit);
                let e = next.jobs.get_mut(&job).unwrap();
                e.state = JobState::Done;
                e.best_error = Some(err);
                e.best_unit = unit;
                res
            }
            None => submit(m, &mut next),
        },
        3 => match pick_job(&next) {
            Some(job) => {
                let err = step as f64 * 0.5;
                let unit = vec![0.75, step as f64 * 0.0625];
                let cause = if step.is_multiple_of(2) {
                    "max_evals"
                } else {
                    "wall_clock_s"
                };
                let res = m.quota(&job, err, &unit, cause);
                let e = next.jobs.get_mut(&job).unwrap();
                e.state = JobState::QuotaExceeded;
                e.best_error = Some(err);
                e.best_unit = unit;
                e.detail = Some(cause.to_string());
                res
            }
            None => submit(m, &mut next),
        },
        4 => match pick_job(&next) {
            Some(job) => {
                next.jobs.get_mut(&job).unwrap().state = JobState::Cancelled;
                m.cancel(&job)
            }
            None => submit(m, &mut next),
        },
        5 => match pick_job(&next) {
            Some(job) => {
                let detail = format!("injected failure at step {step}");
                let res = m.fail(&job, &detail);
                let e = next.jobs.get_mut(&job).unwrap();
                e.state = JobState::Failed;
                e.detail = Some(detail);
                res
            }
            None => submit(m, &mut next),
        },
        6 => match pick_job(&next) {
            Some(job) => {
                next.jobs.remove(&job);
                if !next.pending_gc.contains(&job) {
                    next.pending_gc.push(job.clone());
                }
                m.gc_intent(&job)
            }
            None => submit(m, &mut next),
        },
        _ => {
            if next.pending_gc.is_empty() {
                submit(m, &mut next)
            } else {
                let job = next.pending_gc[pick as usize % next.pending_gc.len()].clone();
                next.pending_gc.retain(|j| j != &job);
                next.gcd += 1;
                m.gc_done(&job)
            }
        }
    };
    if res.is_ok() {
        *model = next;
    }
    res
}

fn open(root: &Path) -> (Manifest, BTreeMap<String, JobEntry>) {
    Manifest::open(root).expect("open manifest")
}

/// Strategy: up to 40 raw (code, pick) choices.
fn ops() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..=255, 0u8..=255), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reopening reproduces the model bit-for-bit.
    #[test]
    fn replay_matches_model_across_reopen(ops in ops(), case in any::<u64>()) {
        let root = scratch("reopen", case);
        let mut model = Model::default();
        {
            let (mut m, table) = open(&root);
            prop_assert!(table.is_empty());
            for (step, &(code, pick)) in ops.iter().enumerate() {
                apply_step(&mut m, &mut model, step, code, pick).expect("op");
            }
        }
        let (m, table) = open(&root);
        prop_assert_eq!(observed(&m, &table), model);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Reopening twice in a row is idempotent: open only reads (and
    /// deletes a stale temp).
    #[test]
    fn double_reopen_is_idempotent(ops in ops(), case in any::<u64>()) {
        let root = scratch("double", case);
        let mut model = Model::default();
        {
            let (mut m, _) = open(&root);
            for (step, &(code, pick)) in ops.iter().enumerate() {
                apply_step(&mut m, &mut model, step, code, pick).expect("op");
            }
        }
        let first = {
            let (m, table) = open(&root);
            observed(&m, &table)
        };
        let (m, table) = open(&root);
        prop_assert_eq!(observed(&m, &table), first);
        prop_assert_eq!(first, model);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// An `enospc`, `short` or `syncfail` fault injected at a random
    /// operation fails that operation alone: every other operation is
    /// acknowledged, and reopening yields exactly the model without it.
    #[test]
    fn injected_fault_fails_one_op_and_reopen_matches_model(
        ops in ops(),
        at in 0usize..40,
        kind in 0usize..3,
        case in any::<u64>(),
    ) {
        let root = scratch("fault", case);
        let at = at % ops.len();
        let kind = [WriteFault::NoSpace, WriteFault::ShortWrite, WriteFault::SyncFail][kind];
        let plan = FaultPlan::new().fail_write(WriteSite::Manifest, at as u64, kind);
        let mut model = Model::default();
        {
            let (mut m, _) = Manifest::open_with(&root, FaultInjector::new(plan))
                .expect("open manifest");
            for (step, &(code, pick)) in ops.iter().enumerate() {
                let res = apply_step(&mut m, &mut model, step, code, pick);
                if step == at {
                    let err = res.expect_err("the faulted op fails");
                    prop_assert_eq!(err.no_space, kind == WriteFault::NoSpace);
                } else {
                    res.expect("every other op is acknowledged");
                }
            }
        }
        let (m, table) = open(&root);
        prop_assert_eq!(observed(&m, &table), model);
        let _ = std::fs::remove_dir_all(&root);
    }
}
