//! The four workloads: what each runs and why it exists.
//!
//! Every search is a [`JobSpec`] line, so the CLI (`datamime clone`), the
//! daemon (`datamime ctl submit`) and this benchmark run the same thing.
//!
//! The timed searches carry *fixed* seeds. A Bayesian-optimisation
//! trajectory is chaotic in its seed: across seeds 1..8 the same code
//! moved `search_wall_s` by 6 % (mem-fb) to 25 % (xapian) and
//! `best_error` by 40 %, far above any bound a 30 s run could resolve, so
//! a seed-derived panel would measure the draw, not the program.
//! `--seed` instead derives the *canary* search every run verifies
//! (see [`WorkloadDef::canary_line`]).

use datamime::jobspec::JobSpec;
use std::path::Path;

/// How a workload's unit is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One in-process search on the thread backend.
    Thread,
    /// Back-to-back journalled searches on the process backend.
    Proc,
    /// One daemon session: each spec line is a tenant, and one closed-loop
    /// client submits [`WorkloadDef::jobs_per_tenant`] rounds of one job
    /// per tenant.
    Serve,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// The name `--workload` takes and `BENCHMARK.json` lists.
    pub name: &'static str,
    /// Why the workload exists, in one sentence.
    pub why: &'static str,
    /// How the unit runs.
    pub kind: Kind,
    /// The unit's searches (or tenants) as `JobSpec` lines.
    pub specs: &'static [&'static str],
    /// Jobs each tenant submits per unit (`Serve` only).
    pub jobs_per_tenant: usize,
    /// Repeats of the unit in a 30 s run. Fixed, never adapted to the
    /// clock: run length is identical on any two commits.
    pub repeats_at_30s: usize,
    /// The canary search, without its seed (derived from `--seed`).
    pub canary: &'static str,
    /// The traced run replays every `replay_stride`-th evaluation's event
    /// stream to split simulator time from application time.
    pub replay_stride: usize,
}

/// The workloads, in the order the suite runs them.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "kv_curves_seq",
        why: "Fig. 10 headline search with the 4-point CAT sweep: five dataset builds per \
              evaluation dominate, the optimiser is ~1 %, so app/sim/profiler changes show \
              here and optimiser changes must not",
        kind: Kind::Thread,
        specs: &["workload=mem-fb iters=14 curves=true seed=5"],
        jobs_per_tenant: 0,
        repeats_at_30s: 10,
        canary: "workload=mem-fb iters=3 curves=true",
        replay_stride: 4,
    },
    WorkloadDef {
        name: "xapian_bo_long",
        why: "cheap evaluations and many iterations on a third app family: GP refit and \
              acquisition take their largest share of any workload, dataset build its \
              smallest",
        kind: Kind::Thread,
        specs: &["workload=xapian iters=90 curves=false seed=4"],
        jobs_per_tenant: 0,
        repeats_at_30s: 7,
        canary: "workload=xapian iters=8 curves=false",
        replay_stride: 8,
    },
    WorkloadDef {
        name: "silo_proc_journal",
        why: "two journalled searches through a worker process: simulator time dominates; \
              worker spawn, handshake, target staging, winner re-profiling and frame overhead \
              show only here; sole user of suggest_batch",
        kind: Kind::Proc,
        specs: &[
            "workload=silo iters=14 curves=false batch=2 workers=1 backend=proc seed=11",
            "workload=silo iters=14 curves=false batch=2 workers=1 backend=proc seed=12",
        ],
        jobs_per_tenant: 0,
        repeats_at_30s: 10,
        canary: "workload=silo iters=6 curves=false batch=2 workers=1 backend=proc",
        replay_stride: 4,
    },
    WorkloadDef {
        name: "serve_small_jobs",
        why: "a closed-loop client submits two tenants' small jobs in turn to one daemon: \
              per-job fixed costs (target profiling, WAL fsyncs, fair gate) dominate; sole \
              workload on the thread pool or with memo hits",
        kind: Kind::Serve,
        specs: &[
            "workload=mem-fb iters=16 curves=false grid=3 batch=2 seed=21",
            "workload=silo iters=6 curves=false seed=22",
        ],
        jobs_per_tenant: 2,
        repeats_at_30s: 9,
        canary: "workload=silo iters=4 curves=false",
        replay_stride: 1,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: derives well-spread seeds from the small integers the
/// driver passes.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl WorkloadDef {
    /// Repeats for a run of `seconds`: proportional to the run length, at
    /// least two (a floor needs a second opinion).
    pub fn repeats(&self, seconds: u64) -> usize {
        let scaled = (self.repeats_at_30s as u64 * seconds + 15) / 30;
        (scaled as usize).max(2)
    }

    /// The unit's specs, parsed, with the worker binary filled in on
    /// process-backend lines.
    pub fn parsed_specs(&self, worker_bin: Option<&Path>) -> Result<Vec<JobSpec>, String> {
        self.specs
            .iter()
            .map(|line| parse_line(line, worker_bin))
            .collect()
    }

    /// The canary: a short search on the workload's own path whose seed
    /// comes from `--seed`, so every run checks the bit-identity
    /// invariants on inputs nobody sized the benchmark with.
    pub fn canary_line(&self, seed: u64) -> String {
        let derived = mix(seed ^ mix(self.name.len() as u64));
        format!("{} seed={derived}", self.canary)
    }

    /// Observations one unit delivers to its optimisers.
    pub fn observations(&self) -> usize {
        let per_pass: usize = self
            .specs
            .iter()
            .map(|line| JobSpec::parse(line).map_or(0, |s| s.iters))
            .sum();
        match self.kind {
            Kind::Serve => per_pass * self.jobs_per_tenant,
            Kind::Thread | Kind::Proc => per_pass,
        }
    }

    /// Jobs one unit submits (`Serve` only).
    pub fn jobs(&self) -> usize {
        match self.kind {
            Kind::Serve => self.specs.len() * self.jobs_per_tenant,
            Kind::Thread | Kind::Proc => 0,
        }
    }
}

/// Parses one spec line; process-backend specs get `worker_bin`.
pub fn parse_line(line: &str, worker_bin: Option<&Path>) -> Result<JobSpec, String> {
    let mut spec = JobSpec::parse(line)?;
    if spec.backend == datamime::jobspec::JobBackend::Proc {
        let bin = worker_bin.ok_or("this workload needs --worker-bin <datamime-worker>")?;
        spec.worker_bin = Some(bin.to_path_buf());
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_line_round_trips_through_jobspec() {
        let bin = Path::new("target/release/datamime-worker");
        for w in &WORKLOADS {
            let lines = w.specs.iter().map(|s| s.to_string());
            for line in lines.chain([w.canary_line(1), w.canary_line(2)]) {
                let spec = parse_line(&line, Some(bin)).unwrap_or_else(|e| panic!("{line}: {e}"));
                let again = JobSpec::parse(&spec.to_line().unwrap()).unwrap();
                assert_eq!(again, spec, "{line}");
                assert!(spec.target().is_ok(), "{line}");
                assert!(spec.search_config().is_ok(), "{line}");
                assert!(spec.generator().is_ok(), "{line}");
            }
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
        }
    }

    #[test]
    fn canary_seeds_follow_the_seed_argument() {
        let w = by_name("kv_curves_seq").unwrap();
        assert_eq!(w.canary_line(1), w.canary_line(1));
        assert_ne!(w.canary_line(1), w.canary_line(2));
    }

    #[test]
    fn repeats_scale_with_the_run_length_not_the_clock() {
        let w = by_name("kv_curves_seq").unwrap();
        assert_eq!(w.repeats(30), 10);
        assert_eq!(w.repeats(60), 20);
        assert_eq!(w.repeats(1), 2);
    }

    #[test]
    fn unit_sizes_match_the_spec_lines() {
        assert_eq!(by_name("kv_curves_seq").unwrap().observations(), 14);
        assert_eq!(by_name("silo_proc_journal").unwrap().observations(), 28);
        let serve = by_name("serve_small_jobs").unwrap();
        assert_eq!((serve.observations(), serve.jobs()), (44, 4));
        assert!(by_name("nope").is_none());
    }
}
