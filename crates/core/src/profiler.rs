//! The Datamime profiler (paper Sec. III-A).
//!
//! Profiles a [`Workload`] on a machine: runs it under its load spec,
//! samples all Table-I metrics at fixed intervals, and sweeps LLC way
//! allocations (CAT-style) to measure the cache-sensitivity curves.

// Supervised evaluation path: no panics outside tests (crates/audit/README.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::arena::EvalArena;
use crate::profile::{CurvePoint, Profile};
use crate::workload::Workload;
use datamime_apps::App;
use datamime_loadgen::{Driver, WorkloadSpec};
/// The cooperative cancellation flag [`profile_app_cancellable_in`] polls
/// (re-exported so callers of the full form need not name the runtime
/// crate).
pub use datamime_runtime::CancelToken;
use datamime_sim::{Machine, MachineConfig, MetricSample, Sampler};

/// How cache-sensitivity curves are measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CurveMethod {
    /// Restarted application + fresh machine per allocation, as the paper
    /// does it: each point serves a copy of the freshly built dataset, so
    /// a k-point sweep costs k copies, not k builds. The restarted runs
    /// are independent of the main run, which therefore runs beside the
    /// sweep on a second thread (see [`profile_app_cancellable_in`]).
    Restart,
    /// DynaWay-style online repartitioning (paper ref. \[11\]): one run,
    /// the LLC is resized in place per point with a one-sample warm-up.
    /// Each point starts from the machine state the previous one left, so
    /// there is nothing to run side by side: main run, then sweep, on the
    /// calling thread.
    Dynaway,
}

/// Controls profiling fidelity (number of samples, intervals, curve
/// resolution).
///
/// [`ProfilingConfig::paper_default`] mirrors the paper's methodology
/// (20 M-cycle counter intervals, 12-point curve sweep);
/// [`ProfilingConfig::fast`] is a cheaper setting used by tests and quick
/// experiments. Absolute interval lengths are scaled down relative to the
/// paper's wall-clock numbers because the simulated applications serve
/// requests at full simulation speed (there is no OS noise to average
/// out).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfilingConfig {
    /// Counter sampling interval in cycles.
    pub interval_cycles: u64,
    /// Number of interval samples per profile.
    pub n_samples: usize,
    /// LLC way allocations to sweep for the curves (empty to skip).
    pub curve_ways: Vec<u32>,
    /// Interval samples per curve point.
    pub curve_samples: usize,
    /// Curve measurement method.
    pub curve_method: CurveMethod,
    /// Seed for the load generator.
    pub seed: u64,
}

impl ProfilingConfig {
    /// The paper's methodology: 20 M-cycle intervals and a 12-point curve
    /// (one point per 1 MB way, up to the full 12 MB on Broadwell).
    pub fn paper_default() -> Self {
        ProfilingConfig {
            interval_cycles: 20_000_000,
            n_samples: 30,
            curve_ways: (1..=12).collect(),
            curve_samples: 3,
            curve_method: CurveMethod::Dynaway,
            seed: 0xDA7A,
        }
    }

    /// A fast configuration for tests and smoke experiments.
    pub fn fast() -> Self {
        ProfilingConfig {
            interval_cycles: 2_000_000,
            n_samples: 10,
            curve_ways: vec![1, 4, 8, 12],
            curve_samples: 2,
            curve_method: CurveMethod::Restart,
            seed: 0xDA7A,
        }
    }

    /// Removes the curve sweep (e.g. for machines without CAT, or for
    /// single-metric scalar-target searches).
    pub fn without_curves(mut self) -> Self {
        self.curve_ways.clear();
        self
    }
}

/// Profiles `workload` on a machine described by `machine_cfg`: builds
/// its dataset once and hands the application to
/// [`profile_app_cancellable_in`] with a token nobody cancels and a
/// throwaway arena (bit-for-bit the same profile as the full form).
///
/// Machines without a partitionable LLC (Silvermont) skip the curve sweep.
///
/// # Panics
///
/// Panics if the profiling configuration requests zero samples.
pub fn profile_workload(
    workload: &Workload,
    machine_cfg: &MachineConfig,
    cfg: &ProfilingConfig,
) -> Profile {
    profile_app_cancellable_in(
        workload.app.build(),
        workload.load,
        machine_cfg,
        cfg,
        &CancelToken::new(),
        &mut EvalArena::new(),
    )
}

/// Profiles a freshly built [`App`] under a load spec — the one profiling
/// body. [`profile_workload`] wraps it, the search's evaluation calls it
/// with its worker's arena and cancel token, and the PerfProx proxy
/// benchmark uses it directly since the proxy is not a dataset-backed
/// [`Workload`].
///
/// The paper restarts the application for every run (the main run and
/// each CAT allocation); here the dataset is built once and every run but
/// the last serves an [`App::fork`] copy of it, dropped when that run
/// ends. `app` itself is served only by the last planned run, so each
/// copy is of a never-served application — address-for-address a rebuild —
/// and a profile without a sweep copies nothing.
///
/// **Two lanes.** Restarted runs share nothing: each has its own copy,
/// machine, sampler and driver seed, so each is a pure function of the
/// dataset image, the machine configuration, the seed and the sample
/// count, whatever runs beside it. A [`CurveMethod::Restart`] sweep with
/// at least one point therefore runs on two threads: the main run, on its
/// copy, on a scoped thread spawned for this call, and the sweep on the
/// caller — one copy per point, the last point serving `app`. The profile
/// is bit for bit the one a single thread would produce. [`App`] is
/// `Send` for this. A [`CurveMethod::Dynaway`] sweep is one run by
/// definition and a profile without a sweep is one run in fact; both stay
/// on the calling thread.
///
/// Cooperatively cancellable: every run polls `cancel` once per served
/// request — both lanes poll the same token — and the curve sweep checks
/// it between points. When cancellation fires the function returns early
/// with whatever (truncated) profile exists — callers under supervision
/// discard it. A panic on the main-run lane is re-raised on the caller
/// with its original payload once the sweep lane has ended; no thread
/// outlives the call.
///
/// All machines and samplers are taken from (and recycled into) `arena`
/// on the calling thread — the main-run lane owns the pair it was handed
/// and returns it — so a worker that profiles many candidates allocates
/// the simulator arrays once and `reinit`s them per run. Pooling is
/// bit-invisible: `reinit` reproduces fresh construction exactly
/// (property-tested in `crates/sim`), so a warm arena returns the same
/// profile as [`EvalArena::new`], sample for sample.
///
/// # Panics
///
/// Panics if the profiling configuration requests zero samples.
pub fn profile_app_cancellable_in(
    mut app: Box<dyn App>,
    load: WorkloadSpec,
    machine_cfg: &MachineConfig,
    cfg: &ProfilingConfig,
    cancel: &CancelToken,
    arena: &mut EvalArena,
) -> Profile {
    assert!(cfg.n_samples > 0, "need at least one sample");

    // The CAT allocations the sweep will visit: none on a machine without
    // a partitionable LLC, which has zero partitions.
    let points: Vec<u32> = cfg
        .curve_ways
        .iter()
        .copied()
        .filter(|&ways| ways != 0 && ways <= machine_cfg.llc_partitions())
        .collect();

    // One restarted run on state the caller picked: a fresh driver serves
    // `served` until `sampler` holds `samples` intervals or `cancel` fires.
    let drive = |served: &mut dyn App,
                 machine: &mut Machine,
                 sampler: &mut Sampler,
                 seed: u64,
                 samples: usize| {
        Driver::new(load, seed).run_cancellable(served, machine, sampler, samples, &mut || {
            cancel.is_cancelled()
        });
    };

    // One restarted run on the calling thread: fresh machine and sampler
    // from the arena. `last` marks the last planned run, the only one that
    // serves `app` itself. The sampler comes back holding the run's
    // samples; the machine is recycled as soon as the run ends.
    let run_fresh = |app: &mut Box<dyn App>,
                     last: bool,
                     run_cfg: MachineConfig,
                     seed: u64,
                     samples: usize,
                     arena: &mut EvalArena| {
        let mut copy;
        let served: &mut dyn App = if last {
            app.as_mut()
        } else {
            copy = app.fork();
            copy.as_mut()
        };
        let mut machine = arena.take_machine(run_cfg);
        let mut sampler = arena.take_sampler(cfg.interval_cycles);
        drive(served, &mut machine, &mut sampler, seed, samples);
        arena.recycle_machine(machine);
        sampler
    };

    // The main distribution run's sampler stays out until its samples are
    // consumed at the end.
    let (sampler, curve) = if cfg.curve_method == CurveMethod::Restart && !points.is_empty() {
        // Two lanes: the main run owns its copy, machine and sampler on a
        // scoped thread; the restarted sweep runs here.
        let mut main_app = app.fork();
        let mut machine = arena.take_machine(machine_cfg.clone());
        let mut sampler = arena.take_sampler(cfg.interval_cycles);
        std::thread::scope(|lanes| {
            let main_run = lanes.spawn(move || {
                drive(
                    main_app.as_mut(),
                    &mut machine,
                    &mut sampler,
                    cfg.seed,
                    cfg.n_samples,
                );
                (sampler, machine)
            });
            let mut curve = Vec::with_capacity(points.len());
            for (i, &ways) in points.iter().enumerate() {
                if cancel.is_cancelled() {
                    break;
                }
                let part_cfg = machine_cfg.with_llc_ways(ways);
                let bytes = part_cfg.llc_bytes();
                let point_sampler = run_fresh(
                    &mut app,
                    i + 1 == points.len(),
                    part_cfg,
                    cfg.seed ^ u64::from(ways),
                    cfg.curve_samples.max(1),
                    arena,
                );
                curve.push(curve_point(&point_sampler, bytes));
                arena.recycle_sampler(point_sampler);
            }
            match main_run.join() {
                Ok((sampler, machine)) => {
                    arena.recycle_machine(machine);
                    (sampler, curve)
                }
                // The supervisor's `catch_unwind` must see the payload the
                // run panicked with, not a second panic about a join.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })
    } else {
        let sampler = run_fresh(
            &mut app,
            points.is_empty(),
            machine_cfg.clone(),
            cfg.seed,
            cfg.n_samples,
            arena,
        );
        let mut curve = Vec::with_capacity(points.len());
        if !points.is_empty() && !cancel.is_cancelled() {
            // Dynaway: one run for the whole sweep, serving `app` itself;
            // repartition in place per point and let the driver's built-in
            // warm-up sample absorb the cold restart.
            let mut machine = arena.take_machine(machine_cfg.clone());
            let mut driver = Driver::new(load, cfg.seed ^ 0xD1A);
            for &ways in &points {
                if cancel.is_cancelled() {
                    break;
                }
                machine.set_llc_ways(ways);
                let mut point_sampler = arena.take_sampler(cfg.interval_cycles);
                driver.run_cancellable(
                    app.as_mut(),
                    &mut machine,
                    &mut point_sampler,
                    cfg.curve_samples.max(1),
                    &mut || cancel.is_cancelled(),
                );
                let bytes = machine_cfg.with_llc_ways(ways).llc_bytes();
                curve.push(curve_point(&point_sampler, bytes));
                arena.recycle_sampler(point_sampler);
            }
            arena.recycle_machine(machine);
        }
        (sampler, curve)
    };

    // A run cancelled before its first interval sample leaves the sampler
    // empty; fall back to a single zero sample so profiling degrades
    // gracefully instead of panicking into the supervisor's catch_unwind
    // (the cancelled evaluation is recorded as a timeout and this profile
    // is discarded unread).
    let zero_fallback = [MetricSample::default()];
    let samples = if sampler.samples().is_empty() {
        &zero_fallback[..]
    } else {
        sampler.samples()
    };
    #[expect(
        clippy::expect_used,
        reason = "the fallback above makes emptiness impossible; a non-finite sample is a simulator bug worth a loud stop"
    )]
    let profile = Profile::from_samples(samples, curve).expect("finite samples build a profile");
    arena.recycle_sampler(sampler);
    profile
}

fn curve_point(sampler: &Sampler, cache_bytes: u64) -> CurvePoint {
    let samples = sampler.samples();
    let n = samples.len() as f64;
    CurvePoint {
        cache_bytes,
        llc_mpki: samples.iter().map(|s| s.llc_mpki).sum::<f64>() / n,
        ipc: samples.iter().map(|s| s.ipc).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::DistMetric;
    use crate::workload::Workload;
    use datamime_apps::KvConfig;

    #[test]
    fn dynaway_curves_agree_with_restart_curves() {
        let mut restart = ProfilingConfig::fast();
        restart.curve_ways = vec![1, 12];
        restart.curve_samples = 4;
        let mut dynaway = restart.clone();
        dynaway.curve_method = CurveMethod::Dynaway;
        // dnn streams its whole ~10 MB model every inference, so the
        // 1 MB -> 12 MB sweep moves its miss rate strongly and quickly.
        let w = Workload::dnn_resnet();
        let machine = MachineConfig::broadwell();
        let a = profile_workload(&w, &machine, &restart);
        let b = profile_workload(&w, &machine, &dynaway);
        // Same qualitative shape: small allocation misses more than full.
        assert!(b.curve()[0].llc_mpki > b.curve()[1].llc_mpki);
        assert!(a.curve()[0].llc_mpki > a.curve()[1].llc_mpki);
        // Values in the same ballpark as the restart method.
        for (x, y) in a.curve().iter().zip(b.curve()) {
            assert_eq!(x.cache_bytes, y.cache_bytes);
            let rel = (x.llc_mpki - y.llc_mpki).abs() / x.llc_mpki.max(0.5);
            assert!(rel < 0.6, "llc curve diverges: {x:?} vs {y:?}");
        }
    }

    fn tiny_kv() -> Workload {
        let mut w = Workload::mem_public();
        if let crate::workload::AppConfig::Kv(c) = &mut w.app {
            *c = KvConfig {
                n_keys: 3_000,
                ..c.clone()
            };
        }
        w
    }

    #[test]
    fn profiles_have_requested_samples_and_curves() {
        let cfg = ProfilingConfig::fast();
        let p = profile_workload(&tiny_kv(), &MachineConfig::broadwell(), &cfg);
        assert_eq!(p.dist(DistMetric::Ipc).len(), cfg.n_samples);
        assert_eq!(p.curve().len(), cfg.curve_ways.len());
        assert!(p.mean(DistMetric::Ipc) > 0.1);
    }

    #[test]
    fn curves_are_monotone_in_the_right_direction() {
        let mut cfg = ProfilingConfig::fast();
        cfg.curve_ways = vec![1, 12];
        let w = Workload::silo_bidding();
        let p = profile_workload(&w, &MachineConfig::broadwell(), &cfg);
        let c = p.curve();
        assert!(
            c[0].llc_mpki >= c[1].llc_mpki,
            "more cache, fewer misses: {c:?}"
        );
        assert!(c[0].ipc <= c[1].ipc + 0.05, "more cache, no slower: {c:?}");
        assert_eq!(c[0].cache_bytes, 1 << 20);
        assert_eq!(c[1].cache_bytes, 12 << 20);
    }

    #[test]
    fn silvermont_profiles_without_curves() {
        let cfg = ProfilingConfig::fast();
        let p = profile_workload(&tiny_kv(), &MachineConfig::silvermont(), &cfg);
        assert!(p.curve().is_empty());
        assert!(p.mean(DistMetric::Ipc) > 0.0);
    }

    #[test]
    fn pooled_profiles_are_bit_identical_to_fresh() {
        let machine = MachineConfig::broadwell();
        let cfg = ProfilingConfig::fast(); // Restart curves: exercises per-point recycling
        let fresh = profile_workload(&tiny_kv(), &machine, &cfg);

        // Warm the arena on a different workload AND machine model first,
        // so every take has to reinit across state and geometry.
        let mut arena = EvalArena::new();
        let cancel = CancelToken::new();
        let mut pooled = |w: Workload, machine: &MachineConfig, cfg: &ProfilingConfig| {
            profile_app_cancellable_in(w.app.build(), w.load, machine, cfg, &cancel, &mut arena)
        };
        let _ = pooled(
            Workload::silo_bidding(),
            &MachineConfig::silvermont(),
            &ProfilingConfig::fast().without_curves(),
        );
        let pooled = pooled(tiny_kv(), &machine, &cfg);

        for m in DistMetric::ALL {
            assert_eq!(fresh.dist(m).samples(), pooled.dist(m).samples(), "{m}");
        }
        assert_eq!(fresh.curve(), pooled.curve());
    }

    #[test]
    fn a_token_cancelled_before_the_call_runs_no_sweep_point() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let w = tiny_kv();
        let p = profile_app_cancellable_in(
            w.app.build(),
            w.load,
            &MachineConfig::broadwell(),
            &ProfilingConfig::fast(),
            &cancel,
            &mut EvalArena::new(),
        );
        // The main run still stops at its first real sample.
        assert_eq!(p.dist(DistMetric::Ipc).len(), 1);
        assert!(p.curve().is_empty());
    }

    #[test]
    fn a_built_app_may_change_threads() {
        fn assert_send<T: Send>() {}
        assert_send::<Box<dyn App>>();
    }

    #[test]
    fn profiling_is_deterministic() {
        let cfg = ProfilingConfig::fast().without_curves();
        let a = profile_workload(&tiny_kv(), &MachineConfig::broadwell(), &cfg);
        let b = profile_workload(&tiny_kv(), &MachineConfig::broadwell(), &cfg);
        assert_eq!(
            a.dist(DistMetric::Ipc).samples(),
            b.dist(DistMetric::Ipc).samples()
        );
    }
}
