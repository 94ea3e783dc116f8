//! Build once, copy per run: an [`App::fork`] copy of a freshly built
//! application must be indistinguishable from a rebuild, and profiles must
//! keep the bits they had when every run rebuilt its dataset.

use datamime::generator::{DatasetGenerator, KvGenerator};
use datamime::metrics::DistMetric;
use datamime::profile::Profile;
use datamime::profiler::{
    profile_app_cancellable_in, profile_workload, CancelToken, CurveMethod, ProfilingConfig,
};
use datamime::workload::{AppConfig, Workload};
use datamime::EvalArena;
use datamime_apps::App;
use datamime_loadgen::WorkloadSpec;
use datamime_perfproxy::{CloneStats, PerfProxClone};
use datamime_sim::{Counters, Machine, MachineConfig, RefMachine};
use datamime_stats::Rng;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Serves `n` seeded requests on a fresh Broadwell machine and returns
/// everything observable about the run.
fn served(app: &mut dyn App, n: usize) -> (Counters, u64) {
    let mut machine = Machine::new(MachineConfig::broadwell());
    let mut rng = Rng::with_seed(99);
    for _ in 0..n {
        app.serve(&mut machine, &mut rng);
    }
    (*machine.counters(), app.footprint_bytes())
}

/// Copies of a fresh build — taken before and after a sibling copy has
/// served — and finally the original itself must all serve exactly like a
/// fresh `build()`.
fn assert_copies_are_rebuilds(label: &str, build: &dyn Fn() -> Box<dyn App>, n: usize) {
    let rebuilt = served(build().as_mut(), n);
    let mut original = build();
    assert_eq!(served(original.fork().as_mut(), n), rebuilt, "{label}");
    assert_eq!(
        served(original.fork().as_mut(), n),
        rebuilt,
        "{label}: a served sibling leaked into the original or the shared image"
    );
    assert_eq!(
        served(original.as_mut(), n),
        rebuilt,
        "{label}: the original changed under its copies"
    );
}

#[test]
fn a_copy_of_a_fresh_build_serves_like_a_rebuild() {
    for w in Workload::catalog() {
        // dnn and img-dnn requests are whole inferences (~10^6 instructions).
        let n = if w.load.qps < 10_000.0 { 3 } else { 400 };
        assert_copies_are_rebuilds(&w.name, &|| w.app.build(), n);
    }
    // The proxy carries its own RNG and stream cursors: per-copy state.
    let stats = CloneStats {
        l1d_mpki: 30.0,
        llc_mpki: 4.0,
        icache_mpki: 12.0,
        branch_mpki: 5.0,
        ipc: 1.0,
    };
    assert_copies_are_rebuilds(
        "perfprox",
        &|| Box::new(PerfProxClone::new(stats, 0xFF0C)),
        50,
    );
}

/// Each catalog application's own traffic, recorded off a `Machine` and
/// pushed through the line-at-a-time `RefMachine`: on the platform it was
/// recorded on, on the two validation platforms and under a two-way CAT
/// partition, the simulator and its oracle agree on every counter.
#[test]
fn recorded_app_traffic_counts_the_same_on_the_reference_machine() {
    let broadwell = MachineConfig::broadwell();
    for w in Workload::catalog() {
        let n = if w.load.qps < 10_000.0 { 2 } else { 300 };
        let mut app = w.app.build();
        let mut recorded = Machine::new(broadwell.clone());
        recorded.start_recording();
        let mut rng = Rng::with_seed(99);
        for _ in 0..n {
            app.serve(&mut recorded, &mut rng);
        }
        let trace = recorded.stop_recording().expect("recording was started");
        for cfg in [
            broadwell.clone(),
            broadwell.with_llc_ways(2),
            MachineConfig::zen2(),
            MachineConfig::silvermont(),
        ] {
            let mut machine = Machine::new(cfg.clone());
            trace.replay(&mut machine);
            let mut reference = RefMachine::new(cfg.clone());
            reference.replay(&trace);
            assert_eq!(
                machine.counters(),
                reference.counters(),
                "{} on {}",
                w.name,
                cfg.name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Anywhere in the memcached generator's cube, SET-heavy mixes
    /// included: `serve_set`'s free/realloc path moves the allocator and the
    /// item table, the state a copy owns.
    #[test]
    fn kv_copies_are_rebuilds_anywhere_in_the_cube(
        unit in prop::collection::vec(0.0f64..=1.0, 6),
        set_heavy in any::<bool>(),
    ) {
        let mut unit = unit;
        if set_heavy {
            unit[1] *= 0.2; // get_ratio
        }
        let mut w = KvGenerator::new().instantiate(&unit);
        if let AppConfig::Kv(c) = &mut w.app {
            c.n_keys = 20_000;
        }
        assert_copies_are_rebuilds("memcached-synth", &|| w.app.build(), 600);
    }
}

/// FNV-1a over every bit of a profile: all samples of every distribution
/// metric, then the curve.
fn profile_fnv(p: &Profile) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for m in DistMetric::ALL {
        for s in p.dist(m).samples() {
            eat(s.to_bits());
        }
    }
    for c in p.curve() {
        eat(c.cache_bytes);
        eat(c.llc_mpki.to_bits());
        eat(c.ipc.to_bits());
    }
    h
}

fn dynaway() -> ProfilingConfig {
    ProfilingConfig {
        curve_method: CurveMethod::Dynaway,
        ..ProfilingConfig::fast()
    }
}

// The checksums below were recorded at 0900f40, where the profiler still
// rebuilt the dataset for the main run and for every curve point.

#[test]
fn golden_mem_fb_restart_profile() {
    let p = profile_workload(
        &Workload::mem_fb(),
        &MachineConfig::broadwell(),
        &ProfilingConfig::fast(),
    );
    assert_eq!(profile_fnv(&p), 0x08fb_8b2c_6df1_651f);
}

#[test]
fn golden_set_heavy_and_silo_restart_profiles() {
    let broadwell = MachineConfig::broadwell();
    let fast = ProfilingConfig::fast();
    let p = profile_workload(&Workload::mem_public(), &broadwell, &fast);
    assert_eq!(profile_fnv(&p), 0x69b6_509b_40f0_987c);
    let p = profile_workload(&Workload::silo_bidding(), &broadwell, &fast);
    assert_eq!(profile_fnv(&p), 0x47aa_d512_9191_904d);
}

#[test]
fn golden_dynaway_profiles() {
    let broadwell = MachineConfig::broadwell();
    let p = profile_workload(&Workload::dnn_resnet(), &broadwell, &dynaway());
    assert_eq!(profile_fnv(&p), 0x4f83_4a59_27d1_eacb);
    let p = profile_workload(&Workload::mem_fb(), &broadwell, &dynaway());
    assert_eq!(profile_fnv(&p), 0xec99_1856_5d11_29dd);
}

#[test]
fn golden_xapian_and_perfprox_profiles() {
    let broadwell = MachineConfig::broadwell();
    let xapian = profile_workload(
        &Workload::xapian_wiki(),
        &broadwell,
        &ProfilingConfig::fast().without_curves(),
    );
    assert_eq!(profile_fnv(&xapian), 0x9394_ba70_d96c_003a);
    let stats = CloneStats::from_profile(&xapian);
    let proxy = profile_app_cancellable_in(
        Box::new(PerfProxClone::new(stats, 0xFF0C)),
        WorkloadSpec::poisson(1e9),
        &broadwell,
        &ProfilingConfig::fast(),
        &CancelToken::new(),
        &mut EvalArena::new(),
    );
    assert_eq!(profile_fnv(&proxy), 0xf836_7a03_a944_39ee);
}

/// What a [`Counting`] family — an application and every copy descended
/// from it — shares.
struct Family {
    copies: AtomicUsize,
    requests: AtomicUsize,
    /// Runs before every request any member serves, with the member
    /// (0 is the original, k the k-th copy taken) and the family's request
    /// count including this one.
    before_serve: Box<dyn Fn(usize, usize) + Send + Sync>,
}

/// Wraps an application and tallies every copy taken and every request
/// served anywhere in its family; a copy of an app that has already served
/// a request is the bug the profiler's run plan exists to rule out.
struct Counting {
    inner: Box<dyn App>,
    family: Arc<Family>,
    member: usize,
    served: bool,
}

impl App for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn serve(&mut self, machine: &mut Machine, rng: &mut Rng) {
        self.served = true;
        let request = self.family.requests.fetch_add(1, Ordering::SeqCst) + 1;
        (self.family.before_serve)(self.member, request);
        self.inner.serve(machine, rng);
    }

    fn fork(&self) -> Box<dyn App> {
        assert!(!self.served, "copy taken from an app that has served");
        let member = self.family.copies.fetch_add(1, Ordering::SeqCst) + 1;
        Box::new(Counting {
            inner: self.inner.fork(),
            family: Arc::clone(&self.family),
            member,
            served: false,
        })
    }

    fn footprint_bytes(&self) -> u64 {
        self.inner.footprint_bytes()
    }
}

/// A 3 000-key SET-heavy store.
fn tiny_kv() -> Workload {
    let mut w = Workload::mem_public();
    if let AppConfig::Kv(c) = &mut w.app {
        c.n_keys = 3_000;
    }
    w
}

/// [`tiny_kv`] behind a [`Counting`] wrapper whose family runs
/// `before_serve`.
fn counted_kv(
    before_serve: impl Fn(usize, usize) + Send + Sync + 'static,
) -> (Box<dyn App>, WorkloadSpec, Arc<Family>) {
    let w = tiny_kv();
    let family = Arc::new(Family {
        copies: AtomicUsize::new(0),
        requests: AtomicUsize::new(0),
        before_serve: Box::new(before_serve),
    });
    let app = Box::new(Counting {
        inner: w.app.build(),
        family: Arc::clone(&family),
        member: 0,
        served: false,
    });
    (app, w.load, family)
}

/// Profiles [`counted_kv`] and returns the copies taken with the profile's
/// checksum.
fn counted_profile(machine: &MachineConfig, cfg: &ProfilingConfig) -> (usize, u64) {
    let (app, load, family) = counted_kv(|_, _| {});
    let profile = profile_app_cancellable_in(
        app,
        load,
        machine,
        cfg,
        &CancelToken::new(),
        &mut EvalArena::new(),
    );
    (family.copies.load(Ordering::SeqCst), profile_fnv(&profile))
}

#[test]
fn a_sweep_copies_once_per_run_but_the_last() {
    let broadwell = MachineConfig::broadwell();
    // Main run + 4 restarted points: the 4th point serves the original.
    assert_eq!(
        counted_profile(&broadwell, &ProfilingConfig::fast()),
        (4, 0xf284_7e45_d3cc_e0a8)
    );
    // Main run on a copy, then the one Dynaway run on the original.
    assert_eq!(
        counted_profile(&broadwell, &dynaway()),
        (1, 0x00c0_af04_2ff3_7243)
    );
}

#[test]
fn a_profile_without_a_sweep_copies_nothing() {
    let no_points = 0xa1ad_c76c_f653_9915;
    let broadwell = MachineConfig::broadwell();
    let restart = ProfilingConfig::fast().without_curves();
    assert_eq!(counted_profile(&broadwell, &restart), (0, no_points));
    // The `paper=true curves=false` shape: at 0900f40 the Dynaway arm built
    // and dropped a second dataset here that no request was served from.
    let paper_no_curves = dynaway().without_curves();
    assert_eq!(
        counted_profile(&broadwell, &paper_no_curves),
        (0, no_points)
    );
    // No partitionable LLC, so the configured sweep never runs.
    let (copies, _) = counted_profile(&MachineConfig::silvermont(), &ProfilingConfig::fast());
    assert_eq!(copies, 0);
}

/// The main run beside the sweep is invisible: run after run on one warm
/// arena — each taking back the machines and samplers both lanes of the
/// previous one recycled — gives the profile a fresh arena gives.
#[test]
fn twenty_profiles_on_one_warm_arena_are_one_profile() {
    let broadwell = MachineConfig::broadwell();
    let fast = ProfilingConfig::fast();
    let w = tiny_kv();
    let fresh = profile_fnv(&profile_workload(&w, &broadwell, &fast));
    assert_eq!(fresh, 0xf284_7e45_d3cc_e0a8);
    let mut arena = EvalArena::new();
    for run in 0..20 {
        let p = profile_app_cancellable_in(
            w.app.build(),
            w.load,
            &broadwell,
            &fast,
            &CancelToken::new(),
            &mut arena,
        );
        assert_eq!(profile_fnv(&p), fresh, "run {run}");
    }
}

#[test]
fn a_panic_on_the_main_run_lane_reaches_the_caller_with_its_payload() {
    let broadwell = MachineConfig::broadwell();
    let fast = ProfilingConfig::fast();
    let caller = std::thread::current().id();
    // Member 1 is the first copy taken: the main run's.
    let (app, load, family) = counted_kv(move |member, request| {
        if member == 1 && request > 40 {
            assert_ne!(
                std::thread::current().id(),
                caller,
                "main run on the caller"
            );
            panic!("the main run's copy gave up");
        }
    });
    let mut arena = EvalArena::new();
    let cancel = CancelToken::new();
    let payload = catch_unwind(AssertUnwindSafe(|| {
        profile_app_cancellable_in(app, load, &broadwell, &fast, &cancel, &mut arena)
    }))
    .expect_err("the lane's panic must not be swallowed");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"the main run's copy gave up")
    );
    // Every member is dropped, the spawned lane's included: no run of this
    // profile is still going.
    assert_eq!(Arc::strong_count(&family), 1);
    // The arena lost a machine to the unwinding and needs no repair.
    let (app, load, _) = counted_kv(|_, _| {});
    let p = profile_app_cancellable_in(app, load, &broadwell, &fast, &cancel, &mut arena);
    assert_eq!(profile_fnv(&p), 0xf284_7e45_d3cc_e0a8);
}

#[test]
fn a_token_cancelled_mid_run_truncates_both_lanes() {
    let broadwell = MachineConfig::broadwell();
    let fast = ProfilingConfig::fast();
    let cancel = CancelToken::new();
    // Members 1 and 2 are the main run's copy and the first sweep point's.
    // Each waits at its first request until the other has got there, so
    // both lanes are inside their warm-up interval when the token fires.
    let arrived = (Mutex::new([false; 2]), Condvar::new());
    let token = cancel.clone();
    let (app, load, family) = counted_kv(move |member, request| {
        if member == 1 || member == 2 {
            let (here, changed) = &arrived;
            let mut here = here.lock().unwrap();
            if !here[member - 1] {
                here[member - 1] = true;
                changed.notify_all();
                let (_here, wait) = changed
                    .wait_timeout_while(here, Duration::from_secs(20), |h| !(h[0] && h[1]))
                    .unwrap();
                assert!(
                    !wait.timed_out(),
                    "the main run and the sweep never overlapped"
                );
            }
        }
        if request == 30 {
            token.cancel();
        }
    });
    let p =
        profile_app_cancellable_in(app, load, &broadwell, &fast, &cancel, &mut EvalArena::new());
    // A cancelled run stops at its first real sample; no later point starts
    // (an undisturbed profile has 10 samples, 4 points and 4 copies).
    assert_eq!(p.dist(DistMetric::Ipc).len(), 1);
    assert_eq!(p.curve().len(), 1);
    assert!(p.curve()[0].ipc.is_finite() && p.curve()[0].llc_mpki.is_finite());
    assert_eq!(family.copies.load(Ordering::SeqCst), 2);
}
