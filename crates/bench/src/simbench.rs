//! Simulator-kernel microbenchmarks with deterministic inputs.
//!
//! Each [`Kernel`] is a self-contained measurement target: a fixed-seed
//! workload driven through one `datamime-sim` hot loop (cache lookup, TLB
//! translation, the full `Machine` access path, counter sampling, a
//! replay of recorded application traffic); for the `apps/...` pair, one
//! dataset build and one per-run copy of it; for the `bayesopt/...` four,
//! one hyperparameter fit and one plain `suggest` at three history sizes.
//! The `bench_sim` binary behind `scripts/bench.sh` runs them and reports
//! median + IQR nanoseconds per operation into `BENCH_sim.json`.
//!
//! Every kernel returns a **checksum** folded from the values it computed
//! — the simulator's own counters, the optimiser's fitted parameters or
//! suggested point. The checksum is a semantic fingerprint: any change to
//! the kernels that alters behaviour — rather than just making the same
//! behaviour faster — shows up as a checksum mismatch against the
//! committed baseline, which is how the benchmark enforces that the
//! fast-path rewrites stayed bit-identical.

use datamime_apps::{
    App, KvBase, KvConfig, KvStore, SearchConfig, SearchEngine, SiloConfig, SiloDb, SizeDist,
};
use datamime_bayesopt::{
    reference, BayesOpt, BlackBoxOptimizer, BoConfig, GaussianProcess, Kernel as GpKernel,
};
use datamime_dist::{read_frame, write_frame, Frame};
use datamime_sim::{
    Access, Cache, CacheConfig, Machine, MachineConfig, RefCache, RefTlb, Replacement, Sampler, Tlb,
};
use datamime_stats::Rng;
use std::os::unix::net::UnixStream;

/// Seed for every kernel's address-stream generator.
pub const BENCH_SEED: u64 = 0xBE7C_517E;

/// One microbenchmark: a name, the number of simulated operations one
/// invocation performs, and the invocation itself.
pub struct Kernel {
    /// Bench identifier (`sim/...`), stable across runs.
    pub name: &'static str,
    /// Simulated operations per invocation (the ns/op divisor).
    pub ops: u64,
    /// Runs one invocation and returns the counter checksum.
    pub run: Box<dyn FnMut() -> u64>,
}

fn mix(h: u64, v: u64) -> u64 {
    // splitmix64 finalizer — order-sensitive fold for checksums.
    let mut x = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x.wrapping_mul(0x94D0_49BB_1331_11EB)
}

/// Deterministic address stream: draws from a hot, a warm, and a big
/// region so a cache hierarchy sees hits and misses at every level.
fn address_stream(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = Rng::with_seed(seed);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let r = rng.f64();
        let addr = if r < 0.55 {
            // Hot: 16 KB, L1-resident.
            0x1000_0000 + rng.below(16 * 1024 / 64) * 64
        } else if r < 0.85 {
            // Warm: 192 KB, L2-resident.
            0x2000_0000 + rng.below(192 * 1024 / 64) * 64
        } else {
            // Big: 32 MB, spills the LLC.
            0x4000_0000 + rng.below(32 * (1 << 20) / 64) * 64
        };
        out.push(addr);
    }
    out
}

/// A three-level L1/L2/LLC lookup chain (Broadwell geometries, DRRIP LLC)
/// over a mixed-locality address stream, one address at a time through
/// [`Cache::access`] — the chain `Machine` runs for every data line.
pub fn l1l2llc_access() -> Kernel {
    const N: usize = 200_000;
    let stream = address_stream(N, BENCH_SEED);
    let mut l1 = Cache::new(CacheConfig::new(32 * 1024, 8));
    let mut l2 = Cache::new(CacheConfig::new(256 * 1024, 8));
    let mut llc = Cache::new(CacheConfig {
        size_bytes: 12 << 20,
        ways: 12,
        line_bytes: 64,
        replacement: Replacement::Drrip,
    });
    Kernel {
        name: "sim/l1l2llc_access",
        ops: N as u64,
        run: Box::new(move || {
            for &a in &stream {
                if l1.access(a, false).is_miss() && l2.access(a, false).is_miss() {
                    let _ = llc.access(a, false);
                }
            }
            mix(mix(mix(0, l1.hits()), l2.misses()), llc.misses())
        }),
    }
}

/// Pure L1 hit loop: a 16 KB working set cycled through a 32 KB 8-way
/// cache — the best case the lookup fast path must win on.
pub fn cache_l1_hit() -> Kernel {
    const N: usize = 262_144;
    let mut cache = Cache::new(CacheConfig::new(32 * 1024, 8));
    let lines: Vec<u64> = (0..256u64).map(|i| 0x1000_0000 + i * 64).collect();
    Kernel {
        name: "sim/cache_l1_hit",
        ops: N as u64,
        run: Box::new(move || {
            for i in 0..N {
                let _ = cache.access(lines[i & 255], i & 7 == 0);
            }
            mix(cache.hits(), cache.misses())
        }),
    }
}

/// DRRIP eviction churn: a 2× working set cycled through a 16 KB LLC
/// slice, exercising victim selection and set dueling.
pub fn cache_llc_drrip() -> Kernel {
    const N: usize = 131_072;
    let mut cache = Cache::new(CacheConfig {
        size_bytes: 16 * 1024,
        ways: 8,
        line_bytes: 64,
        replacement: Replacement::Drrip,
    });
    let lines: Vec<u64> = (0..512u64).map(|i| 0x1000_0000 + i * 64).collect();
    Kernel {
        name: "sim/cache_llc_drrip",
        ops: N as u64,
        run: Box::new(move || {
            for i in 0..N {
                let _ = cache.access(lines[i & 511], false);
            }
            mix(cache.hits(), cache.misses())
        }),
    }
}

/// TLB translation loop over a page stream with reach-sized locality.
pub fn tlb_access() -> Kernel {
    const N: usize = 262_144;
    let mut tlb = Tlb::new(datamime_sim::TlbConfig::new(64, 4));
    let mut rng = Rng::with_seed(BENCH_SEED ^ 0x71b);
    let pages: Vec<u64> = (0..N).map(|_| rng.below(96) * 4096).collect();
    Kernel {
        name: "sim/tlb_access",
        ops: N as u64,
        run: Box::new(move || {
            for &p in &pages {
                let _ = tlb.access(p);
            }
            mix(tlb.hits(), tlb.misses())
        }),
    }
}

/// The full data-side `Machine::load` path (TLB + prefetcher + L1/L2/LLC
/// + penalty accounting) over the mixed-locality stream.
pub fn machine_load() -> Kernel {
    const N: usize = 100_000;
    let stream = address_stream(N, BENCH_SEED ^ 0x10ad);
    let mut m = Machine::new(MachineConfig::broadwell());
    Kernel {
        name: "sim/machine_load",
        ops: N as u64,
        run: Box::new(move || {
            for &a in &stream {
                m.load(a, 8);
            }
            let c = m.counters();
            mix(
                mix(mix(c.busy_cycles, c.l1d_misses), c.llc_misses),
                c.dtlb_misses,
            )
        }),
    }
}

/// The frontend `Machine::exec` path: straight-line spans through the
/// ITLB and L1I with a modest code footprint.
pub fn machine_exec() -> Kernel {
    const N: usize = 50_000;
    let mut m = Machine::new(MachineConfig::broadwell());
    let mut rng = Rng::with_seed(BENCH_SEED ^ 0xe8ec);
    let spans: Vec<u64> = (0..N).map(|_| 0x4000_0000 + rng.below(24) * 4096).collect();
    Kernel {
        name: "sim/machine_exec",
        ops: N as u64,
        run: Box::new(move || {
            for &pc in &spans {
                m.exec(pc, 256, 64);
            }
            let c = m.counters();
            mix(mix(c.busy_cycles, c.l1i_misses), c.itlb_misses)
        }),
    }
}

/// Counter sampling: `Sampler::poll` called far more often than the
/// interval elapses — the no-sample early-out is the hot path.
pub fn sampler_poll() -> Kernel {
    const N: usize = 200_000;
    let mut m = Machine::new(MachineConfig::broadwell());
    let mut s = Sampler::new(1_000_000);
    Kernel {
        name: "sim/sampler_poll",
        ops: N as u64,
        run: Box::new(move || {
            for _ in 0..N {
                m.exec(0x4000_0000, 64, 32);
                s.poll(&m);
            }
            mix(m.counters().busy_cycles, s.samples().len() as u64)
        }),
    }
}

/// Replays recorded application traffic: `requests` seeded
/// [`App::serve`] calls are recorded off a Broadwell machine at set-up,
/// and an invocation is one [`datamime_sim::Trace::replay`] of that trace
/// on a second machine — the event stream a search's evaluations send the
/// simulator, without the application's own work. One op is one event;
/// the checksum folds every counter.
fn replay_kernel(name: &'static str, mut app: impl App, requests: usize) -> Kernel {
    let mut recorder = Machine::new(MachineConfig::broadwell());
    let mut rng = Rng::with_seed(BENCH_SEED ^ 0x7ace);
    recorder.start_recording();
    for _ in 0..requests {
        app.serve(&mut recorder, &mut rng);
    }
    let trace = recorder.stop_recording().expect("recording was started");
    let mut m = Machine::new(MachineConfig::broadwell());
    Kernel {
        name,
        ops: trace.len() as u64,
        run: Box::new(move || {
            trace.replay(&mut m);
            let c = m.counters();
            [
                c.instructions,
                c.busy_cycles,
                c.idle_cycles,
                c.l1i_misses,
                c.l1d_misses,
                c.l2_misses,
                c.llc_misses,
                c.itlb_misses,
                c.dtlb_misses,
                c.branches,
                c.branch_mispredicts,
                c.memory_bytes,
            ]
            .into_iter()
            .fold(0, mix)
        }),
    }
}

/// The `xapian_bo_long` target's traffic: exec spans of tens of lines and
/// posting-list loads of eight to nine, the shapes no synthetic
/// `sim/machine_*` kernel issues.
pub fn replay_xapian() -> Kernel {
    let engine = SearchEngine::new(SearchConfig::wikipedia_target());
    replay_kernel("sim/replay_xapian", engine, 200)
}

/// The `silo_proc_journal` target's traffic: B-tree descents and record
/// updates, mostly short multi-line loads and stores.
pub fn replay_silo() -> Kernel {
    let db = SiloDb::new(SiloConfig::bidding_target());
    replay_kernel("sim/replay_silo", db, 2000)
}

/// The distributed backend's wire path: one `Eval` frame encoded, pushed
/// through a Unix socket pair, read back, CRC-checked, and decoded per
/// op — the per-evaluation overhead `backend=proc` adds on top of the
/// simulator work itself.
pub fn ipc_roundtrip() -> Kernel {
    const N: usize = 20_000;
    let (mut tx, mut rx) = UnixStream::pair().expect("socketpair");
    let mut rng = Rng::with_seed(BENCH_SEED ^ 0x1bc);
    let frames: Vec<Frame> = (0..N)
        .map(|i| Frame::Eval {
            index: i as u64,
            attempt: 0,
            dispatch: 1,
            unit_bits: (0..6).map(|_| rng.f64().to_bits()).collect(),
        })
        .collect();
    Kernel {
        name: "dist/ipc_roundtrip",
        ops: N as u64,
        run: Box::new(move || {
            let mut h = 0;
            for frame in &frames {
                write_frame(&mut tx, frame).expect("socket write");
                match read_frame(&mut rx).expect("socket read") {
                    Frame::Eval {
                        index,
                        attempt,
                        dispatch,
                        unit_bits,
                    } => {
                        h = mix(h, index);
                        h = mix(h, u64::from(attempt) ^ (u64::from(dispatch) << 32));
                        for bits in unit_bits {
                            h = mix(h, bits);
                        }
                    }
                    other => panic!("decoded the wrong frame kind: {other:?}"),
                }
            }
            h
        }),
    }
}

/// The dataset the memcached generator instantiates at the mid-point of
/// its parameter cube: 120 000 keys, Gaussian sizes, half the requests
/// SETs.
fn kv_midpoint() -> KvConfig {
    KvConfig {
        n_keys: 120_000,
        key_size: SizeDist::Normal {
            mean: 68.0,
            std: 24.0,
        },
        value_size: SizeDist::Normal {
            mean: 362.0,
            std: 64.0,
        },
        get_ratio: 0.5,
        popularity_skew: 1.0,
        networked: false,
        value_redundancy: None,
        multiget_fraction: 0.0,
        seed: 0x5EED,
    }
}

/// Fingerprint of a store: its footprint plus the counters of 3 000
/// requests served on a fresh Broadwell machine — chain order, item
/// addresses and allocator state all show up in them.
fn kv_fingerprint(store: &mut dyn App) -> u64 {
    let mut m = Machine::new(MachineConfig::broadwell());
    let mut rng = Rng::with_seed(BENCH_SEED ^ 0x4b76);
    for _ in 0..3_000 {
        store.serve(&mut m, &mut rng);
    }
    let c = m.counters();
    let h = mix(mix(0, store.footprint_bytes()), c.instructions);
    mix(mix(mix(h, c.busy_cycles), c.l1d_misses), c.llc_misses)
}

/// One dataset build: what every evaluation of the Fig. 10 search pays
/// once. Serving the fingerprint's requests costs about as much as the
/// build, so only the first invocation — the untimed one whose checksum is
/// recorded — serves them; the timed ones are the build alone. The build
/// runs on two lanes ([`KvStore::new`]), so this kernel's time depends on
/// whether the host's second core is free; its checksum does not.
pub fn kv_build() -> Kernel {
    let cfg = kv_midpoint();
    let mut fingerprint = None;
    Kernel {
        name: "apps/kv_build",
        ops: cfg.n_keys as u64,
        run: Box::new(move || {
            let mut store = std::hint::black_box(KvStore::new(cfg.clone()));
            *fingerprint.get_or_insert_with(|| kv_fingerprint(&mut store))
        }),
    }
}

/// The per-point half of a build alone: [`KvStore::from_base`] on one
/// [`KvBase`] of the mid-point dataset, built outside the timing — what each
/// evaluation of a search pays for its dataset once its generator holds a
/// base. Fingerprinted like [`kv_build`], and to the same value: a store
/// built on a shared base is the store a fresh build makes.
pub fn kv_point() -> Kernel {
    let cfg = kv_midpoint();
    let base = KvBase::new(&cfg);
    let mut fingerprint = None;
    Kernel {
        name: "apps/kv_point",
        ops: cfg.n_keys as u64,
        run: Box::new(move || {
            let mut store = std::hint::black_box(KvStore::from_base(cfg.clone(), &base));
            *fingerprint.get_or_insert_with(|| kv_fingerprint(&mut store))
        }),
    }
}

/// Per-run copies of the built dataset ([`App::fork`]): what each run of a
/// profile but the last pays instead of a rebuild, reported per copy. A
/// copy shares the item table and owns only its write overlay and
/// allocator, so it takes well under a microsecond; an invocation takes
/// 1 024, long enough that a timer tick cannot double a reading.
/// Fingerprinted
/// like [`kv_build`] — and to the same value, since a copy of a fresh
/// build is a rebuild.
pub fn kv_fork() -> Kernel {
    const COPIES: u64 = 1_024;
    let built = KvStore::new(kv_midpoint());
    let mut fingerprint = None;
    Kernel {
        name: "apps/kv_fork",
        ops: COPIES,
        run: Box::new(move || {
            let mut h = 0;
            for _ in 0..COPIES {
                let mut copy = std::hint::black_box(built.fork());
                h = *fingerprint.get_or_insert_with(|| kv_fingerprint(copy.as_mut()));
            }
            h
        }),
    }
}

/// Input dimension of the optimiser kernels: the xapian generator's, the
/// search whose wall the optimiser takes its largest share of.
const BO_DIMS: usize = 4;

/// The objective behind the optimiser kernels' observations: a bowl with
/// an off-centre minimum, one cross term, and a ripple too fine for the
/// surrogate to resolve — the posterior stays uncertain, so the suggested
/// point depends on every observation held.
fn bo_objective(x: &[f64]) -> f64 {
    let bowl: f64 = x
        .iter()
        .zip([0.3, 0.45, 0.6, 0.75])
        .map(|(v, c)| (v - c) * (v - c))
        .sum();
    bowl + 0.5 * x[0] * x[BO_DIMS - 1] + 0.05 * (40.0 * x[1] + 25.0 * x[2]).sin()
}

fn mix_point(h: u64, x: &[f64]) -> u64 {
    x.iter().fold(h, |h, v| mix(h, v.to_bits()))
}

/// Fingerprint of a fitted surrogate: every hyperparameter and the log
/// marginal likelihood, bit for bit.
fn mix_fit(kernel: &GpKernel, noise: f64, lml: f64) -> u64 {
    let (GpKernel::Matern52 {
        variance,
        lengthscales,
    }
    | GpKernel::SquaredExp {
        variance,
        lengthscales,
    }) = kernel;
    let h = mix(mix_point(0, lengthscales), variance.to_bits());
    mix(mix(h, noise.to_bits()), lml.to_bits())
}

/// Runs one hyperparameter fit of a kernel family on `(xs, ys)` with one
/// GP stack and fingerprints the result with [`mix_fit`].
type HyperFit = fn(GpKernel, Vec<Vec<f64>>, Vec<f64>, &mut Rng) -> u64;

/// One hyperparameter fit — four 120-step Nelder–Mead starts over the log
/// marginal likelihood — on 88 uniformly drawn observations, the size of
/// the largest refit a 90-iteration search pays. One op is one fit.
fn bo_hyperfit(name: &'static str, fit: HyperFit) -> Kernel {
    let mut rng = Rng::with_seed(BENCH_SEED ^ 0xb0f1);
    let xs: Vec<Vec<f64>> = (0..88)
        .map(|_| (0..BO_DIMS).map(|_| rng.f64()).collect())
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| bo_objective(x)).collect();
    let family = BoConfig::for_dims(BO_DIMS).kernel;
    Kernel {
        name,
        ops: 1,
        run: Box::new(move || {
            let mut rng = Rng::with_seed(BENCH_SEED ^ 0x5eed);
            fit(family.clone(), xs.clone(), ys.clone(), &mut rng)
        }),
    }
}

/// [`GaussianProcess::fit_hyperparams`] at 88 observations; the checksum
/// folds the fitted lengthscales, variance, noise and marginal likelihood.
pub fn bo_hyperfit_n88() -> Kernel {
    bo_hyperfit("bayesopt/hyperfit_n88", |family, xs, ys, rng| {
        let gp = GaussianProcess::fit_hyperparams(family, xs, ys, rng)
            .expect("the bench data is well-conditioned");
        mix_fit(gp.kernel(), gp.noise(), gp.log_marginal_likelihood())
    })
}

/// Reference twin of [`bo_hyperfit_n88`].
fn reference_bo_hyperfit_n88() -> Kernel {
    bo_hyperfit("reference/bayesopt_hyperfit_n88", |family, xs, ys, rng| {
        let gp = reference::GaussianProcess::fit_hyperparams(family, xs, ys, rng)
            .expect("the bench data is well-conditioned");
        mix_fit(gp.kernel(), gp.noise(), gp.log_marginal_likelihood())
    })
}

/// Observations the optimiser kernels' hyperparameters are fitted on: the
/// fit is set-up, not the measured work, and one at 200 points would cost
/// more than every timed repetition together.
const BO_FIT_AT: usize = 32;

/// Feeds `bo` a fixed `n`-point history and leaves it ready for plain
/// suggests: a 32-point initial design, the one hyperparameter fit the
/// first model-based suggest always runs, then uniform draws observed
/// without asking for suggestions. `refit_every` must be out of reach.
fn bo_with_history<O: BlackBoxOptimizer>(mut bo: O, n: usize) -> O {
    for _ in 0..BO_FIT_AT {
        let x = bo.suggest();
        let y = bo_objective(&x);
        bo.observe(x, y);
    }
    bo.suggest();
    let mut rng = Rng::with_seed(BENCH_SEED ^ 0xb0f2);
    for _ in BO_FIT_AT..n {
        let x: Vec<f64> = (0..BO_DIMS).map(|_| rng.f64()).collect();
        let y = bo_objective(&x);
        bo.observe(x, y);
    }
    bo
}

/// The optimiser configuration of the suggest kernels: the defaults for
/// [`BO_DIMS`] with the initial design sized to [`BO_FIT_AT`] and no
/// periodic hyperparameter refit.
fn bo_suggest_config() -> BoConfig {
    let mut cfg = BoConfig::for_dims(BO_DIMS);
    cfg.init_points = BO_FIT_AT;
    cfg.refit_every = usize::MAX;
    cfg
}

/// One plain `suggest` — refit at the held hyperparameters, then 1280
/// acquisition candidates — on a fixed `n`-point history
/// ([`bo_with_history`]), by the optimiser `new` builds. One op is one
/// scored candidate; the checksum folds the suggested point.
fn bo_suggest<O: BlackBoxOptimizer + 'static>(
    name: &'static str,
    n: usize,
    new: fn(BoConfig, u64) -> O,
) -> Kernel {
    let cfg = bo_suggest_config();
    let ops = (cfg.candidates + cfg.local_candidates) as u64;
    let mut bo = bo_with_history(new(cfg, BENCH_SEED), n);
    Kernel {
        name,
        ops,
        run: Box::new(move || mix_point(0, &bo.suggest())),
    }
}

/// One plain `suggest` per invocation at 32, 88 and 200 observations: the
/// cost-vs-n curve up to the paper's 200 iterations.
pub fn bo_suggest_curve() -> [Kernel; 3] {
    [
        bo_suggest("bayesopt/suggest_n32", 32, BayesOpt::new),
        bo_suggest("bayesopt/suggest_n88", 88, BayesOpt::new),
        bo_suggest("bayesopt/suggest_n200", 200, BayesOpt::new),
    ]
}

/// Reference twins of [`bo_suggest_curve`].
fn reference_bo_suggest_curve() -> [Kernel; 3] {
    let new = reference::BayesOpt::new;
    [
        bo_suggest("reference/bayesopt_suggest_n32", 32, new),
        bo_suggest("reference/bayesopt_suggest_n88", 88, new),
        bo_suggest("reference/bayesopt_suggest_n200", 200, new),
    ]
}

/// Every kernel, in report order.
pub fn all_kernels() -> Vec<Kernel> {
    vec![
        l1l2llc_access(),
        cache_l1_hit(),
        cache_llc_drrip(),
        tlb_access(),
        machine_load(),
        machine_exec(),
        sampler_poll(),
        replay_xapian(),
        replay_silo(),
        ipc_roundtrip(),
        kv_build(),
        kv_point(),
        kv_fork(),
        bo_hyperfit_n88(),
    ]
    .into_iter()
    .chain(bo_suggest_curve())
    .collect()
}

/// Reference twins, each paired with the name of the kernel in
/// [`all_kernels`] it must fingerprint like.
///
/// The `scalar/<kernel>` twins of the cache/TLB kernels are built on the
/// straight-line reference models (`RefCache`/`RefTlb`) with strictly
/// per-access formulations — no batching, no specialization, no narrow
/// tags. The `reference/bayesopt_<kernel>` twins drive
/// `datamime_bayesopt::reference`, the row-ordered allocate-per-call GP
/// stack the column-major core replaced.
///
/// Each twin folds the **same values in the same order** as its
/// counterpart, so equal behaviour means equal checksums. `bench_sim
/// --cross-check` runs both sides and fails on any mismatch; this is the
/// runtime complement to the equivalence property tests of `crates/sim`
/// and `crates/bayesopt`, pinned on the exact inputs the benchmarks
/// measure. (The `machine_*` and `replay_*` kernels have no twin here:
/// `Machine` is held to `RefMachine` by the sim crate's proptests and, on
/// recorded application traffic, by `tests/integration_fork.rs`.)
pub fn reference_kernels() -> Vec<(&'static str, Kernel)> {
    let [suggest_n32, suggest_n88, suggest_n200] = reference_bo_suggest_curve();
    vec![
        ("sim/l1l2llc_access", scalar_l1l2llc_access()),
        ("sim/cache_l1_hit", scalar_cache_l1_hit()),
        ("sim/cache_llc_drrip", scalar_cache_llc_drrip()),
        ("sim/tlb_access", scalar_tlb_access()),
        ("bayesopt/hyperfit_n88", reference_bo_hyperfit_n88()),
        ("bayesopt/suggest_n32", suggest_n32),
        ("bayesopt/suggest_n88", suggest_n88),
        ("bayesopt/suggest_n200", suggest_n200),
    ]
}

/// Per-access reference formulation of [`l1l2llc_access`]: the classic
/// `l1 miss → l2 → llc` chain, one address at a time through `RefCache`.
fn scalar_l1l2llc_access() -> Kernel {
    const N: usize = 200_000;
    let stream = address_stream(N, BENCH_SEED);
    let mut l1 = RefCache::new(CacheConfig::new(32 * 1024, 8));
    let mut l2 = RefCache::new(CacheConfig::new(256 * 1024, 8));
    let mut llc = RefCache::new(CacheConfig {
        size_bytes: 12 << 20,
        ways: 12,
        line_bytes: 64,
        replacement: Replacement::Drrip,
    });
    Kernel {
        name: "scalar/l1l2llc_access",
        ops: N as u64,
        run: Box::new(move || {
            for &a in &stream {
                if let Access::Miss { .. } = l1.access(a, false) {
                    if let Access::Miss { .. } = l2.access(a, false) {
                        let _ = llc.access(a, false);
                    }
                }
            }
            mix(mix(mix(0, l1.hits()), l2.misses()), llc.misses())
        }),
    }
}

/// Reference twin of [`cache_l1_hit`].
fn scalar_cache_l1_hit() -> Kernel {
    const N: usize = 262_144;
    let mut cache = RefCache::new(CacheConfig::new(32 * 1024, 8));
    let lines: Vec<u64> = (0..256u64).map(|i| 0x1000_0000 + i * 64).collect();
    Kernel {
        name: "scalar/cache_l1_hit",
        ops: N as u64,
        run: Box::new(move || {
            for i in 0..N {
                let _ = cache.access(lines[i & 255], i & 7 == 0);
            }
            mix(cache.hits(), cache.misses())
        }),
    }
}

/// Reference twin of [`cache_llc_drrip`].
fn scalar_cache_llc_drrip() -> Kernel {
    const N: usize = 131_072;
    let mut cache = RefCache::new(CacheConfig {
        size_bytes: 16 * 1024,
        ways: 8,
        line_bytes: 64,
        replacement: Replacement::Drrip,
    });
    let lines: Vec<u64> = (0..512u64).map(|i| 0x1000_0000 + i * 64).collect();
    Kernel {
        name: "scalar/cache_llc_drrip",
        ops: N as u64,
        run: Box::new(move || {
            for i in 0..N {
                let _ = cache.access(lines[i & 511], false);
            }
            mix(cache.hits(), cache.misses())
        }),
    }
}

/// Reference twin of [`tlb_access`].
fn scalar_tlb_access() -> Kernel {
    const N: usize = 262_144;
    let mut tlb = RefTlb::new(datamime_sim::TlbConfig::new(64, 4));
    let mut rng = Rng::with_seed(BENCH_SEED ^ 0x71b);
    let pages: Vec<u64> = (0..N).map(|_| rng.below(96) * 4096).collect();
    Kernel {
        name: "scalar/tlb_access",
        ops: N as u64,
        run: Box::new(move || {
            for &p in &pages {
                let _ = tlb.access(p);
            }
            mix(tlb.hits(), tlb.misses())
        }),
    }
}

/// `(q1, median, q3)` of a sample set (linear interpolation).
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn quartiles(samples: &mut [f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty(), "quartiles of an empty sample set");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("bench times are finite"));
    let q = |p: f64| -> f64 {
        let idx = p * (samples.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        let frac = idx - lo as f64;
        samples[lo] * (1.0 - frac) + samples[hi] * frac
    };
    (q(0.25), q(0.5), q(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_deterministic() {
        // Two fresh instances of the same kernel produce the same
        // checksum on their first invocation.
        for (mut a, mut b) in all_kernels().into_iter().zip(all_kernels()) {
            assert_eq!((a.run)(), (b.run)(), "{} not deterministic", a.name);
        }
    }

    #[test]
    fn scalar_twins_checksum_match_batched_kernels() {
        // The in-process version of `bench_sim --cross-check`: every
        // reference twin must fingerprint identically to its fast kernel.
        let mut fast = all_kernels();
        for (fast_name, mut twin) in reference_kernels() {
            let kernel = fast
                .iter_mut()
                .find(|k| k.name == fast_name)
                .unwrap_or_else(|| panic!("no fast kernel for {}", twin.name));
            assert_eq!((kernel.run)(), (twin.run)(), "{} diverged", twin.name);
        }
    }

    #[test]
    fn a_forked_store_fingerprints_like_a_built_one() {
        assert_eq!((kv_build().run)(), (kv_fork().run)());
    }

    #[test]
    fn a_store_on_a_shared_base_fingerprints_like_a_built_one() {
        assert_eq!((kv_build().run)(), (kv_point().run)());
    }

    #[test]
    fn quartiles_interpolate() {
        let mut xs = [4.0, 1.0, 2.0, 3.0];
        let (q1, med, q3) = quartiles(&mut xs);
        assert_eq!(med, 2.5);
        assert_eq!(q1, 1.75);
        assert_eq!(q3, 3.25);
    }
}
