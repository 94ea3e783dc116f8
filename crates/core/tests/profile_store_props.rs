//! Property tests for the profile store: its key and its bit-identity
//! promise.
//!
//! 1. **Every input changes the key.** Changing any single field of any
//!    `AppConfig` variant, of the `WorkloadSpec`, the `MachineConfig` or
//!    the `ProfilingConfig` — by one ulp or to a seeded random value —
//!    changes the key. Each struct is destructured without `..` below, so
//!    a new field does not compile until it has a mutation here.
//! 2. **Nothing else does.** The workload's name, the target, the error
//!    weights and the search seed leave the key alone: an evaluation
//!    under another target, weights and seed reuses the stored profile
//!    and scores it with its own objective.
//! 3. **A stored profile is a fresh profile.** For every catalog
//!    workload, the profile an evaluation stores and a later evaluation
//!    gets back is `to_bits`-equal to a fresh `profile_workload`.

use datamime::error_model::profile_error;
use datamime::generator::{DatasetGenerator, KvGenerator, ParamSpec};
use datamime::profile_store::{ProfileKey, ProfileStore};
use datamime::profiler::{profile_workload, CurveMethod};
use datamime::search::{emd_objective, evaluate, SearchConfig};
use datamime::{AppConfig, DistMetric, MetricWeights, Profile, ProfilingConfig, Workload};
use datamime_apps::{
    ImgDnnConfig, KvConfig, LayerSpec, MasstreeConfig, NetSpec, SearchConfig as XapianConfig,
    SiloConfig, SizeDist,
};
use datamime_loadgen::{ArrivalProcess, WorkloadSpec};
use datamime_runtime::{CancelToken, MetricsRegistry, StageTimes};
use datamime_sim::{BranchConfig, CacheConfig, MachineConfig, Penalties, Replacement, TlbConfig};
use std::sync::Arc;

/// SplitMix64: a fixed-seed generator, so a failure names a reproducible
/// case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A different finite `f64`: one ulp away, or a seeded random value.
fn f(x: &mut f64, rng: &mut Rng) {
    let old = *x;
    *x = if rng.below(2) == 0 {
        f64::from_bits(old.to_bits() ^ 1)
    } else {
        (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 1e6 - 5e5
    };
    if x.to_bits() == old.to_bits() {
        *x = f64::from_bits(old.to_bits() ^ 1);
    }
}

/// A different integer: one bit flipped, low bits favoured.
fn u<T>(x: &mut T, rng: &mut Rng)
where
    T: Copy + std::ops::BitXor<Output = T> + std::ops::Shl<u32, Output = T> + From<u8>,
{
    let bits = (8 * std::mem::size_of::<T>()) as u64;
    let bit = if rng.below(2) == 0 {
        rng.below(4)
    } else {
        rng.below(bits)
    };
    *x = *x ^ (T::from(1u8) << bit as u32);
}

fn usize_(x: &mut usize, rng: &mut Rng) {
    let mut v = *x as u64;
    u(&mut v, rng);
    *x = v as usize;
}

fn size_dist(d: &mut SizeDist, rng: &mut Rng) {
    match d {
        SizeDist::Fixed(v) => f(v, rng),
        SizeDist::Normal { mean, std } => f(if rng.below(2) == 0 { mean } else { std }, rng),
        SizeDist::LogNormal { mu, sigma } => f(if rng.below(2) == 0 { mu } else { sigma }, rng),
        SizeDist::GeneralizedPareto { mu, sigma, xi } => match rng.below(3) {
            0 => f(mu, rng),
            1 => f(sigma, rng),
            _ => f(xi, rng),
        },
        SizeDist::Uniform { lo, hi } => f(if rng.below(2) == 0 { lo } else { hi }, rng),
    }
}

/// A size distribution of another family with the same first parameter.
fn size_family(d: &mut SizeDist) {
    *d = match *d {
        SizeDist::Normal { mean, .. } => SizeDist::Fixed(mean),
        SizeDist::Fixed(v)
        | SizeDist::LogNormal { mu: v, .. }
        | SizeDist::GeneralizedPareto { mu: v, .. }
        | SizeDist::Uniform { lo: v, .. } => SizeDist::Normal { mean: v, std: 1.0 },
    };
}

type Mutation<T> = (&'static str, fn(&mut T, &mut Rng));

fn kv_mutations() -> Vec<Mutation<KvConfig>> {
    let KvConfig {
        n_keys: _,
        key_size: _,
        value_size: _,
        get_ratio: _,
        popularity_skew: _,
        networked: _,
        value_redundancy: _,
        multiget_fraction: _,
        seed: _,
    } = KvConfig::facebook_like();
    vec![
        ("n_keys", |c, r| usize_(&mut c.n_keys, r)),
        ("key_size", |c, r| size_dist(&mut c.key_size, r)),
        ("key_size family", |c, _| size_family(&mut c.key_size)),
        ("value_size", |c, r| size_dist(&mut c.value_size, r)),
        ("value_size family", |c, _| size_family(&mut c.value_size)),
        ("get_ratio", |c, r| f(&mut c.get_ratio, r)),
        ("popularity_skew", |c, r| f(&mut c.popularity_skew, r)),
        ("networked", |c, _| c.networked = !c.networked),
        ("value_redundancy", |c, r| match &mut c.value_redundancy {
            Some(v) if r.below(2) == 0 => f(v, r),
            Some(_) => c.value_redundancy = None,
            None => c.value_redundancy = Some(0.0),
        }),
        ("multiget_fraction", |c, r| f(&mut c.multiget_fraction, r)),
        ("seed", |c, r| u(&mut c.seed, r)),
    ]
}

fn silo_mutations() -> Vec<Mutation<SiloConfig>> {
    let SiloConfig {
        n_warehouses: _,
        tx_mix: _,
        n_bid_items: _,
        seed: _,
    } = SiloConfig::bidding_target();
    vec![
        ("n_warehouses", |c, r| u(&mut c.n_warehouses, r)),
        ("tx_mix", |c, r| {
            let i = r.below(6) as usize;
            f(&mut c.tx_mix[i], r);
        }),
        ("n_bid_items", |c, r| u(&mut c.n_bid_items, r)),
        ("seed", |c, r| u(&mut c.seed, r)),
    ]
}

fn xapian_mutations() -> Vec<Mutation<XapianConfig>> {
    let XapianConfig {
        n_docs: _,
        n_terms: _,
        doc_length: _,
        query_skew: _,
        term_freq_cap: _,
        seed: _,
    } = XapianConfig::wikipedia_target();
    vec![
        ("n_docs", |c, r| usize_(&mut c.n_docs, r)),
        ("n_terms", |c, r| usize_(&mut c.n_terms, r)),
        ("doc_length", |c, r| size_dist(&mut c.doc_length, r)),
        ("doc_length family", |c, _| size_family(&mut c.doc_length)),
        ("query_skew", |c, r| f(&mut c.query_skew, r)),
        ("term_freq_cap", |c, r| f(&mut c.term_freq_cap, r)),
        ("seed", |c, r| u(&mut c.seed, r)),
    ]
}

fn layer(l: &mut LayerSpec, r: &mut Rng) {
    match l {
        LayerSpec::Conv3x3 { out_ch }
        | LayerSpec::Conv3x3Strided { out_ch }
        | LayerSpec::Conv1x1 { out_ch } => {
            if r.below(2) == 0 {
                u(out_ch, r);
            } else {
                *l = LayerSpec::MaxPool;
            }
        }
        LayerSpec::Fc { out } => u(out, r),
        LayerSpec::MaxPool => *l = LayerSpec::Fc { out: 1 },
    }
}

fn net_mutations() -> Vec<Mutation<NetSpec>> {
    let NetSpec {
        height: _,
        width: _,
        channels: _,
        layers: _,
    } = NetSpec::resnet50_scaled();
    vec![
        ("height", |c, r| u(&mut c.height, r)),
        ("width", |c, r| u(&mut c.width, r)),
        ("channels", |c, r| u(&mut c.channels, r)),
        ("layers: one layer", |c, r| {
            let i = r.below(c.layers.len() as u64) as usize;
            layer(&mut c.layers[i], r);
        }),
        ("layers: one more", |c, _| c.layers.push(LayerSpec::MaxPool)),
        ("layers: one fewer", |c, _| {
            c.layers.pop();
        }),
    ]
}

fn masstree_mutations() -> Vec<Mutation<MasstreeConfig>> {
    let MasstreeConfig {
        n_keys: _,
        value_bytes: _,
        get_ratio: _,
        popularity_skew: _,
        seed: _,
    } = MasstreeConfig::ycsb_target();
    vec![
        ("n_keys", |c, r| u(&mut c.n_keys, r)),
        ("value_bytes", |c, r| u(&mut c.value_bytes, r)),
        ("get_ratio", |c, r| f(&mut c.get_ratio, r)),
        ("popularity_skew", |c, r| f(&mut c.popularity_skew, r)),
        ("seed", |c, r| u(&mut c.seed, r)),
    ]
}

fn img_dnn_mutations() -> Vec<Mutation<ImgDnnConfig>> {
    let ImgDnnConfig {
        input_dim: _,
        hidden: _,
        seed: _,
    } = ImgDnnConfig::mnist_target();
    vec![
        ("input_dim", |c, r| u(&mut c.input_dim, r)),
        ("hidden: one width", |c, r| {
            let i = r.below(c.hidden.len() as u64) as usize;
            u(&mut c.hidden[i], r);
        }),
        ("hidden: one more", |c, _| c.hidden.push(1)),
        ("hidden: one fewer", |c, _| {
            c.hidden.pop();
        }),
        ("seed", |c, r| u(&mut c.seed, r)),
    ]
}

fn load_mutations() -> Vec<Mutation<WorkloadSpec>> {
    let WorkloadSpec {
        qps: _,
        arrivals: _,
    } = WorkloadSpec::poisson(1.0);
    vec![
        ("qps", |c, r| f(&mut c.qps, r)),
        ("arrivals", |c, r| match &mut c.arrivals {
            ArrivalProcess::Mmpp {
                high_factor,
                low_factor,
                switch_mean_seconds,
            } => match r.below(4) {
                0 => f(high_factor, r),
                1 => f(low_factor, r),
                2 => f(switch_mean_seconds, r),
                _ => c.arrivals = ArrivalProcess::Poisson,
            },
            ArrivalProcess::Poisson => c.arrivals = ArrivalProcess::Uniform,
            ArrivalProcess::Uniform => c.arrivals = ArrivalProcess::bursty_default(),
        }),
    ]
}

fn cache(c: &mut CacheConfig, r: &mut Rng) {
    let CacheConfig {
        size_bytes,
        ways,
        line_bytes,
        replacement,
    } = c;
    match r.below(4) {
        0 => u(size_bytes, r),
        1 => u(ways, r),
        2 => u(line_bytes, r),
        _ => {
            *replacement = match replacement {
                Replacement::Lru => Replacement::Drrip,
                Replacement::Drrip => Replacement::Lru,
            }
        }
    }
}

fn tlb(t: &mut TlbConfig, r: &mut Rng) {
    let TlbConfig { entries, ways } = t;
    u(if r.below(2) == 0 { entries } else { ways }, r);
}

fn machine_mutations() -> Vec<Mutation<MachineConfig>> {
    let MachineConfig {
        name: _,
        freq_ghz: _,
        issue_width: _,
        l1i: _,
        l1d: _,
        l2: _,
        llc: _,
        itlb: _,
        dtlb: _,
        branch: _,
        penalties: _,
    } = MachineConfig::broadwell();
    vec![
        ("name", |c, _| c.name.push('+')),
        ("freq_ghz", |c, r| f(&mut c.freq_ghz, r)),
        ("issue_width", |c, r| f(&mut c.issue_width, r)),
        ("l1i", |c, r| cache(&mut c.l1i, r)),
        ("l1d", |c, r| cache(&mut c.l1d, r)),
        ("l2", |c, r| cache(&mut c.l2, r)),
        ("llc", |c, r| match &mut c.llc {
            Some(llc) if r.below(3) != 0 => cache(llc, r),
            Some(_) => c.llc = None,
            None => c.llc = Some(c.l2),
        }),
        ("itlb", |c, r| tlb(&mut c.itlb, r)),
        ("dtlb", |c, r| tlb(&mut c.dtlb, r)),
        ("branch", |c, r| {
            let BranchConfig {
                table_bits,
                history_bits,
            } = &mut c.branch;
            u(
                if r.below(2) == 0 {
                    table_bits
                } else {
                    history_bits
                },
                r,
            );
        }),
        ("penalties", |c, r| {
            let Penalties {
                l2_hit,
                llc_hit,
                memory,
                branch_mispredict,
                tlb_walk,
                mlp,
                frontend_stall_factor,
                prefetch_exposed,
            } = &mut c.penalties;
            let field = match r.below(8) {
                0 => l2_hit,
                1 => llc_hit,
                2 => memory,
                3 => branch_mispredict,
                4 => tlb_walk,
                5 => mlp,
                6 => frontend_stall_factor,
                _ => prefetch_exposed,
            };
            f(field, r);
        }),
    ]
}

fn profiling_mutations() -> Vec<Mutation<ProfilingConfig>> {
    let ProfilingConfig {
        interval_cycles: _,
        n_samples: _,
        curve_ways: _,
        curve_samples: _,
        curve_method: _,
        seed: _,
    } = ProfilingConfig::fast();
    vec![
        ("interval_cycles", |c, r| u(&mut c.interval_cycles, r)),
        ("n_samples", |c, r| usize_(&mut c.n_samples, r)),
        ("curve_ways", |c, r| match r.below(3) {
            0 if !c.curve_ways.is_empty() => {
                let i = r.below(c.curve_ways.len() as u64) as usize;
                u(&mut c.curve_ways[i], r);
            }
            1 => {
                c.curve_ways.pop();
            }
            _ => c.curve_ways.push(2),
        }),
        ("curve_samples", |c, r| usize_(&mut c.curve_samples, r)),
        ("curve_method", |c, _| {
            c.curve_method = match c.curve_method {
                CurveMethod::Restart => CurveMethod::Dynaway,
                CurveMethod::Dynaway => CurveMethod::Restart,
            }
        }),
        ("seed", |c, r| u(&mut c.seed, r)),
    ]
}

/// Applies every mutation of `muts` to a copy of `base` under `cases`
/// seeds and checks each changes `key_of`'s key.
fn each_changes_the_key<T: Clone>(
    what: &str,
    base: &T,
    muts: &[Mutation<T>],
    rng: &mut Rng,
    key_of: &dyn Fn(&T) -> ProfileKey,
) {
    let want = key_of(base);
    for (field, mutate) in muts {
        for case in 0..24 {
            let mut changed = base.clone();
            mutate(&mut changed, rng);
            assert_ne!(
                key_of(&changed),
                want,
                "{what}: changing {field} (case {case}) left the key alone"
            );
        }
    }
}

#[test]
fn every_single_field_change_changes_the_key() {
    let mut rng = Rng(0x5702_E4E1);
    let machines = [
        MachineConfig::broadwell(),
        MachineConfig::zen2(),
        MachineConfig::silvermont(),
    ];
    let fidelities = [ProfilingConfig::fast(), ProfilingConfig::paper_default()];
    for w in Workload::catalog() {
        for m in &machines {
            for p in &fidelities {
                let what = format!("{} on {} ({:?})", w.name, m.name, p.curve_method);
                let app = |app: AppConfig| {
                    let w = Workload { app, ..w.clone() };
                    ProfileKey::new(&w, m, p)
                };
                match &w.app {
                    AppConfig::Kv(c) => {
                        each_changes_the_key(&what, c, &kv_mutations(), &mut rng, &|c| {
                            app(AppConfig::Kv(c.clone()))
                        })
                    }
                    AppConfig::Silo(c) => {
                        each_changes_the_key(&what, c, &silo_mutations(), &mut rng, &|c| {
                            app(AppConfig::Silo(c.clone()))
                        })
                    }
                    AppConfig::Search(c) => {
                        each_changes_the_key(&what, c, &xapian_mutations(), &mut rng, &|c| {
                            app(AppConfig::Search(c.clone()))
                        })
                    }
                    AppConfig::Dnn(c) => {
                        each_changes_the_key(&what, c, &net_mutations(), &mut rng, &|c| {
                            app(AppConfig::Dnn(c.clone()))
                        })
                    }
                    AppConfig::Masstree(c) => {
                        each_changes_the_key(&what, c, &masstree_mutations(), &mut rng, &|c| {
                            app(AppConfig::Masstree(c.clone()))
                        })
                    }
                    AppConfig::ImgDnn(c) => {
                        each_changes_the_key(&what, c, &img_dnn_mutations(), &mut rng, &|c| {
                            app(AppConfig::ImgDnn(c.clone()))
                        })
                    }
                }
                each_changes_the_key(&what, &w.load, &load_mutations(), &mut rng, &|load| {
                    let w = Workload {
                        load: *load,
                        ..w.clone()
                    };
                    ProfileKey::new(&w, m, p)
                });
                each_changes_the_key(&what, m, &machine_mutations(), &mut rng, &|m| {
                    ProfileKey::new(&w, m, p)
                });
                each_changes_the_key(&what, p, &profiling_mutations(), &mut rng, &|p| {
                    ProfileKey::new(&w, m, p)
                });
            }
        }
    }
}

#[test]
fn one_variant_never_keys_like_another() {
    let (m, p) = (MachineConfig::broadwell(), ProfilingConfig::fast());
    let keys: Vec<ProfileKey> = Workload::catalog()
        .iter()
        .map(|w| ProfileKey::new(w, &m, &p))
        .collect();
    for (i, a) in keys.iter().enumerate() {
        for b in &keys[i + 1..] {
            assert_ne!(a, b);
        }
    }
}

/// Two profiles agree bit for bit: every sample of every metric and every
/// curve point.
fn assert_bit_equal(a: &Profile, b: &Profile, what: &str) {
    for m in DistMetric::ALL {
        let bits =
            |p: &Profile| -> Vec<u64> { p.dist(m).samples().iter().map(|s| s.to_bits()).collect() };
        assert_eq!(bits(a), bits(b), "{what}: {m:?}");
    }
    let curve = |p: &Profile| -> Vec<(u64, u64, u64)> {
        p.curve()
            .iter()
            .map(|c| (c.cache_bytes, c.llc_mpki.to_bits(), c.ipc.to_bits()))
            .collect()
    };
    assert_eq!(curve(a), curve(b), "{what}: curve");
}

/// A generator whose only dataset is one fixed workload: drives the
/// search's own evaluation body over a catalog entry.
struct Fixed {
    workload: Workload,
    specs: Vec<ParamSpec>,
}

impl DatasetGenerator for Fixed {
    fn name(&self) -> &str {
        &self.workload.name
    }

    fn param_specs(&self) -> &[ParamSpec] {
        &self.specs
    }

    fn instantiate(&self, _unit: &[f64]) -> Workload {
        self.workload.clone()
    }
}

#[test]
fn a_stored_profile_is_bit_equal_to_a_fresh_one_for_every_catalog_workload() {
    let cfg = SearchConfig::fast(1);
    for workload in Workload::catalog() {
        let fresh = profile_workload(&workload, &cfg.machine, &cfg.profiling);
        let generator = Fixed {
            workload: workload.clone(),
            specs: vec![ParamSpec::linear("unused", 0.0, 1.0)],
        };
        let metrics = Arc::new(MetricsRegistry::new());
        let store = ProfileStore::with_metrics(Arc::clone(&metrics));
        let objective = emd_objective(&fresh, &cfg.weights);
        let eval = |stages: &mut StageTimes| {
            evaluate(
                &generator,
                &cfg,
                &objective,
                &[0.5],
                stages,
                &CancelToken::new(),
                Some(&store),
            )
        };
        let mut cold_stages = StageTimes::new();
        let cold = eval(&mut cold_stages);
        assert_eq!((store.len(), metrics.get("profile_reuses")), (1, 0));
        let mut warm_stages = StageTimes::new();
        let warm = eval(&mut warm_stages);
        assert_eq!(metrics.get("profile_reuses"), 1, "{}", workload.name);
        let names = |s: &StageTimes| -> Vec<&str> { s.entries().iter().map(|(n, _)| *n).collect() };
        assert_eq!(
            names(&cold_stages),
            ["instantiate", "build", "profile", "error"]
        );
        assert_eq!(
            names(&warm_stages),
            ["instantiate", "error"],
            "a hit simulates nothing"
        );
        assert_bit_equal(&cold.profile, &fresh, &workload.name);
        assert_bit_equal(&warm.profile, &fresh, &workload.name);
        assert_eq!(warm.error.to_bits(), cold.error.to_bits());
        // The daemon's target path agrees too.
        let target = store.profile_workload(&workload, &cfg.machine, &cfg.profiling);
        assert_bit_equal(&target, &fresh, &workload.name);
        assert_eq!(metrics.get("profile_reuses"), 2);
    }
}

#[test]
fn name_target_weights_and_seed_stay_out_of_the_key() {
    let mut cfg = SearchConfig::fast(1);
    cfg.profiling = cfg.profiling.without_curves();
    let mut renamed = Workload::mem_fb();
    renamed.name = "another-name".to_string();
    assert_eq!(
        ProfileKey::new(&renamed, &cfg.machine, &cfg.profiling),
        ProfileKey::new(&Workload::mem_fb(), &cfg.machine, &cfg.profiling)
    );

    let metrics = Arc::new(MetricsRegistry::new());
    let store = ProfileStore::with_metrics(Arc::clone(&metrics));
    let unit = [0.3; 6];
    let first_target = profile_workload(&Workload::mem_fb(), &cfg.machine, &cfg.profiling);
    let first = evaluate(
        &KvGenerator::new(),
        &cfg,
        &emd_objective(&first_target, &cfg.weights),
        &unit,
        &mut StageTimes::new(),
        &CancelToken::new(),
        Some(&store),
    );
    // Another search: another target, other weights, another seed.
    let mut other = cfg.clone();
    other.seed ^= 0xFFFF;
    other.weights = MetricWeights::equal().with_dist_weight(DistMetric::Ipc, 3.0);
    let other_target = profile_workload(&Workload::mem_twtr(), &other.machine, &other.profiling);
    let second = evaluate(
        &KvGenerator::new(),
        &other,
        &emd_objective(&other_target, &other.weights),
        &unit,
        &mut StageTimes::new(),
        &CancelToken::new(),
        Some(&store),
    );
    assert_eq!(metrics.get("profile_reuses"), 1, "the second search reused");
    assert_bit_equal(&second.profile, &first.profile, "reused profile");
    // Scored with the second search's own objective, not the first's.
    let own = profile_error(&other_target, &first.profile, &other.weights).total;
    assert_eq!(second.error.to_bits(), own.to_bits());
    assert_ne!(second.error.to_bits(), first.error.to_bits());
}

#[test]
fn a_cancelled_evaluation_stores_nothing() {
    let mut cfg = SearchConfig::fast(1);
    cfg.profiling = cfg.profiling.without_curves();
    let target = profile_workload(&Workload::mem_fb(), &cfg.machine, &cfg.profiling);
    let store = ProfileStore::default();
    let cancel = CancelToken::new();
    cancel.cancel();
    evaluate(
        &KvGenerator::new(),
        &cfg,
        &emd_objective(&target, &cfg.weights),
        &[0.3; 6],
        &mut StageTimes::new(),
        &cancel,
        Some(&store),
    );
    assert!(store.is_empty());
}
