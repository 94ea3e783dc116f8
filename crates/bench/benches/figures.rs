//! One Criterion bench per paper table/figure: each benchmark exercises
//! the exact code path that regenerates the artifact, at a reduced scale
//! so `cargo bench` completes quickly. The full-scale regenerators are the
//! `datamime-experiments` binaries (see DESIGN.md's experiment index).

use criterion::{criterion_group, criterion_main, Criterion};
use datamime::error_model::MetricWeights;
#[allow(unused_imports)]
use datamime::generator::DatasetGenerator;
use datamime::generator::{DnnGenerator, KvGenerator, SiloGenerator, XapianGenerator};
use datamime::metrics::DistMetric;
use datamime::profile_error;
use datamime::profiler::{
    profile_app_cancellable_in, profile_workload, CancelToken, CurveMethod, ProfilingConfig,
};
use datamime::scalar::{scalar_search, ScalarSearchConfig};
use datamime::search::{search, SearchConfig};
use datamime::workload::{AppConfig, Workload};
use datamime::EvalArena;
use datamime_apps::{
    ImgDnnConfig, KvConfig, MasstreeConfig, SearchConfig as XapianConfig, SiloConfig,
};
use datamime_loadgen::WorkloadSpec;
use datamime_perfproxy::PerfProxClone;
use datamime_sim::MachineConfig;

fn tiny_profiling() -> ProfilingConfig {
    ProfilingConfig {
        interval_cycles: 1_000_000,
        n_samples: 5,
        curve_ways: vec![1, 12],
        curve_samples: 1,
        curve_method: CurveMethod::Restart,
        seed: 0xBE7C,
    }
}

fn tiny_search_cfg(iters: usize) -> SearchConfig {
    let mut cfg = SearchConfig::fast(iters);
    cfg.profiling = tiny_profiling().without_curves();
    cfg
}

fn tiny_mem_fb() -> Workload {
    let mut w = Workload::mem_fb();
    w.app = AppConfig::Kv(KvConfig {
        n_keys: 8_000,
        ..KvConfig::facebook_like()
    });
    w
}

fn table1_profiler(c: &mut Criterion) {
    // Table I: collecting all ten metric distributions.
    let machine = MachineConfig::broadwell();
    let w = tiny_mem_fb();
    c.bench_function("table1/collect-metric-distributions", |b| {
        let cfg = tiny_profiling().without_curves();
        b.iter(|| profile_workload(&w, &machine, &cfg))
    });
}

fn table2_machines(c: &mut Criterion) {
    // Table II: constructing and exercising each platform model.
    for machine in [
        MachineConfig::broadwell(),
        MachineConfig::zen2(),
        MachineConfig::silvermont(),
    ] {
        let w = tiny_mem_fb();
        c.bench_function(&format!("table2/profile-on-{}", machine.name), |b| {
            let cfg = tiny_profiling().without_curves();
            b.iter(|| profile_workload(&w, &machine, &cfg))
        });
    }
}

fn table3_generators(c: &mut Criterion) {
    // Table III: dataset synthesis cost for each generator at the cube
    // midpoint.
    c.bench_function("table3/instantiate-memcached", |b| {
        let g = KvGenerator::new();
        b.iter(|| g.instantiate(&[0.5; 6]).app.build())
    });
    c.bench_function("table3/instantiate-silo", |b| {
        let g = SiloGenerator::new();
        b.iter(|| g.instantiate(&[0.5; 7]).app.build())
    });
    c.bench_function("table3/instantiate-xapian", |b| {
        let g = XapianGenerator::new();
        b.iter(|| g.instantiate(&[0.5; 4]).app.build())
    });
    c.bench_function("table3/instantiate-dnn", |b| {
        let g = DnnGenerator::new();
        b.iter(|| g.instantiate(&[0.5; 6]).app.build())
    });
}

fn fig1_fig3_clone_accuracy(c: &mut Criterion) {
    // Figs. 1/3: one full search iteration (profile + error) for the
    // memcached clone, plus the PerfProx generation path.
    let machine = MachineConfig::broadwell();
    let cfg = tiny_profiling().without_curves();
    let target = profile_workload(&tiny_mem_fb(), &machine, &cfg);
    c.bench_function("fig1/datamime-search-iteration", |b| {
        let g = KvGenerator::new();
        let weights = MetricWeights::equal();
        b.iter(|| {
            let w = g.instantiate(&[0.4; 6]);
            let p = profile_workload(&w, &machine, &cfg);
            profile_error(&target, &p, &weights).total
        })
    });
    c.bench_function("fig1/perfprox-generate-and-profile", |b| {
        b.iter(|| {
            let stats = datamime_perfproxy::CloneStats::from_profile(&target);
            profile_app_cancellable_in(
                &move || Box::new(PerfProxClone::new(stats, 1)),
                WorkloadSpec::poisson(1e9),
                &machine,
                &cfg,
                &CancelToken::new(),
                &mut EvalArena::new(),
            )
        })
    });
}

fn fig4_fig8_distributions(c: &mut Criterion) {
    // Figs. 4/8: building eCDFs and computing per-metric EMDs.
    let machine = MachineConfig::broadwell();
    let cfg = tiny_profiling().without_curves();
    let a = profile_workload(&tiny_mem_fb(), &machine, &cfg);
    let mut w2 = tiny_mem_fb();
    w2.app = AppConfig::Kv(KvConfig {
        n_keys: 8_000,
        ..KvConfig::ycsb_like()
    });
    let b2 = profile_workload(&w2, &machine, &cfg);
    c.bench_function("fig8/all-metric-emds", |bch| {
        let weights = MetricWeights::equal();
        bch.iter(|| profile_error(&a, &b2, &weights))
    });
}

fn fig6_multi_workload(c: &mut Criterion) {
    // Fig. 6: profiling each of the five (scaled) targets once.
    let machine = MachineConfig::broadwell();
    let cfg = tiny_profiling().without_curves();
    let targets: Vec<Workload> = vec![
        tiny_mem_fb(),
        {
            let mut w = Workload::silo_bidding();
            w.app = AppConfig::Silo(SiloConfig {
                n_bid_items: 200_000,
                ..SiloConfig::bidding_target()
            });
            w
        },
        {
            let mut w = Workload::xapian_wiki();
            w.app = AppConfig::Search(XapianConfig {
                n_docs: 4_000,
                n_terms: 3_000,
                ..XapianConfig::wikipedia_target()
            });
            w
        },
    ];
    c.bench_function("fig6/profile-target-suite", |b| {
        b.iter(|| {
            targets
                .iter()
                .map(|w| profile_workload(w, &machine, &cfg).mean(DistMetric::Ipc))
                .sum::<f64>()
        })
    });
}

fn fig7_curve_sweep(c: &mut Criterion) {
    // Fig. 7: the CAT way-partitioning sweep.
    let machine = MachineConfig::broadwell();
    let w = tiny_mem_fb();
    c.bench_function("fig7/cat-curve-sweep", |b| {
        let cfg = tiny_profiling();
        b.iter(|| profile_workload(&w, &machine, &cfg).curve().len())
    });
}

fn fig9_cross_program(c: &mut Criterion) {
    // Fig. 9 / Table IV: profiling the case-study targets.
    let machine = MachineConfig::broadwell();
    let cfg = tiny_profiling().without_curves();
    c.bench_function("fig9/profile-masstree", |b| {
        let mut w = Workload::masstree_ycsb();
        w.app = AppConfig::Masstree(MasstreeConfig {
            n_keys: 200_000,
            ..MasstreeConfig::ycsb_target()
        });
        b.iter(|| profile_workload(&w, &machine, &cfg))
    });
    c.bench_function("fig9/profile-img-dnn", |b| {
        let mut w = Workload::img_dnn_mnist();
        w.app = AppConfig::ImgDnn(ImgDnnConfig::mnist_target());
        b.iter(|| profile_workload(&w, &machine, &cfg))
    });
}

fn fig10_convergence(c: &mut Criterion) {
    // Fig. 10: a short end-to-end search (6 iterations).
    let machine = MachineConfig::broadwell();
    let cfg = tiny_search_cfg(6);
    let target = profile_workload(&tiny_mem_fb(), &machine, &cfg.profiling);
    c.bench_function("fig10/search-6-iterations", |b| {
        b.iter(|| search(&KvGenerator::new(), &target, &cfg).best_error)
    });
}

fn fig11_scalar_target(c: &mut Criterion) {
    // Fig. 11: one scalar-target search point.
    let mut cfg = ScalarSearchConfig::fast(5);
    cfg.profiling = tiny_profiling().without_curves();
    c.bench_function("fig11/scalar-target-point", |b| {
        b.iter(|| scalar_search(&KvGenerator::new(), DistMetric::Ipc, 1.0, &cfg).achieved)
    });
}

fn fig12_networked(c: &mut Criterion) {
    // Figs. 12/13: profiling the networked configuration.
    let machine = MachineConfig::broadwell();
    let cfg = tiny_profiling().without_curves();
    let mut w = tiny_mem_fb();
    if let AppConfig::Kv(kv) = &mut w.app {
        kv.networked = true;
    }
    c.bench_function("fig12/profile-networked-memcached", |b| {
        b.iter(|| profile_workload(&w, &machine, &cfg))
    });
}

criterion_group! {
    name = benches;
    // Keep runs short: each bench exercises a full simulation pipeline.
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = table1_profiler, table2_machines, table3_generators, fig1_fig3_clone_accuracy, fig4_fig8_distributions, fig6_multi_workload, fig7_curve_sweep, fig9_cross_program, fig10_convergence, fig11_scalar_target, fig12_networked
}
criterion_main!(benches);
