//! Property-based robustness tests: every dataset configuration inside the
//! documented ranges must build and serve without panicking — the safety
//! property the Bayesian optimizer relies on when exploring the cube.

use datamime_apps::{
    App, KvConfig, KvStore, Masstree, MasstreeConfig, NetSpec, SearchConfig, SearchEngine,
    SiloConfig, SiloDb, SizeDist,
};
use datamime_sim::{Machine, MachineConfig};
use datamime_stats::Rng;
use proptest::prelude::*;

fn serve_some<A: App>(mut app: A, seed: u64) -> u64 {
    let mut machine = Machine::new(MachineConfig::broadwell());
    let mut rng = Rng::with_seed(seed);
    for _ in 0..20 {
        app.serve(&mut machine, &mut rng);
    }
    machine.counters().instructions
}

/// Every size family over valid parameters, wide enough to hit both
/// clamps and, for the generalized Pareto, both shape branches.
fn any_size_dist() -> impl Strategy<Value = SizeDist> {
    prop_oneof![
        (0.0f64..2e6).prop_map(SizeDist::Fixed),
        (-100.0f64..5000.0, 0.0f64..3000.0).prop_map(|(mean, std)| SizeDist::Normal { mean, std }),
        (-2.0f64..14.0, 0.0f64..3.0).prop_map(|(mu, sigma)| SizeDist::LogNormal { mu, sigma }),
        (
            -50.0f64..500.0,
            0.01f64..1000.0,
            -0.5f64..1.5,
            any::<bool>()
        )
            .prop_map(|(mu, sigma, xi, exponential)| SizeDist::GeneralizedPareto {
                mu,
                sigma,
                xi: if exponential { 0.0 } else { xi },
            }),
        (0.0f64..1000.0, 0.0f64..5000.0)
            .prop_map(|(lo, span)| SizeDist::Uniform { lo, hi: lo + span }),
    ]
}

proptest! {
    // Cheap cases, and enough that every family is drawn dozens of times.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The contract the two-lane `KvBase` build rests on: `k` samples
    /// leave the `Rng` exactly `k` times its variate's draw count on.
    #[test]
    fn every_size_sample_takes_its_familys_draw_count(
        dist in any_size_dist(),
        k in 0usize..64,
        lo in 0u64..64,
        span in 0u64..(1 << 21),
        seed in any::<u64>(),
    ) {
        let mut sampled = Rng::with_seed(seed);
        let mut stepped = sampled.clone();
        for _ in 0..k {
            dist.sample_bytes(&mut sampled, lo, lo + span);
        }
        for _ in 0..k * dist.build().unwrap().variate().draws() {
            stepped.u64();
        }
        prop_assert_eq!(sampled, stepped);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kvstore_serves_any_valid_config(
        n_keys in 1usize..20_000,
        key_mean in 1.0f64..200.0,
        key_std in 0.0f64..64.0,
        val_mean in 1.0f64..8192.0,
        val_std in 0.0f64..4096.0,
        get_ratio in 0.0f64..1.0,
        skew in 0.0f64..1.5,
        seed in any::<u64>(),
    ) {
        let cfg = KvConfig {
            n_keys,
            key_size: SizeDist::Normal { mean: key_mean, std: key_std },
            value_size: SizeDist::Normal { mean: val_mean, std: val_std },
            get_ratio,
            popularity_skew: skew,
            networked: false,
            value_redundancy: None,
            multiget_fraction: 0.1,
            seed,
        };
        prop_assert!(serve_some(KvStore::new(cfg), seed) > 0);
    }

    #[test]
    fn silo_serves_any_valid_mix(
        warehouses in 1u32..16,
        mix in prop::collection::vec(0.001f64..1.0, 6),
        bid_items in 1u64..500_000,
        seed in any::<u64>(),
    ) {
        let cfg = SiloConfig {
            n_warehouses: warehouses,
            tx_mix: [mix[0], mix[1], mix[2], mix[3], mix[4], mix[5]],
            n_bid_items: bid_items,
            seed,
        };
        prop_assert!(serve_some(SiloDb::new(cfg), seed) > 0);
    }

    #[test]
    fn search_engine_serves_any_valid_corpus(
        n_docs in 1usize..8_000,
        n_terms in 1usize..8_000,
        doc_len in 64.0f64..16_384.0,
        skew in 0.0f64..1.5,
        cap in 0.0f64..0.9,
        seed in any::<u64>(),
    ) {
        let cfg = SearchConfig {
            n_docs,
            n_terms,
            doc_length: SizeDist::Normal { mean: doc_len, std: doc_len / 3.0 },
            query_skew: skew,
            term_freq_cap: cap,
            seed,
        };
        prop_assert!(serve_some(SearchEngine::new(cfg), seed) > 0);
    }

    #[test]
    fn dnn_builds_any_generator_point(
        n_conv in 1u32..8,
        n_strided in 0u32..4,
        n_pool in 0u32..3,
        n_fc in 0u32..3,
        first_ch in 1u32..48,
    ) {
        let spec = NetSpec::from_generator_params(n_conv, n_strided, n_pool, n_fc, first_ch);
        let app = datamime_apps::DnnApp::new(spec);
        prop_assert!(app.footprint_bytes() > 0);
        prop_assert!(app.macs_per_inference() > 0);
    }

    #[test]
    fn masstree_serves_any_config(
        n_keys in 1u64..300_000,
        value_bytes in 1u64..4096,
        get_ratio in 0.0f64..1.0,
        skew in 0.0f64..1.3,
        seed in any::<u64>(),
    ) {
        let cfg = MasstreeConfig { n_keys, value_bytes, get_ratio, popularity_skew: skew, seed };
        prop_assert!(serve_some(Masstree::new(cfg), seed) > 0);
    }

    #[test]
    fn serving_is_deterministic_for_equal_seeds(seed in any::<u64>()) {
        let cfg = KvConfig { n_keys: 500, ..KvConfig::ycsb_like() };
        let a = serve_some(KvStore::new(cfg.clone()), seed);
        let b = serve_some(KvStore::new(cfg), seed);
        prop_assert_eq!(a, b);
    }
}
