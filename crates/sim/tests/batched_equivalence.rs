//! Equivalence of the specialized cache and TLB paths with the
//! straight-line reference transcriptions in `datamime_sim::reference`.
//!
//! These are the gate for every hot-path rewrite (see docs/PERFORMANCE.md):
//! the optimized `Cache`/`Tlb` must match `RefCache`/`RefTlb` — and the
//! span API must match its own per-access formulation — access for
//! access, counter for counter, on arbitrary streams.

use datamime_sim::{Cache, CacheConfig, RefCache, RefTlb, Replacement, Tlb, TlbConfig, LINE_BYTES};
use proptest::prelude::*;

/// Geometries covering every specialized path: 8-way LRU (packed-minimum
/// victim), narrow LRU (generic victim scan), and the const-width DRRIP
/// miss bodies for 8 and 12 ways plus the runtime-width one (16, 6).
fn any_cache_config() -> impl Strategy<Value = CacheConfig> {
    prop_oneof![
        Just(CacheConfig::new(32 * 1024, 8)),
        Just(CacheConfig::new(4 * 1024, 8)),
        Just(CacheConfig::new(2 * 1024, 4)),
        Just(CacheConfig::new(512, 2)),
        Just(CacheConfig {
            size_bytes: 16 * 1024,
            ways: 8,
            line_bytes: 64,
            replacement: Replacement::Drrip,
        }),
        Just(CacheConfig {
            size_bytes: 48 * 1024,
            ways: 12,
            line_bytes: 64,
            replacement: Replacement::Drrip,
        }),
        Just(CacheConfig {
            size_bytes: 64 * 1024,
            ways: 16,
            line_bytes: 64,
            replacement: Replacement::Drrip,
        }),
        Just(CacheConfig {
            size_bytes: 24 * 1024,
            ways: 6,
            line_bytes: 64,
            replacement: Replacement::Drrip,
        }),
    ]
}

proptest! {
    /// Per-access API versus the reference model: identical outcomes
    /// (including write-back victim addresses) and identical counters on
    /// arbitrary read/write streams.
    #[test]
    fn cache_matches_reference(
        cfg in any_cache_config(),
        addrs in prop::collection::vec((0u64..1 << 22, any::<bool>()), 1..600),
    ) {
        let mut fast = Cache::new(cfg);
        let mut reference = RefCache::new(cfg);
        for &(addr, write) in &addrs {
            prop_assert_eq!(fast.access(addr, write), reference.access(addr, write));
        }
        prop_assert_eq!(fast.hits(), reference.hits());
        prop_assert_eq!(fast.misses(), reference.misses());
    }

    /// CAT-style repartitioning mid-stream preserves equivalence: retained
    /// ways keep their lines in both models.
    #[test]
    fn cache_matches_reference_across_set_ways(
        before in prop::collection::vec((0u64..1 << 20, any::<bool>()), 1..200),
        after in prop::collection::vec((0u64..1 << 20, any::<bool>()), 1..200),
        new_ways in 1u32..12,
    ) {
        let cfg = CacheConfig {
            size_bytes: 48 * 1024,
            ways: 12,
            line_bytes: 64,
            replacement: Replacement::Drrip,
        };
        let mut fast = Cache::new(cfg);
        let mut reference = RefCache::new(cfg);
        for &(addr, write) in &before {
            prop_assert_eq!(fast.access(addr, write), reference.access(addr, write));
        }
        fast.set_ways(new_ways);
        reference.set_ways(new_ways);
        for &(addr, write) in &after {
            prop_assert_eq!(fast.access(addr, write), reference.access(addr, write));
        }
        prop_assert_eq!(fast.hits(), reference.hits());
        prop_assert_eq!(fast.misses(), reference.misses());
    }

    /// `access_span_clean` versus `n` per-access calls on the same cache
    /// state: identical miss masks, write-back lists, and counters. The
    /// interleaved dirtying stream makes span installs evict dirty victims,
    /// and the small 8-way geometry drives spans across the set-array end,
    /// exercising both the fused fast path and the wrapping fallback.
    #[test]
    fn span_clean_matches_per_access(
        cfg in prop_oneof![
            Just(CacheConfig::new(4 * 1024, 8)),
            Just(CacheConfig::new(2 * 1024, 4)),
            Just(CacheConfig {
                size_bytes: 16 * 1024,
                ways: 8,
                line_bytes: 64,
                replacement: Replacement::Drrip,
            }),
        ],
        ops in prop::collection::vec(
            (0u64..1 << 16, 1u32..=Cache::SPAN_LINES, any::<bool>()),
            1..300,
        ),
    ) {
        let mut spanning = Cache::new(cfg);
        let mut scalar = Cache::new(cfg);
        let (mut wb_span, mut wb_scalar) = (Vec::new(), Vec::new());
        for &(addr, n, dirtying) in &ops {
            if dirtying {
                // A write through the per-access API on both caches seeds
                // dirty lines for later span evictions to report.
                prop_assert_eq!(spanning.access(addr, true), scalar.access(addr, true));
                continue;
            }
            let mask = spanning.access_span_clean(addr, n, &mut wb_span);
            let mut expect = 0u64;
            for k in 0..u64::from(n) {
                match scalar.access(addr + k * LINE_BYTES, false) {
                    datamime_sim::Access::Hit => {}
                    datamime_sim::Access::Miss { writeback_of } => {
                        expect |= 1 << k;
                        if let Some(victim) = writeback_of {
                            wb_scalar.push(victim);
                        }
                    }
                }
            }
            prop_assert_eq!(mask, expect);
        }
        prop_assert_eq!(&wb_span, &wb_scalar);
        prop_assert_eq!(spanning.hits(), scalar.hits());
        prop_assert_eq!(spanning.misses(), scalar.misses());
    }

    /// TLB versus the reference model on arbitrary translation streams.
    #[test]
    fn tlb_matches_reference(
        cfg in prop_oneof![
            Just(TlbConfig::new(64, 4)),
            Just(TlbConfig::new(128, 8)),
            Just(TlbConfig::new(32, 32)),
            Just(TlbConfig::new(16, 2)),
        ],
        addrs in prop::collection::vec(0u64..1 << 26, 1..600),
    ) {
        let mut fast = Tlb::new(cfg);
        let mut reference = RefTlb::new(cfg);
        for &addr in &addrs {
            prop_assert_eq!(fast.access(addr), reference.access(addr));
        }
        prop_assert_eq!(fast.hits(), reference.hits());
        prop_assert_eq!(fast.misses(), reference.misses());
    }
}
