//! Whole-machine equivalences: `Machine` against the line-at-a-time
//! `RefMachine` oracle on any event stream, and a `reinit`ed simulator
//! against a freshly constructed one.
//!
//! The second is what lets `EvalArena` (crates/core) recycle `Machine`s
//! across search evaluations instead of reallocating the multi-megabyte
//! LLC model per candidate: the pool hands out state that behaves exactly
//! like `Machine::new`, counter for counter.

use datamime_sim::{
    Cache, CacheConfig, Machine, MachineConfig, RefMachine, Replacement, Tlb, TlbConfig, Trace,
    TraceEvent,
};
use proptest::prelude::*;

/// A preset's policies and associativities over a few sets per level, so
/// a few hundred events evict dirty lines from every level — all the way
/// to memory — and instruction spans wrap the L1I's set array.
fn shrunk(mut cfg: MachineConfig) -> MachineConfig {
    let resized = |c: CacheConfig, sets: u64| CacheConfig {
        size_bytes: sets * u64::from(c.ways) * c.line_bytes,
        ..c
    };
    cfg.l1i = resized(cfg.l1i, 4);
    cfg.l1d = resized(cfg.l1d, 4);
    cfg.l2 = resized(cfg.l2, 16);
    cfg.llc = cfg.llc.map(|c| resized(c, 64));
    cfg.itlb = TlbConfig::new(8, 4);
    cfg.dtlb = TlbConfig::new(8, 4);
    cfg
}

/// The three presets, whole or shrunk, the LLC whole or CAT-restricted.
fn any_machine_config() -> impl Strategy<Value = MachineConfig> {
    let preset = prop_oneof![
        Just(MachineConfig::broadwell()),
        Just(MachineConfig::zen2()),
        Just(MachineConfig::silvermont()),
    ];
    (preset, any::<bool>(), 1u32..=16).prop_map(|(cfg, small, ways)| {
        let cfg = if small { shrunk(cfg) } else { cfg };
        if ways < cfg.llc_partitions() {
            cfg.with_llc_ways(ways)
        } else {
            cfg
        }
    })
}

/// Unaligned addresses with three kinds of locality: a region a real L1
/// holds, one that spills a real L2, and anywhere.
fn any_addr(base: u64) -> impl Strategy<Value = u64> {
    prop_oneof![0u64..1 << 14, 0u64..1 << 22, 0u64..1 << 36].prop_map(move |off| base + off)
}

/// Data span lengths: empty, within a line or two, a few lines, up to
/// 16 KiB (four pages, 257 lines when unaligned).
fn any_size() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..64, 1u64..640, 1u64..=16_384]
}

/// One machine event; exec spans run from empty through a single line to
/// five pages (320 lines).
fn any_event() -> impl Strategy<Value = TraceEvent> {
    let code_bytes = prop_oneof![Just(0u64), 1u64..64, 1u64..1024, 4096u64..20_480];
    let ilp = prop_oneof![Just(f64::INFINITY), Just(1.5)];
    prop_oneof![
        (any_addr(0x4000_0000), code_bytes, 1u64..256, ilp).prop_map(
            |(pc, code_bytes, instrs, ilp)| TraceEvent::Exec {
                pc,
                code_bytes,
                instrs,
                ilp
            }
        ),
        (any_addr(0x10_0000_0000), any_size())
            .prop_map(|(addr, size)| TraceEvent::Load { addr, size }),
        (any_addr(0x10_0000_0000), any_size())
            .prop_map(|(addr, size)| TraceEvent::Store { addr, size }),
        (0u64..1 << 20, any::<bool>()).prop_map(|(pc, taken)| TraceEvent::Branch { pc, taken }),
        (0u64..10_000).prop_map(|cycles| TraceEvent::Idle { cycles }),
    ]
}

fn any_trace(len: std::ops::Range<usize>) -> impl Strategy<Value = Trace> {
    prop::collection::vec(any_event(), len).prop_map(|events| {
        let mut trace = Trace::new();
        events.into_iter().for_each(|e| trace.push(e));
        trace
    })
}

proptest! {
    /// Every counter — `busy_cycles`, so every penalty term and the
    /// fractional-cycle carry, included — equals the oracle's.
    #[test]
    fn machine_matches_reference(cfg in any_machine_config(), trace in any_trace(1..250)) {
        let mut fast = Machine::new(cfg.clone());
        let mut reference = RefMachine::new(cfg);
        trace.replay(&mut fast);
        reference.replay(&trace);
        prop_assert_eq!(fast.counters(), reference.counters());
    }

    /// CAT repartitioning in mid-stream, as DynaWay does: both models keep
    /// the retained ways' lines and go on agreeing. Zen 2's LLC is LRU, so
    /// its 8-way partition takes the packed-minimum victim path.
    #[test]
    fn machine_matches_reference_across_set_llc_ways(
        cfg in prop_oneof![
            Just(MachineConfig::broadwell()),
            Just(MachineConfig::zen2()),
            Just(shrunk(MachineConfig::broadwell())),
            Just(shrunk(MachineConfig::zen2())),
        ],
        before in any_trace(1..150),
        ways in 1u32..=12,
        after in any_trace(1..150),
    ) {
        let mut fast = Machine::new(cfg.clone());
        let mut reference = RefMachine::new(cfg);
        before.replay(&mut fast);
        reference.replay(&before);
        fast.set_llc_ways(ways);
        reference.set_llc_ways(ways);
        after.replay(&mut fast);
        reference.replay(&after);
        prop_assert_eq!(fast.counters(), reference.counters());
    }

    /// Run a machine through one stream, `reinit` it, replay a second
    /// stream — the counters must equal a fresh machine's bit for bit.
    #[test]
    fn reinit_machine_matches_fresh(
        cfg in any_machine_config(),
        warmup in any_trace(0..60),
        stream in any_trace(1..120),
    ) {
        let mut recycled = Machine::new(cfg.clone());
        warmup.replay(&mut recycled);
        recycled.reinit(cfg.clone());

        let mut fresh = Machine::new(cfg);
        stream.replay(&mut recycled);
        stream.replay(&mut fresh);
        prop_assert_eq!(recycled.counters(), fresh.counters());
    }

    /// Same property one level down, for a pooled cache: `reinit` must
    /// reproduce `Cache::new` exactly, including replacement state and the
    /// DRRIP set-dueling counters — even across a geometry change, which
    /// exercises the reallocation path.
    #[test]
    fn reinit_cache_matches_fresh(
        warm_cfg in prop_oneof![
            Just(CacheConfig::new(4 * 1024, 8)),
            Just(CacheConfig {
                size_bytes: 48 * 1024,
                ways: 12,
                line_bytes: 64,
                replacement: Replacement::Drrip,
            }),
        ],
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
        warmup in prop::collection::vec((0u64..1 << 18, any::<bool>()), 0..200),
        stream in prop::collection::vec((0u64..1 << 18, any::<bool>()), 1..400),
    ) {
        let mut recycled = Cache::new(warm_cfg);
        for &(addr, write) in &warmup {
            recycled.access(addr, write);
        }
        recycled.reinit(cfg);

        let mut fresh = Cache::new(cfg);
        for &(addr, write) in &stream {
            prop_assert_eq!(recycled.access(addr, write), fresh.access(addr, write));
        }
        prop_assert_eq!(recycled.hits(), fresh.hits());
        prop_assert_eq!(recycled.misses(), fresh.misses());
    }

    /// And for a pooled TLB.
    #[test]
    fn reinit_tlb_matches_fresh(
        warm_cfg in prop_oneof![Just(TlbConfig::new(64, 4)), Just(TlbConfig::new(128, 8))],
        cfg in prop_oneof![Just(TlbConfig::new(64, 4)), Just(TlbConfig::new(32, 32))],
        warmup in prop::collection::vec(0u64..1 << 26, 0..200),
        stream in prop::collection::vec(0u64..1 << 26, 1..400),
    ) {
        let mut recycled = Tlb::new(warm_cfg);
        for &addr in &warmup {
            recycled.access(addr);
        }
        recycled.reinit(cfg);

        let mut fresh = Tlb::new(cfg);
        for &addr in &stream {
            prop_assert_eq!(recycled.access(addr), fresh.access(addr));
        }
        prop_assert_eq!(recycled.hits(), fresh.hits());
        prop_assert_eq!(recycled.misses(), fresh.misses());
    }
}
