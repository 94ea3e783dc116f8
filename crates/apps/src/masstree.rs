//! A masstree-like cache-crafted key-value store.
//!
//! Used as a *target-only* workload in the paper's Sec. V-C case study:
//! Datamime clones it with a *different program* (the memcached-like
//! [`crate::KvStore`]). Masstree is a trie of wide B+tree nodes designed
//! for cache efficiency ("cache craftiness"), so compared to the hash-table
//! store it has a much smaller instruction footprint, fewer pointer chases,
//! and lower cache miss rates — the structural differences Table IV
//! documents.

use crate::btree::BTreeIndex;
use crate::engine::{App, CodeLayout, CodeRegion};
use datamime_sim::{Addr, Machine, Segment, SimAlloc};
use datamime_stats::dist::Zipf;
use datamime_stats::Rng;

/// Dataset configuration for [`Masstree`].
#[derive(Debug, Clone, PartialEq)]
pub struct MasstreeConfig {
    /// Number of resident keys.
    pub n_keys: u64,
    /// Value size in bytes (YCSB-style fixed records).
    pub value_bytes: u64,
    /// Fraction of GET requests.
    pub get_ratio: f64,
    /// Zipf skew of key popularity.
    pub popularity_skew: f64,
    /// Seed for construction.
    pub seed: u64,
}

impl MasstreeConfig {
    /// The paper's target: masstree driven with YCSB.
    pub fn ycsb_target() -> Self {
        MasstreeConfig {
            n_keys: 1_500_000,
            value_bytes: 1024,
            get_ratio: 0.5,
            popularity_skew: 0.85,
            seed: 0x3A55,
        }
    }
}

/// The masstree-like store (see module docs).
#[derive(Debug, Clone)]
pub struct Masstree {
    cfg: MasstreeConfig,
    index: BTreeIndex,
    values: Addr,
    value_stride: u64,
    popularity: Zipf,
    footprint: u64,
    // Deliberately compact code: the whole engine is a handful of small,
    // hot functions.
    request_path: CodeRegion,
    tree_code: CodeRegion,
    value_code: CodeRegion,
}

impl Masstree {
    /// Builds and populates the store.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate.
    pub fn new(cfg: MasstreeConfig) -> Self {
        assert!(cfg.n_keys > 0, "store needs keys");
        assert!(cfg.value_bytes > 0, "values must be non-empty");
        let mut alloc = SimAlloc::new();
        let mut layout = CodeLayout::new(&mut alloc);
        let request_path = layout.region(6 * 1024);
        let tree_code = layout.region(4 * 1024);
        let value_code = layout.region(1024);

        // Wide nodes (fanout 64) keep the tree shallow: cache craftiness.
        let index = BTreeIndex::new(&mut alloc, cfg.n_keys, 64);
        let value_stride = cfg.value_bytes.div_ceil(8) * 8;
        let values = alloc
            .alloc(Segment::Heap, cfg.n_keys * value_stride)
            .expect("value array");
        let footprint = index.footprint_bytes() + cfg.n_keys * value_stride;
        let popularity =
            Zipf::new(cfg.n_keys as usize, cfg.popularity_skew).expect("invalid popularity skew");

        Masstree {
            cfg,
            index,
            values,
            value_stride,
            popularity,
            footprint,
            request_path,
            tree_code,
            value_code,
        }
    }

    /// The store's configuration.
    pub fn config(&self) -> &MasstreeConfig {
        &self.cfg
    }

    /// Depth of the underlying trie/B+tree.
    pub fn depth(&self) -> usize {
        self.index.depth()
    }
}

impl App for Masstree {
    fn name(&self) -> &str {
        "masstree"
    }

    fn serve(&mut self, machine: &mut Machine, rng: &mut Rng) {
        self.request_path.call(machine, 1200);
        // Scatter popularity ranks across the key space.
        let rank = self.popularity.sample_rank(rng) as u64;
        let key = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.cfg.n_keys;
        let is_get = rng.bool(self.cfg.get_ratio);
        self.request_path.branch(machine, 128, is_get);
        // Key-slice comparisons and node-permutation probes: data-dependent
        // on effectively random key bytes (masstree's branch-heavy descent).
        for b in 0..14u64 {
            self.tree_code
                .branch(machine, 512 + b * 4, (key >> (b + 8)) & 1 == 1);
        }
        self.index.lookup(machine, &self.tree_code, key);
        let addr = self.values + key * self.value_stride;
        if is_get {
            machine.load(addr, self.cfg.value_bytes);
            self.value_code.call(machine, 30 + self.cfg.value_bytes / 8);
        } else {
            machine.store(addr, self.cfg.value_bytes);
            self.value_code.call(machine, 40 + self.cfg.value_bytes / 8);
            self.index.update(machine, &self.tree_code, key);
        }
        self.request_path.call_span(machine, 4096, 1024, 500);
    }

    fn fork(&self) -> Box<dyn App> {
        Box::new(self.clone())
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kvstore::{KvConfig, KvStore};
    use datamime_sim::MachineConfig;

    fn run_requests<A: App>(app: &mut A, n: usize) -> Machine {
        let mut machine = Machine::new(MachineConfig::broadwell());
        let mut rng = Rng::with_seed(41);
        for _ in 0..n {
            app.serve(&mut machine, &mut rng);
        }
        machine
    }

    #[test]
    fn shallow_wide_tree() {
        let t = Masstree::new(MasstreeConfig::ycsb_target());
        assert!(t.depth() <= 4, "wide nodes should keep the tree shallow");
    }

    #[test]
    fn lower_icache_pressure_than_hash_kvstore() {
        // The Table IV contrast: masstree's compact engine misses the L1I
        // far less than memcached's sprawling code paths.
        let mut mt = Masstree::new(MasstreeConfig {
            n_keys: 100_000,
            ..MasstreeConfig::ycsb_target()
        });
        let mut kv = KvStore::new(KvConfig::facebook_like());
        let m1 = run_requests(&mut mt, 2_000);
        let m2 = run_requests(&mut kv, 2_000);
        let mt_mpki = m1.counters().mpki(m1.counters().l1i_misses);
        let kv_mpki = m2.counters().mpki(m2.counters().l1i_misses);
        assert!(
            mt_mpki < kv_mpki,
            "masstree {mt_mpki} vs memcached {kv_mpki}"
        );
    }

    #[test]
    fn large_key_space_is_memory_bound() {
        let mut t = Masstree::new(MasstreeConfig::ycsb_target());
        let m = run_requests(&mut t, 2_000);
        let mpki = m.counters().mpki(m.counters().llc_misses);
        assert!(mpki > 1.0, "1.5M x 512B values exceed the LLC: {mpki}");
    }

    #[test]
    fn writes_touch_index() {
        let mut ro = Masstree::new(MasstreeConfig {
            get_ratio: 1.0,
            n_keys: 10_000,
            ..MasstreeConfig::ycsb_target()
        });
        let mut wo = Masstree::new(MasstreeConfig {
            get_ratio: 0.0,
            n_keys: 10_000,
            ..MasstreeConfig::ycsb_target()
        });
        let m_ro = run_requests(&mut ro, 1_000);
        let m_wo = run_requests(&mut wo, 1_000);
        assert!(m_wo.counters().instructions > m_ro.counters().instructions);
    }

    #[test]
    #[should_panic(expected = "store needs keys")]
    fn zero_keys_panics() {
        Masstree::new(MasstreeConfig {
            n_keys: 0,
            ..MasstreeConfig::ycsb_target()
        });
    }
}
