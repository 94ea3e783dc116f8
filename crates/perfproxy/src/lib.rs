//! A PerfProx-style black-box workload cloning baseline.
//!
//! PerfProx (Panda & John, PACT 2017) is the state-of-the-art black-box
//! cloner the paper compares against: it profiles *average* statistics of
//! the target (instruction mix, basic-block structure, branch behaviour,
//! cache miss rates, dominant strides) and emits a small synthetic program
//! replaying them. This crate reimplements that recipe against the
//! simulator:
//!
//! - [`CloneStats`] extracts the average statistics from a target
//!   [`Profile`] (all a black-box cloner gets to see);
//! - [`PerfProxClone`] is the synthetic proxy: a population of basic
//!   blocks executed in a fixed round-robin order, loads with a dominant
//!   stride over a working-set-sized array (plus a random-jump fraction),
//!   and Bernoulli branches calibrated to the target's mispredict rate.
//!
//! The proxy's weaknesses in the paper emerge *structurally* here, not by
//! construction: round-robin block execution is far more icache-friendly
//! than real data-dependent code paths (PerfProx undershoots ICache MPKI
//! by 7.8× in Fig. 1); strided streams engage the prefetcher (IPC
//! overshoot); a single array produces sharp cache cliffs (Fig. 7); and a
//! fixed loop has no request structure, so CPU utilization pins at 1.0 and
//! every distribution collapses to a point (Figs. 4 and 8).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use datamime::metrics::DistMetric;
use datamime::profile::Profile;
use datamime_apps::{App, CodeLayout, CodeRegion};
use datamime_sim::{Addr, Machine, Segment, SimAlloc};
use datamime_stats::dist::Zipf;
use datamime_stats::Rng;

/// The average statistics a black-box cloner extracts from the target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloneStats {
    /// Mean L1D misses per kilo-instruction.
    pub l1d_mpki: f64,
    /// Mean LLC misses per kilo-instruction.
    pub llc_mpki: f64,
    /// Mean L1I misses per kilo-instruction.
    pub icache_mpki: f64,
    /// Mean branch mispredictions per kilo-instruction.
    pub branch_mpki: f64,
    /// Mean IPC (used only for reporting; the proxy does not target it).
    pub ipc: f64,
}

impl CloneStats {
    /// Extracts the averages from a target profile.
    pub fn from_profile(profile: &Profile) -> Self {
        CloneStats {
            l1d_mpki: profile.mean(DistMetric::L1dMpki),
            llc_mpki: profile.mean(DistMetric::LlcMpki),
            icache_mpki: profile.mean(DistMetric::ICacheMpki),
            branch_mpki: profile.mean(DistMetric::BranchMpki),
            ipc: profile.mean(DistMetric::Ipc),
        }
    }
}

const CHUNK_INSTRS: u64 = 10_000;
const BLOCK_BYTES: u64 = 1024;
const LINE: u64 = 64;

/// The synthetic proxy benchmark generated from [`CloneStats`].
///
/// Implements [`App`] so it can run under the same harness as real
/// workloads, but it is a fixed loop: each `serve` call executes one
/// constant-size chunk of the loop regardless of any request context.
#[derive(Debug, Clone)]
pub struct PerfProxClone {
    stats: CloneStats,
    blocks: Vec<CodeRegion>,
    /// Statistical-flow-graph transition skew: popular blocks dominate.
    block_popularity: Zipf,
    /// Streaming array approximating the data working set.
    stream_base: Addr,
    stream_bytes: u64,
    stream_pos: u64,
    /// Large array for accesses that must miss the LLC.
    far_base: Addr,
    far_bytes: u64,
    far_pos: u64,
    /// Loads per kilo-instruction, split between the two arrays.
    near_loads_per_kinstr: f64,
    far_loads_per_kinstr: f64,
    /// Branches per kilo-instruction and their taken probability.
    branches_per_kinstr: f64,
    branch_taken_p: f64,
    rng: Rng,
}

impl PerfProxClone {
    /// Generates a proxy from the target's average statistics.
    pub fn new(stats: CloneStats, seed: u64) -> Self {
        let mut alloc = SimAlloc::new();
        let mut layout = CodeLayout::new(&mut alloc);

        // Basic-block population: PerfProx "reduces the original
        // application down to a small binary" (paper Sec. II-B) — the
        // block count grows with the observed ICache MPKI but the whole
        // proxy stays a few tens of KB and is executed round-robin, which
        // is why it badly undershoots icache-heavy targets' miss rates.
        let n_blocks = ((stats.icache_mpki.max(0.0) * 2.0).ceil() as usize + 8).min(112);
        // Synthetic straight-line code has few dependences: high ILP.
        let blocks: Vec<CodeRegion> = (0..n_blocks)
            .map(|_| layout.region_with_ilp(BLOCK_BYTES, 2.5))
            .collect();

        // Data side: the dominant-stride stream covers the L1-missing
        // accesses; a sparse far array covers the LLC-missing fraction.
        let stream_bytes = 8 << 20; // larger than L2, smaller than LLC
        let stream_base = alloc
            .alloc(Segment::Heap, stream_bytes)
            .expect("stream array");
        let far_bytes = 512 << 20; // far beyond any LLC
        let far_base = alloc.alloc(Segment::Heap, far_bytes).expect("far array");

        let l1d = stats.l1d_mpki.max(0.0);
        let llc = stats.llc_mpki.clamp(0.0, l1d.max(0.01));
        // Every strided load touches a new line -> one L1 miss per load.
        let far_loads = llc;
        let near_loads = (l1d - llc).max(0.0);

        // Branch calibration: a gshare predictor mispredicts a Bernoulli(p)
        // branch at roughly min(p, 1-p); emit 25 branches per kinstr and
        // pick p to land at the target mispredict rate.
        let branches_per_kinstr = 25.0;
        let mis_rate = (stats.branch_mpki.max(0.0) / branches_per_kinstr).min(0.5);
        let branch_taken_p = mis_rate; // min(p, 1-p) = p for p <= 0.5

        let block_popularity = Zipf::new(n_blocks, 1.5).expect("valid block population");
        PerfProxClone {
            stats,
            blocks,
            block_popularity,
            stream_base,
            stream_bytes,
            stream_pos: 0,
            far_base,
            far_bytes,
            far_pos: 0,
            near_loads_per_kinstr: near_loads,
            far_loads_per_kinstr: far_loads,
            branches_per_kinstr,
            branch_taken_p,
            rng: Rng::with_seed(seed),
        }
    }

    /// Convenience constructor straight from a target profile.
    pub fn from_profile(profile: &Profile, seed: u64) -> Self {
        PerfProxClone::new(CloneStats::from_profile(profile), seed)
    }

    /// The statistics the proxy was generated from.
    pub fn stats(&self) -> &CloneStats {
        &self.stats
    }

    /// Number of synthetic basic blocks.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }
}

impl App for PerfProxClone {
    fn name(&self) -> &str {
        "perfprox"
    }

    fn serve(&mut self, machine: &mut Machine, rng: &mut Rng) {
        // One chunk of the fixed loop: CHUNK_INSTRS instructions spread
        // over the statistical flow graph (Zipf-skewed block transitions,
        // as in basic-block cloning), interleaved with the calibrated
        // loads and branches. The skew keeps a hot subset of blocks
        // resident, which is why the proxy undershoots icache-heavy
        // targets.
        let n_blocks = self.blocks.len();
        let instrs_per_block = CHUNK_INSTRS / n_blocks as u64;
        let kinstr = CHUNK_INSTRS as f64 / 1000.0;
        let near_loads = (self.near_loads_per_kinstr * kinstr).round() as u64;
        let far_loads = (self.far_loads_per_kinstr * kinstr).round() as u64;
        let branches = (self.branches_per_kinstr * kinstr).round() as u64;

        for _ in 0..n_blocks {
            let block = self.blocks[self.block_popularity.sample_rank(&mut self.rng)];
            block.call(machine, instrs_per_block);
        }
        for _ in 0..near_loads {
            machine.load(self.stream_base + self.stream_pos, 8);
            self.stream_pos = (self.stream_pos + LINE) % self.stream_bytes;
        }
        for _ in 0..far_loads {
            // Random jumps across the far array: guaranteed LLC misses.
            self.far_pos = self.rng.below(self.far_bytes / LINE) * LINE;
            machine.load(self.far_base + self.far_pos, 8);
        }
        let site = self.blocks[0];
        for b in 0..branches {
            let taken = self.rng.bool(self.branch_taken_p);
            site.branch(machine, 64 + (b % 16) * 4, taken);
        }
        let _ = rng; // proxy randomness is self-contained for determinism
    }

    fn fork(&self) -> Box<dyn App> {
        Box::new(self.clone())
    }

    fn footprint_bytes(&self) -> u64 {
        self.stream_bytes + self.far_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamime::profiler::{profile_workload, ProfilingConfig};
    use datamime::workload::Workload;
    use datamime_apps::KvConfig;
    use datamime_sim::MachineConfig;

    fn target_profile() -> Profile {
        let mut w = Workload::mem_fb();
        if let datamime::workload::AppConfig::Kv(c) = &mut w.app {
            *c = KvConfig {
                n_keys: 20_000,
                ..c.clone()
            };
        }
        profile_workload(
            &w,
            &MachineConfig::broadwell(),
            &ProfilingConfig::fast().without_curves(),
        )
    }

    fn run_proxy(proxy: &mut PerfProxClone, chunks: usize) -> Machine {
        let mut machine = Machine::new(MachineConfig::broadwell());
        let mut rng = Rng::with_seed(1);
        for _ in 0..chunks {
            proxy.serve(&mut machine, &mut rng);
        }
        machine
    }

    #[test]
    fn proxy_matches_l1d_and_branch_averages_roughly() {
        let target = target_profile();
        let stats = CloneStats::from_profile(&target);
        let mut proxy = PerfProxClone::new(stats, 3);
        let m = run_proxy(&mut proxy, 400);
        let c = m.counters();
        let l1d = c.mpki(c.l1d_misses);
        let br = c.mpki(c.branch_mispredicts);
        assert!(
            (l1d - stats.l1d_mpki).abs() < stats.l1d_mpki.max(1.0),
            "proxy l1d {l1d} vs target {}",
            stats.l1d_mpki
        );
        assert!(
            (br - stats.branch_mpki).abs() < stats.branch_mpki.max(0.8),
            "proxy branch {br} vs target {}",
            stats.branch_mpki
        );
    }

    #[test]
    fn proxy_undershoots_icache_misses() {
        // The paper's Fig. 1: PerfProx gets 7.8x lower ICache MPKI than a
        // production-like memcached target.
        let target = target_profile();
        let stats = CloneStats::from_profile(&target);
        assert!(stats.icache_mpki > 3.0, "target should be icache-heavy");
        let mut proxy = PerfProxClone::new(stats, 3);
        let m = run_proxy(&mut proxy, 400);
        let proxy_icache = m.counters().mpki(m.counters().l1i_misses);
        assert!(
            proxy_icache < stats.icache_mpki / 3.0,
            "round-robin blocks must undershoot: proxy {proxy_icache} vs target {}",
            stats.icache_mpki
        );
    }

    #[test]
    fn proxy_overshoots_ipc_on_server_targets() {
        let target = target_profile();
        let stats = CloneStats::from_profile(&target);
        let mut proxy = PerfProxClone::new(stats, 3);
        let m = run_proxy(&mut proxy, 400);
        assert!(
            m.counters().ipc() > stats.ipc * 1.2,
            "proxy ipc {} vs target {}",
            m.counters().ipc(),
            stats.ipc
        );
    }

    #[test]
    fn proxy_is_static_over_time() {
        let target = target_profile();
        let mut proxy = PerfProxClone::from_profile(&target, 3);
        let mut machine = Machine::new(MachineConfig::broadwell());
        let mut rng = Rng::with_seed(1);
        // Warm up caches/predictors before measuring.
        for _ in 0..50 {
            proxy.serve(&mut machine, &mut rng);
        }
        let mut ipcs = Vec::new();
        for _ in 0..8 {
            let before = *machine.counters();
            for _ in 0..50 {
                proxy.serve(&mut machine, &mut rng);
            }
            let d = machine.counters().delta_since(&before);
            ipcs.push(d.ipc());
        }
        let mean = ipcs.iter().sum::<f64>() / ipcs.len() as f64;
        let sd = (ipcs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / ipcs.len() as f64).sqrt();
        assert!(
            sd / mean < 0.05,
            "proxy must have near-constant behaviour: cv {}",
            sd / mean
        );
    }

    #[test]
    fn zero_stats_produce_a_valid_tiny_proxy() {
        let stats = CloneStats {
            l1d_mpki: 0.0,
            llc_mpki: 0.0,
            icache_mpki: 0.0,
            branch_mpki: 0.0,
            ipc: 1.0,
        };
        let mut proxy = PerfProxClone::new(stats, 1);
        let m = run_proxy(&mut proxy, 10);
        assert!(m.counters().instructions >= 10 * (CHUNK_INSTRS - 1000));
        assert!(m.counters().mpki(m.counters().l1d_misses) < 1.0);
    }
}
