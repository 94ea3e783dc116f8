//! Scalar reference models for the batched hot-path kernels.
//!
//! [`RefCache`] and [`RefTlb`] are deliberate, unoptimized transcriptions
//! of the pre-batching `Cache`/`Tlb` access logic: per-access `position()`
//! scans, a per-access replacement-policy dispatch, and data-dependent
//! branches everywhere. [`RefMachine`] is the whole [`crate::Machine`] in
//! the same spirit: every event one cache line at a time through those two
//! models. They exist so the optimized implementations can be *proved*
//! equivalent rather than trusted:
//!
//! - the property tests in `tests/batched_equivalence.rs` drive random
//!   address streams through both models and assert every per-access
//!   result (hit/miss and write-back address) and every counter match;
//! - `tests/machine_equivalence.rs` drives random event streams, and the
//!   workspace's `tests/integration_fork.rs` recorded application traces,
//!   through `Machine` and `RefMachine` and compares every counter;
//! - `bench_sim --cross-check` replays the checksum kernels against these
//!   models and fails if any checksum diverges.
//!
//! Keep this module boring. If you are editing it to make it faster, you
//! are in the wrong file (see docs/PERFORMANCE.md, "How to land a perf
//! PR").

use crate::branch::BranchPredictor;
use crate::cache::{Access, CacheConfig, Replacement};
use crate::config::MachineConfig;
use crate::counters::Counters;
use crate::mem::{lines_of, Addr, LINE_BYTES, PAGE_BYTES};
use crate::tlb::TlbConfig;
use crate::trace::{Trace, TraceEvent};
use datamime_stats::Rng;

const INVALID_TAG: u64 = u64::MAX;
const RRPV_MAX: u64 = 3;
const PSEL_MAX: i32 = 1023;

/// Scalar reference implementation of [`crate::Cache`].
///
/// # Examples
///
/// ```
/// use datamime_sim::{Cache, CacheConfig, RefCache};
///
/// let cfg = CacheConfig::new(4096, 2);
/// let mut fast = Cache::new(cfg);
/// let mut reference = RefCache::new(cfg);
/// for addr in [0u64, 64, 4096, 0, 64] {
///     assert_eq!(fast.access(addr, false), reference.access(addr, false));
/// }
/// assert_eq!(fast.hits(), reference.hits());
/// ```
#[derive(Debug, Clone)]
pub struct RefCache {
    cfg: CacheConfig,
    sets: u64,
    set_mask: u64,
    set_shift: u32,
    ways: usize,
    tags: Vec<u64>,
    meta: Vec<u64>,
    dirty: Vec<bool>,
    clock: u64,
    psel: i32,
    brrip_ctr: u32,
    rng: Rng,
    hits: u64,
    misses: u64,
}

impl RefCache {
    /// Builds the reference cache from the same configuration type the
    /// optimized cache takes.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheConfig::sets`]).
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        let n = (sets * cfg.ways as u64) as usize;
        RefCache {
            cfg,
            sets,
            set_mask: sets - 1,
            set_shift: cfg.line_bytes.trailing_zeros(),
            ways: cfg.ways as usize,
            tags: vec![INVALID_TAG; n],
            meta: vec![0; n],
            dirty: vec![false; n],
            clock: 0,
            psel: PSEL_MAX / 2,
            brrip_ctr: 0,
            rng: Rng::with_seed(0xD12),
            hits: 0,
            misses: 0,
        }
    }

    /// Cumulative hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cumulative miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Accesses the line containing `addr` exactly as the pre-batching
    /// `Cache::access` did: linear `position()` probe, then a per-access
    /// policy dispatch for the victim scan and insertion metadata.
    pub fn access(&mut self, addr: Addr, write: bool) -> Access {
        self.clock += 1;
        let set = (addr >> self.set_shift) & self.set_mask;
        let tag = addr >> self.set_shift;
        let base = set as usize * self.ways;

        let set_tags = &self.tags[base..base + self.ways];
        if let Some(way) = set_tags.iter().position(|&t| t == tag) {
            let i = base + way;
            self.dirty[i] |= write;
            self.meta[i] = match self.cfg.replacement {
                Replacement::Lru => self.clock,
                Replacement::Drrip => 0,
            };
            self.hits += 1;
            return Access::Hit;
        }

        self.misses += 1;
        let victim = match self.cfg.replacement {
            Replacement::Lru => match set_tags.iter().position(|&t| t == INVALID_TAG) {
                Some(way) => base + way,
                None => {
                    let meta = &self.meta[base..base + self.ways];
                    let mut v = 0;
                    for (w, &m) in meta.iter().enumerate() {
                        if m < meta[v] {
                            v = w;
                        }
                    }
                    base + v
                }
            },
            Replacement::Drrip => self.drrip_victim(base),
        };

        let writeback_of = if self.tags[victim] != INVALID_TAG && self.dirty[victim] {
            Some(self.tags[victim] << self.set_shift)
        } else {
            None
        };
        let insert_meta = match self.cfg.replacement {
            Replacement::Lru => self.clock,
            Replacement::Drrip => self.drrip_insert_rrpv(set),
        };
        self.tags[victim] = tag;
        self.dirty[victim] = write;
        self.meta[victim] = insert_meta;
        Access::Miss { writeback_of }
    }

    fn drrip_victim(&mut self, base: usize) -> usize {
        let tags = &self.tags[base..base + self.ways];
        if let Some(way) = tags.iter().position(|&t| t == INVALID_TAG) {
            return base + way;
        }
        let meta = &mut self.meta[base..base + self.ways];
        loop {
            if let Some(way) = meta.iter().position(|&m| m >= RRPV_MAX) {
                return base + way;
            }
            for m in meta.iter_mut() {
                *m += 1;
            }
        }
    }

    fn drrip_insert_rrpv(&mut self, set: u64) -> u64 {
        const LEADERS: u64 = 32;
        let use_brrip = if set.is_multiple_of(LEADERS) {
            self.psel = (self.psel + 1).min(PSEL_MAX);
            false
        } else if set % LEADERS == 1 {
            self.psel = (self.psel - 1).max(0);
            true
        } else {
            self.psel < PSEL_MAX / 2
        };
        if use_brrip {
            self.brrip_ctr = self.brrip_ctr.wrapping_add(1);
            if self.brrip_ctr.is_multiple_of(32) || self.rng.bool(0.01) {
                RRPV_MAX - 1
            } else {
                RRPV_MAX
            }
        } else {
            RRPV_MAX - 1
        }
    }

    /// Repartitions to `new_ways` ways, mirroring `Cache::set_ways`.
    ///
    /// # Panics
    ///
    /// Panics if `new_ways` is zero.
    pub fn set_ways(&mut self, new_ways: u32) {
        assert!(new_ways > 0, "invalid way allocation");
        let old_ways = self.ways;
        let new = new_ways as usize;
        if new == old_ways {
            return;
        }
        let n = self.sets as usize * new;
        let mut tags = vec![INVALID_TAG; n];
        let mut meta = vec![0; n];
        let mut dirty = vec![false; n];
        let keep = old_ways.min(new);
        for set in 0..self.sets as usize {
            for w in 0..keep {
                tags[set * new + w] = self.tags[set * old_ways + w];
                meta[set * new + w] = self.meta[set * old_ways + w];
                dirty[set * new + w] = self.dirty[set * old_ways + w];
            }
        }
        self.tags = tags;
        self.meta = meta;
        self.dirty = dirty;
        self.ways = new;
        self.cfg.ways = new_ways;
        self.cfg.size_bytes = self.sets * new_ways as u64 * self.cfg.line_bytes;
    }
}

/// Scalar reference implementation of [`crate::Tlb`].
///
/// # Examples
///
/// ```
/// use datamime_sim::{RefTlb, Tlb, TlbConfig};
///
/// let cfg = TlbConfig::new(16, 4);
/// let mut fast = Tlb::new(cfg);
/// let mut reference = RefTlb::new(cfg);
/// for addr in [0u64, 4096, 100, 8192, 0] {
///     assert_eq!(fast.access(addr), reference.access(addr));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RefTlb {
    sets: u64,
    ways: usize,
    tags: Vec<u64>,
    stamp: Vec<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl RefTlb {
    /// Builds the reference TLB.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (see [`crate::Tlb::new`]).
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(cfg.entries > 0 && cfg.ways > 0 && cfg.entries.is_multiple_of(cfg.ways));
        let sets = (cfg.entries / cfg.ways) as u64;
        assert!(
            sets.is_power_of_two(),
            "TLB set count must be a power of two"
        );
        let n = cfg.entries as usize;
        RefTlb {
            sets,
            ways: cfg.ways as usize,
            tags: vec![INVALID_TAG; n],
            stamp: vec![0; n],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Translates the page containing `addr` exactly as the pre-batching
    /// `Tlb::access` did.
    pub fn access(&mut self, addr: Addr) -> bool {
        self.clock += 1;
        let page = addr / PAGE_BYTES;
        let set = page & (self.sets - 1);
        let tag = page;
        let base = (set as usize) * self.ways;
        let set_tags = &self.tags[base..base + self.ways];
        if let Some(way) = set_tags.iter().position(|&t| t == tag) {
            self.stamp[base + way] = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        let mut v = base;
        if let Some(way) = set_tags.iter().position(|&t| t == INVALID_TAG) {
            v = base + way;
        } else {
            for i in base + 1..base + self.ways {
                if self.stamp[i] < self.stamp[v] {
                    v = i;
                }
            }
        }
        self.tags[v] = tag;
        self.stamp[v] = self.clock;
        false
    }

    /// Cumulative hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cumulative misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Line-at-a-time reference implementation of [`crate::Machine`].
///
/// Every cache line of every event takes its whole trip — TLB when the
/// page changed, prefetcher, L1, the levels below — before the next line
/// starts, through [`RefCache`] and [`RefTlb`]. Penalties, write-back
/// propagation and the fractional-cycle carry follow the machine's rules
/// term for term, so every [`Counters`] field must come out equal.
///
/// # Examples
///
/// ```
/// use datamime_sim::{Machine, MachineConfig, RefMachine};
///
/// let mut fast = Machine::new(MachineConfig::broadwell());
/// fast.start_recording();
/// fast.exec(0x4000_0000, 700, 64);
/// fast.store(0x10_0000_0030, 200);
/// let trace = fast.stop_recording().unwrap();
///
/// let mut reference = RefMachine::new(MachineConfig::broadwell());
/// reference.replay(&trace);
/// assert_eq!(reference.counters(), fast.counters());
/// ```
#[derive(Debug, Clone)]
pub struct RefMachine {
    cfg: MachineConfig,
    l1i: RefCache,
    l1d: RefCache,
    l2: RefCache,
    llc: Option<RefCache>,
    itlb: RefTlb,
    dtlb: RefTlb,
    bp: BranchPredictor,
    counters: Counters,
    cycle_frac: f64,
    streams: [Addr; 16],
    stream_cursor: usize,
}

impl RefMachine {
    /// Builds the reference machine from the configuration type the
    /// optimized machine takes.
    pub fn new(cfg: MachineConfig) -> Self {
        RefMachine {
            l1i: RefCache::new(cfg.l1i),
            l1d: RefCache::new(cfg.l1d),
            l2: RefCache::new(cfg.l2),
            llc: cfg.llc.map(RefCache::new),
            itlb: RefTlb::new(cfg.itlb),
            dtlb: RefTlb::new(cfg.dtlb),
            bp: BranchPredictor::new(cfg.branch),
            counters: Counters::new(),
            cycle_frac: 0.0,
            streams: [Addr::MAX; 16],
            stream_cursor: 0,
            cfg,
        }
    }

    /// Current counter values.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Repartitions the LLC to `ways` ways, keeping the retained ways'
    /// lines, like `Machine::set_llc_ways`.
    ///
    /// # Panics
    ///
    /// Panics if the machine has no LLC or `ways` is zero.
    pub fn set_llc_ways(&mut self, ways: u32) {
        let llc = self.llc.as_mut().expect("machine has no LLC to partition");
        llc.set_ways(ways);
    }

    /// Applies every event of `trace` in order.
    pub fn replay(&mut self, trace: &Trace) {
        for &ev in trace.events() {
            match ev {
                TraceEvent::Exec {
                    pc,
                    code_bytes,
                    instrs,
                    ilp,
                } => self.exec(pc, code_bytes, instrs, ilp),
                TraceEvent::Load { addr, size } => self.data(addr, size, false),
                TraceEvent::Store { addr, size } => self.data(addr, size, true),
                TraceEvent::Branch { pc, taken } => {
                    self.counters.branches += 1;
                    if !self.bp.predict_and_update(pc, taken) {
                        self.counters.branch_mispredicts += 1;
                        self.charge(self.cfg.penalties.branch_mispredict);
                    }
                }
                TraceEvent::Idle { cycles } => self.counters.idle_cycles += cycles,
            }
        }
    }

    fn charge(&mut self, cycles: f64) {
        let total = cycles + self.cycle_frac;
        let whole = total as u64;
        self.cycle_frac = total - whole as f64;
        self.counters.busy_cycles += whole;
    }

    fn exec(&mut self, pc: Addr, code_bytes: u64, instrs: u64, ilp: f64) {
        let p = self.cfg.penalties;
        self.counters.instructions += instrs;
        let mut penalty = 0.0;
        let mut page = u64::MAX;
        for (k, line) in lines_of(pc, code_bytes).enumerate() {
            if line / PAGE_BYTES != page {
                page = line / PAGE_BYTES;
                if !self.itlb.access(line) {
                    self.counters.itlb_misses += 1;
                    penalty += p.tlb_walk;
                }
            }
            if self.l1i.access(line, false).is_miss() {
                self.counters.l1i_misses += 1;
                let fill = self.below_l1(line) * p.frontend_stall_factor;
                // Fetch-ahead hides part of every fill but the span's first.
                penalty += if k == 0 {
                    fill
                } else {
                    fill * p.prefetch_exposed.max(0.5)
                };
            }
        }
        self.charge(instrs as f64 / self.cfg.issue_width.min(ilp) + penalty);
    }

    fn data(&mut self, addr: Addr, size: u64, write: bool) {
        let p = self.cfg.penalties;
        let mut penalty = 0.0;
        let mut page = u64::MAX;
        for line in lines_of(addr, size) {
            if line / PAGE_BYTES != page {
                page = line / PAGE_BYTES;
                if !self.dtlb.access(line) {
                    self.counters.dtlb_misses += 1;
                    penalty += p.tlb_walk / p.mlp;
                }
            }
            let covered = self.prefetcher_covers(line);
            if let Access::Miss { writeback_of } = self.l1d.access(line, write) {
                self.counters.l1d_misses += 1;
                if let Some(victim) = writeback_of {
                    // The L2 absorbs the L1's dirty victim; that is not a
                    // demand miss, whatever the L2 evicts to make room.
                    if let Access::Miss {
                        writeback_of: Some(evicted),
                    } = self.l2.access(victim, true)
                    {
                        self.llc_access(evicted, true);
                    }
                }
                let fill = self.below_l1(line) / p.mlp;
                penalty += if covered {
                    fill * p.prefetch_exposed
                } else {
                    fill
                };
            }
        }
        self.charge(penalty);
    }

    /// Whether `line` repeats or continues a tracked stream: the first
    /// such stream moves to `line`, otherwise `line` takes the next slot.
    fn prefetcher_covers(&mut self, line: Addr) -> bool {
        for s in &mut self.streams {
            if line == *s || line == s.wrapping_add(LINE_BYTES) {
                *s = line;
                return true;
            }
        }
        self.streams[self.stream_cursor] = line;
        self.stream_cursor = (self.stream_cursor + 1) % self.streams.len();
        false
    }

    /// A demand read of `line` from the L2, the LLC, then memory.
    fn below_l1(&mut self, line: Addr) -> f64 {
        let p = self.cfg.penalties;
        let Access::Miss { writeback_of } = self.l2.access(line, false) else {
            return p.l2_hit;
        };
        self.counters.l2_misses += 1;
        if let Some(victim) = writeback_of {
            self.llc_access(victim, true);
        }
        if self.llc_access(line, false) {
            p.l2_hit + p.llc_hit
        } else {
            self.counters.llc_misses += 1;
            p.l2_hit + p.memory
        }
    }

    /// Reads (a demand fill) or writes (a dirty line leaving the L2) `line`
    /// at the last level and returns whether it hit. A miss moves the line
    /// to or from memory, and so does the dirty victim it evicts; without
    /// an LLC every access is a miss.
    fn llc_access(&mut self, line: Addr, write: bool) -> bool {
        let evicted_dirty = match &mut self.llc {
            Some(llc) => match llc.access(line, write) {
                Access::Hit => return true,
                Access::Miss { writeback_of } => writeback_of.is_some(),
            },
            None => false,
        };
        self.counters.memory_bytes += LINE_BYTES * (1 + u64::from(evicted_dirty));
        false
    }
}
