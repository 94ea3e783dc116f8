//! The simulated machine: cache hierarchy + core model + counters.

use crate::branch::BranchPredictor;
use crate::cache::{Access, Cache};
use crate::config::MachineConfig;
use crate::counters::Counters;
use crate::mem::{lines_of, Addr, LINE_BYTES, PAGE_BYTES};
use crate::tlb::Tlb;
use crate::trace::{Trace, TraceEvent};

/// An execution-driven model of one core of a [`MachineConfig`] platform.
///
/// Workloads drive the machine through three event kinds:
///
/// - [`Machine::exec`]: fetch-and-execute a straight-line code span
///   (exercises the L1I, ITLB, and charges base pipeline cycles);
/// - [`Machine::load`] / [`Machine::store`]: data accesses through the
///   D-side hierarchy;
/// - [`Machine::branch`]: a data-dependent conditional branch.
///
/// Cycle accounting uses an analytic throughput model: base cycles are
/// `instructions / issue_width`, and each miss/mispredict event adds a
/// penalty from [`crate::Penalties`], with data-side penalties divided by
/// the machine's effective memory-level parallelism. This reproduces the
/// first-order IPC behaviour that the paper's metrics capture while keeping
/// simulation fast enough for a 200-iteration Bayesian search.
///
/// # Examples
///
/// ```
/// use datamime_sim::{Machine, MachineConfig};
///
/// let mut m = Machine::new(MachineConfig::broadwell());
/// m.exec(0x4000_0000, 256, 64); // run a 256-byte code span of 64 instrs
/// m.load(0x10_0000_0000, 8);
/// assert!(m.counters().instructions == 64);
/// assert!(m.counters().busy_cycles > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: MachineConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    llc: Option<Cache>,
    itlb: Tlb,
    dtlb: Tlb,
    bp: BranchPredictor,
    counters: Counters,
    cycle_frac: f64,
    /// Stream-prefetcher state: last line seen per tracked stream.
    streams: [Addr; 16],
    stream_cursor: usize,
    /// Event recorder, active between `start_recording` and
    /// `stop_recording`.
    recorder: Option<Trace>,
    /// Reusable dirty-victim buffer for the span-probe calls.
    wb_scratch: Vec<Addr>,
}

/// Cache lines per page.
const LINES_PER_PAGE: u64 = PAGE_BYTES / LINE_BYTES;

impl Machine {
    /// Builds a machine from its configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        Machine {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            llc: cfg.llc.map(Cache::new),
            itlb: Tlb::new(cfg.itlb),
            dtlb: Tlb::new(cfg.dtlb),
            bp: BranchPredictor::new(cfg.branch),
            counters: Counters::new(),
            cycle_frac: 0.0,
            streams: [Addr::MAX; 16],
            stream_cursor: 0,
            recorder: None,
            wb_scratch: Vec::new(),
            cfg,
        }
    }

    /// Reconfigures the machine in place to exactly the state
    /// [`Machine::new(cfg)`](Machine::new) would produce, reusing the cache,
    /// TLB, and predictor allocations wherever the geometry permits.
    ///
    /// This is the arena-reuse hook behind `datamime`'s `EvalArena`: a
    /// Broadwell machine owns ~3 MB of tag/metadata arrays, and a Bayesian
    /// search builds one machine per evaluation plus one per
    /// cache-sensitivity curve point — `reinit` turns each of those
    /// allocations into a `memset`. Behaviour after `reinit` is
    /// bit-identical to a fresh machine (property-tested in
    /// `tests/machine_equivalence.rs`).
    ///
    /// # Examples
    ///
    /// ```
    /// use datamime_sim::{Machine, MachineConfig};
    ///
    /// let mut m = Machine::new(MachineConfig::broadwell());
    /// m.exec(0x4000_0000, 256, 64);
    /// m.reinit(MachineConfig::broadwell());
    /// assert_eq!(m.counters().instructions, 0); // fresh state, reused arrays
    /// ```
    pub fn reinit(&mut self, cfg: MachineConfig) {
        self.l1i.reinit(cfg.l1i);
        self.l1d.reinit(cfg.l1d);
        self.l2.reinit(cfg.l2);
        match (&mut self.llc, cfg.llc) {
            (Some(c), Some(llc_cfg)) => c.reinit(llc_cfg),
            (slot, Some(llc_cfg)) => *slot = Some(Cache::new(llc_cfg)),
            (slot, None) => *slot = None,
        }
        self.itlb.reinit(cfg.itlb);
        self.dtlb.reinit(cfg.dtlb);
        self.bp.reinit(cfg.branch);
        self.counters = Counters::new();
        self.cycle_frac = 0.0;
        self.streams = [Addr::MAX; 16];
        self.stream_cursor = 0;
        self.recorder = None;
        self.wb_scratch.clear();
        self.cfg = cfg;
    }

    /// Repartitions the LLC to `ways` ways (Intel CAT style) *during*
    /// execution, as DynaWay does when measuring miss curves online. The
    /// resized LLC starts cold, so callers should allow a short warm-up
    /// before sampling.
    ///
    /// # Panics
    ///
    /// Panics if the machine has no LLC or `ways` is out of range.
    pub fn set_llc_ways(&mut self, ways: u32) {
        let base = self.cfg.llc.expect("machine has no LLC to partition");
        assert!(
            ways > 0 && ways <= base.ways,
            "invalid way allocation {ways}"
        );
        self.llc
            .as_mut()
            .expect("machine has no LLC to partition")
            .set_ways(ways);
    }

    /// Starts recording machine events into a [`Trace`]; any recording in
    /// progress is discarded.
    pub fn start_recording(&mut self) {
        self.recorder = Some(Trace::new());
    }

    /// Stops recording and returns the trace, or `None` if recording was
    /// never started.
    pub fn stop_recording(&mut self) -> Option<Trace> {
        self.recorder.take()
    }

    /// Returns `true` if `line` continues a tracked sequential stream
    /// (i.e. the hardware prefetcher would have the line in flight).
    /// Updates the stream table either way.
    ///
    /// The scan is branch-free: one match bitmask over all 16 slots (the
    /// compiler vectorizes the compare loop), then the first matching slot
    /// is updated — identical to the old early-exit loop, which also only
    /// ever updated the first match.
    #[inline]
    fn prefetcher_covers(&mut self, line: Addr) -> bool {
        let mut mask: u32 = 0;
        for (i, s) in self.streams.iter().enumerate() {
            let m = line == s.wrapping_add(LINE_BYTES) || line == *s;
            mask |= u32::from(m) << i;
        }
        if mask != 0 {
            self.streams[mask.trailing_zeros() as usize] = line;
            return true;
        }
        // New stream candidate: start tracking it.
        self.streams[self.stream_cursor] = line;
        self.stream_cursor = (self.stream_cursor + 1) % self.streams.len();
        false
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current counter values.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    #[inline]
    fn charge(&mut self, cycles: f64) {
        let total = cycles + self.cycle_frac;
        let whole = total as u64;
        self.cycle_frac = total - whole as f64;
        self.counters.busy_cycles += whole;
    }

    /// Accesses the unified levels below L1 (L2, then LLC, then memory) and
    /// returns the cycle penalty. Demand fills reaching this level are
    /// always reads: write-allocate dirties the L1, and dirty victims take
    /// [`Machine::below_l1_writeback`] instead.
    ///
    /// `#[inline]` + the outlined miss half keep the L2-hit case — the
    /// steady state of every loop whose working set fits the L2 — down to
    /// one probe and a constant, inlined into the fetch/data loops.
    #[inline]
    fn below_l1(&mut self, line: Addr) -> f64 {
        match self.l2.access(line, false) {
            Access::Hit => self.cfg.penalties.l2_hit,
            Access::Miss { writeback_of } => self.below_l1_miss(line, writeback_of),
        }
    }

    /// Miss half of [`Machine::below_l1`]: writeback propagation plus the
    /// LLC/memory fill.
    fn below_l1_miss(&mut self, line: Addr, writeback_of: Option<Addr>) -> f64 {
        self.counters.l2_misses += 1;
        let mut penalty = self.cfg.penalties.l2_hit;
        // Propagate the L2's dirty victim downward.
        if let Some(victim) = writeback_of {
            self.write_llc_or_memory(victim);
        }
        penalty += self.fill_from_llc_or_memory(line, false);
        penalty
    }

    /// Fills `line` from the LLC (or memory when absent / missing).
    fn fill_from_llc_or_memory(&mut self, line: Addr, write: bool) -> f64 {
        let p = self.cfg.penalties;
        match &mut self.llc {
            Some(llc) => match llc.access(line, write) {
                Access::Hit => p.llc_hit,
                Access::Miss { writeback_of } => {
                    self.counters.llc_misses += 1;
                    self.counters.memory_bytes += LINE_BYTES;
                    if writeback_of.is_some() {
                        self.counters.memory_bytes += LINE_BYTES;
                    }
                    p.memory
                }
            },
            None => {
                // No L3: the L2 is the last level; its miss already counted
                // at the caller, so the fill goes straight to memory.
                self.counters.llc_misses += 1;
                self.counters.memory_bytes += LINE_BYTES;
                p.memory
            }
        }
    }

    /// Writes a dirty victim line into the LLC (or memory when absent).
    fn write_llc_or_memory(&mut self, line: Addr) {
        match &mut self.llc {
            Some(llc) => {
                if let Access::Miss { writeback_of } = llc.access(line, true) {
                    // A write-back that misses the LLC allocates there and
                    // may itself evict a dirty line to memory.
                    self.counters.memory_bytes += LINE_BYTES;
                    if writeback_of.is_some() {
                        self.counters.memory_bytes += LINE_BYTES;
                    }
                }
            }
            None => {
                self.counters.memory_bytes += LINE_BYTES;
            }
        }
    }

    /// Fetches and executes a straight-line span of code: `code_bytes`
    /// bytes of text starting at `pc`, retiring `instrs` instructions.
    ///
    /// Each cache line of the span is fetched through the ITLB and L1I; a
    /// miss descends the unified hierarchy. Frontend stalls are charged at
    /// `frontend_stall_factor` of the fill latency because fetch-ahead hides
    /// part of the miss.
    pub fn exec(&mut self, pc: Addr, code_bytes: u64, instrs: u64) {
        self.exec_ilp(pc, code_bytes, instrs, f64::INFINITY);
    }

    /// Like [`Machine::exec`], but caps the effective issue rate at `ilp`
    /// instructions per cycle, modeling the dependence chains of the code
    /// being executed (pointer-chasing server code sustains far less than
    /// the machine width; vectorized dense kernels sustain the full width).
    ///
    /// # Panics
    ///
    /// Panics if `ilp` is not positive.
    pub fn exec_ilp(&mut self, pc: Addr, code_bytes: u64, instrs: u64, ilp: f64) {
        assert!(ilp > 0.0, "ilp must be positive");
        if let Some(t) = &mut self.recorder {
            t.push(TraceEvent::Exec {
                pc,
                code_bytes,
                instrs,
                ilp,
            });
        }
        self.counters.instructions += instrs;
        let p = self.cfg.penalties;
        let first_line = pc / LINE_BYTES;
        let last_line = if code_bytes == 0 {
            first_line
        } else {
            (pc + code_bytes - 1) / LINE_BYTES
        };
        // Fetch is sequential within a span: next-line prefetch hides part
        // of the latency of every fill but the first line's, though
        // branchy server code cannot run fetch far ahead.
        let exposed = p.prefetch_exposed.max(0.5);
        let mut penalty = 0.0;
        let mut page = u64::MAX;
        let mut ln = first_line;
        while ln <= last_line {
            // One window: up to `SPAN_LINES` lines, clipped at the page
            // end so a page change can only fall on a window's first line.
            let to_page_end = LINES_PER_PAGE - ln % LINES_PER_PAGE;
            let n = (last_line - ln + 1)
                .min(u64::from(Cache::SPAN_LINES))
                .min(to_page_end);
            let window = ln * LINE_BYTES;
            if window / PAGE_BYTES != page {
                page = window / PAGE_BYTES;
                if !self.itlb.access(window) {
                    self.counters.itlb_misses += 1;
                    penalty += p.tlb_walk;
                }
            }
            let mut misses = self
                .l1i
                .access_span_clean(window, n as u32, &mut self.wb_scratch);
            debug_assert!(self.wb_scratch.is_empty(), "L1I lines are never dirty");
            self.counters.l1i_misses += u64::from(misses.count_ones());
            // The window's misses descend in line order, so the L2 and LLC
            // see them — and `penalty` sums them — exactly as a
            // line-at-a-time fetch would.
            while misses != 0 {
                let line = ln + u64::from(misses.trailing_zeros());
                misses &= misses - 1;
                let fill = self.below_l1(line * LINE_BYTES) * p.frontend_stall_factor;
                penalty += if line == first_line {
                    fill
                } else {
                    fill * exposed
                };
            }
            ln += n;
        }
        self.charge(instrs as f64 / self.cfg.issue_width.min(ilp) + penalty);
    }

    /// Executes a data-dependent conditional branch at `pc` with actual
    /// outcome `taken`. The branch instruction itself must already be
    /// included in an [`Machine::exec`] span; this call models only the
    /// prediction.
    pub fn branch(&mut self, pc: Addr, taken: bool) {
        if let Some(t) = &mut self.recorder {
            t.push(TraceEvent::Branch { pc, taken });
        }
        self.counters.branches += 1;
        if !self.bp.predict_and_update(pc, taken) {
            self.counters.branch_mispredicts += 1;
            self.charge(self.cfg.penalties.branch_mispredict);
        }
    }

    /// Loads `size` bytes at `addr` through the D-side hierarchy.
    pub fn load(&mut self, addr: Addr, size: u64) {
        if let Some(t) = &mut self.recorder {
            t.push(TraceEvent::Load { addr, size });
        }
        self.data_access(addr, size, false);
    }

    /// Stores `size` bytes at `addr` (write-allocate, write-back).
    pub fn store(&mut self, addr: Addr, size: u64) {
        if let Some(t) = &mut self.recorder {
            t.push(TraceEvent::Store { addr, size });
        }
        self.data_access(addr, size, true);
    }

    fn data_access(&mut self, addr: Addr, size: u64, write: bool) {
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
            penalty += self.data_line_access(line, write);
        }
        self.charge(penalty);
    }

    /// One line's trip through the D-side hierarchy (prefetcher check, L1D,
    /// and the unified levels on a miss), returning the cycle penalty.
    #[inline]
    fn data_line_access(&mut self, line: Addr, write: bool) -> f64 {
        let p = self.cfg.penalties;
        let covered = self.prefetcher_covers(line);
        match self.l1d.access(line, write) {
            Access::Hit => 0.0,
            Access::Miss { writeback_of } => {
                self.counters.l1d_misses += 1;
                if let Some(victim) = writeback_of {
                    // L1 dirty victim is absorbed by the L2 (or below).
                    let _ = self.below_l1_writeback(victim);
                }
                let fill = self.below_l1(line) / p.mlp;
                // A detected stream still counts misses and moves
                // traffic, but the prefetcher hides most of the latency.
                if covered {
                    fill * p.prefetch_exposed
                } else {
                    fill
                }
            }
        }
    }

    /// Write-back path from L1 into L2 that does not perturb demand-miss
    /// counters (write-backs are not demand misses).
    fn below_l1_writeback(&mut self, line: Addr) -> bool {
        match self.l2.access(line, true) {
            Access::Hit => true,
            Access::Miss { writeback_of } => {
                if let Some(victim) = writeback_of {
                    self.write_llc_or_memory(victim);
                }
                // The write-back allocation in L2 is not a demand miss;
                // it lands dirty and will eventually reach memory.
                false
            }
        }
    }

    /// Advances wall-clock time with the core idle (no requests pending).
    pub fn idle(&mut self, cycles: u64) {
        if let Some(t) = &mut self.recorder {
            t.push(TraceEvent::Idle { cycles });
        }
        self.counters.idle_cycles += cycles;
    }

    /// Total wall-clock cycles elapsed (busy + idle).
    pub fn wall_cycles(&self) -> u64 {
        self.counters.busy_cycles + self.counters.idle_cycles
    }

    /// Wall-clock seconds elapsed at the configured frequency.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_cycles() as f64 / (self.cfg.freq_ghz * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Segment;
    use crate::SimAlloc;

    fn broadwell() -> Machine {
        Machine::new(MachineConfig::broadwell())
    }

    #[test]
    fn ipc_bounded_by_issue_width() {
        let mut m = broadwell();
        // Tiny hot loop: everything hits after warmup.
        for _ in 0..10_000 {
            m.exec(0x4000_0000, 64, 32);
        }
        let ipc = m.counters().ipc();
        assert!(ipc <= m.config().issue_width + 1e-9);
        assert!(
            ipc > m.config().issue_width * 0.9,
            "hot loop should be core-bound: {ipc}"
        );
    }

    #[test]
    fn cache_misses_lower_ipc() {
        let mut hot = broadwell();
        let mut cold = broadwell();
        for i in 0..50_000u64 {
            hot.exec(0x4000_0000, 64, 16);
            hot.load(0x10_0000_0000, 8);
            cold.exec(0x4000_0000, 64, 16);
            // Stream far beyond LLC capacity: every load misses to memory.
            cold.load(0x10_0000_0000 + i * 4096, 8);
        }
        assert!(cold.counters().ipc() < hot.counters().ipc() * 0.8);
        assert!(cold.counters().llc_misses > 10_000);
        assert!(cold.counters().memory_bytes >= cold.counters().llc_misses * 64);
    }

    #[test]
    fn icache_pressure_raises_l1i_mpki() {
        let mut small = broadwell();
        let mut big = broadwell();
        // 16 KB code footprint fits L1I; 256 KB does not.
        for r in 0..2_000u64 {
            small.exec(0x4000_0000 + (r % 4) * 4096, 4096, 1024);
            big.exec(0x4000_0000 + (r % 64) * 4096, 4096, 1024);
        }
        let small_mpki = small.counters().mpki(small.counters().l1i_misses);
        let big_mpki = big.counters().mpki(big.counters().l1i_misses);
        assert!(
            big_mpki > small_mpki * 5.0,
            "big {big_mpki} small {small_mpki}"
        );
    }

    #[test]
    fn mispredicts_charge_cycles() {
        let mut predictable = broadwell();
        let mut random = broadwell();
        let mut rng = datamime_stats::Rng::with_seed(1);
        for _ in 0..20_000 {
            predictable.exec(0x4000_0000, 64, 8);
            predictable.branch(0x4000_0010, true);
            random.exec(0x4000_0000, 64, 8);
            random.branch(0x4000_0010, rng.bool(0.5));
        }
        assert!(random.counters().branch_mispredicts > 5_000);
        assert!(random.counters().ipc() < predictable.counters().ipc());
    }

    #[test]
    fn utilization_reflects_idle_time() {
        let mut m = broadwell();
        m.exec(0x4000_0000, 64, 400);
        let busy = m.counters().busy_cycles;
        m.idle(busy * 3);
        let util = m.counters().utilization();
        assert!((util - 0.25).abs() < 0.01, "util {util}");
    }

    #[test]
    fn stores_generate_writeback_traffic() {
        let mut m = broadwell();
        // Dirty a large region, then stream over another large region to
        // force dirty evictions all the way to memory.
        let mb = 1 << 20;
        for i in 0..(32 * mb / 64) {
            m.store(0x10_0000_0000 + i * 64, 8);
        }
        for i in 0..(32 * mb / 64) {
            m.load(0x20_0000_0000 + i * 64, 8);
        }
        let fills = m.counters().llc_misses * 64;
        assert!(
            m.counters().memory_bytes > fills,
            "write-backs must add to fill traffic: {} vs {}",
            m.counters().memory_bytes,
            fills
        );
    }

    #[test]
    fn llc_partitioning_increases_misses() {
        let cfg = MachineConfig::broadwell();
        let mut full = Machine::new(cfg.clone());
        let mut slim = Machine::new(cfg.with_llc_ways(1));
        // 4 MB working set: fits in 12 MB, not in 1 MB.
        let lines = 4 * (1 << 20) / 64;
        for _ in 0..6 {
            for i in 0..lines {
                full.exec(0x4000_0000, 64, 8);
                full.load(0x10_0000_0000 + i * 64, 8);
                slim.exec(0x4000_0000, 64, 8);
                slim.load(0x10_0000_0000 + i * 64, 8);
            }
        }
        assert!(slim.counters().llc_misses > full.counters().llc_misses * 3);
        assert!(slim.counters().ipc() < full.counters().ipc());
    }

    #[test]
    fn silvermont_has_no_llc_but_counts_llc_misses_at_l2() {
        let mut m = Machine::new(MachineConfig::silvermont());
        for i in 0..100_000u64 {
            m.exec(0x4000_0000, 64, 4);
            m.load(0x10_0000_0000 + i * 4096, 8);
        }
        assert!(m.counters().llc_misses > 50_000);
        assert_eq!(m.counters().l2_misses, m.counters().llc_misses);
    }

    #[test]
    fn narrow_core_is_slower_on_same_work() {
        let mut bdw = Machine::new(MachineConfig::broadwell());
        let mut slm = Machine::new(MachineConfig::silvermont());
        let mut alloc = SimAlloc::new();
        let buf = alloc.alloc(Segment::Heap, 64 * 1024).unwrap();
        for r in 0..5_000u64 {
            for m in [&mut bdw, &mut slm] {
                m.exec(0x4000_0000, 512, 128);
                m.load(buf + (r * 192) % (64 * 1024), 16);
            }
        }
        assert!(slm.counters().ipc() < bdw.counters().ipc());
    }

    #[test]
    fn wall_clock_accounting() {
        let mut m = broadwell();
        m.exec(0x4000_0000, 64, 4000);
        m.idle(1_000_000);
        assert_eq!(m.wall_cycles(), m.counters().busy_cycles + 1_000_000);
        assert!(m.wall_seconds() > 0.0);
    }
}
