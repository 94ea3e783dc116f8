//! Shared execution infrastructure for workload applications.
//!
//! Applications in this reproduction are *real programs in structure*:
//! they maintain genuine hash tables, B-trees, posting lists, and tensors,
//! laid out in the simulator's address space, and serve requests by doing
//! the actual algorithmic work against those structures. What would be
//! machine code on real hardware is modeled by [`CodeRegion`]s: each
//! modeled function owns a span of the simulated text segment, and calling
//! it fetches that span through the I-side hierarchy and retires a
//! proportional number of instructions.

use datamime_sim::{Addr, Machine, Segment, SimAlloc};
use datamime_stats::Rng;

/// A span of simulated program text representing one function (or one
/// slab-class/specialized variant of a function).
///
/// # Examples
///
/// ```
/// use datamime_apps::{CodeRegion, CodeLayout};
/// use datamime_sim::{Machine, MachineConfig, SimAlloc};
///
/// let mut alloc = SimAlloc::new();
/// let mut layout = CodeLayout::new(&mut alloc);
/// let parse = layout.region(2048);
/// let mut m = Machine::new(MachineConfig::broadwell());
/// parse.call(&mut m, 500); // fetch 2 KB of text, retire 500 instructions
/// assert_eq!(m.counters().instructions, 500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeRegion {
    base: Addr,
    bytes: u64,
    /// Effective instruction-level parallelism of this code (dependence
    /// chains cap the sustained issue rate below the machine width).
    ilp: f64,
}

impl CodeRegion {
    /// Starting address of the region.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Size of the region in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Executes the whole region once, retiring `instrs` instructions at
    /// the region's effective ILP.
    pub fn call(&self, machine: &mut Machine, instrs: u64) {
        machine.exec_ilp(self.base, self.bytes, instrs, self.ilp);
    }

    /// Executes a sub-span of the region (e.g. one iteration of a loop that
    /// only touches part of a large function).
    ///
    /// The span is clipped to the region.
    pub fn call_span(&self, machine: &mut Machine, offset: u64, len: u64, instrs: u64) {
        let offset = offset.min(self.bytes.saturating_sub(1));
        let len = len.min(self.bytes - offset).max(1);
        machine.exec_ilp(self.base + offset, len, instrs, self.ilp);
    }

    /// Executes a data-dependent conditional branch attributed to this
    /// region, at byte offset `site`.
    pub fn branch(&self, machine: &mut Machine, site: u64, taken: bool) {
        machine.branch(self.base + site % self.bytes.max(1), taken);
    }
}

/// Allocates [`CodeRegion`]s from the simulated text segment.
#[derive(Debug)]
pub struct CodeLayout<'a> {
    alloc: &'a mut SimAlloc,
}

impl<'a> CodeLayout<'a> {
    /// Wraps an allocator for code-region allocation.
    pub fn new(alloc: &'a mut SimAlloc) -> Self {
        CodeLayout { alloc }
    }

    /// Allocates a region of `bytes` bytes of text.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn region(&mut self, bytes: u64) -> CodeRegion {
        // Typical branchy server code sustains ~1.6 IPC of useful ILP.
        self.region_with_ilp(bytes, 1.6)
    }

    /// Allocates a region whose code sustains `ilp` instructions per cycle
    /// (e.g. vectorized dense kernels approach the machine width).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or `ilp` is not positive.
    pub fn region_with_ilp(&mut self, bytes: u64, ilp: f64) -> CodeRegion {
        assert!(ilp > 0.0, "ilp must be positive");
        let base = self
            .alloc
            .alloc(Segment::Code, bytes)
            .expect("code region size must be positive");
        CodeRegion { base, bytes, ilp }
    }

    /// Allocates `n` same-sized sibling regions (e.g. per-slab-class
    /// specializations of a function).
    pub fn regions(&mut self, n: usize, bytes: u64) -> Vec<CodeRegion> {
        (0..n).map(|_| self.region(bytes)).collect()
    }
}

/// A set of auxiliary service functions (connection handling, logging,
/// state-machine arms, ...) of which each request exercises a random
/// subset — the code-path diversity that gives server workloads their
/// instruction-cache pressure.
#[derive(Debug, Clone)]
pub struct ServicePaths {
    regions: Vec<CodeRegion>,
}

impl ServicePaths {
    /// Allocates `n` auxiliary functions of `bytes` each.
    pub fn new(layout: &mut CodeLayout<'_>, n: usize, bytes: u64) -> Self {
        ServicePaths {
            regions: layout.regions(n, bytes),
        }
    }

    /// Executes `k` randomly chosen functions, `instrs_each` instructions
    /// apiece (`k` is clamped to the number of functions).
    pub fn touch(&self, machine: &mut Machine, rng: &mut Rng, k: usize, instrs_each: u64) {
        for _ in 0..k.min(self.regions.len()) {
            let r = self.regions[rng.index(self.regions.len())];
            r.call(machine, instrs_each);
        }
    }

    /// Total code bytes across the auxiliary functions.
    pub fn bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.bytes()).sum()
    }
}

/// A request-serving application driven by the load generator.
///
/// `serve` performs one complete request against the machine: the
/// application decides the request type (from its configured mix), executes
/// its code paths, and touches its data structures. All randomness comes
/// from the supplied [`Rng`] so runs are reproducible.
///
/// An application is plain data laid out in *simulated* addresses: it
/// holds no host pointer and nothing machine-dependent, which is what
/// lets [`App::fork`] stand in for a rebuild — and what makes the `Send`
/// bound free: the profiler serves a copy on a second thread beside the
/// curve sweep, and a copy that owns its mutable state and shares only
/// immutable data (behind an `Arc`) cannot tell which thread serves it.
pub trait App: Send {
    /// Short identifier, e.g. `"memcached"`.
    fn name(&self) -> &str;

    /// Serves one request.
    fn serve(&mut self, machine: &mut Machine, rng: &mut Rng);

    /// An independent copy of the application in its current state.
    ///
    /// The copy and the original serve any request stream identically —
    /// same simulated addresses, same counters, same footprint — and
    /// serving one never changes the other. A copy of a freshly built
    /// application is therefore address-for-address a rebuild from the
    /// same configuration, without a dataset construction; the profiler
    /// restarts an application between runs this way, and runs the main
    /// profile on one such copy while the curve sweep serves the others.
    /// So a copy may share with its original, behind an `Arc`, only what no
    /// `serve` ever writes, and must own whatever one does: `KvStore`
    /// shares its whole item table and gives each copy its own overlay
    /// for the items its SETs rewrite, which a copy of a served copy
    /// carries over.
    fn fork(&self) -> Box<dyn App>;

    /// Approximate resident data footprint in bytes (used by tests and by
    /// dataset-generation sanity checks).
    fn footprint_bytes(&self) -> u64;

    /// A sample of the application's resident data bytes, for
    /// value-dependent profiling such as the compressibility extension
    /// (paper Sec. III-D). `None` (the default) means the application does
    /// not model value contents.
    fn memory_snapshot(&self) -> Option<Vec<u8>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamime_sim::MachineConfig;

    #[test]
    fn regions_are_disjoint() {
        let mut alloc = SimAlloc::new();
        let mut layout = CodeLayout::new(&mut alloc);
        let a = layout.region(4096);
        let b = layout.region(4096);
        assert!(b.base() >= a.base() + a.bytes());
    }

    #[test]
    fn call_span_clips() {
        let mut alloc = SimAlloc::new();
        let mut layout = CodeLayout::new(&mut alloc);
        let r = layout.region(128);
        let mut m = Machine::new(MachineConfig::broadwell());
        r.call_span(&mut m, 1000, 50, 10); // offset beyond region: clipped
        assert_eq!(m.counters().instructions, 10);
    }

    #[test]
    fn repeated_calls_hit_icache() {
        let mut alloc = SimAlloc::new();
        let mut layout = CodeLayout::new(&mut alloc);
        let r = layout.region(4096);
        let mut m = Machine::new(MachineConfig::broadwell());
        r.call(&mut m, 100);
        let cold = m.counters().l1i_misses;
        for _ in 0..100 {
            r.call(&mut m, 100);
        }
        assert_eq!(m.counters().l1i_misses, cold, "warm region must not miss");
    }

    #[test]
    fn sibling_regions_create_icache_pressure() {
        let mut alloc = SimAlloc::new();
        let mut layout = CodeLayout::new(&mut alloc);
        // 64 x 4 KB = 256 KB of text: far beyond a 32 KB L1I.
        let regions = layout.regions(64, 4096);
        let mut m = Machine::new(MachineConfig::broadwell());
        let mut rng = Rng::with_seed(1);
        for _ in 0..5_000 {
            regions[rng.index(regions.len())].call(&mut m, 1000);
        }
        let mpki = m.counters().mpki(m.counters().l1i_misses);
        assert!(mpki > 5.0, "expected heavy icache pressure, mpki {mpki}");
    }
}
