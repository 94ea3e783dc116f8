//! Interval sampling of performance counters.
//!
//! The paper samples all performance counters at 20 M-cycle intervals and
//! builds *distributions* from the samples (Sec. III-A). [`Sampler`] is the
//! analog: the harness polls it as simulation advances, and whenever a full
//! wall-clock interval has elapsed it appends one [`MetricSample`] computed
//! from the counter delta over that interval.

use crate::counters::Counters;
use crate::machine::Machine;

/// Default sampling interval: 20 M cycles, as in the paper.
pub const DEFAULT_INTERVAL_CYCLES: u64 = 20_000_000;

/// Derived metrics over one sampling interval — one row of the profile.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricSample {
    /// Instructions per busy cycle.
    pub ipc: f64,
    /// L1 instruction-cache misses per kilo-instruction.
    pub l1i_mpki: f64,
    /// L1 data-cache misses per kilo-instruction.
    pub l1d_mpki: f64,
    /// L2 misses per kilo-instruction.
    pub l2_mpki: f64,
    /// Last-level-cache misses per kilo-instruction.
    pub llc_mpki: f64,
    /// Instruction-TLB misses per kilo-instruction.
    pub itlb_mpki: f64,
    /// Data-TLB misses per kilo-instruction.
    pub dtlb_mpki: f64,
    /// Branch mispredictions per kilo-instruction.
    pub branch_mpki: f64,
    /// Core busy fraction over the wall-clock interval.
    pub cpu_utilization: f64,
    /// Memory traffic in GB/s over the wall-clock interval.
    pub memory_bw_gbps: f64,
}

impl MetricSample {
    /// Computes a sample from a counter delta at `freq_ghz`.
    pub fn from_delta(d: &Counters, freq_ghz: f64) -> Self {
        MetricSample {
            ipc: d.ipc(),
            l1i_mpki: d.mpki(d.l1i_misses),
            l1d_mpki: d.mpki(d.l1d_misses),
            l2_mpki: d.mpki(d.l2_misses),
            llc_mpki: d.mpki(d.llc_misses),
            itlb_mpki: d.mpki(d.itlb_misses),
            dtlb_mpki: d.mpki(d.dtlb_misses),
            branch_mpki: d.mpki(d.branch_mispredicts),
            cpu_utilization: d.utilization(),
            memory_bw_gbps: d.memory_bandwidth_gbps(freq_ghz),
        }
    }
}

/// Polls a [`Machine`]'s counters and cuts one [`MetricSample`] per elapsed
/// wall-clock interval.
///
/// # Examples
///
/// ```
/// use datamime_sim::{Machine, MachineConfig, Sampler};
///
/// let mut m = Machine::new(MachineConfig::broadwell());
/// let mut s = Sampler::new(1_000_000); // 1 M-cycle intervals for the demo
/// for _ in 0..1000 {
///     m.exec(0x4000_0000, 4096, 4096);
///     s.poll(&m);
/// }
/// assert!(!s.samples().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Sampler {
    interval: u64,
    last: Counters,
    /// Wall-cycle threshold for the next sample (`last_wall + interval`),
    /// precomputed so the per-poll fast path is a single compare with no
    /// subtraction that could roll over.
    next_wall: u64,
    samples: Vec<MetricSample>,
}

impl Sampler {
    /// Creates a sampler cutting samples every `interval_cycles` wall-clock
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if `interval_cycles` is zero.
    pub fn new(interval_cycles: u64) -> Self {
        assert!(interval_cycles > 0, "interval must be positive");
        Sampler {
            interval: interval_cycles,
            last: Counters::new(),
            next_wall: interval_cycles,
            samples: Vec::new(),
        }
    }

    /// Creates a sampler with the paper's 20 M-cycle interval.
    pub fn paper_default() -> Self {
        Sampler::new(DEFAULT_INTERVAL_CYCLES)
    }

    /// Checks whether at least one interval has elapsed since the last
    /// sample and, if so, cuts a sample from the delta.
    ///
    /// Polling granularity is expected to be much finer than the interval
    /// (the harness polls after every request), so each elapsed interval
    /// yields exactly one sample with negligible boundary jitter.
    #[inline]
    pub fn poll(&mut self, machine: &Machine) {
        let wall = machine.wall_cycles();
        if wall < self.next_wall {
            return;
        }
        self.cut_sample(machine, wall);
    }

    /// Slow path of [`Sampler::poll`]: cuts a sample from the counter delta
    /// and arms the next threshold. Kept out of line so the per-request
    /// fast path stays a compare-and-return.
    #[cold]
    fn cut_sample(&mut self, machine: &Machine, wall: u64) {
        let delta = machine.counters().delta_since(&self.last);
        self.samples
            .push(MetricSample::from_delta(&delta, machine.config().freq_ghz));
        self.last = *machine.counters();
        self.next_wall = wall.saturating_add(self.interval);
    }

    /// Resets the sampler in place to exactly the state
    /// [`Sampler::new(interval_cycles)`](Sampler::new) would produce,
    /// keeping the sample buffer's allocation (the arena-reuse hook: a
    /// pooled sampler stops reallocating its samples vector once it has
    /// grown to a search's steady-state profile length).
    ///
    /// # Panics
    ///
    /// Panics if `interval_cycles` is zero.
    pub fn reinit(&mut self, interval_cycles: u64) {
        assert!(interval_cycles > 0, "interval must be positive");
        self.interval = interval_cycles;
        self.last = Counters::new();
        self.next_wall = interval_cycles;
        self.samples.clear();
    }

    /// Discards accumulated state so the next sample starts fresh — used to
    /// skip warm-up.
    pub fn restart(&mut self, machine: &Machine) {
        self.last = *machine.counters();
        self.next_wall = machine.wall_cycles().saturating_add(self.interval);
        self.samples.clear();
    }

    /// Samples collected so far.
    pub fn samples(&self) -> &[MetricSample] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    #[test]
    fn cuts_one_sample_per_interval() {
        let mut m = Machine::new(MachineConfig::broadwell());
        let mut s = Sampler::new(10_000);
        // Each exec burns ~250 busy cycles; poll frequently.
        for _ in 0..400 {
            m.exec(0x4000_0000, 64, 1000);
            s.poll(&m);
        }
        let wall = m.wall_cycles();
        let expected = wall / 10_000;
        let got = s.samples().len() as u64;
        assert!(
            got >= expected.saturating_sub(2) && got <= expected + 1,
            "expected ~{expected}, got {got}"
        );
    }

    #[test]
    fn samples_reflect_phase_changes() {
        let mut m = Machine::new(MachineConfig::broadwell());
        let mut s = Sampler::new(50_000);
        // Phase 1: core-bound.
        for _ in 0..200 {
            m.exec(0x4000_0000, 64, 2000);
            s.poll(&m);
        }
        let phase1 = s.samples().len();
        assert!(phase1 > 0);
        // Phase 2: memory-bound streaming.
        for i in 0..30_000u64 {
            m.exec(0x4000_0000, 64, 50);
            m.load(0x10_0000_0000 + i * 4096, 8);
            s.poll(&m);
        }
        let all = s.samples();
        let ipc1 = all[..phase1].iter().map(|x| x.ipc).sum::<f64>() / phase1 as f64;
        let ipc2 = all[phase1..].iter().map(|x| x.ipc).sum::<f64>() / (all.len() - phase1) as f64;
        assert!(ipc2 < ipc1 * 0.7, "phase2 ipc {ipc2} vs phase1 {ipc1}");
    }

    #[test]
    fn restart_discards_warmup() {
        let mut m = Machine::new(MachineConfig::broadwell());
        let mut s = Sampler::new(1_000);
        m.exec(0x4000_0000, 64, 100_000);
        s.poll(&m);
        assert!(!s.samples().is_empty());
        s.restart(&m);
        assert!(s.samples().is_empty());
    }

    #[test]
    fn idle_time_counts_toward_intervals() {
        let mut m = Machine::new(MachineConfig::broadwell());
        let mut s = Sampler::new(10_000);
        m.exec(0x4000_0000, 64, 100);
        m.idle(100_000);
        s.poll(&m);
        assert_eq!(s.samples().len(), 1);
        let sample = s.samples()[0];
        assert!(sample.cpu_utilization < 0.01);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_panics() {
        Sampler::new(0);
    }
}
