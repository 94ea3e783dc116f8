//! The profiled metrics of the paper's Table I.

// Supervised evaluation path: no panics outside tests (crates/audit/README.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use std::fmt;

/// A distribution-valued metric sampled at every profiling interval.
///
/// Together with the two cache-sensitivity curves ([`CurveMetric`]), these
/// make up the profile Datamime matches. The paper's Table I groups them
/// as instruction footprint (ICache/ITLB MPKI), data footprint
/// (L1D/L2/DTLB MPKI), and miscellaneous (branch MPKI, CPU utilization,
/// memory bandwidth); IPC and LLC MPKI distributions are also profiled and
/// reported (Figs. 6 and 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DistMetric {
    /// Instructions per cycle.
    Ipc,
    /// L1 instruction-cache misses per kilo-instruction.
    ICacheMpki,
    /// Instruction-TLB misses per kilo-instruction.
    ItlbMpki,
    /// L1 data-cache misses per kilo-instruction.
    L1dMpki,
    /// L2 misses per kilo-instruction.
    L2Mpki,
    /// Last-level-cache misses per kilo-instruction.
    LlcMpki,
    /// Data-TLB misses per kilo-instruction.
    DtlbMpki,
    /// Branch mispredictions per kilo-instruction.
    BranchMpki,
    /// Core busy fraction per wall-clock interval.
    CpuUtilization,
    /// Memory traffic in GB/s.
    MemoryBandwidth,
}

impl DistMetric {
    /// All distribution metrics, in canonical order.
    pub const ALL: [DistMetric; 10] = [
        DistMetric::Ipc,
        DistMetric::ICacheMpki,
        DistMetric::ItlbMpki,
        DistMetric::L1dMpki,
        DistMetric::L2Mpki,
        DistMetric::LlcMpki,
        DistMetric::DtlbMpki,
        DistMetric::BranchMpki,
        DistMetric::CpuUtilization,
        DistMetric::MemoryBandwidth,
    ];

    /// Short, stable identifier (used in reports and TSV output).
    pub fn key(&self) -> &'static str {
        match self {
            DistMetric::Ipc => "ipc",
            DistMetric::ICacheMpki => "icache_mpki",
            DistMetric::ItlbMpki => "itlb_mpki",
            DistMetric::L1dMpki => "l1d_mpki",
            DistMetric::L2Mpki => "l2_mpki",
            DistMetric::LlcMpki => "llc_mpki",
            DistMetric::DtlbMpki => "dtlb_mpki",
            DistMetric::BranchMpki => "branch_mpki",
            DistMetric::CpuUtilization => "cpu_util",
            DistMetric::MemoryBandwidth => "mem_bw_gbps",
        }
    }
}

impl fmt::Display for DistMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// A cache-sensitivity curve measured by sweeping LLC way allocations
/// (Table I, "Cache Sensitivity"; measured with CAT partitioning as in
/// Sec. IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CurveMetric {
    /// LLC MPKI versus allocated cache size.
    LlcMpkiCurve,
    /// IPC versus allocated cache size.
    IpcCurve,
}

impl CurveMetric {
    /// Both curve metrics.
    pub const ALL: [CurveMetric; 2] = [CurveMetric::LlcMpkiCurve, CurveMetric::IpcCurve];

    /// Short, stable identifier.
    pub fn key(&self) -> &'static str {
        match self {
            CurveMetric::LlcMpkiCurve => "llc_mpki_curve",
            CurveMetric::IpcCurve => "ipc_curve",
        }
    }
}

impl fmt::Display for CurveMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_distribution_metrics() {
        assert_eq!(DistMetric::ALL.len(), 10);
        let keys: std::collections::BTreeSet<_> = DistMetric::ALL.iter().map(|m| m.key()).collect();
        assert_eq!(keys.len(), 10, "keys must be unique");
    }

    #[test]
    fn display_matches_key() {
        assert_eq!(DistMetric::Ipc.to_string(), "ipc");
        assert_eq!(CurveMetric::IpcCurve.to_string(), "ipc_curve");
    }
}
