//! [`simbench`] defines the simulator-kernel microbenchmarks the
//! `bench_sim` binary measures into `BENCH_sim.json` (median + IQR over
//! fixed-seed runs); docs/PERFORMANCE.md has the methodology.

#![forbid(unsafe_code)]

pub mod simbench;
