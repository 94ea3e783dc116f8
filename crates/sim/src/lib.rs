//! Execution-driven microarchitecture simulator for the Datamime
//! reproduction.
//!
//! The paper profiles workloads with hardware performance counters on three
//! physical machines (Table II) and sweeps LLC allocations with Intel CAT.
//! This crate is the substitution for that hardware: a single-core machine
//! model with
//!
//! - split L1 I/D caches, a private L2, and an optional shared LLC with LRU
//!   or DRRIP replacement and CAT-style way partitioning ([`Cache`]);
//! - instruction and data TLBs ([`Tlb`]);
//! - a gshare branch predictor ([`BranchPredictor`]);
//! - an analytic throughput core model with memory-level-parallelism-aware
//!   penalty accounting ([`Machine`]);
//! - performance counters and the paper's 20 M-cycle interval sampling
//!   ([`Counters`], [`Sampler`]);
//! - a simulated address space and allocator that workloads lay their real
//!   data structures out in ([`SimAlloc`]).
//!
//! The three evaluation platforms are available as
//! [`MachineConfig::broadwell`], [`MachineConfig::zen2`], and
//! [`MachineConfig::silvermont`].
//!
//! # Examples
//!
//! ```
//! use datamime_sim::{Machine, MachineConfig, Sampler};
//!
//! // Build the paper's benchmark-generation platform and run a code loop.
//! let mut machine = Machine::new(MachineConfig::broadwell());
//! let mut sampler = Sampler::new(100_000);
//! for i in 0..20_000u64 {
//!     machine.exec(0x4000_0000, 128, 64);
//!     machine.load(0x10_0000_0000 + (i % 512) * 64, 8);
//!     sampler.poll(&machine);
//! }
//! let ipc = machine.counters().ipc();
//! assert!(ipc > 0.0 && ipc <= 4.0);
//! assert!(!sampler.samples().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod cache;
mod config;
mod counters;
mod machine;
mod mem;
pub mod reference;
mod sampler;
mod tlb;
mod trace;

pub use branch::{BranchConfig, BranchPredictor};
pub use cache::{Access, Cache, CacheConfig, Replacement};
pub use config::{MachineConfig, Penalties};
pub use counters::Counters;
pub use machine::Machine;
pub use mem::{lines_of, Addr, AllocError, Segment, SimAlloc, LINE_BYTES, PAGE_BYTES};
pub use reference::{RefCache, RefMachine, RefTlb};
pub use sampler::{MetricSample, Sampler, DEFAULT_INTERVAL_CYCLES};
pub use tlb::{Tlb, TlbConfig};
pub use trace::{Trace, TraceEvent};
