//! Datamime: generating representative benchmarks by automatically
//! synthesizing datasets.
//!
//! A production-quality Rust reproduction of the MICRO 2022 paper by Lee
//! and Sanchez. The key idea (*data-centric benchmark generation*): for
//! many production workloads the program is public — so instead of cloning
//! code, synthesize a *dataset* that makes the public program's
//! performance profile match the production workload's.
//!
//! The pipeline (paper Fig. 5):
//!
//! 1. [`profiler::profile_workload`] profiles the target workload: full
//!    distributions of the ten Table-I metrics at 20 M-cycle intervals
//!    plus LLC-MPKI/IPC cache-sensitivity curves via CAT partitioning;
//! 2. a [`DatasetGenerator`] (one per program, parameterized per
//!    Table III) maps optimizer points to concrete datasets;
//! 3. [`search()`](search::search) runs GP-EI Bayesian optimization minimizing the
//!    normalized-EMD profile error ([`error_model`], Eq. 1);
//! 4. the lowest-error dataset is the synthesized benchmark.
//!
//! # Examples
//!
//! Generate a benchmark that mimics a production-like memcached workload
//! (scaled down so it runs in seconds; see `examples/` for full runs):
//!
//! ```
//! use datamime::{
//!     generator::KvGenerator, profiler::{profile_workload, ProfilingConfig},
//!     search::{search, SearchConfig}, workload::Workload, metrics::DistMetric,
//! };
//!
//! // 1. Profile the "production" workload.
//! let target = Workload::mem_fb();
//! let cfg = SearchConfig::fast(8);
//! let target_profile = profile_workload(&target, &cfg.machine, &cfg.profiling);
//!
//! // 2-4. Search the memcached dataset space for a matching dataset.
//! let outcome = search(&KvGenerator::new(), &target_profile, &cfg);
//! let ipc_err = (outcome.best_profile.mean(DistMetric::Ipc)
//!     - target_profile.mean(DistMetric::Ipc)).abs();
//! assert!(ipc_err.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod compress;
pub mod distproc;
pub mod error_model;
pub mod generator;
pub mod jobspec;
pub mod metrics;
pub mod profile;
pub mod profile_store;
pub mod profiler;
pub mod search;
pub mod servectl;
pub mod workload;

pub use arena::EvalArena;
pub use compress::{search_compress_aware, workload_compression_ratio, KvGeneratorCompressible};
pub use error_model::{profile_error, DistanceKind, ErrorBreakdown, MetricWeights};
pub use generator::{
    generator_for_program, DatasetGenerator, DnnGenerator, KvGenerator, ParamSpec,
    QuantizedGenerator, SiloGenerator, XapianGenerator,
};
pub use jobspec::{JobBackend, JobSpec};
pub use metrics::{CurveMetric, DistMetric};
pub use profile::{CurvePoint, EmptyProfileError, Profile};
pub use profile_store::{ProfileKey, ProfileStore};
pub use profiler::{profile_app_cancellable_in, profile_workload, ProfilingConfig};
pub use search::{
    search, search_with_runtime, BackendChoice, IterationRecord, OptimizerKind, ProcOptions,
    RuntimeOptions, SearchConfig, SearchOutcome, SearchStats,
};
pub use servectl::{JobResult, JobState, JobStatus, ServeClient, SERVE_SOCKET};
pub use workload::{AppConfig, Workload};
