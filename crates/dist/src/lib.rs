//! Out-of-process distributed evaluation plane for the Datamime search
//! runtime.
//!
//! The crate has three layers:
//!
//! - [`protocol`] — the versioned, length-prefixed, CRC-checked binary
//!   frame codec spoken over each worker's stdin and stdout;
//! - [`broker`] — the broker side: spawns `datamime-worker` processes as
//!   its children, negotiates the protocol over their pipes, dispatches
//!   evaluation points, enforces deadlines by SIGKILL, respawns crashed
//!   workers under a bounded restart budget, and commits observations in
//!   deterministic batch order. Implements [`datamime_runtime::Backend`] so the executor can
//!   drive it exactly like the in-process thread pool;
//! - [`worker`] — the worker side: a small serve loop a worker binary
//!   runs over its stdin and stdout until the broker closes stdin.
//!
//! Determinism: an evaluation is a pure function of `(unit, context)`;
//! floats cross the wire as raw IEEE-754 bits; the broker returns
//! verdicts in job order and all fault/memo bookkeeping stays on the
//! engine thread — so results are bit-identical to the in-process
//! backend for any worker count. See DESIGN.md §8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Durability/IPC path: no discarded results outside tests (crates/audit/README.md).
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), deny(clippy::unused_result_ok, unused_must_use))]

pub mod broker;
pub mod protocol;
pub mod worker;

pub use broker::{Broker, BrokerConfig};
pub use protocol::{
    read_frame, worker_identity, write_frame, Frame, ProtocolError, PROTOCOL_VERSION,
};
pub use worker::{serve, EvalRequest, WorkerConfig};
