//! datamime-serve: the long-running multi-tenant search daemon.
//!
//! Turns the one-shot `datamime clone` search into a service
//! (DESIGN.md §9):
//!
//! - [`server`] — `datamime-served`: one Unix socket speaking one
//!   plain-text line grammar for the job verbs and the Pelikan-style
//!   admin verbs alike (`submit` … `list`, `stats` / `health` /
//!   `version` / `shutdown`);
//! - [`sched`] — a deterministic fair scheduler: jobs share the machine
//!   through a strict round-robin [`BatchGate`] that interleaves their
//!   evaluation batches without ever reordering one job's observations,
//!   so a fixed-seed job run through the daemon is bit-identical to the
//!   one-shot CLI;
//! - [`manifest`] — the job table as one snapshot, atomically rewritten
//!   on every lifecycle transition (two-phase GC included) under
//!   deterministic write-fault injection; after a crash (or a graceful
//!   drain) the daemon reads it back and resumes every in-flight job
//!   from its evaluation journal.
//!
//! The client side — [`ServeClient`](datamime::servectl::ServeClient) and
//! the `datamime ctl` subcommand — lives in the core crate.
//!
//! [`BatchGate`]: datamime_runtime::BatchGate

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Durability/IPC path: no discarded results outside tests (crates/audit/README.md).
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), deny(clippy::unused_result_ok, unused_must_use))]

pub mod manifest;
pub mod sched;
pub mod server;

pub use manifest::{GcStats, JobEntry, Manifest, ManifestError};
pub use sched::{FairGate, Ticket};
pub use server::{run, run_with, ServeOptions};
