//! Datacenter workload applications for the Datamime reproduction.
//!
//! Each application mirrors the structure of its real counterpart from the
//! paper's evaluation (Sec. IV), performing genuine algorithmic work over
//! data structures laid out in the simulator's address space:
//!
//! - [`KvStore`] — memcached: chained hash table, slab classes, GET/SET;
//! - [`SiloDb`] — silo: TPC-C tables + B+tree indexes, six transaction
//!   types including the paper's synthetic *bidding* target;
//! - [`SearchEngine`] — xapian: inverted index, posting-list scoring,
//!   snippet generation;
//! - [`DnnApp`] — dnn: CNN inference where the *model is the dataset*;
//! - [`Masstree`] and [`ImgDnn`] — the Sec. V-C case-study targets that
//!   Datamime clones with a *different* program.
//!
//! All applications implement [`App`] and are driven by
//! `datamime-loadgen`'s queueing harness.
//!
//! # Examples
//!
//! ```
//! use datamime_apps::{App, KvStore, KvConfig};
//! use datamime_sim::{Machine, MachineConfig};
//! use datamime_stats::Rng;
//!
//! let mut store = KvStore::new(KvConfig { n_keys: 1000, ..KvConfig::ycsb_like() });
//! let mut machine = Machine::new(MachineConfig::broadwell());
//! let mut rng = Rng::with_seed(7);
//! for _ in 0..100 {
//!     store.serve(&mut machine, &mut rng);
//! }
//! assert!(machine.counters().ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btree;
mod content;
mod dataset;
mod dnn;
mod engine;
mod imgdnn;
mod kvstore;
mod masstree;
mod silo;
mod xapian;

pub use btree::{BTreeIndex, RecordArray, NODE_BYTES};
pub use content::ContentModel;
pub use dataset::SizeDist;
pub use dnn::{DnnApp, LayerSpec, NetSpec};
pub use engine::{App, CodeLayout, CodeRegion, ServicePaths};
pub use imgdnn::{ImgDnn, ImgDnnConfig};
pub use kvstore::{KvBase, KvConfig, KvStore};
pub use masstree::{Masstree, MasstreeConfig};
pub use silo::{SiloConfig, SiloDb, TxKind, TX_KINDS};
pub use xapian::{SearchConfig, SearchEngine};
