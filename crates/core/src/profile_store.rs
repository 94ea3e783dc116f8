//! A bounded, in-memory store of finished profiles shared by searches.
//!
//! A candidate's profile is a function of its dataset, its offered load,
//! the machine and the profiling setup only; the target enters afterwards,
//! in the objective that scores the profile (paper Sec. III). So one
//! profile can serve every search that instantiates the same dataset under
//! the same machine and fidelity, whatever target, weights or seed that
//! search has. The serve daemon owns one [`ProfileStore`] and hands it to
//! every thread-backend job: the target profile and each evaluation look
//! it up first, and a hit costs neither a dataset build nor a simulator
//! run.
//!
//! This is not the per-search evaluation memo (`datamime_runtime::memo`):
//! the memo maps a *quantized parameter point* to the *error* one search
//! observed, is journalled as `cache_hit`, and is what resume replays. The
//! store maps an *instantiated workload* to a *profile*, is never
//! journalled, and is invisible in a search's result: a hit returns the
//! exact bits a fresh profile would have (profiling is deterministic and
//! the key is exact), and the search's own objective scores them.

// Supervised evaluation path: no panics outside tests (crates/audit/README.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::profile::Profile;
use crate::profiler::{profile_workload, ProfilingConfig};
use crate::workload::Workload;
use datamime_runtime::MetricsRegistry;
use datamime_sim::MachineConfig;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Most profiles a store holds; the oldest entry is evicted first. A
/// paper-fidelity entry (30 samples of ten metrics, a 12-point curve and
/// its 1.1–2.1 KB key text) adds 4 672 bytes of resident memory (1 024
/// entries over the catalog's workloads, one malloc arena, x86-64), so a
/// full store holds about 4.6 MiB, and about 5.5 MiB if every key were
/// as long as the longest.
pub const PROFILE_STORE_CAP: usize = 1024;

/// The exact identity of a profile: the `{:?}` text of the workload's
/// application configuration and load, the machine and the profiling
/// setup. `f64`'s `Debug` output round-trips, so two keys are equal only
/// when every input bit is; the key is the text itself, not a hash of it,
/// so no collision can ever serve another workload's profile. The
/// workload's name, the target, the error weights and the search seed are
/// not part of it: none of them reaches the profiler.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ProfileKey(Arc<str>);

impl ProfileKey {
    /// The key of `workload` profiled on `machine` under `profiling`.
    pub fn new(workload: &Workload, machine: &MachineConfig, profiling: &ProfilingConfig) -> Self {
        let text = format!("{:?}", (&workload.app, &workload.load, machine, profiling));
        ProfileKey(text.into())
    }
}

/// Counter of profiles served from a store (in the registry passed to
/// [`ProfileStore::with_metrics`]).
const REUSES: &str = "profile_reuses";
/// Gauge of the entries a store holds.
const ENTRIES: &str = "profile_store_entries";

/// A bounded map from [`ProfileKey`] to finished [`Profile`], safe to
/// share between threads (see the module docs).
#[derive(Debug, Default)]
pub struct ProfileStore {
    entries: Mutex<Entries>,
    metrics: Option<Arc<MetricsRegistry>>,
}

/// The map plus its insertion order, for FIFO eviction.
#[derive(Debug, Default)]
struct Entries {
    map: BTreeMap<ProfileKey, Profile>,
    order: VecDeque<ProfileKey>,
}

impl ProfileStore {
    /// An empty store that counts each reuse as `profile_reuses` and
    /// keeps `profile_store_entries` current in `metrics`; both appear at
    /// zero straight away.
    pub fn with_metrics(metrics: Arc<MetricsRegistry>) -> Self {
        metrics.add(REUSES, 0);
        metrics.set_gauge(ENTRIES, 0);
        ProfileStore {
            entries: Mutex::default(),
            metrics: Some(metrics),
        }
    }

    /// The map holds complete entries only (an insert is one critical
    /// section), so a lock poisoned by an unrelated panic is safe to use.
    fn lock(&self) -> MutexGuard<'_, Entries> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The stored profile for `key`, counted as a reuse, if there is one.
    pub fn get(&self, key: &ProfileKey) -> Option<Profile> {
        let found = self.lock().map.get(key).cloned();
        if let (Some(_), Some(metrics)) = (&found, &self.metrics) {
            metrics.incr(REUSES);
        }
        found
    }

    /// Stores `profile` under `key`, evicting the oldest entry when the
    /// store is full. The caller must only offer complete profiles: one
    /// whose evaluation was cancelled is truncated. A key already present
    /// keeps its entry (both are the same bits).
    pub fn insert(&self, key: ProfileKey, profile: Profile) {
        let mut entries = self.lock();
        if entries.map.contains_key(&key) {
            return;
        }
        if entries.order.len() >= PROFILE_STORE_CAP {
            if let Some(oldest) = entries.order.pop_front() {
                entries.map.remove(&oldest);
            }
        }
        entries.order.push_back(key.clone());
        entries.map.insert(key, profile);
        if let Some(metrics) = &self.metrics {
            metrics.set_gauge(ENTRIES, entries.map.len() as u64);
        }
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`profile_workload`] through the store: the stored profile when
    /// there is one, otherwise a fresh profile, stored.
    pub fn profile_workload(
        &self,
        workload: &Workload,
        machine: &MachineConfig,
        profiling: &ProfilingConfig,
    ) -> Profile {
        let key = ProfileKey::new(workload, machine, profiling);
        if let Some(profile) = self.get(&key) {
            return profile;
        }
        let profile = profile_workload(workload, machine, profiling);
        self.insert(key, profile.clone());
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::CurvePoint;
    use datamime_sim::MetricSample;

    /// A paper-shaped profile (30 samples, 12 curve points) whose values
    /// depend on `seed`; nothing is simulated.
    fn paper_shaped(seed: u64) -> Profile {
        let samples: Vec<MetricSample> = (0..30)
            .map(|i| {
                let v = (seed * 31 + i) as f64 + 0.5;
                MetricSample {
                    ipc: v,
                    l1i_mpki: v + 1.0,
                    itlb_mpki: v + 2.0,
                    l1d_mpki: v + 3.0,
                    l2_mpki: v + 4.0,
                    llc_mpki: v + 5.0,
                    dtlb_mpki: v + 6.0,
                    branch_mpki: v + 7.0,
                    cpu_utilization: 0.5,
                    memory_bw_gbps: v + 8.0,
                }
            })
            .collect();
        let curve = (1..=12)
            .map(|w| CurvePoint {
                cache_bytes: w << 20,
                llc_mpki: (seed + w) as f64,
                ipc: 1.0,
            })
            .collect();
        Profile::from_samples(&samples, curve).unwrap()
    }

    fn key(n: u64) -> ProfileKey {
        let mut w = Workload::mem_fb();
        w.load.qps = n as f64;
        ProfileKey::new(
            &w,
            &MachineConfig::broadwell(),
            &ProfilingConfig::paper_default(),
        )
    }

    #[test]
    fn a_full_store_evicts_its_oldest_entry_first() {
        let metrics = Arc::new(MetricsRegistry::new());
        let store = ProfileStore::with_metrics(Arc::clone(&metrics));
        assert_eq!(metrics.get(REUSES), 0);
        for n in 0..=PROFILE_STORE_CAP as u64 {
            store.insert(key(n), paper_shaped(n));
        }
        assert_eq!(store.len(), PROFILE_STORE_CAP);
        assert_eq!(metrics.gauge(ENTRIES), PROFILE_STORE_CAP as u64);
        assert!(store.get(&key(0)).is_none(), "the first entry was evicted");
        let last = store.get(&key(PROFILE_STORE_CAP as u64)).unwrap();
        assert_eq!(last.curve()[0].llc_mpki, (PROFILE_STORE_CAP + 1) as f64);
        assert_eq!(metrics.get(REUSES), 1, "only the hit counts");
        // Re-inserting a present key neither duplicates nor reorders it.
        store.insert(key(1), paper_shaped(999));
        assert_eq!(store.get(&key(1)).unwrap().curve()[0].llc_mpki, 2.0);
        assert_eq!(store.len(), PROFILE_STORE_CAP);
    }

    #[test]
    fn a_full_store_of_paper_profiles_fits_in_eight_mebibytes() {
        // An upper estimate of one paper-fidelity entry's heap bytes: the
        // longest catalog key (its text is shared by the map and the
        // eviction queue), ten sorted sample vectors with their map
        // nodes, the curve, and the entry's own slots.
        let profile = paper_shaped(1);
        let longest_key = Workload::catalog()
            .iter()
            .map(|w| {
                ProfileKey::new(
                    w,
                    &MachineConfig::broadwell(),
                    &ProfilingConfig::paper_default(),
                )
                .0
                .len()
            })
            .max()
            .unwrap();
        let samples: usize = crate::metrics::DistMetric::ALL
            .iter()
            .map(|&m| profile.dist(m).len() * 8 + 24 + 64)
            .sum();
        let curve = std::mem::size_of_val(profile.curve());
        let entry = longest_key + 16 + samples + curve + 2 * std::mem::size_of::<Profile>() + 64;
        assert!(
            entry * PROFILE_STORE_CAP <= 8 << 20,
            "{entry} B per entry x {PROFILE_STORE_CAP}"
        );
    }
}
