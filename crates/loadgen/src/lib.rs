//! Open-loop load generation and queueing for Datamime workloads.
//!
//! The paper drives its servers with mutilate / the TailBench harness:
//! requests arrive on an open loop at a configured QPS and queue at a
//! single worker. That queueing is what produces CPU-utilization
//! distributions and the time-varying behaviour Datamime matches (Fig. 4),
//! so this crate reproduces it:
//!
//! - [`ArrivalProcess`]: Poisson, uniform, or Markov-modulated (bursty)
//!   arrivals;
//! - [`Driver`]: runs an [`App`] under a [`WorkloadSpec`] on a [`Machine`],
//!   inserting idle time between requests, polling the [`Sampler`], and
//!   recording per-request latencies.
//!
//! # Examples
//!
//! ```
//! use datamime_apps::{KvStore, KvConfig};
//! use datamime_loadgen::{Driver, WorkloadSpec, ArrivalProcess};
//! use datamime_sim::{Machine, MachineConfig, Sampler};
//!
//! let mut app = KvStore::new(KvConfig { n_keys: 2000, ..KvConfig::ycsb_like() });
//! let mut machine = Machine::new(MachineConfig::broadwell());
//! let mut sampler = Sampler::new(500_000);
//! let spec = WorkloadSpec { qps: 100_000.0, arrivals: ArrivalProcess::Poisson };
//! let stats = Driver::new(spec, 42).run(&mut app, &mut machine, &mut sampler, 10);
//! assert!(stats.completed > 0);
//! assert!(!sampler.samples().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Supervised evaluation path: no panics outside tests (crates/audit/README.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use datamime_apps::App;
use datamime_sim::{Machine, Sampler};
use datamime_stats::{Ecdf, Rng};

/// The inter-arrival structure of the request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless Poisson arrivals (mutilate's default).
    Poisson,
    /// Deterministic, evenly spaced arrivals.
    Uniform,
    /// A two-state Markov-modulated Poisson process: the rate alternates
    /// between `high_factor * qps` and `low_factor * qps`, with state
    /// residence times exponentially distributed around
    /// `switch_mean_seconds`. This is what gives production-like workloads
    /// their wide CPU-utilization and bandwidth distributions.
    Mmpp {
        /// Rate multiplier in the high state (> 1).
        high_factor: f64,
        /// Rate multiplier in the low state (< 1).
        low_factor: f64,
        /// Mean residence time per state, in seconds.
        switch_mean_seconds: f64,
    },
}

impl ArrivalProcess {
    /// A bursty process tuned to produce visible utilization variance at
    /// the paper's 20 M-cycle sampling interval.
    pub fn bursty_default() -> Self {
        ArrivalProcess::Mmpp {
            high_factor: 1.7,
            low_factor: 0.45,
            switch_mean_seconds: 0.02,
        }
    }
}

/// A complete load specification: target rate plus arrival structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Mean request rate in queries per second.
    pub qps: f64,
    /// Arrival process shape.
    pub arrivals: ArrivalProcess,
}

impl WorkloadSpec {
    /// Poisson arrivals at `qps`.
    pub fn poisson(qps: f64) -> Self {
        WorkloadSpec {
            qps,
            arrivals: ArrivalProcess::Poisson,
        }
    }

    /// Bursty (MMPP) arrivals at mean `qps`.
    pub fn bursty(qps: f64) -> Self {
        WorkloadSpec {
            qps,
            arrivals: ArrivalProcess::bursty_default(),
        }
    }
}

/// Outcome statistics of a driven run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Requests completed.
    pub completed: u64,
    /// Wall-clock cycles spanned.
    pub wall_cycles: u64,
    /// Sojourn times (queueing + service) in cycles, one per request.
    pub latencies_cycles: Vec<u64>,
}

impl RunStats {
    /// Achieved throughput in requests per second at `freq_ghz`.
    pub fn achieved_qps(&self, freq_ghz: f64) -> f64 {
        if self.wall_cycles == 0 {
            return 0.0;
        }
        self.completed as f64 / (self.wall_cycles as f64 / (freq_ghz * 1e9))
    }

    /// Latency quantile in cycles (`q` in `[0, 1]`).
    ///
    /// Returns `None` when no requests completed.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        let ecdf = Ecdf::new(self.latencies_cycles.iter().map(|&c| c as f64).collect()).ok()?;
        Some(ecdf.quantile(q))
    }
}

/// Drives an application under an open-loop request stream.
#[derive(Debug)]
pub struct Driver {
    spec: WorkloadSpec,
    rng: Rng,
    /// Extra fixed per-request latency in cycles added before completion
    /// (models NIC/network time in the Sec. V-F networked configuration;
    /// it delays completion but does not consume CPU).
    network_latency_cycles: u64,
}

impl Driver {
    /// Creates a driver for `spec`, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if the spec's QPS is not strictly positive and finite.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        assert!(
            spec.qps.is_finite() && spec.qps > 0.0,
            "qps must be positive"
        );
        Driver {
            spec,
            rng: Rng::with_seed(seed),
            network_latency_cycles: 0,
        }
    }

    /// Adds a fixed network round-trip latency to every request.
    pub fn with_network_latency_cycles(mut self, cycles: u64) -> Self {
        self.network_latency_cycles = cycles;
        self
    }

    fn interarrival_cycles(&mut self, freq_hz: f64, state_high: bool) -> f64 {
        let rate = match self.spec.arrivals {
            ArrivalProcess::Poisson | ArrivalProcess::Uniform => self.spec.qps,
            ArrivalProcess::Mmpp {
                high_factor,
                low_factor,
                ..
            } => self.spec.qps * if state_high { high_factor } else { low_factor },
        };
        let mean = freq_hz / rate;
        match self.spec.arrivals {
            ArrivalProcess::Uniform => mean,
            _ => -(1.0 - self.rng.f64()).ln() * mean,
        }
    }

    /// Runs until the sampler has collected `n_samples` samples (after a
    /// one-sample warm-up that is discarded), returning run statistics.
    ///
    /// The machine is left warm, so consecutive runs on the same machine
    /// continue from its state.
    pub fn run(
        &mut self,
        app: &mut dyn App,
        machine: &mut Machine,
        sampler: &mut Sampler,
        n_samples: usize,
    ) -> RunStats {
        self.run_cancellable(app, machine, sampler, n_samples, &mut || false)
    }

    /// Like [`run`](Self::run), but polls `should_stop` once per served
    /// request and returns early when it fires — the cooperative
    /// cancellation point for supervised evaluation deadlines.
    ///
    /// The early return still guarantees at least one post-warm-up sample
    /// (callers can aggregate a truncated run without special cases); with
    /// a `should_stop` that never fires this is bit-for-bit [`run`](Self::run).
    pub fn run_cancellable(
        &mut self,
        app: &mut dyn App,
        machine: &mut Machine,
        sampler: &mut Sampler,
        n_samples: usize,
        should_stop: &mut dyn FnMut() -> bool,
    ) -> RunStats {
        let freq_hz = machine.config().freq_ghz * 1e9;
        let mut state_high = false;
        let mut next_switch = machine.wall_cycles() as f64;
        let mut next_arrival = machine.wall_cycles() as f64;
        let start = machine.wall_cycles();
        let mut completed = 0u64;
        let mut latencies = Vec::new();
        let mut warmed = false;

        while sampler.samples().len() < n_samples {
            if warmed && !sampler.samples().is_empty() && should_stop() {
                // Cancelled: stop as soon as a truncated-but-usable run
                // (>= 1 real sample) exists.
                break;
            }
            // Advance the MMPP state machine.
            if let ArrivalProcess::Mmpp {
                switch_mean_seconds,
                ..
            } = self.spec.arrivals
            {
                while machine.wall_cycles() as f64 >= next_switch {
                    state_high = !state_high;
                    let mean_cycles = switch_mean_seconds * freq_hz;
                    next_switch += -(1.0 - self.rng.f64()).ln() * mean_cycles;
                }
            }

            let wall = machine.wall_cycles();
            if (wall as f64) < next_arrival {
                // Idle until the next request arrives.
                machine.idle(next_arrival as u64 - wall);
            }
            app.serve(machine, &mut self.rng);
            let done = machine.wall_cycles() + self.network_latency_cycles;
            completed += 1;
            latencies.push(done.saturating_sub(next_arrival as u64));
            next_arrival += self.interarrival_cycles(freq_hz, state_high);
            sampler.poll(machine);
            if !warmed && !sampler.samples().is_empty() {
                // Discard the first (warm-up) sample.
                sampler.restart(machine);
                warmed = true;
                latencies.clear();
            }
        }

        RunStats {
            completed,
            wall_cycles: machine.wall_cycles() - start,
            latencies_cycles: latencies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamime_apps::{KvConfig, KvStore};
    use datamime_sim::MachineConfig;

    fn small_store() -> KvStore {
        KvStore::new(KvConfig {
            n_keys: 2_000,
            ..KvConfig::ycsb_like()
        })
    }

    fn run_with(spec: WorkloadSpec, n_samples: usize) -> (Machine, Sampler, RunStats) {
        let mut app = small_store();
        let mut machine = Machine::new(MachineConfig::broadwell());
        let mut sampler = Sampler::new(1_000_000);
        let stats = Driver::new(spec, 7).run(&mut app, &mut machine, &mut sampler, n_samples);
        (machine, sampler, stats)
    }

    #[test]
    fn utilization_tracks_offered_load() {
        // Service time ~6 K cycles at 2 GHz -> capacity ~330 K QPS.
        let (light_m, light_s, _) = run_with(WorkloadSpec::poisson(30_000.0), 8);
        let (heavy_m, heavy_s, _) = run_with(WorkloadSpec::poisson(150_000.0), 8);
        let util = |s: &Sampler| {
            s.samples().iter().map(|x| x.cpu_utilization).sum::<f64>() / s.samples().len() as f64
        };
        let (lu, hu) = (util(&light_s), util(&heavy_s));
        assert!(lu < 0.35, "light load util {lu}");
        assert!(hu > lu * 2.0, "heavy {hu} vs light {lu}");
        assert!(light_m.counters().idle_cycles > heavy_m.counters().idle_cycles / 2);
    }

    #[test]
    fn achieved_qps_matches_offered_when_underloaded() {
        let (machine, _, stats) = run_with(WorkloadSpec::poisson(50_000.0), 10);
        let qps = stats.achieved_qps(machine.config().freq_ghz);
        assert!((qps - 50_000.0).abs() / 50_000.0 < 0.15, "qps {qps}");
    }

    #[test]
    fn saturation_pins_utilization_near_one() {
        let (_, sampler, _) = run_with(WorkloadSpec::poisson(5_000_000.0), 6);
        for s in sampler.samples() {
            assert!(s.cpu_utilization > 0.95, "util {}", s.cpu_utilization);
        }
    }

    #[test]
    fn bursty_arrivals_widen_utilization_distribution() {
        let (_, poisson_s, _) = run_with(WorkloadSpec::poisson(120_000.0), 40);
        // Switch states every ~2 M cycles so the 1 M-cycle test sampling
        // interval sees both rates many times.
        let bursty = WorkloadSpec {
            qps: 120_000.0,
            arrivals: ArrivalProcess::Mmpp {
                high_factor: 1.7,
                low_factor: 0.45,
                switch_mean_seconds: 0.001,
            },
        };
        let (_, bursty_s, _) = run_with(bursty, 40);
        let spread = |s: &Sampler| {
            let us: Vec<f64> = s.samples().iter().map(|x| x.cpu_utilization).collect();
            let mean = us.iter().sum::<f64>() / us.len() as f64;
            (us.iter().map(|u| (u - mean).powi(2)).sum::<f64>() / us.len() as f64).sqrt()
        };
        assert!(
            spread(&bursty_s) > spread(&poisson_s) * 1.5,
            "bursty {} vs poisson {}",
            spread(&bursty_s),
            spread(&poisson_s)
        );
    }

    #[test]
    fn queueing_grows_tail_latency_with_load() {
        let (_, _, light) = run_with(WorkloadSpec::poisson(30_000.0), 8);
        let (_, _, heavy) = run_with(WorkloadSpec::poisson(250_000.0), 8);
        let p99l = light.latency_quantile(0.99).unwrap();
        let p99h = heavy.latency_quantile(0.99).unwrap();
        assert!(p99h > p99l * 2.0, "heavy p99 {p99h} vs light {p99l}");
    }

    #[test]
    fn network_latency_shifts_latency() {
        let mut app = small_store();
        let mut machine = Machine::new(MachineConfig::broadwell());
        let mut sampler = Sampler::new(1_000_000);
        let stats = Driver::new(WorkloadSpec::poisson(50_000.0), 7)
            .with_network_latency_cycles(200_000)
            .run(&mut app, &mut machine, &mut sampler, 6);
        let p50 = stats.latency_quantile(0.5).unwrap();
        assert!(p50 > 200_000.0, "p50 {p50}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _, _) = run_with(WorkloadSpec::poisson(80_000.0), 5);
        let (b, _, _) = run_with(WorkloadSpec::poisson(80_000.0), 5);
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    #[should_panic(expected = "qps must be positive")]
    fn zero_qps_panics() {
        Driver::new(WorkloadSpec::poisson(0.0), 1);
    }
}
