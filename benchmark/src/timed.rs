//! The untraced run: `R` repeats of a workload's unit, set-up sampled
//! before every repeat, reduced to the six end-to-end metrics.

use crate::estimator::{mean, median, segment_floors, setup_samples_before, Fnv};
use crate::report::{Metric, RunResult};
use crate::units::{
    canary, one_shot_reference, peak_rss_mb, prepare, reset_peak_rss, run_search_unit,
    run_serve_unit, start_daemon, Daemon, Env, NoTrace, Prepared, SearchRun, UnitRun,
};
use crate::workloads::{Kind, WorkloadDef};
use datamime::jobspec::JobSpec;
use std::time::Instant;

/// Set-up samples per run, spread evenly before the repeats.
pub const SETUP_SAMPLES: usize = 16;

/// The floor view of `R` repeats of one unit.
#[derive(Debug, Clone)]
pub struct Floors {
    /// The unit's floor wall, seconds: the sum of the segment minima.
    pub wall: f64,
    /// The floor of every step segment, seconds.
    pub steps: Vec<f64>,
    /// The floor of every search tail (last observation → return).
    pub tails: Vec<f64>,
    /// The floor of every search's first step (call → first batch
    /// observed): where per-search fixed costs sit.
    pub first_steps: Vec<f64>,
    /// The median of the repeats' raw unit walls, seconds.
    pub raw_wall: f64,
    /// `raw_wall` ÷ `wall`: how disturbed the host was.
    pub noise_ratio: f64,
}

/// Takes the per-segment minimum over `units` (which must be repeats of
/// the same deterministic unit).
pub fn floors_of(units: &[UnitRun]) -> Result<Floors, String> {
    let first = units.first().ok_or("no repeats")?;
    if units.iter().any(|u| u.steps != first.steps) {
        return Err("repeats disagree on their steps".to_string());
    }
    let repeats: Vec<Vec<f64>> = units.iter().map(|u| u.segments.clone()).collect();
    let floors = segment_floors(&repeats)?;
    let wall: f64 = floors.iter().sum();
    let steps = first
        .steps
        .iter()
        .map(|&(start, end)| floors[start..end].iter().sum())
        .collect();
    let mut in_step = vec![false; floors.len()];
    for &(start, end) in &first.steps {
        in_step[start..end].fill(true);
    }
    let mut tails = Vec::new();
    let mut first_steps = Vec::new();
    for (k, secs) in floors.iter().enumerate() {
        if !in_step[k] {
            tails.push(*secs);
        } else if k == 0 || !in_step[k - 1] {
            first_steps.push(*secs);
        }
    }
    let raw: Vec<f64> = units.iter().map(|u| u.wall).collect();
    let raw_wall = median(&raw);
    Ok(Floors {
        wall,
        steps,
        tails,
        first_steps,
        raw_wall,
        noise_ratio: if wall > 0.0 { raw_wall / wall } else { 0.0 },
    })
}

/// What `R` repeats produced, before it becomes metrics.
pub struct Repeats {
    /// Every repeat's unit.
    pub units: Vec<UnitRun>,
    /// Every set-up sample as its consecutive segments, seconds: one per
    /// spec (generator + target profile), then the daemon start on
    /// `Serve`. Set-up is floored like the unit: segment by segment.
    pub setups: Vec<Vec<f64>>,
    /// `VmHWM` after each repeat, MiB. The high-water mark is reset
    /// before every repeat, so each is that repeat's own peak.
    pub peaks_mb: Vec<f64>,
    /// Whether every one of those resets took (`/proc/self/clear_refs`).
    pub peaks_were_reset: bool,
    /// The one-shot twin of each tenant's job (`Serve` only): the same
    /// spec through `search_with_runtime`, no daemon around it.
    pub twins: Vec<SearchRun>,
    /// Repeats whose jobs differ from their twins.
    pub reference_mismatches: usize,
}

impl Repeats {
    /// The floor of each set-up segment over the samples.
    pub fn setup_floors(&self) -> Result<Vec<f64>, String> {
        segment_floors(&self.setups)
    }

    /// Peak resident memory of one repeat: the median of the repeats'
    /// own peaks, or the process's high-water mark where the kernel does
    /// not let it be reset.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        if self.peaks_were_reset {
            Ok(median(&self.peaks_mb))
        } else {
            peak_rss_mb()
        }
    }
}

/// Prepares every spec, timing each: one set-up sample's segments.
fn timed_prepare(specs: &[JobSpec]) -> Result<(Vec<Prepared>, Vec<f64>), String> {
    let mut prepared = Vec::with_capacity(specs.len());
    let mut segments = Vec::with_capacity(specs.len() + 1);
    for spec in specs {
        let started = Instant::now();
        prepared.push(prepare(spec)?);
        segments.push(started.elapsed().as_secs_f64());
    }
    Ok((prepared, segments))
}

/// Runs `repeats` repeats of `def`'s unit with `setup_total` set-up
/// samples spread before them.
pub fn run_repeats(
    def: &WorkloadDef,
    repeats: usize,
    setup_total: usize,
    env: &Env,
) -> Result<Repeats, String> {
    let specs = def.parsed_specs(env.worker_bin.as_deref())?;
    let mut units = Vec::with_capacity(repeats);
    let mut setups = Vec::new();
    let mut peaks_mb = Vec::with_capacity(repeats);
    let mut peaks_were_reset = true;
    let mut reference_mismatches = 0;
    let mut twins = Vec::new();
    match def.kind {
        Kind::Thread | Kind::Proc => {
            for r in 0..repeats {
                let mut prepared: Vec<Prepared> = Vec::new();
                for _ in 0..setup_samples_before(r, repeats, setup_total) {
                    // One sample is the whole unit's set-up: every search
                    // of the unit gets its generator and target profile.
                    let (ready, segments) = timed_prepare(&specs)?;
                    prepared = ready;
                    setups.push(segments);
                }
                peaks_were_reset &= reset_peak_rss();
                units.push(run_search_unit(&prepared, def.kind == Kind::Proc, env)?);
                peaks_mb.push(peak_rss_mb()?);
            }
        }
        Kind::Serve => {
            let mut want = Fnv::default();
            for spec in &specs {
                twins.push(one_shot_reference(spec, env)?);
            }
            for _ in 0..def.jobs_per_tenant {
                for twin in &twins {
                    want.word(twin.checksum);
                }
            }
            let want = want.finish();
            for r in 0..repeats {
                let mut daemon = None;
                for _ in 0..setup_samples_before(r, repeats, setup_total) {
                    if let Some(idle) = daemon.take() {
                        Daemon::stop(idle)?;
                    }
                    // Set-up here is what stands between the spec lines
                    // and a first evaluation: each tenant's generator and
                    // target profile (the daemon redoes that per job),
                    // then a state root and a daemon accepting calls.
                    let (_, mut segments) = timed_prepare(&specs)?;
                    let started = Instant::now();
                    let d = start_daemon(env)?;
                    segments.push(started.elapsed().as_secs_f64());
                    setups.push(segments);
                    daemon = Some(d);
                }
                let daemon = daemon.ok_or("no daemon was started")?;
                peaks_were_reset &= reset_peak_rss();
                let unit = run_serve_unit(&daemon, &specs, def.jobs_per_tenant, &mut NoTrace);
                peaks_mb.push(peak_rss_mb()?);
                daemon.stop()?;
                let (unit, _) = unit?;
                reference_mismatches += usize::from(unit.checksum != want);
                units.push(unit);
            }
        }
    }
    Ok(Repeats {
        units,
        setups,
        peaks_mb,
        peaks_were_reset,
        twins,
        reference_mismatches,
    })
}

/// The untraced run behind every end-to-end metric.
pub fn run(def: &WorkloadDef, seed: u64, seconds: u64, env: &Env) -> Result<RunResult, String> {
    let repeats = def.repeats(seconds);
    let rep = run_repeats(def, repeats, SETUP_SAMPLES, env)?;
    let peak_rss_mb = rep.peak_rss_mb()?;
    // The canary runs last: its seed-dependent allocations would otherwise
    // leave the allocator (and so the timed repeats' memory and time) in a
    // state that differs from seed to seed.
    let (canary_attempted, canary_failed) = canary(def, seed, env)?;
    let first = &rep.units[0];
    let checksum_mismatches = rep
        .units
        .iter()
        .filter(|u| u.checksum != first.checksum)
        .count();
    // Repeats that cannot be laid side by side did different work: that
    // is a broken run, reported as an error, not as numbers.
    let floors = floors_of(&rep.units)
        .map_err(|e| format!("{}: repeats are not comparable: {e}", def.name))?;
    let per_unit = def.observations() + def.jobs();
    let observed_short = rep
        .units
        .iter()
        .filter(|u| u.observations != def.observations())
        .count();
    let failed = rep.units.iter().map(|u| u.failed).sum::<usize>()
        + checksum_mismatches
        + rep.reference_mismatches
        + observed_short
        + canary_failed;
    eprintln!(
        "benchmark: {}: {repeats} repeats, floor {:.3} s, raw median {:.3} s (noise x{:.3}), \
         checksum {:016x}",
        def.name, floors.wall, floors.raw_wall, floors.noise_ratio, first.checksum
    );
    let metrics = vec![
        Metric::new("setup_s", rep.setup_floors()?.iter().sum(), "s"),
        Metric::new("search_wall_s", floors.wall, "s"),
        Metric::new(
            "evals_per_s",
            def.observations() as f64 / floors.wall,
            "1/s",
        ),
        Metric::new("step_ms_p50", median(&floors.steps) * 1e3, "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        Metric::new("best_error", mean(&first.best_errors), "error"),
    ];
    Ok(RunResult {
        correct: failed == 0,
        attempted: repeats * per_unit + canary_attempted,
        failed,
        metrics,
    })
}
