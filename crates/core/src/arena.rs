//! Reusable per-evaluation simulator state ([`EvalArena`]).
//!
//! Every search evaluation used to build a fresh [`Machine`] (whose LLC
//! model alone is megabytes of tag/metadata arrays) and fresh [`Sampler`]
//! scratch, per attempt — including the supervisor's retry and
//! post-deadline re-evaluation paths, which pay the allocator again for
//! work that was just thrown away. The arena keeps those objects alive
//! per worker and hands them back `reinit`ed, which the
//! `crates/sim/tests/machine_equivalence.rs` property tests pin down as
//! bit-identical to fresh construction.

use datamime_sim::{Machine, MachineConfig, Sampler};
use std::cell::RefCell;

/// Upper bound on pooled objects of each kind. Profiling holds at most two
/// machines alive at once (the main run's, on its own thread, beside the
/// curve-sweep point's), so a small cap bounds worst-case retained memory
/// without ever forcing a reallocation in practice.
const MAX_POOLED: usize = 4;

/// A pool of recycled simulator state for one evaluation worker.
///
/// `take_*` methods pop a pooled object and [`reinit`](Machine::reinit) it
/// to the requested configuration (or construct one when the pool is
/// empty); `recycle_*` methods return objects for the next evaluation.
/// Recycled state behaves exactly like freshly constructed state — counter
/// for counter, sample for sample — so pooling is invisible to results.
///
/// The arena itself never leaves its worker's thread: the profiler takes
/// the main run's machine and sampler here, moves that pair to the thread
/// the run is on, and recycles it here when the run is joined.
///
/// # Examples
///
/// ```
/// use datamime::arena::EvalArena;
/// use datamime_sim::MachineConfig;
///
/// let mut arena = EvalArena::new();
/// let mut machine = arena.take_machine(MachineConfig::broadwell());
/// machine.exec(0x1000, 64, 16);
/// arena.recycle_machine(machine);
///
/// // The next take reuses the same arrays; counters start from zero
/// // exactly as if the machine were new.
/// let machine = arena.take_machine(MachineConfig::silvermont());
/// assert_eq!(machine.counters().instructions, 0);
/// ```
#[derive(Default)]
pub struct EvalArena {
    machines: Vec<Machine>,
    samplers: Vec<Sampler>,
}

impl EvalArena {
    /// An empty arena; pools fill as objects are recycled.
    pub fn new() -> Self {
        EvalArena::default()
    }

    /// A machine configured per `cfg`: recycled arrays when available,
    /// freshly allocated otherwise.
    pub fn take_machine(&mut self, cfg: MachineConfig) -> Machine {
        match self.machines.pop() {
            Some(mut m) => {
                m.reinit(cfg);
                m
            }
            None => Machine::new(cfg),
        }
    }

    /// Returns a machine to the pool for the next evaluation.
    pub fn recycle_machine(&mut self, machine: Machine) {
        if self.machines.len() < MAX_POOLED {
            self.machines.push(machine);
        }
    }

    /// A sampler with the given interval: recycled scratch when available.
    pub fn take_sampler(&mut self, interval_cycles: u64) -> Sampler {
        match self.samplers.pop() {
            Some(mut s) => {
                s.reinit(interval_cycles);
                s
            }
            None => Sampler::new(interval_cycles),
        }
    }

    /// Returns a sampler to the pool for the next evaluation.
    pub fn recycle_sampler(&mut self, sampler: Sampler) {
        if self.samplers.len() < MAX_POOLED {
            self.samplers.push(sampler);
        }
    }

    /// Runs `f` with this thread's arena, creating it on first use. This is
    /// how the thread- and process-backend evaluation loops share state
    /// across attempts: each worker thread keeps one arena alive for its
    /// whole life, so retries and deadline re-evaluations stop paying
    /// allocator traffic.
    ///
    /// If `f` unwinds (the supervisor catches evaluation panics), any
    /// objects it had taken are simply dropped and the pool refills on
    /// later evaluations — the arena holds no cross-evaluation simulator
    /// state, so recovery needs no cleanup.
    ///
    /// # Panics
    ///
    /// Panics if called reentrantly from within `f` (the arena is behind a
    /// `RefCell`).
    pub fn with_thread_local<R>(f: impl FnOnce(&mut EvalArena) -> R) -> R {
        thread_local! {
            static ARENA: RefCell<EvalArena> = RefCell::new(EvalArena::new());
        }
        ARENA.with(|a| f(&mut a.borrow_mut()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_take_reuses_state() {
        let mut arena = EvalArena::new();
        let mut m = arena.take_machine(MachineConfig::broadwell());
        m.exec(0x4000, 256, 64);
        m.load(0x8000, 64);
        assert!(m.counters().instructions > 0);
        arena.recycle_machine(m);

        let recycled = arena.take_machine(MachineConfig::broadwell());
        let fresh = Machine::new(MachineConfig::broadwell());
        assert_eq!(recycled.counters(), fresh.counters());
    }

    #[test]
    fn take_across_machine_models_matches_fresh() {
        let mut arena = EvalArena::new();
        let m = arena.take_machine(MachineConfig::broadwell());
        arena.recycle_machine(m);
        // Silvermont has no partitionable LLC and different geometry:
        // reinit must reshape, not just clear.
        let mut recycled = arena.take_machine(MachineConfig::silvermont());
        let mut fresh = Machine::new(MachineConfig::silvermont());
        for pc in 0..200u64 {
            recycled.exec(pc * 64, 64, 8);
            fresh.exec(pc * 64, 64, 8);
            recycled.load(pc * 4096, 16);
            fresh.load(pc * 4096, 16);
        }
        assert_eq!(recycled.counters(), fresh.counters());
    }

    #[test]
    fn pool_is_bounded() {
        let mut arena = EvalArena::new();
        for _ in 0..10 {
            arena.recycle_sampler(Sampler::new(1000));
        }
        assert!(arena.samplers.len() <= MAX_POOLED);
    }

    #[test]
    fn thread_local_arena_persists_across_calls() {
        let first = EvalArena::with_thread_local(|a| {
            a.recycle_sampler(Sampler::new(500));
            a.samplers.len()
        });
        let second = EvalArena::with_thread_local(|a| a.samplers.len());
        assert_eq!(first, second);
    }
}
