#![forbid(unsafe_code)]
//! Audit fixture: wall-clock taint reaching a journaled sink, plus a
//! strict-path crate half that uses a denied container.

mod strict;

fn observe(_sample: f64) {}

/// Derives a "measurement" from the wall clock and journals it — the
/// taint flows through two bindings before hitting the sink.
pub fn measure() {
    let started = std::time::Instant::now();
    let elapsed = started.elapsed().as_secs_f64();
    observe(elapsed);
}

/// A run journal whose closing record takes the best error found.
pub struct Journal;

impl Journal {
    fn done(&mut self, _evals: u64, _best: f64) {}
}

/// Closes a journal with a clock reading in place of the best error.
pub fn finish(j: &mut Journal) {
    let best = std::time::Instant::now().elapsed().as_secs_f64();
    j.done(1, best);
}
