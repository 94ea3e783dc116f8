#![forbid(unsafe_code)]
//! Audit fixture: allow comments that misfire.

/// Adds, under a pile of stale and broken allows.
pub fn tidy(a: u32, b: u32) -> u32 {
    // audit:allow(nondet-taint): stale — nothing below reads a clock
    let c = a.wrapping_add(b);
    // audit:allow(panic-safety)
    // audit:allow(no-such-rule): the rule name is a typo
    // audit:allow(lock-order): the rule was deleted; its name is unknown now
    c
}
