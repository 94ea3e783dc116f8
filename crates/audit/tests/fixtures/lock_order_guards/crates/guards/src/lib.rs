#![forbid(unsafe_code)]
//! Audit fixture: an inversion through the `lock(&m)` guard helper, and
//! a both-orders pair that is safe because the first guard is dropped
//! before the second lock is taken.

use std::sync::{Mutex, MutexGuard, PoisonError};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Locks `a` then `b` through the helper.
pub fn ab(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 {
    let x = lock(&a);
    let y = lock(&b);
    *x + *y
}

/// Locks `b` then `a` through the helper — the inversion.
pub fn ba(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 {
    let y = lock(&b);
    let x = lock(&a);
    *x + *y
}

/// Reads `c`, releases it, then locks `d`: never holds both.
pub fn c_then_d(c: &Mutex<u32>, d: &Mutex<u32>) -> u32 {
    let g = c.lock().unwrap();
    let seen = *g;
    drop(g);
    seen + *d.lock().unwrap()
}

/// Reads `d`, releases it, then locks `c`: never holds both.
pub fn d_then_c(c: &Mutex<u32>, d: &Mutex<u32>) -> u32 {
    let g = d.lock().unwrap();
    let seen = *g;
    drop(g);
    seen + *c.lock().unwrap()
}
