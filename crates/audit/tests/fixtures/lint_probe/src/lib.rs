//! Lint probe: the module attributes of the supervised evaluation path
//! and of the durability/IPC paths, over one violation of each lint.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), deny(clippy::unused_result_ok, unused_must_use))]

use std::fs::File;
use std::path::Path;

/// Panics three different ways on bad input.
pub fn brittle(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect("present");
    if a + b > 100 {
        panic!("too large");
    }
    a + b
}

/// Drops durability results on the floor in three shapes.
pub fn publish(f: &File, tmp: &Path, dst: &Path) {
    let _ = f.sync_all();
    std::fs::rename(tmp, dst).ok();
    f.sync_data();
}
