#![forbid(unsafe_code)]
//! Audit fixture: a clean crate whose policy still names a deleted file.

/// Adds.
pub fn add(a: u32, b: u32) -> u32 {
    a.wrapping_add(b)
}
