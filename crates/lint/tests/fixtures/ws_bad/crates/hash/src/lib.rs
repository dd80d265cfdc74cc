//! Fixture: a crate that uses `unsafe` and says nothing about it at the
//! root (L6) — containing `unsafe` is not an exemption from the rule.

#![warn(missing_docs)]

/// Reads the first byte without a bounds check.
pub fn first(data: &[u8]) -> u8 {
    // SAFETY: none — that is the point of the fixture.
    unsafe { *data.get_unchecked(0) }
}
