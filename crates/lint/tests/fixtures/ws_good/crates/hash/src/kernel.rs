//! Fixture: the module the crate root allows `unsafe` in.

/// Reads the first byte of a non-empty slice.
pub fn first(data: &[u8]) -> Option<u8> {
    if data.is_empty() {
        return None;
    }
    // SAFETY: `data` was just checked to hold at least one byte.
    Some(unsafe { *data.get_unchecked(0) })
}
