//! Fixture: a store crate satisfying every pass — a reason on every allow
//! directive, raw fs mutation only where one sanctions it or in tests.

/// Loads a file, tolerating a missing path.
pub fn load(path: &str) -> Vec<u8> {
    std::fs::read(path).unwrap_or_default()
}

/// An exempted raw write with its reviewable reason.
pub fn scratch(path: &str) -> std::io::Result<()> {
    // lint: allow(raw-fs): scratch output that no store object references
    std::fs::write(path, b"")
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_write_directly() {
        std::fs::write("scratch", b"x").unwrap();
    }
}
