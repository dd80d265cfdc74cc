// Fixture: a store crate violating L2a (raw fs mutation outside
// backend.rs) and directive hygiene (a trailing directive, which exempts
// nothing; a missing reason; an unknown name).

pub fn load(path: &str) -> Vec<u8> {
    std::fs::read(path).unwrap_or_default()
}

pub fn store(path: &str, data: &[u8]) {
    let bytes = data.to_vec();
    let _ = std::fs::write(path, bytes); // lint: allow(raw-fs): trails the code
}

// lint: allow(raw-fs)
pub fn reasonless(x: Option<u32>) -> u32 {
    x.unwrap_or(0)
}

// lint: allow(raw-fss): typo in the directive name
pub fn typoed(x: Option<u32>) -> u32 {
    x.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_write_directly() {
        std::fs::write("scratch", b"x").unwrap();
    }
}
