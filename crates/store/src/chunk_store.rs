//! DiskChunk identifiers and the in-RAM builder for accumulating
//! non-duplicate bytes before they are sealed to the backend.
//!
//! A container carries no content hash of its own: every byte of it is
//! described by a Manifest entry whose hash covers exactly that range,
//! which is what `fsck --deep` re-hashes.

/// Identifier of a DiskChunk (dense sequence number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DiskChunkId(pub u64);

impl DiskChunkId {
    /// Object name in the backend namespace.
    pub fn name(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Accumulates the non-duplicate bytes destined for one DiskChunk.
///
/// The paper buffers non-duplicate chunks in RAM and "only merge\[s\] the
/// non-duplicate chunks belonging to one file into one DiskChunk".
pub struct DiskChunkBuilder {
    id: DiskChunkId,
    data: Vec<u8>,
}

impl DiskChunkBuilder {
    /// Starts an empty container with the given identity.
    pub fn new(id: DiskChunkId) -> Self {
        DiskChunkBuilder { id, data: Vec::new() }
    }

    /// The container's identity.
    pub fn id(&self) -> DiskChunkId {
        self.id
    }

    /// Appends `bytes`, returning the offset they begin at.
    pub fn append(&mut self, bytes: &[u8]) -> u64 {
        let offset = self.data.len() as u64;
        self.data.extend_from_slice(bytes);
        offset
    }

    /// Bytes accumulated so far.
    pub fn len(&self) -> u64 {
        self.data.len() as u64
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Finishes the container, returning `(id, bytes)`.
    pub fn seal(self) -> (DiskChunkId, Vec<u8>) {
        (self.id, self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_returns_offsets_and_seal_hashes_content() {
        let mut b = DiskChunkBuilder::new(DiskChunkId(3));
        assert!(b.is_empty());
        assert_eq!(b.append(b"hello "), 0);
        assert_eq!(b.append(b"world"), 6);
        assert_eq!(b.len(), 11);
        let (id, data) = b.seal();
        assert_eq!(id, DiskChunkId(3));
        assert_eq!(data, b"hello world");
    }

    #[test]
    fn name_is_stable_hex() {
        assert_eq!(DiskChunkId(255).name(), "00000000000000ff");
    }
}
