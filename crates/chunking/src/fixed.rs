//! Fixed-size partitioning (FSP), as used by Venti \[1\] and OceanStore \[2\].
//!
//! Included as the boundary-shifting strawman: a one-byte insertion at the
//! start of a stream changes *every* subsequent fixed-size block, which is
//! exactly the failure mode content-defined chunking exists to avoid. The
//! workload crate's tests use it to demonstrate that effect.

use crate::Chunker;

/// Chunker that cuts every `size` bytes unconditionally.
#[derive(Debug, Clone, Copy)]
pub struct FixedChunker {
    size: usize,
}

impl FixedChunker {
    /// Creates a fixed-size chunker.
    ///
    /// # Panics
    /// Panics if `size == 0` (a programmer error in fixed configuration).
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "chunk size must be positive");
        FixedChunker { size }
    }

    /// The fixed block size.
    pub fn size(&self) -> usize {
        self.size
    }
}

impl Chunker for FixedChunker {
    fn next_cut(&self, data: &[u8], start: usize) -> usize {
        // Boundaries stay aligned to absolute multiples of `size` so that
        // chaining from 0 reproduces `cut_points` exactly.
        ((start / self.size + 1) * self.size).min(data.len())
    }

    fn cut_points(&self, data: &[u8]) -> Vec<usize> {
        let mut cuts: Vec<usize> = (self.size..=data.len()).step_by(self.size).collect();
        if !data.len().is_multiple_of(self.size) {
            cuts.push(data.len());
        }
        cuts
    }

    fn expected_chunk_size(&self) -> usize {
        self.size
    }

    fn max_chunk_size(&self) -> usize {
        self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_multiple() {
        let spans = FixedChunker::new(4).spans(&[0u8; 12]);
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.len == 4));
    }

    #[test]
    fn trailing_partial_block() {
        let spans = FixedChunker::new(5).spans(&[0u8; 12]);
        assert_eq!(spans.iter().map(|s| s.len).collect::<Vec<_>>(), vec![5, 5, 2]);
    }

    #[test]
    fn input_shorter_than_block() {
        let spans = FixedChunker::new(100).spans(&[0u8; 3]);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].len, 3);
    }

    #[test]
    fn empty_input() {
        assert!(FixedChunker::new(8).cut_points(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_rejected() {
        let _ = FixedChunker::new(0);
    }

    proptest! {
        #[test]
        fn prop_tiles(len in 0usize..10_000, size in 1usize..512) {
            let data = vec![0u8; len];
            let spans = FixedChunker::new(size).spans(&data);
            prop_assert_eq!(spans.iter().map(|s| s.len).sum::<usize>(), len);
            for s in &spans {
                prop_assert!(s.len <= size);
            }
        }
    }
}
