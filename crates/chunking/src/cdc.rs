//! The LBFS-style min/avg/max content-defined chunker (the paper's base
//! chunker, described in §II as "the Rabin Fingerprint chunking algorithm").

use std::sync::Arc;

use crate::params::ChunkerParams;
use crate::rabin::RabinTables;
use crate::Chunker;

/// Content-defined chunker using a rolling Rabin fingerprint.
///
/// ```
/// use mhd_chunking::{Chunker, RabinChunker};
///
/// let chunker = RabinChunker::with_avg(1024).unwrap();
/// let data = vec![42u8; 10_000];
/// let spans = chunker.spans(&data);
/// assert_eq!(spans.iter().map(|s| s.len).sum::<usize>(), data.len());
/// ```
///
/// A position is a cut point when the fingerprint of the trailing window
/// matches the configured pattern and the current chunk is at least `min`
/// bytes long; a cut is forced at `max` bytes. `next_cut` skips the
/// positions below `min` entirely (the fingerprint is warmed over the
/// `window` bytes preceding the first testable position), which is the
/// standard optimisation and changes nothing semantically because the
/// fingerprint depends only on the trailing window. For the same reason
/// `cut_points` can fingerprint every position of a buffer four lanes at a
/// time and apply `min`/`max` afterwards: same cut points, about twice the
/// scanning speed (DESIGN.md §11).
#[derive(Clone)]
pub struct RabinChunker {
    params: ChunkerParams,
    tables: Arc<RabinTables>,
}

impl RabinChunker {
    /// Creates a chunker; panics only via [`ChunkerParams::validate`] being
    /// violated, which the constructor checks and returns as an error.
    pub fn new(params: ChunkerParams) -> Result<Self, crate::ParamError> {
        params.validate()?;
        Ok(RabinChunker { params, tables: RabinTables::default_with_window(params.window) })
    }

    /// Convenience constructor from an expected chunk size.
    pub fn with_avg(avg: usize) -> Result<Self, crate::ParamError> {
        Self::new(ChunkerParams::with_avg(avg)?)
    }

    /// The configured parameters.
    pub fn params(&self) -> ChunkerParams {
        self.params
    }
}

impl Chunker for RabinChunker {
    fn next_cut(&self, data: &[u8], start: usize) -> usize {
        let p = &self.params;
        let remaining = data.len() - start;
        if remaining <= p.min {
            return data.len();
        }
        let limit = remaining.min(p.max); // max chunk length from here
        let mask = p.mask();
        let magic = p.magic();

        // Position start+min is the first allowed cut; its window covers
        // [start+min-window, start+min), inside this chunk because
        // `window <= min` (checked by `ChunkerParams::validate`).
        self.tables
            .scan(data, start + p.min, start + limit, |_, fp| fp & mask == magic)
            .unwrap_or(start + limit)
    }

    /// The whole-buffer scan: every position whose fingerprint matches is
    /// found four lanes at a time (`RabinTables::candidates`), then this
    /// serial pass applies min/max exactly as chaining `next_cut` does —
    /// a candidate closer than `min` to the chunk start is skipped, a gap
    /// of more than `max` is cut every `max` bytes.
    fn cut_points(&self, data: &[u8]) -> Vec<usize> {
        let p = &self.params;
        let mut cuts = Vec::with_capacity(data.len() / p.avg + 1);
        let mut start = 0usize;
        let mut candidates = Vec::new();
        // The first testable position of the input; `window <= min`.
        let mut from = p.min;
        while from < data.len() {
            from = self.tables.candidates(data, from, p.mask(), p.magic(), &mut candidates);
            for &candidate in &candidates {
                while candidate - start > p.max {
                    start += p.max;
                    cuts.push(start);
                }
                if candidate - start >= p.min {
                    cuts.push(candidate);
                    start = candidate;
                }
            }
        }
        while data.len() - start > p.max {
            start += p.max;
            cuts.push(start);
        }
        if start < data.len() {
            cuts.push(data.len());
        }
        cuts
    }

    fn expected_chunk_size(&self) -> usize {
        self.params.avg
    }

    fn max_chunk_size(&self) -> usize {
        self.params.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhd_workload::Rng;

    fn random_data(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = Rng::new(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn average_size_is_plausible() {
        let avg = 1024usize;
        let chunker = RabinChunker::with_avg(avg).unwrap();
        let data = random_data(2_000_000, 2);
        let n = chunker.cut_points(&data).len();
        let measured = data.len() / n;
        // Truncated-geometric mean lands well within 2x of ECS.
        assert!(
            measured > avg / 2 && measured < avg * 2,
            "measured avg {measured} vs expected {avg}"
        );
    }

    #[test]
    fn identical_suffix_realigns_after_prefix_insert() {
        // The content-defined property that defeats boundary shifting:
        // inserting bytes at the front only disturbs boundaries near the
        // insertion; later cut points realign (same absolute content).
        let chunker = RabinChunker::with_avg(512).unwrap();
        let data = random_data(100_000, 4);
        let mut shifted = random_data(100, 5);
        shifted.extend_from_slice(&data);

        let cuts_a: Vec<usize> = chunker.cut_points(&data);
        let cuts_b: Vec<usize> = chunker.cut_points(&shifted).iter().map(|c| c - 100).collect();

        // Compare boundary sets over the common tail; most should coincide.
        let set_a: std::collections::HashSet<_> = cuts_a.iter().copied().collect();
        let tail_b: Vec<_> = cuts_b.iter().filter(|&&c| c >= 10_000).collect();
        let realigned = tail_b.iter().filter(|&&&c| set_a.contains(&c)).count();
        assert!(
            realigned * 10 >= tail_b.len() * 9,
            "only {realigned}/{} boundaries realigned",
            tail_b.len()
        );
    }

    #[test]
    fn uniform_data_does_not_degenerate() {
        // All-zero data yields fingerprint 0 everywhere after warmup; the
        // nonzero magic means we always cut at max, never at min.
        let chunker = RabinChunker::with_avg(512).unwrap();
        let data = vec![0u8; 100_000];
        let spans = chunker.spans(&data);
        let p = chunker.params();
        for s in &spans[..spans.len() - 1] {
            assert_eq!(s.len, p.max);
        }
    }

    #[test]
    fn short_inputs() {
        let chunker = RabinChunker::with_avg(512).unwrap();
        assert!(chunker.cut_points(&[]).is_empty());
        for len in [1usize, 10, 127, 128, 129] {
            let data = random_data(len, len as u64);
            let spans = chunker.spans(&data);
            assert_eq!(spans.iter().map(|s| s.len).sum::<usize>(), len);
        }
    }

    // Tiling, bound, determinism, and streaming properties are covered for
    // every chunker (this one included) by the parameterized matrix suite
    // in `crate::matrix`.
}
