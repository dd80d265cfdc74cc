//! Chunk-size distribution statistics.
//!
//! The cut-point test fires with probability `1/avg`, so CDC chunk sizes
//! follow a geometric distribution truncated to `[min, max]` — the shape
//! behind the paper's granularity arguments (`ECS` is a *mean*, not a
//! size) and behind TTTD's motivation (hard cuts at `max` pile mass onto
//! one bucket). [`SizeStats`] summarises any chunker's output for tests
//! and the `dataset` experiment binary.

use crate::{Chunker, Span};

/// Summary statistics over observed chunk sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeStats {
    /// Chunks observed.
    pub count: u64,
    /// Total bytes covered.
    pub total_bytes: u64,
    /// Smallest chunk.
    pub min: usize,
    /// Largest chunk.
    pub max: usize,
    /// Mean chunk size.
    pub mean: f64,
    /// Median (p50).
    pub p50: usize,
    /// 90th percentile.
    pub p90: usize,
    /// 99th percentile.
    pub p99: usize,
    /// Fraction of chunks at exactly the configured maximum (hard cuts).
    pub at_max_fraction: f64,
}

impl SizeStats {
    /// Computes statistics from spans; `configured_max` identifies hard
    /// cuts (pass 0 when there is no maximum).
    pub fn from_spans(spans: &[Span], configured_max: usize) -> Option<SizeStats> {
        if spans.is_empty() {
            return None;
        }
        let mut sizes: Vec<usize> = spans.iter().map(|s| s.len).collect();
        sizes.sort_unstable();
        let count = sizes.len() as u64;
        let total_bytes: u64 = sizes.iter().map(|&s| s as u64).sum();
        let pct = |p: f64| sizes[((count as f64 - 1.0) * p) as usize];
        let at_max = sizes.iter().filter(|&&s| s == configured_max).count();
        Some(SizeStats {
            count,
            total_bytes,
            min: sizes[0],
            max: *sizes.last().expect("non-empty"),
            mean: total_bytes as f64 / count as f64,
            p50: pct(0.5),
            p90: pct(0.9),
            p99: pct(0.99),
            at_max_fraction: at_max as f64 / count as f64,
        })
    }

    /// Convenience: chunk `data` with `chunker` and summarise.
    pub fn measure<C: Chunker>(
        chunker: &C,
        data: &[u8],
        configured_max: usize,
    ) -> Option<SizeStats> {
        Self::from_spans(&chunker.spans(data), configured_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FixedChunker, RabinChunker};
    use mhd_workload::Rng;

    fn random(len: usize, seed: u64) -> Vec<u8> {
        Rng::new(seed).bytes(len)
    }

    #[test]
    fn empty_input_yields_none() {
        let c = FixedChunker::new(8);
        assert!(SizeStats::measure(&c, &[], 8).is_none());
    }

    #[test]
    fn fixed_chunker_is_degenerate() {
        let c = FixedChunker::new(1000);
        let data = random(10_000, 1);
        let s = SizeStats::measure(&c, &data, 1000).unwrap();
        assert_eq!(s.count, 10);
        assert_eq!((s.min, s.max, s.p50), (1000, 1000, 1000));
        assert_eq!(s.at_max_fraction, 1.0);
        assert_eq!(s.total_bytes, 10_000);
    }

    #[test]
    fn cdc_sizes_look_truncated_geometric() {
        let chunker = RabinChunker::with_avg(1024).unwrap();
        let p = chunker.params();
        let data = random(4 << 20, 2);
        let s = SizeStats::measure(&chunker, &data, p.max).unwrap();
        // Mean near ECS (within 2x), median below mean (right-skewed),
        // and few chunks at the hard maximum on random data.
        assert!(s.mean > 512.0 && s.mean < 2048.0, "mean {}", s.mean);
        assert!((s.p50 as f64) < s.mean * 1.1, "p50 {} vs mean {}", s.p50, s.mean);
        assert!(s.at_max_fraction < 0.1, "at_max {}", s.at_max_fraction);
        assert!(s.p90 <= p.max && s.p99 <= p.max);
        assert_eq!(s.total_bytes, 4 << 20);
    }

    #[test]
    fn low_entropy_data_piles_on_max() {
        let chunker = RabinChunker::with_avg(1024).unwrap();
        let p = chunker.params();
        let data = vec![0u8; 1 << 20];
        let s = SizeStats::measure(&chunker, &data, p.max).unwrap();
        assert!(s.at_max_fraction > 0.9, "zeros must hard-cut: {}", s.at_max_fraction);
    }

    #[test]
    fn percentiles_are_ordered() {
        let chunker = RabinChunker::with_avg(512).unwrap();
        let data = random(1 << 20, 3);
        let s = SizeStats::measure(&chunker, &data, chunker.params().max).unwrap();
        assert!(s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
    }
}
