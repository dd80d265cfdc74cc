//! FastCDC-style gear-hash chunker with normalized chunking.
//!
//! FastCDC (Xia et al., ATC'16) replaces the Rabin fingerprint with the
//! much cheaper *gear* hash — one shift and one table XOR per byte — and
//! reshapes the chunk-size distribution with *normalized chunking*: before
//! the expected-size point the cut test uses a stricter mask (fewer cuts,
//! pushing sizes up toward `avg`), after it a looser mask (more cuts,
//! pulling sizes back down before the hard `max` bound). The result is a
//! tighter size distribution around `ECS` with far fewer forced cuts than
//! the plain geometric chunker, at a fraction of the per-byte cost.
//!
//! This implementation uses the XOR-gear recurrence `h' = (h << 1) ^
//! GEAR[b]` (GF(2)-linear, window limited to the trailing 64 bytes by the
//! shift) with a byte-at-a-time scan: the loop is latency-bound on a
//! two-operation dependency chain with a well-predicted branch, which a
//! safe-rust wide-lane (SWAR) form did not beat on the portable x86-64
//! baseline (0.76–0.84×, EXPERIMENTS.md), so there is one kernel.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::OnceLock;

use crate::params::ChunkerParams;
use crate::Chunker;

/// Seed for the deterministic gear table derivation.
const GEAR_SEED: u64 = 0x6d68_645f_6368_756e; // "mhd_chun"

/// `splitmix64` output mixing, the standard 64-bit finalizer.
fn splitmix64(index: u64) -> u64 {
    let mut z = index.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(GEAR_SEED);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The 256-entry gear table: one fixed 64-bit pattern per byte value,
/// derived deterministically from `splitmix64` so every build and every
/// platform chunk identically.
fn gear_table() -> &'static [u64; 256] {
    static TABLE: OnceLock<[u64; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u64; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            *slot = splitmix64(i as u64 + 1);
        }
        t
    })
}

/// Rolls the gear hash over one byte.
#[inline(always)]
fn gear_roll(gear: &[u64; 256], h: u64, byte: u8) -> u64 {
    (h << 1) ^ gear[byte as usize]
}

/// Starting from hash state `h` (valid at position `from`), consumes bytes
/// `data[from..to]`; after consuming the byte at index `j`, position `j + 1`
/// is a cut when `h & mask == 0`. Returns the final hash state and the
/// first cut position, if any.
#[inline]
fn scan(
    gear: &[u64; 256],
    data: &[u8],
    mut h: u64,
    from: usize,
    to: usize,
    mask: u64,
) -> (u64, Option<usize>) {
    for (i, &b) in data[from..to].iter().enumerate() {
        h = gear_roll(gear, h, b);
        if h & mask == 0 {
            return (h, Some(from + i + 1));
        }
    }
    (h, None)
}

/// How many mask bits normalization adds (before `avg`) or removes (after).
const NORM_BITS: u32 = 2;

/// Gear warmup length: the hash state only retains the trailing 64 bytes,
/// so warming over `min(64, min)` bytes preceding the first testable
/// position makes every cut decision purely content-defined while staying
/// inside the current chunk (streamed inputs never see earlier bytes).
const WARMUP: usize = 64;

/// Top-`bits` mask (gear hashes concentrate their best mixing in the high
/// bits because every older byte has been shifted upward).
fn top_mask(bits: u32) -> u64 {
    !0u64 << (64 - bits.clamp(1, 63))
}

/// Content-defined chunker using the gear hash with FastCDC-style
/// normalized chunking.
///
/// ```
/// use mhd_chunking::{Chunker, FastCdcChunker};
///
/// let chunker = FastCdcChunker::with_avg(1024).unwrap();
/// let data = vec![42u8; 10_000];
/// let spans = chunker.spans(&data);
/// assert_eq!(spans.iter().map(|s| s.len).sum::<usize>(), data.len());
/// ```
#[derive(Clone)]
pub struct FastCdcChunker {
    params: ChunkerParams,
    /// Stricter mask used for cut positions up to `start + avg`.
    mask_strict: u64,
    /// Looser mask used past the normalization point.
    mask_loose: u64,
}

impl FastCdcChunker {
    /// Creates a chunker from validated parameters.
    pub fn new(params: ChunkerParams) -> Result<Self, crate::ParamError> {
        params.validate()?;
        let bits = (params.avg as u64).trailing_zeros();
        Ok(FastCdcChunker {
            params,
            mask_strict: top_mask(bits + NORM_BITS),
            mask_loose: top_mask(bits.saturating_sub(NORM_BITS)),
        })
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

impl Chunker for FastCdcChunker {
    /// The two-phase normalized scan.
    fn next_cut(&self, data: &[u8], start: usize) -> usize {
        let p = &self.params;
        let remaining = data.len() - start;
        if remaining <= p.min {
            return data.len();
        }
        let limit = start + remaining.min(p.max);
        let gear = gear_table();

        // Warm the hash over the bytes preceding the first testable cut.
        let first_test = start + p.min;
        let mut h = 0u64;
        for &b in &data[first_test - WARMUP.min(p.min)..first_test] {
            h = gear_roll(gear, h, b);
        }
        if h & self.mask_strict == 0 {
            return first_test;
        }

        // Phase 1: strict mask up to the normalization point at `avg`.
        let normal = limit.min(start + p.avg);
        let (h, cut) = scan(gear, data, h, first_test, normal, self.mask_strict);
        if let Some(cut) = cut {
            return cut;
        }
        // Phase 2: loose mask from there to the hard bound.
        let (_, cut) = scan(gear, data, h, normal, limit, self.mask_loose);
        cut.unwrap_or(limit)
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
        Rng::new(seed).bytes(len)
    }

    #[test]
    fn gear_table_is_deterministic_and_nondegenerate() {
        let t = gear_table();
        assert_eq!(t, gear_table());
        // No zero entries (a zero gear value would make runs of that byte
        // hash-transparent) and no duplicates.
        assert!(t.iter().all(|&v| v != 0));
        let mut sorted = *t;
        sorted.sort_unstable();
        assert!(sorted.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn average_size_is_plausible() {
        let avg = 1024usize;
        let chunker = FastCdcChunker::with_avg(avg).unwrap();
        let data = random_data(2_000_000, 2);
        let n = chunker.cut_points(&data).len();
        let measured = data.len() / n;
        assert!(
            measured > avg / 2 && measured < avg * 2,
            "measured avg {measured} vs expected {avg}"
        );
    }

    #[test]
    fn normalization_tightens_the_distribution() {
        // Relative to the plain geometric chunker, normalized chunking
        // should produce fewer hard `max` cuts and fewer near-`min` chunks
        // on random data.
        let chunker = FastCdcChunker::with_avg(1024).unwrap();
        let rabin = crate::RabinChunker::with_avg(1024).unwrap();
        let data = random_data(4_000_000, 9);
        let p = chunker.params();
        let hard = |spans: &[crate::Span]| spans.iter().filter(|s| s.len == p.max).count();
        assert!(hard(&chunker.spans(&data)) <= hard(&rabin.spans(&data)));
    }

    #[test]
    fn identical_suffix_realigns_after_prefix_insert() {
        let chunker = FastCdcChunker::with_avg(512).unwrap();
        let data = random_data(100_000, 4);
        let mut shifted = random_data(100, 5);
        shifted.extend_from_slice(&data);

        let cuts_a: Vec<usize> = chunker.cut_points(&data);
        let cuts_b: Vec<usize> = chunker.cut_points(&shifted).iter().map(|c| c - 100).collect();

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
    fn cut_points_are_pinned() {
        // SHA-1 over the little-endian u64 cut offsets of a seeded 1 MiB
        // buffer. Stores keep their chunker for life, so any change to
        // these digests orphans every FastCDC store's dedup history.
        let data = random_data(1 << 20, 0x0FA5_7CDC);
        for (avg, want) in [
            (512usize, "7ec3a2527bfc928e190164ec3e54d5c7ca4c609d"),
            (4096, "4cd378a9a01989627b9be7436717f7dc79316ca3"),
        ] {
            let cuts = FastCdcChunker::with_avg(avg).unwrap().cut_points(&data);
            let raw: Vec<u8> = cuts.iter().flat_map(|&c| (c as u64).to_le_bytes()).collect();
            assert_eq!(mhd_hash::sha1(&raw).to_hex(), want, "avg={avg}: {} cuts", cuts.len());
        }
    }

    #[test]
    fn tiny_params_are_accepted() {
        for avg in [2usize, 4, 8] {
            let chunker = FastCdcChunker::with_avg(avg).unwrap();
            let data = random_data(4_096, avg as u64);
            let spans = chunker.spans(&data);
            assert_eq!(spans.iter().map(|s| s.len).sum::<usize>(), data.len());
        }
    }
}
