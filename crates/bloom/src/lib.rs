//! A Bloom filter keyed by [`ChunkHash`] values.
//!
//! The paper's BF-MHD, Bimodal, and SubChunk implementations all put a
//! 100 MB in-memory Bloom filter (the Data Domain "summary vector" \[12\],
//! \[23\]) in front of on-disk hash lookups: a negative answer proves a hash
//! has never been stored, eliminating the disk query entirely; a positive
//! answer is confirmed on disk. Experiments scale the filter with the input
//! so the false-positive rate matches the paper's regime.
//!
//! The `k` probe positions are derived from the digest by double hashing
//! (`g_i = h1 + i·h2`), using the two independent 64-bit words a SHA-1
//! digest already contains — re-hashing a hash would be wasted work.

#![forbid(unsafe_code)]

use mhd_hash::ChunkHash;

/// A fixed-size Bloom filter over [`ChunkHash`] keys.
///
/// ```
/// use mhd_bloom::BloomFilter;
/// use mhd_hash::sha1;
///
/// let mut bf = BloomFilter::with_bytes(4096, 100);
/// bf.insert(&sha1(b"stored chunk"));
/// assert!(bf.contains(&sha1(b"stored chunk"))); // never a false negative
/// assert!(!bf.contains(&sha1(b"never seen")));  // (almost always) negative
/// ```
#[derive(Clone, PartialEq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    /// Number of bits (always a multiple of 64).
    m: u64,
    /// Number of probe positions per key.
    k: u32,
}

impl BloomFilter {
    /// Creates a filter occupying `bytes` of RAM with `k` probes per key.
    ///
    /// # Panics
    /// Panics when `bytes == 0` or `k == 0` (fixed-configuration errors).
    pub fn with_bytes_and_k(bytes: usize, k: u32) -> Self {
        assert!(bytes > 0, "bloom filter needs at least one byte");
        assert!(k > 0, "bloom filter needs at least one probe");
        let words = bytes.div_ceil(8);
        BloomFilter { bits: vec![0u64; words], m: (words as u64) * 64, k }
    }

    /// Creates a filter occupying `bytes`, choosing `k` optimally for an
    /// expected population of `expected_keys` (`k = (m/n)·ln 2`, clamped to
    /// `1..=16`).
    pub fn with_bytes(bytes: usize, expected_keys: u64) -> Self {
        let m = (bytes as f64) * 8.0;
        let n = expected_keys.max(1) as f64;
        let k = ((m / n) * std::f64::consts::LN_2).round().clamp(1.0, 16.0) as u32;
        Self::with_bytes_and_k(bytes, k)
    }

    #[inline]
    fn probes(&self, key: &ChunkHash) -> impl Iterator<Item = u64> + '_ {
        let h1 = key.prefix_u64();
        let h2 = key.second_u64() | 1; // odd stride so all positions are hit
        let m = self.m;
        (0..self.k as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % m)
    }

    /// Inserts `key`.
    pub fn insert(&mut self, key: &ChunkHash) {
        let m = self.m;
        let k = self.k as u64;
        let h1 = key.prefix_u64();
        let h2 = key.second_u64() | 1;
        for i in 0..k {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % m;
            self.bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
        mhd_obs::counter!("bloom.inserts").inc();
    }

    /// Membership test: `false` is definitive, `true` may be a false
    /// positive.
    pub fn contains(&self, key: &ChunkHash) -> bool {
        let _timer = mhd_obs::span!("bloom.probe_ns");
        mhd_obs::counter!("bloom.probes").inc();
        let hit = self.probes(key).all(|bit| self.bits[(bit / 64) as usize] >> (bit % 64) & 1 == 1);
        if hit {
            mhd_obs::counter!("bloom.maybe_hits").inc();
        } else {
            mhd_obs::counter!("bloom.negatives").inc();
        }
        hit
    }

    /// RAM occupied by the bit array, in bytes (the paper's Table III-style
    /// accounting).
    pub fn ram_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Number of probe positions per key.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Fraction of bits set, in `[0, 1]`.
    pub fn fill_ratio(&self) -> f64 {
        let set: u64 = self.bits.iter().map(|w| w.count_ones() as u64).sum();
        set as f64 / self.m as f64
    }
}

impl std::fmt::Debug for BloomFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BloomFilter")
            .field("bytes", &self.ram_bytes())
            .field("k", &self.k)
            .field("fill_ratio", &self.fill_ratio())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhd_hash::sha1;
    use proptest::prelude::*;

    fn key(i: u64) -> ChunkHash {
        sha1(&i.to_le_bytes())
    }

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::with_bytes(1 << 14, 1000);
        for i in 0..1000 {
            bf.insert(&key(i));
        }
        for i in 0..1000 {
            assert!(bf.contains(&key(i)), "false negative for key {i}");
        }
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let bf = BloomFilter::with_bytes(1024, 100);
        assert!(!bf.contains(&key(42)));
        assert_eq!(bf.fill_ratio(), 0.0);
    }

    #[test]
    fn fpr_near_design_point() {
        // 11 982 bytes is `m = −n·ln p / (ln 2)²` bits for n keys at p = 1 %.
        let n = 10_000u64;
        let mut bf = BloomFilter::with_bytes(11_982, n);
        for i in 0..n {
            bf.insert(&key(i));
        }
        // Query n fresh keys; expect ≈1% false positives, allow 3x slack.
        let fp = (n..2 * n).filter(|&i| bf.contains(&key(i))).count();
        assert!(fp < (n as usize) * 3 / 100, "false positive count {fp} too high");
        assert!(bf.fill_ratio().powi(bf.k() as i32) < 0.03);
    }

    #[test]
    fn fill_ratio_grows_monotonically() {
        let mut bf = BloomFilter::with_bytes(4096, 500);
        let mut last = 0.0;
        for i in 0..500 {
            bf.insert(&key(i));
            let f = bf.fill_ratio();
            assert!(f >= last);
            last = f;
        }
        assert!(last > 0.0 && last < 1.0);
    }

    #[test]
    fn k_is_clamped_sane() {
        assert_eq!(BloomFilter::with_bytes(8, u64::MAX).k(), 1);
        assert!(BloomFilter::with_bytes(1 << 20, 10).k() <= 16);
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn zero_bytes_rejected() {
        let _ = BloomFilter::with_bytes_and_k(0, 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Anything inserted is always found (no false negatives), for any
        /// filter geometry.
        #[test]
        fn prop_no_false_negatives(
            keys in proptest::collection::vec(any::<u64>(), 1..200),
            bytes in 64usize..4096,
            k in 1u32..8,
        ) {
            let mut bf = BloomFilter::with_bytes_and_k(bytes, k);
            for &i in &keys { bf.insert(&key(i)); }
            for &i in &keys { prop_assert!(bf.contains(&key(i))); }
        }
    }
}
