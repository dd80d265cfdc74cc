//! A from-scratch implementation of the SHA-1 message digest (FIPS 180-1).
//!
//! The offline crate set available to this workspace has no SHA
//! implementation, and the paper's whole metadata format is built around
//! 20-byte SHA-1 values, so we implement the algorithm directly.
//!
//! All hashing funnels into one block-compression entry point,
//! [`compress_blocks`], which absorbs any number of whole 64-byte blocks
//! into a five-word state. It has two implementations of the same
//! function:
//!
//! * [`compress_blocks_scalar`] — the standard 80-round compression with
//!   the message schedule computed in place over a 16-word ring. Compiled
//!   and tested on every target, and the only path off x86_64 or on an
//!   x86_64 CPU without the SHA extensions.
//! * `sha1_x86::compress_blocks` — the same rounds on the CPU's SHA-1
//!   instructions (`sha1rnds4`/`sha1nexte`/`sha1msg1`/`sha1msg2`), four
//!   rounds per instruction with the state held in registers across all
//!   blocks of a call. Several times the scalar rate (EXPERIMENTS.md).
//!
//! The choice is made from the running CPU (`is_x86_feature_detected!`,
//! a cached flag load) once per `compress_blocks` call; nothing a user can
//! set selects a path, and both produce the same digests bit for bit
//! (`tests::prop_kernels_agree`). [`kernel`] names the one in use.

use crate::ChunkHash;

const H0: [u32; 5] = [0x6745_2301, 0xEFCD_AB89, 0x98BA_DCFE, 0x1032_5476, 0xC3D2_E1F0];

/// Streaming SHA-1 hasher.
///
/// ```
/// use mhd_hash::Sha1;
/// let mut h = Sha1::new();
/// h.update(b"abc");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "a9993e364706816aba3e25717850c26c9cd0d89d"
/// );
/// ```
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    /// Partial block buffer.
    buf: [u8; 64],
    /// Number of valid bytes in `buf` (always < 64 between calls).
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sha1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sha1").field("len", &self.len).finish_non_exhaustive()
    }
}

impl Sha1 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha1 { state: H0, len: 0, buf: [0u8; 64], buf_len: 0 }
    }

    /// Absorbs `data` into the digest state.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress_blocks);
    }

    /// Number of bytes absorbed so far.
    pub fn message_len(&self) -> u64 {
        self.len
    }

    /// Consumes the hasher and returns the 160-bit digest.
    pub fn finalize(self) -> ChunkHash {
        self.finalize_with(compress_blocks)
    }

    /// [`Sha1::update`] over a given block-compression function (the
    /// tests drive each implementation through the same buffering).
    #[inline]
    fn update_with(&mut self, data: &[u8], compress: impl Fn(&mut [u32; 5], &[u8])) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut input = data;

        // Top up a partial block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len < 64 {
                // Block still partial: all input was consumed by the top-up.
                debug_assert!(input.is_empty());
                return;
            }
            compress(&mut self.state, &self.buf);
        }

        // Every whole block straight from the input, in one call.
        let (blocks, rem) = input.split_at(input.len() & !63);
        compress(&mut self.state, blocks);

        // Stash the tail.
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// [`Sha1::finalize`] over a given block-compression function.
    #[inline]
    fn finalize_with(mut self, compress: impl Fn(&mut [u32; 5], &[u8])) -> ChunkHash {
        // Padding, written in place: 0x80, zeros up to the last eight bytes
        // of a block, then the 64-bit big-endian bit length. A tail of 56
        // bytes or more leaves no room for the length and spills the
        // zeros into a second block.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, &self.buf);

        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        ChunkHash::from_bytes(out)
    }
}

/// One-shot convenience wrapper: `sha1(data)` == update-then-finalize.
/// Every whole block of `data` is compressed where it lies; only the
/// tail (under 64 bytes) is copied, into the block that takes the padding.
pub fn sha1(data: &[u8]) -> ChunkHash {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

/// Name of the block-compression implementation this process hashes
/// with: `"sha-ni"` on an x86_64 CPU with the SHA extensions, `"scalar"`
/// everywhere else. Two hosts that differ severalfold in backup speed for
/// this reason alone are told apart by `mhd stats`, which prints it.
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if crate::sha1_x86::available() {
        return "sha-ni";
    }
    "scalar"
}

/// Absorbs `blocks` — any number of whole 64-byte blocks — into `state`,
/// on the CPU's SHA-1 instructions where it has them and on
/// [`compress_blocks_scalar`] otherwise.
fn compress_blocks(state: &mut [u32; 5], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if crate::sha1_x86::compress_blocks(state, blocks) {
        return;
    }
    compress_blocks_scalar(state, blocks);
}

/// The portable implementation of [`compress_blocks`].
fn compress_blocks_scalar(state: &mut [u32; 5], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        compress(state, block.try_into().expect("chunks_exact(64)"));
    }
}

/// The SHA-1 compression function over a single 64-byte block.
///
/// Uses the classic trick of keeping the 80-entry message schedule in a
/// 16-word ring (`w[t & 15]`), since `W[t]` only depends on `W[t-3]`,
/// `W[t-8]`, `W[t-14]`, and `W[t-16]`.
fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (i, word) in w.iter_mut().enumerate() {
        *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4-byte word"));
    }

    let [mut a, mut b, mut c, mut d, mut e] = *state;

    macro_rules! round {
        ($t:expr, $f:expr, $k:expr) => {{
            let t = $t;
            let wt = if t < 16 {
                w[t]
            } else {
                let x = (w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^ w[t & 15])
                    .rotate_left(1);
                w[t & 15] = x;
                x
            };
            let tmp =
                a.rotate_left(5).wrapping_add($f).wrapping_add(e).wrapping_add($k).wrapping_add(wt);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }};
    }

    for t in 0..20 {
        round!(t, (b & c) | ((!b) & d), 0x5A82_7999);
    }
    for t in 20..40 {
        round!(t, b ^ c ^ d, 0x6ED9_EBA1);
    }
    for t in 40..60 {
        round!(t, (b & c) | (b & d) | (c & d), 0x8F1B_BCDC);
    }
    for t in 60..80 {
        round!(t, b ^ c ^ d, 0xCA62_C1D6);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Compress = fn(&mut [u32; 5], &[u8]);

    /// The hardware kernel, called directly rather than through the
    /// dispatcher; `None` (and a line saying so) on a CPU without it.
    fn sha_ni() -> Option<Compress> {
        #[cfg(target_arch = "x86_64")]
        if crate::sha1_x86::available() {
            return Some(|state, blocks| assert!(crate::sha1_x86::compress_blocks(state, blocks)));
        }
        eprintln!("sha-ni kernel skipped: this CPU has no SHA extensions");
        None
    }

    /// Both implementations by name, so one run on a capable CPU covers
    /// both whichever of them `compress_blocks` dispatches to.
    fn kernels() -> Vec<(&'static str, Compress)> {
        let mut kernels: Vec<(&str, Compress)> = vec![("scalar", compress_blocks_scalar)];
        kernels.extend(sha_ni().map(|k| ("sha-ni", k)));
        kernels
    }

    /// Streaming digest of `parts` over one given implementation.
    fn digest_with(compress: Compress, parts: &[&[u8]]) -> ChunkHash {
        let mut h = Sha1::new();
        for part in parts {
            h.update_with(part, compress);
        }
        h.finalize_with(compress)
    }

    /// FIPS 180-1 Appendix A/B vectors plus a few well-known digests.
    #[test]
    fn fips_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (
                b"The quick brown fox jumps over the lazy dog",
                "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12",
            ),
            (
                b"The quick brown fox jumps over the lazy cog",
                "de9f2c7fd25e1b3afad3e85a0bd17d9b100db4b3",
            ),
        ];
        for (input, expect) in cases {
            assert_eq!(sha1(input).to_hex(), *expect, "input {:?}", input);
            for (name, k) in kernels() {
                assert_eq!(digest_with(k, &[input]).to_hex(), *expect, "{name}, input {input:?}");
            }
        }
    }

    #[test]
    fn million_a() {
        // FIPS 180-1 Appendix C: one million repetitions of "a".
        let expect = "34aa973cd4c4daa4f61eeb2bdbad27316534016f";
        let block = [b'a'; 1000];
        let parts = vec![&block[..]; 1000];
        assert_eq!(sha1(&block.repeat(1000)).to_hex(), expect);
        for (name, k) in kernels() {
            assert_eq!(digest_with(k, &parts).to_hex(), expect, "{name}");
        }
    }

    #[test]
    fn streaming_equals_oneshot_at_every_split() {
        let data: Vec<u8> = (0u32..300).map(|i| (i * 7 + 3) as u8).collect();
        let whole = sha1(&data);
        for split in 0..data.len() {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn multi_way_split_with_empty_updates() {
        let data = vec![0xABu8; 197];
        let mut h = Sha1::new();
        h.update(&[]);
        for chunk in data.chunks(13) {
            h.update(chunk);
            h.update(&[]);
        }
        assert_eq!(h.finalize(), sha1(&data));
    }

    #[test]
    fn message_len_tracks_bytes() {
        let mut h = Sha1::new();
        h.update(&[0u8; 100]);
        h.update(&[0u8; 28]);
        assert_eq!(h.message_len(), 128);
    }

    #[test]
    fn lengths_around_block_boundary() {
        // Exercise padding for every interesting length near 64 and 128:
        // byte-at-a-time against whole-message, on each implementation.
        for len in (0..=130).chain([1000, 4096]) {
            let data = vec![0x5Cu8; len];
            let bytes: Vec<&[u8]> = data.chunks(1).collect();
            let whole = sha1(&data);
            for (name, k) in kernels() {
                assert_eq!(digest_with(k, &bytes), whole, "{name}, len {len}, bytewise");
                assert_eq!(digest_with(k, &[&data]), whole, "{name}, len {len}, whole");
            }
        }
    }

    /// The dispatcher runs the implementation `kernel()` names, and on a
    /// CPU with the extensions that is never the scalar one.
    #[test]
    fn kernel_names_the_dispatched_implementation() {
        assert_eq!(kernel(), if sha_ni().is_some() { "sha-ni" } else { "scalar" });
    }

    proptest! {
        /// Scalar == hardware == one-shot for arbitrary messages,
        /// arbitrary `update` split points and an arbitrarily misaligned
        /// input slice (the kernel's loads are unaligned by design).
        #[test]
        fn prop_kernels_agree(
            msg in prop::collection::vec(any::<u8>(), 0..=8192),
            cuts in prop::collection::vec(0usize..=8192, 0..6),
            shift in 0usize..=15,
        ) {
            let mut shifted = vec![0u8; shift];
            shifted.extend_from_slice(&msg);
            let data = &shifted[shift..];

            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.push(data.len());
            cuts.sort_unstable();
            let mut parts = Vec::new();
            let mut from = 0;
            for to in cuts {
                parts.push(&data[from..to]);
                from = to;
            }

            let whole = sha1(&msg);
            for (name, k) in kernels() {
                prop_assert_eq!(digest_with(k, &parts), whole, "{}, split", name);
                prop_assert_eq!(digest_with(k, &[data]), whole, "{}, whole", name);
            }
        }
    }
}
