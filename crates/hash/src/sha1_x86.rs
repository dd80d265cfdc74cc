//! SHA-1 block compression on the x86 SHA extensions.
//!
//! The one module of the workspace that contains `unsafe`: the hardware
//! kernel is compiled for CPU features the build target does not
//! guarantee, so calling it is sound only after the running CPU has been
//! asked. [`compress_blocks`] is the safe door — it asks, then calls —
//! and the only item the rest of the crate uses besides [`available`].
//!
//! The kernel follows the instruction set's intended schedule: the state
//! lives in two registers (`ABCD`, and `E` in the top lane of a second),
//! `sha1rnds4` runs four rounds, `sha1nexte` folds the rotated `A` of
//! four rounds ago into the next message quad, and `sha1msg1`/`sha1msg2`
//! plus one XOR extend the 16-word message schedule four words at a time.
//! Both registers stay live across every block of a call; memory sees
//! the state once on entry and once on exit.

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x,
    _mm_sha1msg1_epu32, _mm_sha1msg2_epu32, _mm_sha1nexte_epu32, _mm_sha1rnds4_epu32,
    _mm_shuffle_epi8, _mm_xor_si128,
};

/// True when the running CPU has every feature [`compress_blocks_sha_ni`]
/// is compiled with. `std` caches the CPUID answer; this is a flag load.
pub(crate) fn available() -> bool {
    std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("sse2")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

/// Absorbs `blocks` (whole 64-byte blocks) into `state` on the SHA
/// extensions and returns `true`; on a CPU without them returns `false`
/// with `state` untouched, and the caller runs the scalar rounds.
pub(crate) fn compress_blocks(state: &mut [u32; 5], blocks: &[u8]) -> bool {
    if !available() {
        return false;
    }
    // SAFETY: `available()` has just confirmed that this CPU implements
    // `sha`, `sse2`, `ssse3` and `sse4.1`, the exact feature set the
    // kernel is compiled with; it has no other precondition.
    unsafe { compress_blocks_sha_ni(state, blocks) };
    true
}

/// Four rounds in the middle of a block (12..=67), where all three
/// schedule steps are live. `$m0` is the message quad these rounds
/// consume; it also completes `$m1`, the quad the next four rounds
/// consume (`sha1msg2`), and feeds the two quads after that (`sha1msg1`
/// into `$m3`, XOR into `$m2`). `$e` carries the fifth state word in and
/// `$e_next` takes the pre-round `ABCD` for the following four rounds;
/// `$f` selects the round function and constant.
macro_rules! rounds4 {
    ($abcd:ident, $e:ident, $e_next:ident, $f:literal,
     $m0:ident, $m1:ident, $m2:ident, $m3:ident) => {
        $e = _mm_sha1nexte_epu32($e, $m0);
        $e_next = $abcd;
        $m1 = _mm_sha1msg2_epu32($m1, $m0);
        $abcd = _mm_sha1rnds4_epu32($abcd, $e, $f);
        $m3 = _mm_sha1msg1_epu32($m3, $m0);
        $m2 = _mm_xor_si128($m2, $m0);
    };
}

/// The SHA-1 compression function over every whole 64-byte block of
/// `blocks`, in order. A trailing partial block is ignored.
///
/// # Safety
///
/// The running CPU must support the `sha`, `sse2`, `ssse3` and `sse4.1`
/// target features (see [`available`]). There is no other requirement:
/// every load is taken from inside a 64-byte chunk of `blocks`.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_blocks_sha_ni(state: &mut [u32; 5], blocks: &[u8]) {
    // One byte shuffle turns 16 message bytes into four big-endian words
    // with word 0 in the top lane, the order the SHA instructions use.
    let swap = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let mut abcd =
        _mm_set_epi32(state[0] as i32, state[1] as i32, state[2] as i32, state[3] as i32);
    let mut e0 = _mm_set_epi32(state[4] as i32, 0, 0, 0);

    for block in blocks.chunks_exact(64) {
        let quad = block.as_ptr().cast::<__m128i>();
        let abcd_in = abcd;
        let e_in = e0;

        // Rounds 0..=11: the schedule is the message itself; the
        // extension pipeline fills as the quads arrive.
        let mut m0 = _mm_shuffle_epi8(_mm_loadu_si128(quad), swap);
        e0 = _mm_add_epi32(e0, m0);
        let mut e1 = abcd;
        abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);

        let mut m1 = _mm_shuffle_epi8(_mm_loadu_si128(quad.add(1)), swap);
        e1 = _mm_sha1nexte_epu32(e1, m1);
        e0 = abcd;
        abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
        m0 = _mm_sha1msg1_epu32(m0, m1);

        let mut m2 = _mm_shuffle_epi8(_mm_loadu_si128(quad.add(2)), swap);
        e0 = _mm_sha1nexte_epu32(e0, m2);
        e1 = abcd;
        abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
        m1 = _mm_sha1msg1_epu32(m1, m2);
        m0 = _mm_xor_si128(m0, m2);

        let mut m3 = _mm_shuffle_epi8(_mm_loadu_si128(quad.add(3)), swap);

        // Rounds 12..=67, the message quads rotating through four names.
        rounds4!(abcd, e1, e0, 0, m3, m0, m1, m2);
        rounds4!(abcd, e0, e1, 0, m0, m1, m2, m3);
        rounds4!(abcd, e1, e0, 1, m1, m2, m3, m0);
        rounds4!(abcd, e0, e1, 1, m2, m3, m0, m1);
        rounds4!(abcd, e1, e0, 1, m3, m0, m1, m2);
        rounds4!(abcd, e0, e1, 1, m0, m1, m2, m3);
        rounds4!(abcd, e1, e0, 1, m1, m2, m3, m0);
        rounds4!(abcd, e0, e1, 2, m2, m3, m0, m1);
        rounds4!(abcd, e1, e0, 2, m3, m0, m1, m2);
        rounds4!(abcd, e0, e1, 2, m0, m1, m2, m3);
        rounds4!(abcd, e1, e0, 2, m1, m2, m3, m0);
        rounds4!(abcd, e0, e1, 2, m2, m3, m0, m1);
        rounds4!(abcd, e1, e0, 3, m3, m0, m1, m2);
        rounds4!(abcd, e0, e1, 3, m0, m1, m2, m3);

        // Rounds 68..=79: the pipeline drains.
        e1 = _mm_sha1nexte_epu32(e1, m1);
        e0 = abcd;
        m2 = _mm_sha1msg2_epu32(m2, m1);
        abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
        m3 = _mm_xor_si128(m3, m1);

        e0 = _mm_sha1nexte_epu32(e0, m2);
        e1 = abcd;
        m3 = _mm_sha1msg2_epu32(m3, m2);
        abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);

        e1 = _mm_sha1nexte_epu32(e1, m3);
        e0 = abcd;
        abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);

        // Fold the block's input state back in.
        e0 = _mm_sha1nexte_epu32(e0, e_in);
        abcd = _mm_add_epi32(abcd, abcd_in);
    }

    state[0] = _mm_extract_epi32(abcd, 3) as u32;
    state[1] = _mm_extract_epi32(abcd, 2) as u32;
    state[2] = _mm_extract_epi32(abcd, 1) as u32;
    state[3] = _mm_extract_epi32(abcd, 0) as u32;
    state[4] = _mm_extract_epi32(e0, 3) as u32;
}
