//! Table-driven rolling Rabin fingerprint over a sliding byte window.

use std::sync::Arc;

use crate::poly::{self, is_irreducible};

/// The default fingerprint modulus: the degree-53 irreducible polynomial
/// used by LBFS. Irreducibility is re-verified at table build time.
pub const DEFAULT_POLY: u64 = 0x003D_A335_8B4D_C173;

/// Positions one lane of [`RabinTables::candidates`] covers per block: four
/// 64 KiB streams are a block the L2 cache holds while bounding what one
/// block can add to the candidate buffer.
pub(crate) const LANE_SEGMENT: usize = 64 * 1024;

/// Below this many positions per lane the four `window`-byte warm-ups cost
/// more than overlapping the chains saves; the single-lane scan takes over.
pub(crate) const MIN_LANE_SEGMENT: usize = 256;

/// Precomputed lookup tables for a (polynomial, window) pair.
///
/// * `push[h]` folds the 8 bits `h` that overflow the modulus degree back
///   into the fingerprint when a byte is appended: `h · x^deg mod P`, with
///   `h` itself kept at bit `deg` so that the same xor clears the overflow
///   and the append needs no mask.
/// * `pop[b]` is `b · x^(8·window) mod P`: what the byte leaving the window
///   contributes *after* the slide's multiplication by `x^8`. Reduction mod
///   `P` is GF(2)-linear, so it is xored out of the already-pushed
///   fingerprint and the table load never waits for the previous one.
///
/// Tables are built once per parameter set and shared via [`Arc`]; all
/// chunkers for one experiment configuration reuse them.
#[derive(Debug)]
pub struct RabinTables {
    poly: u64,
    window: usize,
    shift: u32,
    push: [u64; 256],
    pop: [u64; 256],
}

impl RabinTables {
    /// Builds tables for `poly` (must be irreducible, degree 9..=63) and a
    /// sliding window of `window` bytes (must be ≥ 1).
    ///
    /// # Panics
    /// Panics if `poly` is reducible or has unusable degree, or if
    /// `window == 0`. These are programmer errors in fixed configuration.
    pub fn new(poly: u64, window: usize) -> Arc<Self> {
        let deg = poly::degree(poly as u128).expect("polynomial must be nonzero");
        assert!((9..=63).contains(&deg), "polynomial degree {deg} outside 9..=63");
        assert!(is_irreducible(poly), "fingerprint polynomial must be irreducible");
        assert!(window >= 1, "window must be at least one byte");

        let shift = deg - 8;

        // push[h] = (h * x^deg mod P) ^ (h << deg) for each 8-bit h; the
        // shift drops what a 64-bit `fp << 8` drops too.
        let mut push = [0u64; 256];
        let x_deg = poly::pmod(1u128 << deg, poly);
        for (h, entry) in push.iter_mut().enumerate() {
            *entry = poly::mulmod(h as u64, x_deg, poly) ^ ((h as u64) << deg);
        }

        // pop[b] = b * x^(8*window) mod P.
        // Compute x^(8*window) by repeated multiplication by x^8.
        let x8 = poly::pmod(1u128 << 8, poly);
        let mut x_out = 1u64; // x^0
        for _ in 0..window {
            x_out = poly::mulmod(x_out, x8, poly);
        }
        let mut pop = [0u64; 256];
        for (b, entry) in pop.iter_mut().enumerate() {
            *entry = poly::mulmod(b as u64, x_out, poly);
        }

        Arc::new(RabinTables { poly, window, shift, push, pop })
    }

    /// Tables for [`DEFAULT_POLY`] and the given window.
    pub fn default_with_window(window: usize) -> Arc<Self> {
        Self::new(DEFAULT_POLY, window)
    }

    /// The fingerprint modulus.
    pub fn poly(&self) -> u64 {
        self.poly
    }

    /// The sliding-window size in bytes.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Appends `byte` to a window that is not yet full:
    /// `fp = (fp · x^8 + byte) mod P`.
    #[inline]
    pub(crate) fn push(&self, fp: u64, byte: u8) -> u64 {
        let hi = (fp >> self.shift) as usize;
        ((fp << 8) | byte as u64) ^ self.push[hi]
    }

    /// Slides a full window forward one byte: `out` leaves, `byte` enters.
    #[inline]
    pub(crate) fn slide(&self, fp: u64, out: u8, byte: u8) -> u64 {
        self.push(fp, byte) ^ self.pop[out as usize]
    }

    /// Scans `data[first_test..end]` with a full window: the fingerprint
    /// is warmed over the `window` bytes before `first_test` (the caller
    /// guarantees `first_test >= window`), then slid one byte at a time
    /// with the outgoing byte read straight from `data` — no ring buffer.
    /// `visit(pos, fp)` sees every testable position `first_test..=end`
    /// in order with the fingerprint of `data[pos - window..pos]`, and
    /// stops the scan by returning `true`; the stopping position is
    /// returned.
    #[inline]
    pub(crate) fn scan(
        &self,
        data: &[u8],
        first_test: usize,
        end: usize,
        mut visit: impl FnMut(usize, u64) -> bool,
    ) -> Option<usize> {
        let warm = &data[first_test - self.window..first_test];
        let mut fp = warm.iter().fold(0u64, |fp, &b| self.push(fp, b));
        if visit(first_test, fp) {
            return Some(first_test);
        }
        let outgoing = &data[first_test - self.window..end - self.window];
        for (i, (&byte, &out)) in data[first_test..end].iter().zip(outgoing).enumerate() {
            fp = self.slide(fp, out, byte);
            if visit(first_test + i + 1, fp) {
                return Some(first_test + i + 1);
            }
        }
        None
    }

    /// Fills `out` with every position of the next block of `data` whose
    /// full-window fingerprint satisfies `fp & mask == magic`, ascending.
    /// The block starts at position `from` (the caller guarantees
    /// `window <= from < data.len()`) and the first position after it is
    /// returned: `data.len()` when the scan is complete, since the end of
    /// the data is a cut whatever its fingerprint.
    ///
    /// A slide is a dependent table load per byte, so one fingerprint
    /// chain leaves the core idle most of each step. A fingerprint depends
    /// only on its window, so four chains run over four adjacent segments
    /// at once, each warmed over the `window` bytes before its segment;
    /// which candidates become cut points (min/max) is the caller's serial
    /// pass. The loop's shape is measured, not incidental (EXPERIMENTS.md,
    /// "Rabin scan in four lanes"): four named fingerprints over zipped
    /// iterators and one branch per step; lane arrays indexed by an inner
    /// loop cost ≈ 15 %, and a bounds check per load or a call per step
    /// gives nearly all of the overlap back.
    pub(crate) fn candidates(
        &self,
        data: &[u8],
        from: usize,
        mask: u64,
        magic: u64,
        out: &mut Vec<usize>,
    ) -> usize {
        out.clear();
        let seg = LANE_SEGMENT.min((data.len() - from) / 4);
        if seg < MIN_LANE_SEGMENT {
            self.scan(data, from, data.len() - 1, |pos, fp| {
                if fp & mask == magic {
                    out.push(pos);
                }
                false
            });
            return data.len();
        }

        // Lane k tests the `seg` positions from `from + k * seg`: the warm
        // fingerprint, then one per incoming byte.
        let steps = seg - 1;
        let lane = |k: usize| {
            let first = from + k * seg;
            let warm = &data[first - self.window..first];
            let outgoing = &data[first - self.window..first + steps - self.window];
            let fp = warm.iter().fold(0u64, |fp, &b| self.push(fp, b));
            (fp, data[first..first + steps].iter().zip(outgoing))
        };
        let (mut fp0, lane0) = lane(0);
        let (mut fp1, lane1) = lane(1);
        let (mut fp2, lane2) = lane(2);
        let (mut fp3, lane3) = lane(3);

        // Lane 0 finds its candidates in order; the others' follow it.
        let (mut late1, mut late2, mut late3) = (Vec::new(), Vec::new(), Vec::new());
        let hit = |fp: u64| fp & mask == magic;
        let mut record = |pos: usize, fps: [u64; 4]| {
            let lanes = [&mut *out, &mut late1, &mut late2, &mut late3];
            for (k, (found, fp)) in lanes.into_iter().zip(fps).enumerate() {
                if hit(fp) {
                    found.push(pos + k * seg);
                }
            }
        };
        // One branch per step, taken once per `avg / 4` steps.
        if hit(fp0) | hit(fp1) | hit(fp2) | hit(fp3) {
            record(from, [fp0, fp1, fp2, fp3]);
        }
        for (i, (((l0, l1), l2), l3)) in lane0.zip(lane1).zip(lane2).zip(lane3).enumerate() {
            fp0 = self.slide(fp0, *l0.1, *l0.0);
            fp1 = self.slide(fp1, *l1.1, *l1.0);
            fp2 = self.slide(fp2, *l2.1, *l2.0);
            fp3 = self.slide(fp3, *l3.1, *l3.0);
            if hit(fp0) | hit(fp1) | hit(fp2) | hit(fp3) {
                record(from + i + 1, [fp0, fp1, fp2, fp3]);
            }
        }
        out.extend(late1);
        out.extend(late2);
        out.extend(late3);
        from + 4 * seg
    }
}

/// A rolling fingerprint over the trailing `window` bytes of a stream.
///
/// ```
/// use mhd_chunking::{RabinFingerprint, RabinTables};
/// let tables = RabinTables::default_with_window(16);
/// let mut fp = RabinFingerprint::new(tables);
/// for b in b"hello world, hello world" {
///     fp.roll(*b);
/// }
/// let _ = fp.value();
/// ```
#[derive(Clone)]
pub struct RabinFingerprint {
    tables: Arc<RabinTables>,
    fp: u64,
    /// Ring buffer of the last `window` bytes.
    ring: Vec<u8>,
    pos: usize,
    filled: bool,
}

impl RabinFingerprint {
    /// Creates an empty fingerprint state.
    pub fn new(tables: Arc<RabinTables>) -> Self {
        let window = tables.window();
        RabinFingerprint { tables, fp: 0, ring: vec![0u8; window], pos: 0, filled: false }
    }

    /// Current fingerprint value (of the trailing window).
    #[inline]
    pub fn value(&self) -> u64 {
        self.fp
    }

    /// Slides the window forward by one byte.
    #[inline]
    pub fn roll(&mut self, byte: u8) {
        // The byte at the ring cursor is the one falling out of a full
        // window.
        self.fp = if self.filled {
            self.tables.slide(self.fp, self.ring[self.pos], byte)
        } else {
            self.tables.push(self.fp, byte)
        };
        self.ring[self.pos] = byte;
        self.pos += 1;
        if self.pos == self.ring.len() {
            self.pos = 0;
            self.filled = true;
        }
    }

    /// Resets to the empty-window state (reusing the allocation).
    pub fn reset(&mut self) {
        self.fp = 0;
        self.pos = 0;
        self.filled = false;
        self.ring.fill(0);
    }

    /// True once at least `window` bytes have been rolled in.
    pub fn warmed_up(&self) -> bool {
        self.filled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::direct_fingerprint;
    use mhd_workload::Rng;
    use proptest::prelude::*;

    fn tables(window: usize) -> Arc<RabinTables> {
        RabinTables::default_with_window(window)
    }

    #[test]
    fn rolling_matches_direct_after_warmup() {
        let w = 8;
        let t = tables(w);
        let data: Vec<u8> = (0u32..200).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        let mut fp = RabinFingerprint::new(t.clone());
        for (i, &b) in data.iter().enumerate() {
            fp.roll(b);
            if i + 1 >= w {
                let window = &data[i + 1 - w..=i];
                assert_eq!(fp.value(), direct_fingerprint(window, t.poly()), "at pos {i}");
            }
        }
    }

    #[test]
    fn rolling_matches_direct_at_the_extreme_degrees() {
        // x^9 + x^4 + 1 and x^63 + x + 1: the narrowest modulus the tables
        // accept, and the widest, where `fp << 8` overflows the word.
        for poly in [0x211u64, 0x8000_0000_0000_0003] {
            let w = 5;
            let t = RabinTables::new(poly, w);
            let data: Vec<u8> =
                (0u32..300).map(|i| (i.wrapping_mul(2654435761) >> 11) as u8).collect();
            let mut fp = RabinFingerprint::new(t);
            for (i, &b) in data.iter().enumerate() {
                fp.roll(b);
                if i + 1 >= w {
                    assert_eq!(
                        fp.value(),
                        direct_fingerprint(&data[i + 1 - w..=i], poly),
                        "at {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn fingerprint_depends_only_on_window() {
        let w = 16;
        let t = tables(w);
        let tail = b"the same sixteen!"; // 17 bytes; last 16 form the window
        let mut a = RabinFingerprint::new(t.clone());
        for b in [vec![1u8; 100], tail.to_vec()].concat() {
            a.roll(b);
        }
        let mut b_fp = RabinFingerprint::new(t);
        for b in [vec![250u8; 37], tail.to_vec()].concat() {
            b_fp.roll(b);
        }
        assert_eq!(a.value(), b_fp.value());
    }

    #[test]
    fn reset_restores_initial_state() {
        let t = tables(4);
        let mut fp = RabinFingerprint::new(t.clone());
        for b in b"some data to roll" {
            fp.roll(*b);
        }
        fp.reset();
        assert_eq!(fp.value(), 0);
        assert!(!fp.warmed_up());
        let mut fresh = RabinFingerprint::new(t);
        for b in b"xyz" {
            fp.roll(*b);
            fresh.roll(*b);
        }
        assert_eq!(fp.value(), fresh.value());
    }

    #[test]
    fn warmed_up_transitions_at_window() {
        let mut fp = RabinFingerprint::new(tables(5));
        for i in 0..5 {
            assert!(!fp.warmed_up(), "before byte {i}");
            fp.roll(i);
        }
        assert!(fp.warmed_up());
    }

    /// Drives [`RabinTables::candidates`] block by block from `from` to the
    /// end of `data`, checking what every block promises: it advances, by
    /// at most four lane segments, and buffers only positions inside
    /// itself — so never more than one block's worth.
    fn candidates_by_block(
        t: &RabinTables,
        data: &[u8],
        from: usize,
        mask: u64,
        magic: u64,
    ) -> Vec<usize> {
        let (mut all, mut block, mut at) = (Vec::new(), Vec::new(), from);
        while at < data.len() {
            let next = t.candidates(data, at, mask, magic, &mut block);
            assert!(at < next && next <= data.len() && next - at <= 4 * LANE_SEGMENT);
            assert!(block.iter().all(|c| (at..next).contains(c)), "candidate outside {at}..{next}");
            assert!(block.windows(2).all(|w| w[0] < w[1]), "block {at}..{next} out of order");
            all.extend_from_slice(&block);
            at = next;
        }
        all
    }

    #[test]
    fn candidates_match_the_ring_fingerprint_across_every_seam() {
        // Two full blocks and a tail that still runs in lanes; the shorter
        // lengths below are prefixes of it.
        let longest = 8 * LANE_SEGMENT + 4 * MIN_LANE_SEGMENT + 2000;
        let mut data = vec![0u8; longest + 64];
        Rng::new(22).fill_bytes(&mut data);
        // (window, mask): from half of all positions matching to one in 4096.
        for (window, mask) in [(1usize, 1u64), (2, 7), (16, 63), (48, 511), (48, 4095)] {
            let t = tables(window);
            let magic = 0x9E37_79B9_7F4A_7C15 & mask;
            let mut ring = RabinFingerprint::new(t.clone());
            let mut expect = Vec::new();
            for (i, &b) in data.iter().enumerate() {
                ring.roll(b);
                if i + 1 >= window && ring.value() & mask == magic {
                    expect.push(i + 1);
                }
            }
            for from in [window, window + 5] {
                let lane_floor = 4 * MIN_LANE_SEGMENT;
                let block = 4 * LANE_SEGMENT;
                for positions in [
                    1,
                    lane_floor - 1,
                    lane_floor,
                    lane_floor + 1,
                    block - 1,
                    block,
                    block + 1,
                    2 * block + lane_floor - 1,
                    longest,
                ] {
                    let len = from + positions;
                    let found = candidates_by_block(&t, &data[..len], from, mask, magic);
                    let expect: Vec<usize> =
                        expect.iter().copied().filter(|c| (from..len).contains(c)).collect();
                    assert_eq!(found, expect, "window {window} mask {mask} from {from} len {len}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "irreducible")]
    fn reducible_poly_rejected() {
        // x^53 alone is x^53, reducible.
        let _ = RabinTables::new(1u64 << 53, 8);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = RabinTables::new(DEFAULT_POLY, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Rolling fingerprint equals the direct polynomial reduction of the
        /// trailing window, for random data and window sizes.
        #[test]
        fn prop_rolling_equals_direct(
            data in proptest::collection::vec(any::<u8>(), 1..300),
            window in 1usize..32,
        ) {
            let t = RabinTables::default_with_window(window);
            let mut fp = RabinFingerprint::new(t.clone());
            for (i, &b) in data.iter().enumerate() {
                fp.roll(b);
                if i + 1 >= window {
                    let win = &data[i + 1 - window..=i];
                    prop_assert_eq!(fp.value(), direct_fingerprint(win, t.poly()));
                }
            }
        }

        /// The same window contents yield the same fingerprint regardless of
        /// what preceded them (the content-defined property).
        #[test]
        fn prop_history_independence(
            prefix_a in proptest::collection::vec(any::<u8>(), 0..64),
            prefix_b in proptest::collection::vec(any::<u8>(), 0..64),
            window_bytes in proptest::collection::vec(any::<u8>(), 8..40),
        ) {
            let w = 8usize;
            let t = RabinTables::default_with_window(w);
            let mut a = RabinFingerprint::new(t.clone());
            for &b in prefix_a.iter().chain(&window_bytes) { a.roll(b); }
            let mut b_fp = RabinFingerprint::new(t);
            for &b in prefix_b.iter().chain(&window_bytes) { b_fp.roll(b); }
            prop_assert_eq!(a.value(), b_fp.value());
        }
    }
}
