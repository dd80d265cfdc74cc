//! Table-driven rolling Rabin fingerprint over a sliding byte window.

use std::sync::Arc;

use crate::poly::{self, is_irreducible};

/// The default fingerprint modulus: the degree-53 irreducible polynomial
/// used by LBFS. Irreducibility is re-verified at table build time.
pub const DEFAULT_POLY: u64 = 0x003D_A335_8B4D_C173;

/// Precomputed lookup tables for a (polynomial, window) pair.
///
/// * `push[h]` folds the 8 bits that overflow the modulus degree back into
///   the fingerprint when a byte is appended.
/// * `pop[b]` is the contribution `b · x^(8·(window−1)) mod P` of the byte
///   leaving the window, xored out when the window slides.
///
/// Tables are built once per parameter set and shared via [`Arc`]; all
/// chunkers for one experiment configuration reuse them.
#[derive(Debug)]
pub struct RabinTables {
    poly: u64,
    window: usize,
    shift: u32,
    lo_mask: u64,
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
        let lo_mask = (1u64 << shift) - 1;

        // push[h] = h * x^deg mod P for each 8-bit h.
        let mut push = [0u64; 256];
        let x_deg = poly::pmod(1u128 << deg, poly);
        for (h, entry) in push.iter_mut().enumerate() {
            *entry = poly::mulmod(h as u64, x_deg, poly);
        }

        // pop[b] = b * x^(8*(window-1)) mod P.
        // Compute x^(8*(window-1)) by repeated multiplication by x^8.
        let x8 = poly::pmod(1u128 << 8, poly);
        let mut x_out = 1u64; // x^0
        for _ in 0..window.saturating_sub(1) {
            x_out = poly::mulmod(x_out, x8, poly);
        }
        let mut pop = [0u64; 256];
        for (b, entry) in pop.iter_mut().enumerate() {
            *entry = poly::mulmod(b as u64, x_out, poly);
        }

        Arc::new(RabinTables { poly, window, shift, lo_mask, push, pop })
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
        (((fp & self.lo_mask) << 8) | byte as u64) ^ self.push[hi]
    }

    /// Slides a full window forward one byte: `out` leaves, `byte` enters.
    #[inline]
    pub(crate) fn slide(&self, fp: u64, out: u8, byte: u8) -> u64 {
        self.push(fp ^ self.pop[out as usize], byte)
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
