//! Carry-less polynomial arithmetic over GF(2).
//!
//! Rabin fingerprinting \[19\] treats a byte string as a polynomial over
//! GF(2) and reduces it modulo a fixed irreducible polynomial `P`. The
//! fingerprint tables in [`crate::RabinTables`] are derived from `P` using
//! the primitives in this module, and `P` itself is validated with Rabin's
//! irreducibility criterion at table-construction time, so a bad modulus is
//! caught immediately rather than silently degrading cut-point quality.
//!
//! Polynomials of degree ≤ 63 are represented as `u64` with bit *i* holding
//! the coefficient of *x^i*. Intermediate products use `u128`.

/// Degree of a polynomial (`None` for the zero polynomial).
pub fn degree(p: u128) -> Option<u32> {
    if p == 0 {
        None
    } else {
        Some(127 - p.leading_zeros())
    }
}

/// Carry-less multiplication of two GF(2) polynomials of degree ≤ 63.
pub fn clmul(a: u64, b: u64) -> u128 {
    let mut acc: u128 = 0;
    let mut a = a as u128;
    let mut b = b;
    while b != 0 {
        if b & 1 == 1 {
            acc ^= a;
        }
        a <<= 1;
        b >>= 1;
    }
    acc
}

/// Remainder of `a` modulo `m` (GF(2) polynomial division).
///
/// `m` must be nonzero.
pub fn pmod(mut a: u128, m: u64) -> u64 {
    let md = degree(m as u128).expect("modulus must be nonzero");
    while let Some(ad) = degree(a) {
        if ad < md {
            break;
        }
        a ^= (m as u128) << (ad - md);
    }
    a as u64
}

/// `(a * b) mod m` over GF(2), for `a`, `b` already reduced mod `m`.
pub fn mulmod(a: u64, b: u64, m: u64) -> u64 {
    pmod(clmul(a, b), m)
}

/// `x^(2^k) mod m`, by repeated squaring.
fn x_pow_pow2_mod(k: u32, m: u64) -> u64 {
    let mut r = pmod(0b10, m); // x mod m
    for _ in 0..k {
        r = mulmod(r, r, m);
    }
    r
}

/// GCD of two GF(2) polynomials.
pub fn pgcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let r = pmod(a as u128, b);
        a = b;
        b = r;
    }
    a
}

/// Rabin's irreducibility test for a GF(2) polynomial of degree `d`.
///
/// `P` is irreducible iff `x^(2^d) ≡ x (mod P)` and, for every prime
/// divisor `q` of `d`, `gcd(x^(2^(d/q)) − x, P) = 1`.
pub fn is_irreducible(p: u64) -> bool {
    let Some(d) = degree(p as u128) else { return false };
    if d == 0 {
        return false;
    }
    // x^(2^d) ≡ x (mod p)?
    let x = pmod(0b10, p);
    if x_pow_pow2_mod(d, p) != x {
        return false;
    }
    for q in prime_divisors(d) {
        let t = x_pow_pow2_mod(d / q, p) ^ x; // x^(2^(d/q)) − x (== xor over GF(2))
        if pgcd(t, p) != 1 {
            return false;
        }
    }
    true
}

/// The distinct prime divisors of `n`.
fn prime_divisors(mut n: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            out.push(d);
            while n.is_multiple_of(d) {
                n /= d;
            }
        }
        d += 1;
    }
    if n > 1 {
        out.push(n);
    }
    out
}

/// Direct (non-rolling) Rabin fingerprint of `bytes` modulo `p`:
/// the byte string interpreted MSB-first as a GF(2) polynomial, reduced.
///
/// Used as the reference implementation in tests of the rolling variant.
pub fn direct_fingerprint(bytes: &[u8], p: u64) -> u64 {
    let mut fp: u64 = 0;
    for &b in bytes {
        // fp = (fp * x^8 + b) mod p, the slow schoolbook way.
        let widened = ((fp as u128) << 8) | b as u128;
        fp = pmod(widened, p);
    }
    fp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_basics() {
        assert_eq!(degree(0), None);
        assert_eq!(degree(1), Some(0));
        assert_eq!(degree(0b10), Some(1));
        assert_eq!(degree(1 << 53), Some(53));
    }

    #[test]
    fn clmul_small_cases() {
        // (x + 1)(x + 1) = x^2 + 1 over GF(2)
        assert_eq!(clmul(0b11, 0b11), 0b101);
        // x * (x^2 + x) = x^3 + x^2
        assert_eq!(clmul(0b10, 0b110), 0b1100);
        assert_eq!(clmul(0, 0b1111), 0);
    }

    #[test]
    fn pmod_reduces_below_modulus_degree() {
        let m = 0b1011; // x^3 + x + 1 (irreducible)
        for a in 0u64..64 {
            let r = pmod(a as u128, m);
            assert!(degree(r as u128).is_none_or(|d| d < 3));
        }
    }

    #[test]
    fn mulmod_field_identities() {
        let m = 0b1011; // GF(8)
        for a in 1u64..8 {
            assert_eq!(mulmod(a, 1, m), a);
            // Every nonzero element has order dividing 7 in GF(8)*.
            let mut acc = 1u64;
            for _ in 0..7 {
                acc = mulmod(acc, a, m);
            }
            assert_eq!(acc, 1, "a={a}");
        }
    }

    #[test]
    fn known_irreducibles() {
        // Classic small irreducible polynomials over GF(2).
        for &p in &[0b10u64, 0b11, 0b111, 0b1011, 0b1101, 0b10011, 0x11B /* AES poly, deg 8 */] {
            assert!(is_irreducible(p), "{p:#b} should be irreducible");
        }
    }

    #[test]
    fn known_reducibles() {
        // x^2 (= x*x), x^2+x (= x(x+1)), x^4+1 (= (x+1)^4), constants.
        for &p in &[0b100u64, 0b110, 0b10001, 0b1, 0b0] {
            assert!(!is_irreducible(p), "{p:#b} should be reducible");
        }
    }

    #[test]
    fn default_poly_is_irreducible() {
        assert!(is_irreducible(crate::DEFAULT_POLY));
        assert_eq!(degree(crate::DEFAULT_POLY as u128), Some(53));
    }

    #[test]
    fn gcd_of_coprime_is_one() {
        // x and x+1 are coprime.
        assert_eq!(pgcd(0b10, 0b11), 1);
        // x^2+x shares factor x with x.
        assert_eq!(pgcd(0b110, 0b10), 0b10);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        const M: u64 = crate::DEFAULT_POLY;

        proptest! {
            /// GF(2^53) multiplication is commutative and associative, and
            /// distributes over xor (field axioms the tables rely on).
            #[test]
            fn field_axioms(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
                let (a, b, c) = (pmod(a as u128, M), pmod(b as u128, M), pmod(c as u128, M));
                prop_assert_eq!(mulmod(a, b, M), mulmod(b, a, M));
                prop_assert_eq!(mulmod(mulmod(a, b, M), c, M), mulmod(a, mulmod(b, c, M), M));
                prop_assert_eq!(
                    mulmod(a, b ^ c, M),
                    mulmod(a, b, M) ^ mulmod(a, c, M)
                );
            }

            /// pmod is idempotent and bounded by the modulus degree.
            #[test]
            fn pmod_properties(a in any::<u128>()) {
                let r = pmod(a, M);
                prop_assert_eq!(pmod(r as u128, M), r);
                prop_assert!(degree(r as u128).is_none_or(|d| d < 53));
            }

            /// gcd divides both arguments (checked by re-reduction).
            #[test]
            fn gcd_divides(a in 1u64..u64::MAX, b in 1u64..u64::MAX) {
                let g = pgcd(a, b);
                prop_assert!(g != 0);
                // g | a and g | b  ⇔  a mod g == 0 and b mod g == 0.
                prop_assert_eq!(pmod(a as u128, g), 0);
                prop_assert_eq!(pmod(b as u128, g), 0);
            }
        }
    }

    #[test]
    fn direct_fingerprint_matches_manual() {
        let p = 0b1011u64; // degree 3
                           // One byte: fp = byte mod p.
        assert_eq!(direct_fingerprint(&[0b101], p), pmod(0b101, p));
        // Two bytes: fp = (b0 * x^8 + b1) mod p.
        let manual = pmod(((0b1u128) << 8) | 0b1, p);
        assert_eq!(direct_fingerprint(&[1, 1], p), manual);
    }
}
