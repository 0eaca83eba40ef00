//! Galois field GF(2^m) arithmetic.
//!
//! Binary BCH codes work over GF(2^m): codeword positions are indexed by
//! powers of a primitive element α, and decoding solves small polynomial
//! systems over the field. This module provides log/antilog-table
//! arithmetic for 3 ≤ m ≤ 14, which covers codewords from 7 bits to
//! 16383 bits — more than enough for flash page chunks.

/// Primitive polynomials for GF(2^m), m = 3..=14, in bitmask form
/// (bit i = coefficient of x^i). Standard tables (e.g. Lin & Costello).
const PRIMITIVE_POLYS: [(u32, u32); 12] = [
    (3, 0b1011),             // x^3 + x + 1
    (4, 0b10011),            // x^4 + x + 1
    (5, 0b100101),           // x^5 + x^2 + 1
    (6, 0b1000011),          // x^6 + x + 1
    (7, 0b10001001),         // x^7 + x^3 + 1
    (8, 0b100011101),        // x^8 + x^4 + x^3 + x^2 + 1
    (9, 0b1000010001),       // x^9 + x^4 + 1
    (10, 0b10000001001),     // x^10 + x^3 + 1
    (11, 0b100000000101),    // x^11 + x^2 + 1
    (12, 0b1000001010011),   // x^12 + x^6 + x^4 + x + 1
    (13, 0b10000000011011),  // x^13 + x^4 + x^3 + x + 1
    (14, 0b100010000000011), // x^14 + x^10 + x + 1
];

/// GF(2^m) with precomputed log/antilog tables.
#[derive(Debug, Clone)]
pub struct GaloisField {
    /// Field extension degree.
    pub m: u32,
    /// Field size minus one (`2^m - 1`), the multiplicative group order.
    pub n: u32,
    /// `antilog[i] = α^i` for `i` in `0..n` (doubled to avoid mod in mul).
    antilog: Vec<u32>,
    /// `log[x]` such that `α^log[x] = x`, for `x` in `1..=n`.
    log: Vec<u32>,
}

impl GaloisField {
    /// Constructs GF(2^m).
    ///
    /// # Panics
    ///
    /// Panics if `m` is outside `3..=14`.
    // sos-lint: allow(panic-path, "log/antilog tables are allocated to the field order before the generator walk fills them")
    pub fn new(m: u32) -> Self {
        let poly = PRIMITIVE_POLYS
            .iter()
            .find(|&&(deg, _)| deg == m)
            .unwrap_or_else(|| panic!("unsupported field degree m={m} (need 3..=14)"))
            .1;
        let n = (1u32 << m) - 1;
        let mut antilog = vec![0u32; 2 * n as usize];
        let mut log = vec![0u32; (n + 1) as usize];
        let mut x = 1u32;
        for i in 0..n {
            antilog[i as usize] = x;
            log[x as usize] = i;
            x <<= 1;
            if x & (1 << m) != 0 {
                x ^= poly;
            }
        }
        // Duplicate the table so products of logs index without reduction.
        for i in n..2 * n {
            antilog[i as usize] = antilog[(i - n) as usize];
        }
        GaloisField { m, n, antilog, log }
    }

    /// α raised to the power `e` (any non-negative exponent).
    #[inline]
    // sos-lint: allow(panic-path, "the exponent is reduced modulo the multiplicative group order before the table lookup")
    pub fn alpha_pow(&self, e: u32) -> u32 {
        self.antilog[(e % self.n) as usize]
    }

    /// Discrete log of `x`, or `None` for zero (which has no logarithm).
    #[inline]
    // sos-lint: allow(panic-path, "the zero case is screened before the lookup and the log table covers the full field domain")
    pub fn checked_log(&self, x: u32) -> Option<u32> {
        (x != 0).then(|| self.log[x as usize])
    }

    /// Field addition (XOR).
    #[inline]
    pub fn add(&self, a: u32, b: u32) -> u32 {
        a ^ b
    }

    /// Field multiplication.
    #[inline]
    // sos-lint: allow(panic-path, "log tables cover the full field domain and the summed logs are reduced modulo the group order")
    pub fn mul(&self, a: u32, b: u32) -> u32 {
        if a == 0 || b == 0 {
            0
        } else {
            self.antilog[(self.log[a as usize] + self.log[b as usize]) as usize]
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `a` is zero.
    #[inline]
    // sos-lint: allow(panic-path, "documented nonzero contract; log tables cover the full field domain")
    pub fn inv(&self, a: u32) -> u32 {
        assert!(a != 0, "inverse of zero");
        self.antilog[(self.n - self.log[a as usize]) as usize]
    }

    /// Field division `a / b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is zero.
    #[inline]
    pub fn div(&self, a: u32, b: u32) -> u32 {
        if a == 0 {
            0
        } else {
            self.mul(a, self.inv(b))
        }
    }

    /// `a` squared.
    #[inline]
    pub fn square(&self, a: u32) -> u32 {
        self.mul(a, a)
    }

    /// Evaluates a polynomial (coefficients low-to-high over the field)
    /// at point `x`, by Horner's rule.
    pub fn poly_eval(&self, coeffs: &[u32], x: u32) -> u32 {
        let mut acc = 0u32;
        for &c in coeffs.iter().rev() {
            acc = self.add(self.mul(acc, x), c);
        }
        acc
    }

    /// The cyclotomic coset of `s` modulo `n`: `{s, 2s, 4s, ...}`.
    // sos-lint: allow(panic-path, "coset members are field elements below the table length by construction")
    pub fn cyclotomic_coset(&self, s: u32) -> Vec<u32> {
        let mut coset = vec![s % self.n];
        let mut next = (s * 2) % self.n;
        while next != coset[0] {
            coset.push(next);
            next = (next * 2) % self.n;
        }
        coset
    }

    /// Minimal polynomial of `α^s` over GF(2), as a bitmask
    /// (bit i = coefficient of x^i).
    ///
    /// Computed as `Π (x - α^c)` over the cyclotomic coset of `s`; the
    /// product has all coefficients in GF(2) by construction.
    // sos-lint: allow(panic-path, "coefficient vectors are allocated to the coset degree before the product loop")
    pub fn minimal_polynomial(&self, s: u32) -> u64 {
        let coset = self.cyclotomic_coset(s);
        // Polynomial over GF(2^m), coefficients low-to-high. Start at 1.
        let mut poly: Vec<u32> = vec![1];
        for &c in &coset {
            let root = self.alpha_pow(c);
            // poly *= (x + root)
            let mut next = vec![0u32; poly.len() + 1];
            for (i, &p) in poly.iter().enumerate() {
                next[i + 1] ^= p; // x * p_i
                next[i] ^= self.mul(p, root);
            }
            poly = next;
        }
        let mut mask = 0u64;
        for (i, &c) in poly.iter().enumerate() {
            debug_assert!(c <= 1, "minimal polynomial coefficient not binary");
            if c == 1 {
                mask |= 1 << i;
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_sizes() {
        for m in 3..=14 {
            let gf = GaloisField::new(m);
            assert_eq!(gf.n, (1 << m) - 1);
        }
    }

    #[test]
    fn multiplicative_group_cycles() {
        let gf = GaloisField::new(8);
        // α^n = 1.
        assert_eq!(gf.alpha_pow(gf.n), 1);
        assert_eq!(gf.alpha_pow(0), 1);
        // All powers 0..n are distinct (primitivity).
        let mut seen = std::collections::HashSet::new();
        for i in 0..gf.n {
            assert!(seen.insert(gf.alpha_pow(i)), "repeated power at {i}");
        }
    }

    #[test]
    fn mul_and_inv_are_consistent() {
        let gf = GaloisField::new(6);
        for a in 1..=gf.n {
            let ai = gf.inv(a);
            assert_eq!(gf.mul(a, ai), 1, "a={a}");
        }
    }

    #[test]
    fn mul_matches_log_identity() {
        let gf = GaloisField::new(5);
        for a in 0..=gf.n {
            for b in 0..=gf.n {
                let p = gf.mul(a, b);
                match (gf.checked_log(a), gf.checked_log(b)) {
                    (Some(la), Some(lb)) => assert_eq!(gf.checked_log(p), Some((la + lb) % gf.n)),
                    _ => assert_eq!((p, gf.checked_log(p)), (0, None)),
                }
            }
        }
    }

    #[test]
    fn div_inverts_mul() {
        let gf = GaloisField::new(7);
        for a in 0..=gf.n {
            for b in 1..=gf.n.min(40) {
                assert_eq!(gf.div(gf.mul(a, b), b), a);
            }
        }
    }

    #[test]
    fn poly_eval_horner() {
        let gf = GaloisField::new(4);
        // p(x) = 1 + x over GF(16): p(α) = 1 ^ α.
        let a = gf.alpha_pow(1);
        assert_eq!(gf.poly_eval(&[1, 1], a), 1 ^ a);
        // Constant polynomial.
        assert_eq!(gf.poly_eval(&[7], 9), 7);
        // Empty polynomial is zero.
        assert_eq!(gf.poly_eval(&[], 3), 0);
    }

    #[test]
    fn cyclotomic_cosets_partition() {
        let gf = GaloisField::new(4);
        let c1 = gf.cyclotomic_coset(1);
        assert_eq!(c1, vec![1, 2, 4, 8]);
        let c3 = gf.cyclotomic_coset(3);
        assert_eq!(c3, vec![3, 6, 12, 9]);
        let c5 = gf.cyclotomic_coset(5);
        assert_eq!(c5, vec![5, 10]);
    }

    #[test]
    fn minimal_polynomial_of_alpha_is_the_primitive_poly() {
        // For GF(16) with x^4 + x + 1, the minimal polynomial of α is
        // exactly the primitive polynomial.
        let gf = GaloisField::new(4);
        assert_eq!(gf.minimal_polynomial(1), 0b10011);
    }

    #[test]
    fn minimal_polynomial_annihilates_coset() {
        let gf = GaloisField::new(8);
        for s in [1u32, 3, 5, 7] {
            let mask = gf.minimal_polynomial(s);
            let coeffs: Vec<u32> = (0..64)
                .map(|i| ((mask >> i) & 1) as u32)
                .take_while(|_| true)
                .collect();
            for &c in &gf.cyclotomic_coset(s) {
                let root = gf.alpha_pow(c);
                assert_eq!(gf.poly_eval(&coeffs, root), 0, "s={s} c={c}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsupported field degree")]
    fn bad_degree_panics() {
        let _ = GaloisField::new(2);
    }
}
