//! Binary BCH codes: systematic encoder and Berlekamp–Massey decoder.
//!
//! BCH is the classic flash ECC family: a `t`-error-correcting code over
//! codewords of `n = 2^m - 1` bits. The SOS design stores SYS data with a
//! strong code and SPARE data with weak or no protection (§4.2); both
//! configurations are instances of [`BchCode`] with different `t`.
//!
//! Bit order convention: bit `i` of a byte slice is bit `i % 8` (LSB
//! first) of byte `i / 8`. Codeword position `p + i` holds data bit `i`,
//! positions `0..p` hold parity (`p = n - k` parity bits); codes are used
//! *shortened*, with unused high positions implicitly zero.
//!
//! The encoder is a bit-serial LFSR. There is one decode path,
//! [`BchCode::decode_pattern`], which takes a word as the list of its
//! set codeword positions: the syndromes `S_e = Σ α^(e·pos)` cost one
//! field multiply per (position, odd syndrome), even syndromes follow
//! from `S_{2i} = S_i^2` over GF(2), then Berlekamp–Massey and the
//! closed forms or Chien search locate the errors. The simulator decodes
//! error patterns of a few bits, so the cost tracks the error count, not
//! the codeword length. [`BchCode::decode`] lists a received word's set
//! bits and decodes them the same way.

use crate::gf::GaloisField;

/// Why a decode failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BchError {
    /// More errors than the code can correct (or an inconsistent
    /// syndrome): data is lost unless a higher-level copy exists.
    Uncorrectable,
    /// The data slice is too long for the code dimension.
    DataTooLong {
        /// Maximum data bits the code supports.
        max_bits: usize,
        /// Bits provided.
        got_bits: usize,
    },
    /// Parity slice has the wrong length.
    WrongParityLength {
        /// Expected parity bytes.
        expected: usize,
        /// Bytes provided.
        got: usize,
    },
}

impl std::fmt::Display for BchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BchError::Uncorrectable => write!(f, "uncorrectable codeword"),
            BchError::DataTooLong { max_bits, got_bits } => {
                write!(f, "data too long: {got_bits} bits > max {max_bits}")
            }
            BchError::WrongParityLength { expected, got } => {
                write!(
                    f,
                    "wrong parity length: expected {expected} bytes, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for BchError {}

#[inline]
// sos-lint: allow(panic-path, "every caller derives the bit index from the containing slice's own length")
fn get_bit(bytes: &[u8], i: usize) -> bool {
    bytes[i / 8] & (1 << (i % 8)) != 0
}

#[inline]
// sos-lint: allow(panic-path, "every caller derives the bit index from the containing slice's own length")
fn flip_bit(bytes: &mut [u8], i: usize) {
    bytes[i / 8] ^= 1 << (i % 8);
}

#[inline]
// sos-lint: allow(panic-path, "every caller derives the word index from the register's own length")
fn reg_get(reg: &[u64], i: usize) -> bool {
    reg[i / 64] & (1 << (i % 64)) != 0
}

#[inline]
// sos-lint: allow(panic-path, "every caller derives the word index from the register's own length")
fn reg_set(reg: &mut [u64], i: usize) {
    reg[i / 64] |= 1 << (i % 64);
}

/// A binary BCH code over GF(2^m) correcting up to `t` bit errors per
/// codeword.
#[derive(Debug, Clone)]
pub struct BchCode {
    gf: GaloisField,
    /// Designed correction capability (bit errors per codeword).
    t: usize,
    /// Codeword length `2^m - 1`.
    n: usize,
    /// Data dimension `n - deg(g)`.
    k: usize,
    /// Generator polynomial coefficients below `x^p` (the `x^p` term is
    /// implicit), packed as register words.
    g_low: Vec<u64>,
    /// Register width in words for `p` bits.
    words: usize,
    /// Solver table for `y^2 + y = u`: `qsolve[u]` is the smaller
    /// solution `y`, or `u32::MAX` when `u` has trace 1 (no solution).
    qsolve: Vec<u32>,
}

impl BchCode {
    /// Constructs a BCH code over GF(2^m) with designed distance `2t+1`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is outside `3..=14`, `t` is zero, or the requested
    /// `t` leaves no data bits (`deg(g) >= n`).
    // sos-lint: allow(panic-path, "the quadratic-solver table spans the whole field, which holds every y^2 + y")
    pub fn new(m: u32, t: usize) -> Self {
        assert!(t >= 1, "t must be at least 1");
        let gf = GaloisField::new(m);
        let n = gf.n as usize;
        // g(x) = lcm of minimal polynomials of alpha^1 .. alpha^2t:
        // multiply the minimal polynomial of each distinct cyclotomic
        // coset representative.
        let mut covered = std::collections::HashSet::new();
        let mut generator = vec![true]; // the constant polynomial 1
        for s in 1..=(2 * t as u32) {
            let s = s % gf.n;
            if s == 0 || covered.contains(&s) {
                continue;
            }
            for c in gf.cyclotomic_coset(s) {
                covered.insert(c);
            }
            let min_poly = gf.minimal_polynomial(s);
            generator = poly_mul_gf2(&generator, min_poly);
        }
        let deg_g = generator.len() - 1;
        assert!(
            deg_g < n,
            "t={t} too large for m={m}: deg(g)={deg_g} >= n={n}"
        );
        let p = deg_g;
        let words = p.div_ceil(64);
        let mut g_low = vec![0u64; words];
        for (i, &coefficient) in generator.iter().take(p).enumerate() {
            if coefficient {
                reg_set(&mut g_low, i);
            }
        }
        // Quadratic solver table: y^2 + y is 2-to-1 onto the trace-zero
        // subspace; record the smaller preimage of each image.
        let size = (gf.n + 1) as usize;
        let mut qsolve = vec![u32::MAX; size];
        for y in 0..size as u32 {
            let image = (gf.square(y) ^ y) as usize;
            if qsolve[image] == u32::MAX {
                qsolve[image] = y;
            }
        }
        BchCode {
            gf,
            t,
            n,
            k: n - deg_g,
            g_low,
            words,
            qsolve,
        }
    }

    /// One bit of LFSR polynomial division: feed `bit`, update the
    /// register.
    #[inline]
    // sos-lint: allow(panic-path, "the encoder allocates the shift register to the code's `words` words")
    fn bit_step(&self, reg: &mut [u64], bit: bool) {
        let p = self.parity_bits();
        let feedback = bit ^ reg_get(reg, p - 1);
        // Shift left by one, dropping bit p-1.
        for w in (1..self.words).rev() {
            reg[w] = (reg[w] << 1) | (reg[w - 1] >> 63);
        }
        reg[0] <<= 1;
        // Clear any bit at or above p.
        let top_bits = p % 64;
        if top_bits != 0 {
            let last = self.words - 1;
            reg[last] &= (1u64 << top_bits) - 1;
        }
        if feedback {
            for (r, &g) in reg.iter_mut().zip(self.g_low.iter()) {
                *r ^= g;
            }
        }
    }

    /// Correction capability per codeword, in bit errors.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Codeword length in bits.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Maximum data bits per codeword.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Parity size in bits (`n - k`).
    pub fn parity_bits(&self) -> usize {
        self.n - self.k
    }

    /// Parity size in bytes (rounded up).
    pub fn parity_bytes(&self) -> usize {
        self.parity_bits().div_ceil(8)
    }

    /// Highest raw bit error rate at which a codeword of `data_bytes`
    /// payload decodes with failure probability below `target`.
    ///
    /// Used by FTL/scrubber policy to decide when a block must be
    /// refreshed or retired.
    pub fn rber_limit(&self, data_bytes: usize, target: f64) -> f64 {
        let bits = data_bytes * 8 + self.parity_bits();
        // Bisect on log-rber; p_uncorrectable is monotone in rber.
        let (mut lo, mut hi) = (1e-12f64, 0.5f64);
        for _ in 0..100 {
            let mid = (lo * hi).sqrt();
            if p_uncorrectable(mid, bits, self.t) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Encodes `data` (at most `k` bits), returning the parity bytes.
    ///
    /// # Panics
    ///
    /// Panics if the data exceeds the code dimension; chunking to fit is
    /// the caller's job (see [`crate::scheme`]).
    // sos-lint: allow(panic-path, "the assert guards a configuration error (PageCodec::new sizes every payload to at most k bits); the register is sized to the p bits the parity bytes span")
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        let data_bits = data.len() * 8;
        assert!(
            data_bits <= self.k,
            "data ({data_bits} bits) exceeds code dimension k={}",
            self.k
        );
        let mut reg = vec![0u64; self.words];
        for i in (0..data_bits).rev() {
            self.bit_step(&mut reg, get_bit(data, i));
        }
        // LSB-first bit order makes parity byte `i` exactly bits
        // `8i..8i+8` of the register, i.e. byte `i % 8` of word `i / 8`;
        // the division mask keeps bits at and above `p` zero, so the
        // final partial byte is already clean.
        (0..self.parity_bytes())
            .map(|i| (reg[i / 8] >> ((i % 8) * 8)) as u8)
            .collect()
    }

    /// Syndrome vector `S_1..S_2t` of the word whose set bits sit at the
    /// codeword `positions` (a position listed twice cancels):
    /// `S_e = Σ α^(e·pos)`. The odd syndromes take one field multiply
    /// per (position, syndrome); the even ones follow by squaring, since
    /// `S_{2i} = S_i^2` holds for any binary code.
    // sos-lint: allow(panic-path, "the syndrome vector holds 2t entries and every index read or written is below 2t")
    fn syndromes(&self, positions: &[usize]) -> Vec<u32> {
        let gf = &self.gf;
        let count = 2 * self.t;
        let mut syndromes = vec![0u32; count];
        for &pos in positions {
            let x = gf.alpha_pow(pos as u32);
            let x2 = gf.square(x);
            // α^(e·pos) for e = 1, 3, 5, …
            let mut power = x;
            for syndrome in syndromes.iter_mut().step_by(2) {
                *syndrome ^= power;
                power = gf.mul(power, x2);
            }
        }
        for i in (1..count).step_by(2) {
            syndromes[i] = gf.square(syndromes[i / 2]);
        }
        syndromes
    }

    /// Decodes an error pattern given by its codeword positions: parity
    /// bit `o` is position `o`, data bit `o` is position `p + o`, and a
    /// position listed twice cancels. Calls `flip` on each error position
    /// it locates and returns how many it located.
    ///
    /// `data_bits` is the shortened data length (at most [`Self::k`]);
    /// every position must lie below `parity_bits() + data_bits`. BCH is
    /// linear, so decoding the pattern `e` alone gives the verdict and
    /// the flips of decoding any received word `c ⊕ e`.
    ///
    /// # Errors
    ///
    /// Returns [`BchError::Uncorrectable`] when more than `t` errors are
    /// present (with high probability — silent miscorrection is possible
    /// beyond `t`, exactly as on real hardware). A failed Chien search
    /// has already called `flip` on the roots it found.
    pub fn decode_pattern(
        &self,
        positions: &[usize],
        data_bits: usize,
        flip: impl FnMut(usize),
    ) -> Result<usize, BchError> {
        let syndromes = self.syndromes(positions);
        if syndromes.iter().all(|&s| s == 0) {
            return Ok(0);
        }
        // Berlekamp–Massey: find the error locator polynomial.
        let locator = self.berlekamp_massey(&syndromes);
        if locator.len() - 1 > self.t {
            return Err(BchError::Uncorrectable);
        }
        self.find_roots(&locator, self.parity_bits() + data_bits, flip)
    }

    /// Decodes in place: corrects up to `t` bit errors across `data` and
    /// `parity`, returning the number of bits corrected. The received
    /// word's set bits are its positions for [`Self::decode_pattern`].
    ///
    /// # Errors
    ///
    /// [`BchError::DataTooLong`] or [`BchError::WrongParityLength`] on a
    /// size mismatch, and [`BchError::Uncorrectable`] as for
    /// [`Self::decode_pattern`].
    pub fn decode(&self, data: &mut [u8], parity: &mut [u8]) -> Result<usize, BchError> {
        let data_bits = data.len() * 8;
        if data_bits > self.k {
            return Err(BchError::DataTooLong {
                max_bits: self.k,
                got_bits: data_bits,
            });
        }
        if parity.len() != self.parity_bytes() {
            return Err(BchError::WrongParityLength {
                expected: self.parity_bytes(),
                got: parity.len(),
            });
        }
        let p = self.parity_bits();
        // Padding bits in the last parity byte are not codeword
        // positions; clear any noise the medium injected there.
        if !p.is_multiple_of(8) {
            if let Some(last) = parity.last_mut() {
                *last &= (1u8 << (p % 8)) - 1;
            }
        }
        let positions: Vec<usize> = (0..p)
            .filter(|&o| get_bit(parity, o))
            .chain((0..data_bits).filter(|&o| get_bit(data, o)).map(|o| p + o))
            .collect();
        self.decode_pattern(&positions, data_bits, |pos| {
            if pos < p {
                flip_bit(parity, pos);
            } else {
                flip_bit(data, pos - p);
            }
        })
    }

    /// Locates the error positions of a degree-`d` locator polynomial
    /// and passes each to `flip`: closed forms for the overwhelmingly
    /// common single- and double-error cases, Chien search over the used
    /// positions beyond.
    ///
    /// A degree-`d` polynomial has at most `d` roots in the field, so
    /// scanning only `0..used` with an early exit at `d` roots decides
    /// exactly the same accept/reject outcomes as a full-field sweep: any
    /// root outside `0..used` (the shortened all-zero region) leaves the
    /// in-range root count short of `d`, which is rejected either way.
    // sos-lint: allow(panic-path, "locator coefficients are indexed below the degree bound checked above; qsolve spans the field by construction")
    fn find_roots(
        &self,
        locator: &[u32],
        used: usize,
        mut flip: impl FnMut(usize),
    ) -> Result<usize, BchError> {
        let gf = &self.gf;
        let n = gf.n;
        let degree = locator.len() - 1;
        match degree {
            1 => {
                // 1 + c1 x = 0 at x = 1/c1 = alpha^{-log c1}: the error
                // position is log(c1) directly. (A trimmed locator keeps
                // its leading coefficient non-zero, so the None arm is
                // defensive.)
                let pos = match gf.checked_log(locator[1]) {
                    Some(log) => log as usize,
                    None => return Err(BchError::Uncorrectable),
                };
                if pos >= used {
                    return Err(BchError::Uncorrectable);
                }
                flip(pos);
                Ok(1)
            }
            2 => {
                // 1 + c1 x + c2 x^2: substituting x = (c1/c2) y gives
                // y^2 + y = c2/c1^2, solved by table. c1 = 0 means a
                // double root (x^2 = 1/c2), which a Chien sweep counts
                // once — root count 1 != degree 2, i.e. uncorrectable.
                let (c1, c2) = (locator[1], locator[2]);
                if c1 == 0 {
                    return Err(BchError::Uncorrectable);
                }
                let u = gf.div(c2, gf.square(c1));
                let y = self.qsolve[u as usize];
                if y == u32::MAX {
                    // Trace 1: no roots in the field.
                    return Err(BchError::Uncorrectable);
                }
                let ratio = gf.div(c1, c2);
                let x1 = gf.mul(ratio, y);
                let x2 = x1 ^ ratio; // the second root, (y + 1) c1/c2
                                     // y^2 + y = u != 0 keeps y outside {0, 1}, so both roots
                                     // are non-zero; the None arms are defensive.
                let (log1, log2) = match (gf.checked_log(x1), gf.checked_log(x2)) {
                    (Some(log1), Some(log2)) => (log1, log2),
                    _ => return Err(BchError::Uncorrectable),
                };
                let pos1 = ((n - log1) % n) as usize;
                let pos2 = ((n - log2) % n) as usize;
                if pos1 >= used || pos2 >= used {
                    return Err(BchError::Uncorrectable);
                }
                flip(pos1);
                flip(pos2);
                Ok(2)
            }
            _ => {
                // Chien search over used positions (shortened code:
                // errors in the implicit zero region mean the syndrome
                // was inconsistent).
                let mut roots = 0usize;
                for pos in 0..used {
                    // Error at position pos iff locator(alpha^{-pos}) == 0.
                    let exponent = (n - (pos as u32 % n)) % n;
                    let x = gf.alpha_pow(exponent);
                    if gf.poly_eval(locator, x) == 0 {
                        flip(pos);
                        roots += 1;
                        if roots == degree {
                            break;
                        }
                    }
                }
                if roots != degree {
                    return Err(BchError::Uncorrectable);
                }
                Ok(roots)
            }
        }
    }

    /// Berlekamp–Massey over GF(2^m): returns the error locator
    /// polynomial (coefficients low-to-high, `locator[0] == 1`).
    // sos-lint: allow(panic-path, "the locator/work arrays are allocated to t+2 coefficients up front")
    fn berlekamp_massey(&self, syndromes: &[u32]) -> Vec<u32> {
        let gf = &self.gf;
        let mut locator: Vec<u32> = vec![1];
        let mut prev: Vec<u32> = vec![1];
        let mut l = 0usize;
        let mut shift = 1usize;
        let mut b = 1u32;
        for r in 0..syndromes.len() {
            // Discrepancy.
            let mut d = syndromes[r];
            for i in 1..=l.min(locator.len() - 1) {
                d ^= gf.mul(locator[i], syndromes[r - i]);
            }
            if d == 0 {
                shift += 1;
            } else if 2 * l <= r {
                let old = locator.clone();
                let scale = gf.div(d, b);
                add_scaled_shifted(gf, &mut locator, &prev, scale, shift);
                l = r + 1 - l;
                prev = old;
                b = d;
                shift = 1;
            } else {
                let scale = gf.div(d, b);
                add_scaled_shifted(gf, &mut locator, &prev, scale, shift);
                shift += 1;
            }
        }
        // Trim trailing zero coefficients.
        while locator.len() > 1 && *locator.last().unwrap() == 0 {
            locator.pop();
        }
        locator
    }
}

/// `target += scale * x^shift * source` over GF(2^m).
// sos-lint: allow(panic-path, "the destination polynomial is allocated to the combined degree by the caller")
fn add_scaled_shifted(
    gf: &GaloisField,
    target: &mut Vec<u32>,
    source: &[u32],
    scale: u32,
    shift: usize,
) {
    if target.len() < source.len() + shift {
        target.resize(source.len() + shift, 0);
    }
    for (i, &c) in source.iter().enumerate() {
        target[i + shift] ^= gf.mul(scale, c);
    }
}

/// Multiplies a GF(2) polynomial (bool coefficients, low-to-high) by a
/// bitmask polynomial.
// sos-lint: allow(panic-path, "the product vector is allocated to the combined degree before the fill loop")
fn poly_mul_gf2(a: &[bool], b_mask: u64) -> Vec<bool> {
    let b_deg = 63 - b_mask.leading_zeros() as usize;
    let mut out = vec![false; a.len() + b_deg + 1];
    for (i, &ai) in a.iter().enumerate() {
        if !ai {
            continue;
        }
        for j in 0..=b_deg {
            if b_mask & (1 << j) != 0 {
                out[i + j] ^= true;
            }
        }
    }
    while out.len() > 1 && !out[out.len() - 1] {
        out.pop();
    }
    out
}

/// Probability that a codeword of `bits` at raw bit error rate `rber`
/// holds more than `t` errors (Poisson tail).
// sos-lint: allow(panic-path, "f64 division: lambda and k are floats")
fn p_uncorrectable(rber: f64, bits: usize, t: usize) -> f64 {
    let lambda = bits as f64 * rber.min(0.5);
    let mut term = (-lambda).exp();
    if term == 0.0 {
        return 1.0;
    }
    for k in 1..=t {
        term *= lambda / k as f64;
    }
    let mut tail = 0.0;
    let mut k = t as f64 + 1.0;
    loop {
        term *= lambda / k;
        tail += term;
        if k > lambda && term < tail * 1e-15 + 1e-300 {
            break;
        }
        k += 1.0;
    }
    tail.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn flip(data: &mut [u8], bit: usize) {
        flip_bit(data, bit);
    }

    #[test]
    fn code_dimensions_are_sane() {
        let code = BchCode::new(8, 2);
        // (255, 239) t=2 is the classic example.
        assert_eq!(code.n(), 255);
        assert_eq!(code.k(), 239);
        assert_eq!(code.parity_bits(), 16);
    }

    /// Oracle for [`BchCode::syndromes`]: bit-serial Horner evaluation of
    /// the received polynomial `r(x) = Σ r_pos x^pos` at `α^e`, highest
    /// position first.
    fn horner_syndromes(code: &BchCode, word: &[bool]) -> Vec<u32> {
        let gf = &code.gf;
        (1..=2 * code.t as u32)
            .map(|e| {
                let x = gf.alpha_pow(e);
                word.iter()
                    .rev()
                    .fold(0, |acc, &bit| gf.mul(acc, x) ^ u32::from(bit))
            })
            .collect()
    }

    #[test]
    fn position_syndromes_match_horner_oracle() {
        let mut rng = StdRng::seed_from_u64(79);
        for (m, t) in [(10u32, 4usize), (13, 18), (13, 40)] {
            let code = BchCode::new(m, t);
            for len in [1usize, 8, 31, 100, 512] {
                let used = code.parity_bits() + len * 8;
                if used > code.n() {
                    continue;
                }
                for weight in [0, 1, 2, 5, 3 * t, used / 2] {
                    let mut positions: Vec<usize> =
                        (0..weight).map(|_| rng.gen_range(0..used)).collect();
                    // Listing a position again cancels it.
                    positions.extend_from_within(..weight / 3);
                    let mut word = vec![false; used];
                    for &pos in &positions {
                        word[pos] ^= true;
                    }
                    assert_eq!(
                        code.syndromes(&positions),
                        horner_syndromes(&code, &word),
                        "m={m} t={t} len={len} weight={weight}"
                    );
                }
            }
        }
    }

    #[test]
    fn failed_chien_search_keeps_its_partial_flips() {
        // Beyond t, Berlekamp–Massey often returns a locator of degree
        // 3..=t with fewer roots among the used positions than its
        // degree. The decode fails, having flipped exactly the roots it
        // found; the closed forms and an over-degree locator flip nothing.
        let code = BchCode::new(13, 8);
        let data_bits = 512 * 8;
        let used = code.parity_bits() + data_bits;
        let mut rng = StdRng::seed_from_u64(81);
        let mut partial = 0;
        for _ in 0..200 {
            let positions: Vec<usize> = (0..3 * code.t()).map(|_| rng.gen_range(0..used)).collect();
            let mut flipped = Vec::new();
            let result = code.decode_pattern(&positions, data_bits, |pos| flipped.push(pos));
            if result.is_ok() {
                continue;
            }
            let locator = code.berlekamp_massey(&code.syndromes(&positions));
            let degree = locator.len() - 1;
            if (3..=code.t()).contains(&degree) {
                // Every root among the used positions, by a full scan.
                let roots: Vec<usize> = (0..used)
                    .filter(|&pos| {
                        let x = code.gf.alpha_pow((code.n - pos) as u32);
                        code.gf.poly_eval(&locator, x) == 0
                    })
                    .collect();
                assert_eq!(flipped, roots, "degree {degree}");
                partial += usize::from(!roots.is_empty());
            } else {
                assert!(flipped.is_empty(), "degree {degree}: {flipped:?}");
            }
        }
        assert!(partial > 0, "no failed search found a root");
    }

    #[test]
    fn closed_form_roots_match_ground_truth_positions() {
        // Every 1- and 2-error pattern in a small window, plus random
        // wide patterns: the closed forms must locate exactly the
        // flipped bits.
        let code = BchCode::new(13, 18);
        let data: Vec<u8> = (0..512).map(|i| (i * 89 + 3) as u8).collect();
        let parity = code.encode(&data);
        let total_bits = data.len() * 8 + code.parity_bits();
        let mut rng = StdRng::seed_from_u64(80);
        for _ in 0..200 {
            let errors = rng.gen_range(1..=2);
            let mut positions = std::collections::HashSet::new();
            while positions.len() < errors {
                positions.insert(rng.gen_range(0..total_bits));
            }
            let mut received = data.clone();
            let mut rparity = parity.clone();
            for &p in &positions {
                if p < code.parity_bits() {
                    flip(&mut rparity, p);
                } else {
                    flip(&mut received, p - code.parity_bits());
                }
            }
            let corrected = code.decode(&mut received, &mut rparity).unwrap();
            assert_eq!(corrected, errors);
            assert_eq!(received, data);
            assert_eq!(rparity, parity);
        }
    }

    #[test]
    fn zero_errors_decode_cleanly() {
        let code = BchCode::new(8, 3);
        let data: Vec<u8> = (0..20).map(|i| (i * 37) as u8).collect();
        let mut parity = code.encode(&data);
        let mut received = data.clone();
        let corrected = code.decode(&mut received, &mut parity).unwrap();
        assert_eq!(corrected, 0);
        assert_eq!(received, data);
    }

    #[test]
    fn corrects_up_to_t_errors_in_data() {
        let code = BchCode::new(8, 4);
        let data: Vec<u8> = (0..24).map(|i| (i * 91 + 7) as u8).collect();
        let parity = code.encode(&data);
        for errors in 1..=4 {
            let mut received = data.clone();
            let mut rparity = parity.clone();
            for e in 0..errors {
                flip(&mut received, e * 53 + 1);
            }
            let corrected = code.decode(&mut received, &mut rparity).unwrap();
            assert_eq!(corrected, errors, "errors={errors}");
            assert_eq!(received, data, "errors={errors}");
        }
    }

    #[test]
    fn corrects_errors_in_parity_too() {
        let code = BchCode::new(8, 3);
        let data: Vec<u8> = vec![0xAB; 16];
        let parity = code.encode(&data);
        let mut received = data.clone();
        let mut rparity = parity.clone();
        flip(&mut rparity, 3);
        flip(&mut received, 40);
        let corrected = code.decode(&mut received, &mut rparity).unwrap();
        assert_eq!(corrected, 2);
        assert_eq!(received, data);
        assert_eq!(rparity, parity);
    }

    #[test]
    fn detects_more_than_t_errors() {
        let code = BchCode::new(10, 3);
        let data: Vec<u8> = (0..64).map(|i| (i ^ 0x5A) as u8).collect();
        let parity = code.encode(&data);
        let mut rng = StdRng::seed_from_u64(99);
        let mut detected = 0;
        let mut miscorrected = 0;
        let trials = 50;
        for _ in 0..trials {
            let mut received = data.clone();
            let mut rparity = parity.clone();
            let mut positions = std::collections::HashSet::new();
            while positions.len() < 8 {
                positions.insert(rng.gen_range(0..data.len() * 8));
            }
            for &p in &positions {
                flip(&mut received, p);
            }
            match code.decode(&mut received, &mut rparity) {
                Err(BchError::Uncorrectable) => detected += 1,
                Ok(_) => {
                    if received != data {
                        miscorrected += 1;
                    }
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        // With 8 errors against t=3, the decoder must almost always
        // detect; rare miscorrections are physically accurate.
        assert!(
            detected + miscorrected == trials && detected > trials * 8 / 10,
            "detected {detected}, miscorrected {miscorrected}"
        );
    }

    #[test]
    fn random_error_fuzz_within_t() {
        let code = BchCode::new(13, 8);
        let mut rng = StdRng::seed_from_u64(12345);
        let data: Vec<u8> = (0..512).map(|_| rng.gen()).collect();
        let parity = code.encode(&data);
        for trial in 0..20 {
            let mut received = data.clone();
            let mut rparity = parity.clone();
            let total_bits = data.len() * 8 + code.parity_bits();
            let errors = rng.gen_range(0..=8);
            let mut positions = std::collections::HashSet::new();
            while positions.len() < errors {
                positions.insert(rng.gen_range(0..total_bits));
            }
            for &p in &positions {
                if p < code.parity_bits() {
                    flip(&mut rparity, p);
                } else {
                    flip(&mut received, p - code.parity_bits());
                }
            }
            let corrected = code
                .decode(&mut received, &mut rparity)
                .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            assert_eq!(corrected, errors, "trial {trial}");
            assert_eq!(received, data, "trial {trial}");
        }
    }

    #[test]
    fn flash_default_fits_mobile_spare_budget() {
        // The flash page-chunk code: GF(2^13), t = 18.
        let code = BchCode::new(13, 18);
        // 512-byte chunks, 8 per 4 KiB page: parity must fit 256 B spare.
        assert!(512 * 8 <= code.k());
        assert!(
            8 * code.parity_bytes() <= 256,
            "parity {}",
            code.parity_bytes()
        );
    }

    #[test]
    fn rber_limit_ordering() {
        let weak = BchCode::new(13, 8);
        let strong = BchCode::new(13, 40);
        let weak_limit = weak.rber_limit(512, 1e-9);
        let strong_limit = strong.rber_limit(512, 1e-9);
        assert!(
            strong_limit > weak_limit * 2.0,
            "{strong_limit} vs {weak_limit}"
        );
        // Sanity: the t = 18 flash code tolerates ~1e-3-class RBER.
        let default_limit = BchCode::new(13, 18).rber_limit(512, 1e-9);
        assert!((1e-4..5e-3).contains(&default_limit), "{default_limit}");
    }

    #[test]
    fn p_uncorrectable_monotonic_in_rber() {
        let mut prev = -1.0;
        for i in 1..10 {
            let rber = 10f64.powi(-i);
            let p = p_uncorrectable(rber, 8 * 1024 * 9, 40);
            assert!((0.0..=1.0).contains(&p));
            // Higher rber (earlier in iteration order is *higher*) means
            // higher uncorrectable probability.
            if prev >= 0.0 {
                assert!(p <= prev, "rber {rber}: {p} > {prev}");
            }
            prev = p;
        }
    }

    #[test]
    fn p_uncorrectable_edges() {
        assert_eq!(p_uncorrectable(0.0, 9000, 40), 0.0);
        // At rber 0.5 virtually every codeword is uncorrectable.
        let p = p_uncorrectable(0.5, 9000, 40);
        assert!(p > 0.999, "{p}");
        // t = n can always correct.
        let p = p_uncorrectable(1e-3, 100, 100);
        assert!(p < 1e-9, "{p}");
    }

    #[test]
    fn p_uncorrectable_matches_poisson_hand_calc() {
        // lambda = 1, t = 0: P(X > 0) = 1 - e^-1.
        let p = p_uncorrectable(1.0 / 1000.0, 1000, 0);
        assert!((p - (1.0 - (-1.0f64).exp())).abs() < 1e-9);
    }

    #[test]
    fn data_too_long_is_reported() {
        let code = BchCode::new(8, 2);
        let mut data = vec![0u8; 64]; // 512 bits > k=239
        let mut parity = vec![0u8; code.parity_bytes()];
        assert!(matches!(
            code.decode(&mut data, &mut parity),
            Err(BchError::DataTooLong { .. })
        ));
    }

    #[test]
    fn wrong_parity_length_is_reported() {
        let code = BchCode::new(8, 2);
        let mut data = vec![0u8; 16];
        let mut parity = vec![0u8; 1];
        assert!(matches!(
            code.decode(&mut data, &mut parity),
            Err(BchError::WrongParityLength { .. })
        ));
    }

    #[test]
    fn shortened_codes_work_at_any_length() {
        let code = BchCode::new(10, 4);
        for len in [1usize, 7, 32, 100] {
            let data: Vec<u8> = (0..len).map(|i| (i * 13 + 5) as u8).collect();
            let parity = code.encode(&data);
            let mut received = data.clone();
            let mut rparity = parity.clone();
            flip(&mut received, len * 8 - 1);
            let corrected = code.decode(&mut received, &mut rparity).unwrap();
            assert_eq!(corrected, 1, "len={len}");
            assert_eq!(received, data, "len={len}");
        }
    }

    #[test]
    fn small_field_codes_use_bitwise_fallback() {
        // m=3, t=1: p = 3 parity bits, narrower than a byte.
        let code = BchCode::new(3, 1);
        assert!(code.parity_bits() < 8);
        // k=4 bits: no whole byte fits, so just check construction and
        // rber_limit sanity.
        assert!(code.k() >= 1);
        assert!(code.rber_limit(0, 1e-6) > 0.0);
    }
}
