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
//! The encoder uses word-at-a-time (64-bit) table-driven polynomial
//! division with eight per-lane byte tables, and the syndrome pass
//! accumulates eight bytes per field multiplication (odd syndromes only;
//! even syndromes follow from `S_{2i} = S_i^2` over GF(2)). The
//! byte-at-a-time and bit-serial encoders are kept for table
//! construction and as test oracles; the byte-at-a-time syndrome pass
//! exists only in the test module, as the oracle for the word-wide one.

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
// sos-lint: allow(panic-path, "every caller bounds the offset to len - 8 via an explicit length split")
fn read_u64_le(bytes: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(w)
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
    /// Byte-division table: entry `o` holds the register adjustment for
    /// outgoing byte `o` (only built when `p >= 8`).
    encode_table: Vec<u64>,
    /// Word-division lane tables (only built when `p >= 64`): entry
    /// `(k * 256 + b) * words ..` holds `(b(x) · x^(8k + p)) mod g`, the
    /// register adjustment for byte `b` in lane `k` of an outgoing
    /// 64-bit word.
    encode_table64: Vec<u64>,
    /// Per-syndrome per-byte contribution: `contrib[j * 256 + byte]`.
    contrib: Vec<u32>,
    /// Per-syndrome byte step `alpha^(8 (j+1))`.
    step: Vec<u32>,
    /// Per-syndrome parity offset `alpha^(p (j+1))`.
    pmul: Vec<u32>,
    /// Word-wide lane tables for odd syndromes: entry
    /// `(oi * 8 + k) * 256 + b` is `contrib_e[b] · alpha^(8 k e)` for
    /// `e = 2 oi + 1`.
    wcontrib: Vec<u32>,
    /// Per-odd-syndrome word step `alpha^(64 e)`, `e = 2 oi + 1`.
    wstep: Vec<u32>,
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
    // sos-lint: allow(panic-path, "code tables are allocated to the field and parity sizes immediately before being filled")
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
        let mut code = BchCode {
            gf,
            t,
            n,
            k: n - deg_g,
            g_low,
            words,
            encode_table: Vec::new(),
            encode_table64: Vec::new(),
            contrib: Vec::new(),
            step: Vec::new(),
            pmul: Vec::new(),
            wcontrib: Vec::new(),
            wstep: Vec::new(),
            qsolve: Vec::new(),
        };
        code.build_tables();
        code
    }

    // sos-lint: allow(panic-path, "generator tables are allocated to the code's parity length before the fill loops run")
    fn build_tables(&mut self) {
        let p = self.parity_bits();
        // Byte-division table (only meaningful when the register holds a
        // whole byte).
        if p >= 8 {
            let mut table = vec![0u64; 256 * self.words];
            for o in 0u16..256 {
                let mut reg = vec![0u64; self.words];
                for j in 0..8 {
                    if o & (1 << j) != 0 {
                        reg_set(&mut reg, p - 8 + j);
                    }
                }
                for _ in 0..8 {
                    self.bit_step(&mut reg, false);
                }
                table[o as usize * self.words..(o as usize + 1) * self.words].copy_from_slice(&reg);
            }
            self.encode_table = table;
        }
        // Word-division lane tables: lane 0 is the byte table itself
        // ((b · x^p) mod g); lane k multiplies lane k-1 by x^8 mod g.
        if p >= 64 {
            let mut table = vec![0u64; 8 * 256 * self.words];
            for b in 0..256usize {
                let mut reg = vec![0u64; self.words];
                reg.copy_from_slice(&self.encode_table[b * self.words..(b + 1) * self.words]);
                for k in 0..8 {
                    table[(k * 256 + b) * self.words..(k * 256 + b + 1) * self.words]
                        .copy_from_slice(&reg);
                    self.byte_step(&mut reg, 0);
                }
            }
            self.encode_table64 = table;
        }
        // Syndrome tables.
        let count = 2 * self.t;
        let mut contrib = vec![0u32; count * 256];
        let mut step = vec![0u32; count];
        let mut pmul = vec![0u32; count];
        let n = self.gf.n as u64;
        for j in 0..count {
            let e = (j as u64 + 1) % n;
            step[j] = self.gf.alpha_pow(((8 * e) % n) as u32);
            pmul[j] = self.gf.alpha_pow(((p as u64 % n) * e % n) as u32);
            for byte in 0u16..256 {
                let mut v = 0u32;
                for b in 0..8u64 {
                    if byte & (1 << b) != 0 {
                        v ^= self.gf.alpha_pow(((b * e) % n) as u32);
                    }
                }
                contrib[j * 256 + byte as usize] = v;
            }
        }
        self.contrib = contrib;
        self.step = step;
        self.pmul = pmul;
        // Word-wide lane tables for the odd syndromes (even syndromes are
        // derived by squaring: S_{2i} = S_i^2 over GF(2)).
        let odd = self.t;
        let mut wcontrib = vec![0u32; odd * 8 * 256];
        let mut wstep = vec![0u32; odd];
        for oi in 0..odd {
            let e = (2 * oi as u64 + 1) % n;
            wstep[oi] = self.gf.alpha_pow(((64 * e) % n) as u32);
            for k in 0..8u64 {
                let lane_mul = self.gf.alpha_pow(((8 * k * e) % n) as u32);
                for b in 0..256usize {
                    wcontrib[(oi * 8 + k as usize) * 256 + b] =
                        self.gf.mul(self.contrib[(2 * oi) * 256 + b], lane_mul);
                }
            }
        }
        self.wcontrib = wcontrib;
        self.wstep = wstep;
        // Quadratic solver table: y^2 + y is 2-to-1 onto the trace-zero
        // subspace; record the smaller preimage of each image.
        let size = (self.gf.n + 1) as usize;
        let mut qsolve = vec![u32::MAX; size];
        for y in 0..size as u32 {
            let image = (self.gf.square(y) ^ y) as usize;
            if qsolve[image] == u32::MAX {
                qsolve[image] = y;
            }
        }
        self.qsolve = qsolve;
    }

    /// One bit of LFSR polynomial division: feed `bit`, update the
    /// register.
    #[inline]
    // sos-lint: allow(panic-path, "the shift register is allocated to r_words words by both encode paths")
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

    /// The default flash page-chunk code: GF(2^13), t = 18, protecting
    /// 512-byte chunks with 30 bytes of parity — a TLC-class budget that
    /// tolerates RBER up to roughly `2e-3`.
    pub fn flash_default() -> Self {
        BchCode::new(13, 18)
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

    /// Reference bit-serial encoder (kept as the table oracle).
    fn encode_bitwise(&self, data: &[u8]) -> Vec<u64> {
        let mut reg = vec![0u64; self.words];
        for i in (0..data.len() * 8).rev() {
            self.bit_step(&mut reg, get_bit(data, i));
        }
        reg
    }

    /// One byte of table-driven polynomial division: feed `byte`, update
    /// the register (requires `p >= 8` and a built byte table).
    #[inline]
    // sos-lint: allow(panic-path, "the register and lookup tables are sized to r_words/256 at construction")
    fn byte_step(&self, reg: &mut [u64], byte: u8) {
        let p = self.parity_bits();
        // Extract bits p-8..p (the next 8 outgoing feedback bits).
        let base = p - 8;
        let word = base / 64;
        let offset = base % 64;
        let mut top = (reg[word] >> offset) as u16;
        if offset > 56 && word + 1 < self.words {
            top |= (reg[word + 1] << (64 - offset)) as u16;
        }
        let o = (top as u8) ^ byte;
        // Shift the register left by 8, clearing bits >= p.
        for w in (1..self.words).rev() {
            reg[w] = (reg[w] << 8) | (reg[w - 1] >> 56);
        }
        reg[0] <<= 8;
        let top_bits = p % 64;
        if top_bits != 0 {
            let last = self.words - 1;
            reg[last] &= (1u64 << top_bits) - 1;
        }
        // Apply the table adjustment.
        let entry = &self.encode_table[o as usize * self.words..(o as usize + 1) * self.words];
        for (r, &e) in reg.iter_mut().zip(entry) {
            *r ^= e;
        }
    }

    /// Table-driven byte-at-a-time encoder (oracle for the word path).
    fn encode_register(&self, data: &[u8]) -> Vec<u64> {
        let p = self.parity_bits();
        if p < 8 || self.encode_table.is_empty() {
            return self.encode_bitwise(data);
        }
        let mut reg = vec![0u64; self.words];
        for &byte in data.iter().rev() {
            self.byte_step(&mut reg, byte);
        }
        reg
    }

    /// Word-at-a-time encoder: processes 64 data bits per register
    /// update via the eight lane tables. Falls back to the byte/bit
    /// paths for codes whose parity register is narrower than a word.
    /// (Test-only: `encode` inlines the same dispatch to skip the
    /// register round-trip through the heap.)
    #[cfg(test)]
    fn encode_words(&self, data: &[u8]) -> Vec<u64> {
        let p = self.parity_bits();
        if p < 64 || self.encode_table64.is_empty() {
            return self.encode_register(data);
        }
        // Monomorphize the common register widths so the shift register
        // lives in CPU registers across the whole chunk loop: 4 words
        // covers the t=18 default (p=234), 9 words the t=40 strong code
        // (p=520).
        match self.words {
            4 => self.encode_words_fixed::<4>(data).to_vec(),
            9 => self.encode_words_fixed::<9>(data).to_vec(),
            _ => self.encode_words_generic(data),
        }
    }

    /// Word-at-a-time encode with a const-width register.
    // sos-lint: allow(panic-path, "the caller dispatches on self.words == W; lane tables are sized to 8*256*W at construction; chunk offsets are bounded by the length split")
    fn encode_words_fixed<const W: usize>(&self, data: &[u8]) -> [u64; W] {
        debug_assert_eq!(self.words, W);
        let p = self.parity_bits();
        let chunks = data.len() / 8;
        // Data is consumed high-index first: lead with the byte-wise
        // remainder, then the full 8-byte chunks.
        let mut reg = [0u64; W];
        for &byte in data[chunks * 8..].iter().rev() {
            self.byte_step(&mut reg, byte);
        }
        let base = p - 64;
        let word = base / 64;
        let offset = base % 64;
        let mask = match p % 64 {
            0 => u64::MAX,
            bits => (1u64 << bits) - 1,
        };
        let table = &self.encode_table64[..8 * 256 * W];
        for c in (0..chunks).rev() {
            // The next 64 outgoing feedback bits (register bits p-64..p),
            // XORed with the next eight data bytes.
            let mut top = reg[word] >> offset;
            if offset != 0 {
                top |= reg[word + 1] << (64 - offset);
            }
            let o = top ^ read_u64_le(data, c * 8);
            // Shift the register left by 64, clearing bits >= p.
            for w in (1..W).rev() {
                reg[w] = reg[w - 1];
            }
            reg[0] = 0;
            reg[W - 1] &= mask;
            // Fold the eight lane adjustments into the register. The
            // `[..W]` reslice pins each entry's length at compile time so
            // the inner XORs need no per-word bounds checks.
            for k in 0..8 {
                let b = ((o >> (8 * k)) & 0xFF) as usize;
                let entry = &table[(k * 256 + b) * W..][..W];
                for (r, &e) in reg.iter_mut().zip(entry) {
                    *r ^= e;
                }
            }
        }
        reg
    }

    /// Word-at-a-time encode for uncommon register widths.
    // sos-lint: allow(panic-path, "the register and lane tables are sized to r_words/8*256 at construction; chunk offsets are bounded by the length split")
    fn encode_words_generic(&self, data: &[u8]) -> Vec<u64> {
        let p = self.parity_bits();
        let mut reg = vec![0u64; self.words];
        let chunks = data.len() / 8;
        for &byte in data[chunks * 8..].iter().rev() {
            self.byte_step(&mut reg, byte);
        }
        let base = p - 64;
        let word = base / 64;
        let offset = base % 64;
        let top_bits = p % 64;
        for c in (0..chunks).rev() {
            let mut top = reg[word] >> offset;
            if offset != 0 {
                top |= reg[word + 1] << (64 - offset);
            }
            let o = top ^ read_u64_le(data, c * 8);
            for w in (1..self.words).rev() {
                reg[w] = reg[w - 1];
            }
            reg[0] = 0;
            if top_bits != 0 {
                let last = self.words - 1;
                reg[last] &= (1u64 << top_bits) - 1;
            }
            for k in 0..8 {
                let b = ((o >> (8 * k)) & 0xFF) as usize;
                let entry = &self.encode_table64[(k * 256 + b) * self.words..][..self.words];
                for (r, &e) in reg.iter_mut().zip(entry) {
                    *r ^= e;
                }
            }
        }
        reg
    }

    /// Encodes `data` (at most `k` bits), returning the parity bytes.
    ///
    /// # Panics
    ///
    /// Panics if the data exceeds the code dimension; chunking to fit is
    /// the caller's job (see [`crate::scheme`]).
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        let data_bits = data.len() * 8;
        // sos-lint: allow(panic-path, "guards a configuration error: PageCodec::new sizes every payload to data_bytes() <= k/8 before any encode")
        assert!(
            data_bits <= self.k,
            "data ({data_bits} bits) exceeds code dimension k={}",
            self.k
        );
        let p = self.parity_bits();
        let mut parity = Vec::with_capacity(self.parity_bytes());
        if p >= 64 && !self.encode_table64.is_empty() {
            match self.words {
                4 => self.append_parity(&self.encode_words_fixed::<4>(data), &mut parity),
                9 => self.append_parity(&self.encode_words_fixed::<9>(data), &mut parity),
                _ => self.append_parity(&self.encode_words_generic(data), &mut parity),
            }
        } else {
            self.append_parity(&self.encode_register(data), &mut parity);
        }
        parity
    }

    /// Serializes a parity register: LSB-first bit order makes parity
    /// byte `i` exactly bits `8i..8i+8` of the register, i.e. byte
    /// `i % 8` of word `i / 8`. (Register bits at and above `p` are kept
    /// zero by the division masks, so the final partial byte is already
    /// clean.)
    // sos-lint: allow(panic-path, "parity bytes span p bits, which the register is sized to hold")
    fn append_parity(&self, reg: &[u64], out: &mut Vec<u8>) {
        for i in 0..self.parity_bytes() {
            out.push((reg[i / 8] >> ((i % 8) * 8)) as u8);
        }
    }

    /// One odd syndrome's Horner pass over a byte slice, eight bytes per
    /// field multiplication: the lane tables pre-scale each byte's
    /// contribution by `alpha^(8 k e)`, so a whole 64-bit word folds in
    /// with a single multiply by `alpha^(64 e)`.
    // sos-lint: allow(panic-path, "contrib/wcontrib tables are sized to 256 entries per (syndrome, lane) at construction; chunk offsets are bounded by the length split")
    fn syndrome_pass(&self, oi: usize, bytes: &[u8]) -> u32 {
        let gf = &self.gf;
        let j = 2 * oi; // table index of syndrome e = 2 oi + 1
        let table = &self.contrib[j * 256..(j + 1) * 256];
        let s8 = self.step[j];
        let s64 = self.wstep[oi];
        let lanes = &self.wcontrib[oi * 8 * 256..(oi + 1) * 8 * 256];
        let mut acc = 0u32;
        let chunks = bytes.len() / 8;
        for &byte in bytes[chunks * 8..].iter().rev() {
            acc = gf.mul(acc, s8) ^ table[byte as usize];
        }
        for c in (0..chunks).rev() {
            let w = read_u64_le(bytes, c * 8);
            let mut x = 0u32;
            for k in 0..8 {
                x ^= lanes[k * 256 + ((w >> (8 * k)) & 0xFF) as usize];
            }
            acc = gf.mul(acc, s64) ^ x;
        }
        acc
    }

    /// Syndrome vector `S_1..S_2t`: odd syndromes via the word-wide
    /// lane-table pass, even syndromes by squaring (`S_{2i} = S_i^2`
    /// holds for any binary code).
    // sos-lint: allow(panic-path, "syndrome and step vectors are sized to 2t/t entries at construction")
    fn syndromes(&self, data: &[u8], parity: &[u8]) -> Vec<u32> {
        let gf = &self.gf;
        let count = 2 * self.t;
        let mut syndromes = vec![0u32; count];
        for e in 1..=count {
            if e % 2 == 0 {
                syndromes[e - 1] = gf.square(syndromes[e / 2 - 1]);
            } else {
                let oi = (e - 1) / 2;
                let value = gf.mul(self.syndrome_pass(oi, data), self.pmul[e - 1]);
                syndromes[e - 1] = value ^ self.syndrome_pass(oi, parity);
            }
        }
        syndromes
    }

    /// Decodes in place: corrects up to `t` bit errors across `data` and
    /// `parity`, returning the number of bits corrected.
    ///
    /// # Errors
    ///
    /// Returns [`BchError::Uncorrectable`] when more than `t` errors are
    /// present (with high probability — silent miscorrection is possible
    /// beyond `t`, exactly as on real hardware).
    // sos-lint: allow(panic-path, "error locations are reduced modulo the code length before flipping bits")
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
        // Codeword positions actually in use.
        let used = p + data_bits;
        // Padding bits in the last parity byte are not codeword
        // positions; clear any noise the medium injected there so the
        // syndrome pass sees only real codeword bits.
        if !p.is_multiple_of(8) {
            let last = parity.len() - 1;
            parity[last] &= (1u8 << (p % 8)) - 1;
        }
        let syndromes = self.syndromes(data, parity);
        if syndromes.iter().all(|&s| s == 0) {
            return Ok(0);
        }
        // Berlekamp–Massey: find the error locator polynomial.
        let locator = self.berlekamp_massey(&syndromes);
        let degree = locator.len() - 1;
        if degree > self.t {
            return Err(BchError::Uncorrectable);
        }
        self.find_roots(&locator, used, data, parity)
    }

    /// Locates and flips the error positions of a degree-`d` locator
    /// polynomial: closed forms for the overwhelmingly common single- and
    /// double-error cases, Chien search over the used positions beyond.
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
        data: &mut [u8],
        parity: &mut [u8],
    ) -> Result<usize, BchError> {
        let gf = &self.gf;
        let p = self.parity_bits();
        let n = gf.n;
        let degree = locator.len() - 1;
        let flip = |pos: usize, data: &mut [u8], parity: &mut [u8]| {
            if pos < p {
                flip_bit(parity, pos);
            } else {
                flip_bit(data, pos - p);
            }
        };
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
                flip(pos, data, parity);
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
                flip(pos1, data, parity);
                flip(pos2, data, parity);
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
                        flip(pos, data, parity);
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
/// holds more than `t` errors (Poisson tail; mirrors
/// `sos_flash::ErrorModel::p_uncorrectable` without the dependency).
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

    #[test]
    fn table_encoder_matches_bitwise_reference() {
        let mut rng = StdRng::seed_from_u64(77);
        for (m, t) in [(8u32, 2usize), (10, 4), (13, 18)] {
            let code = BchCode::new(m, t);
            for len in [1usize, 5, 64, 200] {
                let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                let fast = code.encode_register(&data);
                let slow = code.encode_bitwise(&data);
                assert_eq!(fast, slow, "m={m} t={t} len={len}");
            }
        }
    }

    #[test]
    fn word_encoder_matches_byte_reference() {
        let mut rng = StdRng::seed_from_u64(78);
        for (m, t) in [(10u32, 4usize), (10, 8), (13, 18), (13, 40)] {
            let code = BchCode::new(m, t);
            // (10, 4) has p < 64 and exercises the fallback; the rest
            // exercise the lane tables.
            for len in [1usize, 7, 8, 9, 63, 64, 200, 512] {
                let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                let word = code.encode_words(&data);
                let byte = code.encode_register(&data);
                assert_eq!(word, byte, "m={m} t={t} len={len}");
            }
        }
    }

    /// Reference syndrome vector `S_1..S_2t` via byte-Horner (oracle for
    /// the word-wide pass in [`BchCode::syndromes`]).
    fn syndromes_bytes(code: &BchCode, data: &[u8], parity: &[u8]) -> Vec<u32> {
        let gf = &code.gf;
        let count = 2 * code.t;
        let mut syndromes = vec![0u32; count];
        for (j, syndrome) in syndromes.iter_mut().enumerate() {
            // Data contribution via byte-Horner at relative positions,
            // then shifted by alpha^(p*j) to its codeword offset.
            let mut acc = 0u32;
            let table = &code.contrib[j * 256..(j + 1) * 256];
            let s = code.step[j];
            for &byte in data.iter().rev() {
                acc = gf.mul(acc, s) ^ table[byte as usize];
            }
            let mut value = gf.mul(acc, code.pmul[j]);
            // Parity contribution at absolute positions 0..p.
            let mut pacc = 0u32;
            for &byte in parity.iter().rev() {
                pacc = gf.mul(pacc, s) ^ table[byte as usize];
            }
            value ^= pacc;
            *syndrome = value;
        }
        syndromes
    }

    #[test]
    fn word_syndromes_match_byte_reference() {
        let mut rng = StdRng::seed_from_u64(79);
        for (m, t) in [(10u32, 4usize), (13, 18), (13, 40)] {
            let code = BchCode::new(m, t);
            for len in [1usize, 8, 31, 200, 512] {
                let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                let parity: Vec<u8> = (0..code.parity_bytes()).map(|_| rng.gen()).collect();
                let word = code.syndromes(&data, &parity);
                let byte = syndromes_bytes(&code, &data, &parity);
                assert_eq!(word, byte, "m={m} t={t} len={len}");
            }
        }
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
        let code = BchCode::flash_default();
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
        // Sanity: the default code tolerates ~1e-3-class RBER.
        let default_limit = BchCode::flash_default().rber_limit(512, 1e-9);
        assert!((1e-4..5e-3).contains(&default_limit), "{default_limit}");
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
        // m=3, t=1: p = 3 < 8 exercises the fallback path.
        let code = BchCode::new(3, 1);
        assert!(code.parity_bits() < 8);
        // One data bit fits (k = 4).
        let data = vec![0b1u8 & 1];
        let _ = data;
        // k=4 bits: no whole byte fits, so just check construction and
        // rber_limit sanity.
        assert!(code.k() >= 1);
        assert!(code.rber_limit(0, 1e-6) > 0.0);
    }
}
