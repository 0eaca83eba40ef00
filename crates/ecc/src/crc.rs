//! CRC-32 (IEEE 802.3) — detection-only integrity checking.
//!
//! Approximate storage (§4.2) stores SPARE data with weak or no
//! correction, but SOS still needs to *know* when data has degraded so it
//! can trigger refresh, cloud repair or deletion. A CRC per page provides
//! that detection at 4 bytes of overhead.
//!
//! The kernel is slice-by-16: sixteen 256-entry tables, built at compile
//! time, fold 16 input bytes per step with independent lookups instead
//! of one dependent lookup per byte. Tail bytes go through the first
//! table one at a time.

const POLY: u32 = 0xEDB8_8320; // reflected IEEE polynomial

/// `TABLES[0][b]` is the CRC register update for byte `b`;
/// `TABLES[k][b]` is that update followed by `k` zero bytes.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Computes the CRC-32 of `data`.
// sos-lint: allow(panic-path, "every index is a u8 widened to usize into a [u32; 256] table")
pub fn crc32(data: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &TABLES;
    let (blocks, tail) = data.as_chunks::<16>();
    let mut crc = 0xFFFF_FFFFu32;
    for &[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] in blocks {
        let [c0, c1, c2, c3] = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
        crc = t15[usize::from(c0)]
            ^ t14[usize::from(c1)]
            ^ t13[usize::from(c2)]
            ^ t12[usize::from(c3)]
            ^ t11[usize::from(b4)]
            ^ t10[usize::from(b5)]
            ^ t9[usize::from(b6)]
            ^ t8[usize::from(b7)]
            ^ t7[usize::from(b8)]
            ^ t6[usize::from(b9)]
            ^ t5[usize::from(b10)]
            ^ t4[usize::from(b11)]
            ^ t3[usize::from(b12)]
            ^ t2[usize::from(b13)]
            ^ t1[usize::from(b14)]
            ^ t0[usize::from(b15)];
    }
    for &byte in tail {
        crc = (crc >> 8) ^ t0[usize::from(crc as u8 ^ byte)];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Reference kernel: one dependent lookup per byte, in a table built
    /// here rather than taken from `TABLES`.
    fn oracle(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc = (crc >> 8) ^ table[((crc ^ byte as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(oracle(b"123456789"), 0xCBF4_3926);
        assert_eq!(oracle(b""), 0);
    }

    #[test]
    fn sliced_kernel_matches_the_oracle_at_every_short_length() {
        let data: Vec<u8> = (0..80u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        for len in 0..=80 {
            assert_eq!(crc32(&data[..len]), oracle(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn sliced_kernel_matches_the_oracle_on_pages_at_every_offset() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC3C3);
        let buf: Vec<u8> = (0..4352 + 16).map(|_| rng.gen()).collect();
        for len in [4096, 4352] {
            for start in 0..16 {
                let page = &buf[start..start + len];
                assert_eq!(crc32(page), oracle(page), "length {len}, offset {start}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = vec![0x42u8; 64];
        let clean = crc32(&data);
        for byte in 0..64 {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), clean, "missed flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn detects_transpositions() {
        let a = b"page contents AB".to_vec();
        let mut b = a.clone();
        b.swap(14, 15);
        assert_ne!(crc32(&a), crc32(&b));
    }
}
