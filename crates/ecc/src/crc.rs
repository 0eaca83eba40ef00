//! CRC-32 (IEEE 802.3) — detection-only integrity checking.
//!
//! Approximate storage (§4.2) stores SPARE data with weak or no
//! correction, but SOS still needs to *know* when data has degraded so it
//! can trigger refresh, cloud repair or deletion. A CRC per page provides
//! that detection at 4 bytes of overhead.

const POLY: u32 = 0xEDB8_8320; // reflected IEEE polynomial

/// Lazily-built 256-entry CRC table.
fn table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
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
        t
    })
}

/// Computes the CRC-32 of `data`.
// sos-lint: allow(panic-path, "the table index is masked to 8 bits against a 256-entry table")
pub fn crc32(data: &[u8]) -> u32 {
    let t = table();
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = (crc >> 8) ^ t[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
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
