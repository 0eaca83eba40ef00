//! Per-page out-of-band (OOB) metadata.
//!
//! Real NAND controllers tuck a few bytes of mapping metadata into each
//! page's spare area so the L2P map can be rebuilt after a power loss.
//! In this simulator the ECC parity already consumes nearly the whole
//! spare region, so OOB metadata is modelled as a sidecar record stored
//! atomically with the page contents by
//! [`FlashDevice::program`](crate::FlashDevice::program), which takes
//! one for every page, and read back (without the data payload) by
//! [`FlashDevice::read_oob`](crate::FlashDevice::read_oob).
//!
//! A page whose program was interrupted by a power cut is *torn*: its
//! OOB record is stored with a corrupted CRC, so recovery can detect and
//! discard it exactly as real firmware discards a page whose OOB fails
//! its checksum.

/// What a programmed page holds, from the FTL's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// Host or GC data addressed by an LPN.
    Data,
    /// A chunk of an FTL checkpoint (the `lpn` field carries the chunk
    /// index within the checkpoint instead of a logical page number).
    Checkpoint,
}

/// Out-of-band metadata written atomically with a page program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OobMeta {
    /// Logical page number (for [`PageKind::Data`]) or checkpoint chunk
    /// index (for [`PageKind::Checkpoint`]).
    pub lpn: u64,
    /// Monotonic sequence number assigned by the FTL; recovery resolves
    /// duplicate LPNs latest-sequence-wins.
    pub seq: u64,
    /// Placement stream tag (SYS/SPARE data, GC, parity, ...).
    pub stream: u8,
    /// Record kind.
    pub kind: PageKind,
    /// CRC over the fields above; a mismatch marks the page torn.
    pub crc: u32,
}

impl OobMeta {
    /// OOB record for a data page.
    pub fn data(lpn: u64, seq: u64, stream: u8) -> Self {
        Self::sealed(lpn, seq, stream, PageKind::Data)
    }

    /// OOB record for a checkpoint chunk.
    pub fn checkpoint(chunk: u64, seq: u64, stream: u8) -> Self {
        Self::sealed(chunk, seq, stream, PageKind::Checkpoint)
    }

    fn sealed(lpn: u64, seq: u64, stream: u8, kind: PageKind) -> Self {
        let mut meta = OobMeta {
            lpn,
            seq,
            stream,
            kind,
            crc: 0,
        };
        meta.crc = meta.compute_crc();
        meta
    }

    /// Whether the stored CRC matches the fields; `false` means the page
    /// is torn (program interrupted by a power cut) and must be
    /// discarded by recovery.
    pub fn is_valid(&self) -> bool {
        self.crc == self.compute_crc()
    }

    /// The same record with its CRC deliberately corrupted, as stored
    /// for a torn page.
    pub(crate) fn torn(mut self) -> Self {
        self.crc ^= 0xDEAD_BEEF;
        self
    }

    // sos-lint: allow(panic-path, "constant ranges into a fixed [u8; 18] buffer")
    fn compute_crc(&self) -> u32 {
        let mut bytes = [0u8; 18];
        bytes[..8].copy_from_slice(&self.lpn.to_le_bytes());
        bytes[8..16].copy_from_slice(&self.seq.to_le_bytes());
        bytes[16] = self.stream;
        bytes[17] = match self.kind {
            PageKind::Data => 0,
            PageKind::Checkpoint => 1,
        };
        crc32(&bytes)
    }
}

/// CRC-32 (IEEE 802.3 polynomial, bitwise) over a byte slice.
///
/// This is the same function as `sos_ecc::crc32`, computed one bit at a
/// time over the 18-byte record. It runs on every program's OOB seal
/// and every recovery probe. Calling `sos_ecc::crc32` instead needs a
/// `sos-flash → sos-ecc` dependency, which rewrites `perfbench/Cargo.lock`,
/// so the fold waits for a change that may touch the benchmark's files.
/// The integration test `oob_seal_is_the_ecc_crc32` pins the two equal.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_oob_validates() {
        let meta = OobMeta::data(42, 7, 3);
        assert!(meta.is_valid());
        assert_eq!(meta.kind, PageKind::Data);
    }

    #[test]
    fn torn_oob_fails_validation() {
        let meta = OobMeta::data(42, 7, 3).torn();
        assert!(!meta.is_valid());
    }

    #[test]
    fn distinct_fields_give_distinct_crcs() {
        let a = OobMeta::data(1, 1, 0);
        let b = OobMeta::data(2, 1, 0);
        let c = OobMeta::checkpoint(1, 1, 0);
        assert_ne!(a.crc, b.crc);
        assert_ne!(a.crc, c.crc);
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // Standard check value for CRC-32/IEEE over "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
