//! Page-level ECC schemes, including approximate (priority-split) modes.
//!
//! SOS stores SYS pages with strong correction and SPARE pages with weak
//! protection, "assuming that applications can tolerate the implications
//! of increased error rates over time" (§4.2). A [`PageCodec`] binds one
//! [`EccScheme`] to a page geometry: `encode` packs data + redundancy into
//! `data + spare` bytes, `decode` recovers data and reports its status.
//!
//! The simulator's write path programs [`PageCodec::frame`]d pages
//! instead: `encode`'s layout with every CRC written but the BCH parity
//! left zero. Its read path, [`PageCodec::decode_with_dirty`], never
//! reads stored parity. It hands each dirty chunk's error positions to
//! [`BchCode::decode_pattern`] and flips the located data bits straight
//! into the chunk. The pattern has the same syndromes as the received
//! word because BCH is linear, so framed and encoded pages decode alike
//! (DESIGN.md §13.5).
//!
//! The [`EccScheme::PrioritySplit`] variant implements approximate storage
//! in the style of Sampson et al. (TOCS '14): a protected prefix (headers,
//! high-priority bits) gets real BCH, the error-tolerant tail gets only
//! CRC detection, so bit errors degrade quality instead of destroying the
//! object.

use crate::bch::{BchCode, BchError};
use crate::crc::crc32;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Codeword chunk size: each chunk is protected by an independent BCH
/// codeword, matching real flash controllers.
pub const CHUNK_BYTES: usize = 512;

/// How a page's contents are protected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EccScheme {
    /// No redundancy at all: pure approximate storage. Errors pass
    /// through silently.
    None,
    /// CRC-32 only: errors are detected (per page) but not corrected.
    DetectOnly,
    /// BCH with correction capability `t` per 512-byte chunk.
    Bch {
        /// Bit errors correctable per chunk.
        t: usize,
    },
    /// Approximate storage: the first `protected_chunks` chunks get BCH
    /// (`t` per chunk), the remainder gets CRC detection only.
    PrioritySplit {
        /// Bit errors correctable per protected chunk.
        t: usize,
        /// Number of leading chunks that receive full protection.
        protected_chunks: usize,
    },
}

/// Health of a decoded page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PageStatus {
    /// All protected data verified; no residual errors detected.
    Intact,
    /// The page decoded but carries detected residual errors in its
    /// unprotected (approximate) region — quality has degraded.
    DegradedDetected,
    /// Protected data could not be corrected; the page is lost unless a
    /// higher-level copy exists.
    Uncorrectable,
}

/// Result of decoding a page.
#[derive(Debug, Clone)]
pub struct DecodeReport {
    /// Recovered page data (best effort for degraded/uncorrectable).
    pub data: Vec<u8>,
    /// Bits corrected by ECC across all chunks.
    pub corrected_bits: usize,
    /// Data health.
    pub status: PageStatus,
}

/// Errors constructing or using a codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The scheme's redundancy does not fit the spare area.
    SpareTooSmall {
        /// Redundancy bytes required.
        needed: usize,
        /// Spare bytes available.
        available: usize,
    },
    /// Input length does not match the codec's data size.
    WrongDataLength {
        /// Expected bytes.
        expected: usize,
        /// Got bytes.
        got: usize,
    },
    /// Raw page length does not match `data + spare`.
    WrongRawLength {
        /// Expected bytes.
        expected: usize,
        /// Got bytes.
        got: usize,
    },
    /// `protected_chunks` exceeds the page's chunk count.
    BadProtectedRange,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::SpareTooSmall { needed, available } => {
                write!(f, "spare too small: need {needed} bytes, have {available}")
            }
            CodecError::WrongDataLength { expected, got } => {
                write!(f, "wrong data length: expected {expected}, got {got}")
            }
            CodecError::WrongRawLength { expected, got } => {
                write!(f, "wrong raw length: expected {expected}, got {got}")
            }
            CodecError::BadProtectedRange => write!(f, "protected chunk range exceeds page"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Returns a cached BCH code over GF(2^13) for correction capability `t`.
// sos-lint: allow(panic-path, "the supported correction strengths are a fixed compile-time set")
fn bch_for(t: usize) -> Arc<BchCode> {
    static CACHE: OnceLock<Mutex<HashMap<usize, Arc<BchCode>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = cache.lock().expect("bch cache poisoned");
    guard
        .entry(t)
        .or_insert_with(|| Arc::new(BchCode::new(13, t)))
        .clone()
}

impl EccScheme {
    /// Redundancy bytes this scheme needs for `data_bytes` of payload.
    pub fn overhead_bytes(&self, data_bytes: usize) -> usize {
        let chunks = data_bytes.div_ceil(CHUNK_BYTES);
        match *self {
            EccScheme::None => 0,
            EccScheme::DetectOnly => 4,
            EccScheme::Bch { t } => chunks * bch_for(t).parity_bytes(),
            EccScheme::PrioritySplit {
                t,
                protected_chunks,
            } => protected_chunks.min(chunks) * bch_for(t).parity_bytes() + 4,
        }
    }

    /// Raw bit error rate this scheme tolerates on *protected* data with
    /// per-codeword failure probability below `target`. Detection-only
    /// and unprotected schemes return `0.0` (no correction at all).
    pub fn protected_rber_limit(&self, target: f64) -> f64 {
        match *self {
            EccScheme::None | EccScheme::DetectOnly => 0.0,
            EccScheme::Bch { t } | EccScheme::PrioritySplit { t, .. } => {
                bch_for(t).rber_limit(CHUNK_BYTES, target)
            }
        }
    }

    /// A human-readable short name.
    pub fn name(&self) -> String {
        match *self {
            EccScheme::None => "none".into(),
            EccScheme::DetectOnly => "crc".into(),
            EccScheme::Bch { t } => format!("bch-t{t}"),
            EccScheme::PrioritySplit {
                t,
                protected_chunks,
            } => {
                format!("split-t{t}-p{protected_chunks}")
            }
        }
    }
}

/// A page codec: one ECC scheme bound to a page geometry.
#[derive(Debug, Clone)]
pub struct PageCodec {
    scheme: EccScheme,
    data_bytes: usize,
    spare_bytes: usize,
    /// The chunk code for BCH-backed schemes, resolved once at
    /// construction so per-page encode/decode skips the global cache
    /// lock.
    code: Option<Arc<BchCode>>,
}

impl PageCodec {
    /// Creates a codec, validating that the scheme fits the spare area.
    pub fn new(
        scheme: EccScheme,
        data_bytes: usize,
        spare_bytes: usize,
    ) -> Result<Self, CodecError> {
        let needed = scheme.overhead_bytes(data_bytes);
        if needed > spare_bytes {
            return Err(CodecError::SpareTooSmall {
                needed,
                available: spare_bytes,
            });
        }
        if let EccScheme::PrioritySplit {
            protected_chunks, ..
        } = scheme
        {
            if protected_chunks > data_bytes.div_ceil(CHUNK_BYTES) {
                return Err(CodecError::BadProtectedRange);
            }
        }
        let code = match scheme {
            EccScheme::Bch { t } | EccScheme::PrioritySplit { t, .. } => Some(bch_for(t)),
            EccScheme::None | EccScheme::DetectOnly => None,
        };
        Ok(PageCodec {
            scheme,
            data_bytes,
            spare_bytes,
            code,
        })
    }

    /// The chunk code for correction strength `t`: the one cached at
    /// construction, or (defensively) the global cache's.
    fn code_for(&self, t: usize) -> Arc<BchCode> {
        match &self.code {
            Some(code) => Arc::clone(code),
            None => bch_for(t),
        }
    }

    /// The scheme in use.
    pub fn scheme(&self) -> EccScheme {
        self.scheme
    }

    /// Payload size in bytes.
    pub fn data_bytes(&self) -> usize {
        self.data_bytes
    }

    /// Total raw page size (`data + spare`).
    pub fn raw_bytes(&self) -> usize {
        self.data_bytes + self.spare_bytes
    }

    /// Length of the BCH-protected data prefix: the whole page under
    /// `Bch`, the protected chunks under `PrioritySplit`, none otherwise.
    fn protected_end(&self) -> usize {
        match self.scheme {
            EccScheme::None | EccScheme::DetectOnly => 0,
            EccScheme::Bch { .. } => self.data_bytes,
            EccScheme::PrioritySplit {
                protected_chunks, ..
            } => (protected_chunks * CHUNK_BYTES).min(self.data_bytes),
        }
    }

    /// Offset within the spare area of the CRC-32 over the unprotected
    /// tail, for the schemes that store one: it follows the protected
    /// chunks' parity slots.
    fn crc_offset(&self) -> Option<usize> {
        match self.scheme {
            EccScheme::None | EccScheme::Bch { .. } => None,
            EccScheme::DetectOnly | EccScheme::PrioritySplit { .. } => {
                let parity_bytes = self.code.as_ref().map_or(0, |code| code.parity_bytes());
                Some(self.protected_end().div_ceil(CHUNK_BYTES) * parity_bytes)
            }
        }
    }

    /// Frames `data` into a raw page: [`Self::encode`]'s layout with every
    /// CRC written and every BCH parity slot left zero. The simulator's
    /// write path programs framed pages; [`Self::decode_with_dirty`]
    /// never reads stored parity, so it decodes them exactly as it
    /// decodes encoded ones.
    ///
    /// # Errors
    ///
    /// Fails if `data` is not exactly `data_bytes` long.
    // sos-lint: allow(panic-path, "the CRC slot lies inside the spare area, which PageCodec::new checked holds the scheme's whole overhead")
    pub fn frame(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        if data.len() != self.data_bytes {
            return Err(CodecError::WrongDataLength {
                expected: self.data_bytes,
                got: data.len(),
            });
        }
        let mut raw = Vec::with_capacity(self.raw_bytes());
        raw.extend_from_slice(data);
        raw.resize(self.raw_bytes(), 0);
        if let Some(offset) = self.crc_offset() {
            let crc = crc32(&data[self.protected_end()..]);
            raw[self.data_bytes + offset..][..4].copy_from_slice(&crc.to_le_bytes());
        }
        Ok(raw)
    }

    /// Encodes `data` into a raw page (data followed by redundancy and
    /// zero padding to the spare size): [`Self::frame`] with each
    /// protected chunk's BCH parity filled in. The eager reference that
    /// [`Self::decode`] and the tests use.
    ///
    /// # Errors
    ///
    /// Fails if `data` is not exactly `data_bytes` long.
    pub fn encode(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut raw = self.frame(data)?;
        if let Some(code) = &self.code {
            let protected_end = self.protected_end();
            let (data, spare) = raw.split_at_mut(self.data_bytes);
            let chunks = data[..protected_end].chunks(CHUNK_BYTES);
            for (chunk, slot) in chunks.zip(spare.chunks_mut(code.parity_bytes())) {
                slot.copy_from_slice(&code.encode(chunk));
            }
        }
        Ok(raw)
    }

    /// Decodes a raw page whose only errors are the bits at `dirty_bits`,
    /// without reading any stored BCH parity.
    ///
    /// `dirty_bits` are the bit positions (within the raw page) the
    /// medium flipped — simulator knowledge; a position listed twice
    /// flipped back. Each protected chunk with a dirty bit in its data or
    /// its parity slot is corrected by decoding its error pattern alone:
    /// BCH is linear, so the pattern has the received word's syndromes,
    /// and the decoder's verdict and flips (miscorrections included) are
    /// those of decoding the eagerly encoded page. Chunks with no dirty
    /// bit decode to themselves and are skipped. CRCs are checked against
    /// the stored CRC, so the page may be framed or encoded.
    ///
    /// # Errors
    ///
    /// Fails only on length mismatch; data-integrity problems are
    /// reported through [`DecodeReport::status`].
    // sos-lint: allow(panic-path, "the protected prefix is at most data_bytes long, and the raw length is validated up front")
    pub fn decode_with_dirty(
        &self,
        raw: &[u8],
        dirty_bits: &[usize],
    ) -> Result<DecodeReport, CodecError> {
        if raw.len() != self.raw_bytes() {
            return Err(CodecError::WrongRawLength {
                expected: self.raw_bytes(),
                got: raw.len(),
            });
        }
        let (data, spare) = raw.split_at(self.data_bytes);
        let mut data = data.to_vec();
        if dirty_bits.is_empty() {
            return Ok(DecodeReport {
                data,
                corrected_bits: 0,
                status: PageStatus::Intact,
            });
        }
        let protected_end = self.protected_end();
        let (corrected, failed) = match &self.code {
            Some(code) => self.correct_dirty_chunks(code, &mut data[..protected_end], dirty_bits),
            None => (0, false),
        };
        let status = match self.crc_offset() {
            _ if failed => PageStatus::Uncorrectable,
            None => PageStatus::Intact,
            // A dirty spare bit may have hit the CRC: check it.
            Some(offset) if dirty_bits.iter().any(|&b| b / 8 >= self.data_bytes) => {
                let stored = spare
                    .get(offset..offset + 4)
                    .and_then(|bytes| bytes.try_into().ok())
                    .map(u32::from_le_bytes);
                if stored == Some(crc32(&data[protected_end..])) {
                    PageStatus::Intact
                } else {
                    PageStatus::DegradedDetected
                }
            }
            Some(_) if dirty_bits.iter().any(|&b| b / 8 >= protected_end) => {
                PageStatus::DegradedDetected
            }
            Some(_) => PageStatus::Intact,
        };
        Ok(DecodeReport {
            data,
            corrected_bits: corrected,
            status,
        })
    }

    /// Corrects, in place, every chunk of the protected prefix `head`
    /// with a dirty bit in its data or in the parity bits of its slot, by
    /// decoding that chunk's error pattern. Returns the bits corrected
    /// and whether any chunk was uncorrectable.
    // sos-lint: allow(panic-path, "chunk and slot bit widths are non-zero sizes fixed at codec construction; a located data position lies below its chunk's own bit length")
    fn correct_dirty_chunks(
        &self,
        code: &BchCode,
        head: &mut [u8],
        dirty_bits: &[usize],
    ) -> (usize, bool) {
        let p = code.parity_bits();
        let chunk_bits = CHUNK_BYTES * 8;
        let slot_bits = code.parity_bytes() * 8;
        let head_bits = head.len() * 8;
        let slots_start = self.data_bytes * 8;
        let slots_end = slots_start + head.len().div_ceil(CHUNK_BYTES) * slot_bits;
        // (chunk, codeword position) of a dirty bit in a protected
        // chunk's data or its slot's parity bits; slot padding at or past
        // `p` is not a codeword position.
        let locate = |bit: usize| {
            if bit < head_bits {
                Some((bit / chunk_bits, p + bit % chunk_bits))
            } else if (slots_start..slots_end).contains(&bit) {
                let offset = bit - slots_start;
                Some((offset / slot_bits, offset % slot_bits)).filter(|&(_, pos)| pos < p)
            } else {
                None
            }
        };
        let mut positions = Vec::new();
        let mut corrected = 0usize;
        let mut failed = false;
        for (index, chunk) in head.chunks_mut(CHUNK_BYTES).enumerate() {
            positions.clear();
            positions.extend(
                dirty_bits
                    .iter()
                    .filter_map(|&bit| locate(bit))
                    .filter(|&(c, _)| c == index)
                    .map(|(_, pos)| pos),
            );
            if positions.is_empty() {
                continue;
            }
            let data_bits = chunk.len() * 8;
            let flip_data = |pos: usize| {
                if let Some(bit) = pos.checked_sub(p) {
                    chunk[bit / 8] ^= 1 << (bit % 8);
                }
            };
            match code.decode_pattern(&positions, data_bits, flip_data) {
                Ok(n) => corrected += n,
                Err(_) => failed = true,
            }
        }
        (corrected, failed)
    }

    /// Decodes a raw page, correcting protected chunks and checking
    /// detection codes.
    ///
    /// # Errors
    ///
    /// Fails only on length mismatch; data-integrity problems are
    /// reported through [`DecodeReport::status`].
    // sos-lint: allow(panic-path, "chunk offsets are multiples of sizes fixed at codec construction and the raw length is validated up front")
    pub fn decode(&self, raw: &[u8]) -> Result<DecodeReport, CodecError> {
        if raw.len() != self.raw_bytes() {
            return Err(CodecError::WrongRawLength {
                expected: self.raw_bytes(),
                got: raw.len(),
            });
        }
        let mut data = raw[..self.data_bytes].to_vec();
        let spare = &raw[self.data_bytes..];
        let mut corrected = 0usize;
        let status = match self.scheme {
            EccScheme::None => PageStatus::Intact,
            EccScheme::DetectOnly => {
                let stored = u32::from_le_bytes(spare[..4].try_into().expect("4 bytes"));
                if crc32(&data) == stored {
                    PageStatus::Intact
                } else {
                    PageStatus::DegradedDetected
                }
            }
            EccScheme::Bch { t } => {
                let code = self.code_for(t);
                let pb = code.parity_bytes();
                let mut failed = false;
                let mut offset = 0;
                for chunk in data.chunks_mut(CHUNK_BYTES) {
                    let mut parity = spare[offset..offset + pb].to_vec();
                    match code.decode(chunk, &mut parity) {
                        Ok(n) => corrected += n,
                        Err(BchError::Uncorrectable) => failed = true,
                        Err(e) => unreachable!("codec sizing bug: {e}"),
                    }
                    offset += pb;
                }
                if failed {
                    PageStatus::Uncorrectable
                } else {
                    PageStatus::Intact
                }
            }
            EccScheme::PrioritySplit {
                t,
                protected_chunks,
            } => {
                let code = self.code_for(t);
                let pb = code.parity_bytes();
                let protected_end = (protected_chunks * CHUNK_BYTES).min(data.len());
                let mut failed = false;
                let mut offset = 0;
                let (head, tail) = data.split_at_mut(protected_end);
                for chunk in head.chunks_mut(CHUNK_BYTES) {
                    let mut parity = spare[offset..offset + pb].to_vec();
                    match code.decode(chunk, &mut parity) {
                        Ok(n) => corrected += n,
                        Err(BchError::Uncorrectable) => failed = true,
                        Err(e) => unreachable!("codec sizing bug: {e}"),
                    }
                    offset += pb;
                }
                let stored =
                    u32::from_le_bytes(spare[offset..offset + 4].try_into().expect("4 bytes"));
                if failed {
                    PageStatus::Uncorrectable
                } else if crc32(tail) != stored {
                    PageStatus::DegradedDetected
                } else {
                    PageStatus::Intact
                }
            }
        };
        Ok(DecodeReport {
            data,
            corrected_bits: corrected,
            status,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const DATA: usize = 4096;
    const SPARE: usize = 256;

    fn payload(seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..DATA).map(|_| rng.gen()).collect()
    }

    fn flip_bits(raw: &mut [u8], range: std::ops::Range<usize>, count: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = std::collections::HashSet::new();
        while seen.len() < count {
            let byte = rng.gen_range(range.clone());
            let bit = rng.gen_range(0u32..8);
            if seen.insert((byte, bit)) {
                raw[byte] ^= 1u8 << bit;
            }
        }
    }

    #[test]
    fn none_scheme_roundtrips_and_passes_errors_silently() {
        let codec = PageCodec::new(EccScheme::None, DATA, SPARE).unwrap();
        let data = payload(1);
        let mut raw = codec.encode(&data).unwrap();
        flip_bits(&mut raw, 0..DATA, 5, 2);
        let report = codec.decode(&raw).unwrap();
        assert_eq!(report.status, PageStatus::Intact); // silent by design
        assert_ne!(report.data, data);
    }

    #[test]
    fn detect_only_flags_degradation() {
        let codec = PageCodec::new(EccScheme::DetectOnly, DATA, SPARE).unwrap();
        let data = payload(3);
        let raw = codec.encode(&data).unwrap();
        let clean = codec.decode(&raw).unwrap();
        assert_eq!(clean.status, PageStatus::Intact);
        assert_eq!(clean.data, data);
        let mut corrupted = raw.clone();
        flip_bits(&mut corrupted, 0..DATA, 1, 4);
        let report = codec.decode(&corrupted).unwrap();
        assert_eq!(report.status, PageStatus::DegradedDetected);
    }

    #[test]
    fn bch_corrects_scattered_errors() {
        let codec = PageCodec::new(EccScheme::Bch { t: 18 }, DATA, SPARE).unwrap();
        let data = payload(5);
        let mut raw = codec.encode(&data).unwrap();
        // 40 errors over the whole page: ~5 per 512-byte chunk, well
        // within t=18 per chunk.
        flip_bits(&mut raw, 0..DATA, 40, 6);
        let report = codec.decode(&raw).unwrap();
        assert_eq!(report.status, PageStatus::Intact);
        assert_eq!(report.data, data);
        assert_eq!(report.corrected_bits, 40);
    }

    #[test]
    fn bch_reports_uncorrectable_when_overwhelmed() {
        let codec = PageCodec::new(EccScheme::Bch { t: 8 }, DATA, SPARE).unwrap();
        let data = payload(7);
        let mut raw = codec.encode(&data).unwrap();
        // Concentrate 30 errors in the first chunk (t=8).
        flip_bits(&mut raw, 0..CHUNK_BYTES, 30, 8);
        let report = codec.decode(&raw).unwrap();
        assert_eq!(report.status, PageStatus::Uncorrectable);
    }

    #[test]
    fn priority_split_protects_head_and_detects_tail() {
        let scheme = EccScheme::PrioritySplit {
            t: 18,
            protected_chunks: 2,
        };
        let codec = PageCodec::new(scheme, DATA, SPARE).unwrap();
        let data = payload(9);
        let mut raw = codec.encode(&data).unwrap();
        // Errors in the protected head get corrected...
        flip_bits(&mut raw, 0..1024, 10, 10);
        // ...errors in the tail are only detected.
        flip_bits(&mut raw, 1024..DATA, 12, 11);
        let report = codec.decode(&raw).unwrap();
        assert_eq!(report.status, PageStatus::DegradedDetected);
        assert_eq!(report.data[..1024], data[..1024], "head must be exact");
        assert_ne!(report.data[1024..], data[1024..], "tail carries errors");
    }

    #[test]
    fn priority_split_clean_page_is_intact() {
        let scheme = EccScheme::PrioritySplit {
            t: 8,
            protected_chunks: 1,
        };
        let codec = PageCodec::new(scheme, DATA, SPARE).unwrap();
        let data = payload(12);
        let raw = codec.encode(&data).unwrap();
        let report = codec.decode(&raw).unwrap();
        assert_eq!(report.status, PageStatus::Intact);
        assert_eq!(report.data, data);
    }

    #[test]
    fn overhead_fits_spare_for_default_schemes() {
        for scheme in [
            EccScheme::None,
            EccScheme::DetectOnly,
            EccScheme::Bch { t: 18 },
            EccScheme::PrioritySplit {
                t: 18,
                protected_chunks: 2,
            },
        ] {
            let overhead = scheme.overhead_bytes(DATA);
            assert!(overhead <= SPARE, "{} needs {overhead}", scheme.name());
            assert!(PageCodec::new(scheme, DATA, SPARE).is_ok());
        }
    }

    #[test]
    fn oversized_scheme_is_rejected() {
        let err = PageCodec::new(EccScheme::Bch { t: 40 }, DATA, SPARE).unwrap_err();
        assert!(matches!(err, CodecError::SpareTooSmall { .. }));
    }

    #[test]
    fn bad_protected_range_is_rejected() {
        let scheme = EccScheme::PrioritySplit {
            t: 4,
            protected_chunks: 9, // page has 8 chunks
        };
        // Overhead for 9 protected chunks of t=4 is small enough to fit,
        // so the range check must catch it.
        let err = PageCodec::new(scheme, DATA, SPARE).unwrap_err();
        assert!(matches!(err, CodecError::BadProtectedRange));
    }

    #[test]
    fn wrong_lengths_are_rejected() {
        let codec = PageCodec::new(EccScheme::DetectOnly, DATA, SPARE).unwrap();
        assert!(matches!(
            codec.encode(&[0u8; 10]).unwrap_err(),
            CodecError::WrongDataLength { .. }
        ));
        assert!(matches!(
            codec.decode(&[0u8; 10]).unwrap_err(),
            CodecError::WrongRawLength { .. }
        ));
    }

    #[test]
    fn selective_decode_matches_full_decode() {
        let mut rng = StdRng::seed_from_u64(2718);
        for scheme in [
            EccScheme::DetectOnly,
            EccScheme::Bch { t: 8 },
            EccScheme::PrioritySplit {
                t: 8,
                protected_chunks: 2,
            },
        ] {
            let codec = PageCodec::new(scheme, DATA, SPARE).unwrap();
            let data = payload(rng.gen());
            let clean = codec.encode(&data).unwrap();
            for &errors in &[0usize, 1, 3, 12] {
                let mut raw = clean.clone();
                let mut dirty = Vec::new();
                for _ in 0..errors {
                    let bit = rng.gen_range(0..raw.len() * 8);
                    raw[bit / 8] ^= 1 << (bit % 8);
                    dirty.push(bit);
                }
                let full = codec.decode(&raw).unwrap();
                let selective = codec.decode_with_dirty(&raw, &dirty).unwrap();
                assert_eq!(
                    full.status,
                    selective.status,
                    "{} e={errors}",
                    scheme.name()
                );
                assert_eq!(full.data, selective.data, "{} e={errors}", scheme.name());
            }
        }
    }

    #[test]
    fn selective_decode_clean_is_intact() {
        let codec = PageCodec::new(EccScheme::Bch { t: 18 }, DATA, SPARE).unwrap();
        let data = payload(55);
        let raw = codec.encode(&data).unwrap();
        let report = codec.decode_with_dirty(&raw, &[]).unwrap();
        assert_eq!(report.status, PageStatus::Intact);
        assert_eq!(report.data, data);
    }

    impl PageCodec {
        /// The eager-parity `decode_with_dirty` this module shipped before
        /// parity on demand, kept verbatim as the shadow oracle: it reads
        /// stored BCH parity, so it needs an encoded page.
        ///
        /// Decodes a raw page, skipping ECC work on chunks known to be
        /// error-free.
        ///
        /// `dirty_bits` are the bit positions (within the raw page) known to
        /// carry errors — simulator knowledge standing in for a hardware
        /// zero-syndrome shortcut. Chunks without dirty bits decode to
        /// themselves, so skipping them is observationally equivalent.
        // sos-lint: allow(panic-path, "chunk offsets are multiples of sizes fixed at codec construction and the raw length is validated up front")
        fn decode_with_dirty_oracle(
            &self,
            raw: &[u8],
            dirty_bits: &[usize],
        ) -> Result<DecodeReport, CodecError> {
            if raw.len() != self.raw_bytes() {
                return Err(CodecError::WrongRawLength {
                    expected: self.raw_bytes(),
                    got: raw.len(),
                });
            }
            if dirty_bits.is_empty() {
                return Ok(DecodeReport {
                    data: raw[..self.data_bytes].to_vec(),
                    corrected_bits: 0,
                    status: PageStatus::Intact,
                });
            }
            // A dirty byte anywhere in the spare area may hit any chunk's
            // parity or the CRC; fall back to the full decode in that case.
            if dirty_bits.iter().any(|&b| b / 8 >= self.data_bytes) {
                return self.decode(raw);
            }
            let dirty_chunks: std::collections::HashSet<usize> =
                dirty_bits.iter().map(|&b| b / 8 / CHUNK_BYTES).collect();
            let mut data = raw[..self.data_bytes].to_vec();
            let spare = &raw[self.data_bytes..];
            let mut corrected = 0usize;
            let status = match self.scheme {
                EccScheme::None => PageStatus::Intact,
                EccScheme::DetectOnly => PageStatus::DegradedDetected, // dirty data bits exist
                EccScheme::Bch { t } => {
                    let code = self.code_for(t);
                    let pb = code.parity_bytes();
                    let mut failed = false;
                    for (index, chunk) in data.chunks_mut(CHUNK_BYTES).enumerate() {
                        if !dirty_chunks.contains(&index) {
                            continue;
                        }
                        let offset = index * pb;
                        let mut parity = spare[offset..offset + pb].to_vec();
                        match code.decode(chunk, &mut parity) {
                            Ok(n) => corrected += n,
                            Err(BchError::Uncorrectable) => failed = true,
                            Err(e) => unreachable!("codec sizing bug: {e}"),
                        }
                    }
                    if failed {
                        PageStatus::Uncorrectable
                    } else {
                        PageStatus::Intact
                    }
                }
                EccScheme::PrioritySplit {
                    t,
                    protected_chunks,
                } => {
                    let code = self.code_for(t);
                    let pb = code.parity_bytes();
                    let protected_end = (protected_chunks * CHUNK_BYTES).min(data.len());
                    let mut failed = false;
                    let tail_dirty = dirty_bits.iter().any(|&b| b / 8 >= protected_end);
                    let (head, _tail) = data.split_at_mut(protected_end);
                    for (index, chunk) in head.chunks_mut(CHUNK_BYTES).enumerate() {
                        if !dirty_chunks.contains(&index) {
                            continue;
                        }
                        let offset = index * pb;
                        let mut parity = spare[offset..offset + pb].to_vec();
                        match code.decode(chunk, &mut parity) {
                            Ok(n) => corrected += n,
                            Err(BchError::Uncorrectable) => failed = true,
                            Err(e) => unreachable!("codec sizing bug: {e}"),
                        }
                    }
                    if failed {
                        PageStatus::Uncorrectable
                    } else if tail_dirty {
                        PageStatus::DegradedDetected
                    } else {
                        PageStatus::Intact
                    }
                }
            };
            Ok(DecodeReport {
                data,
                corrected_bits: corrected,
                status,
            })
        }
    }

    /// Raw-page bit positions for the shadow test: each `(region, seed)`
    /// pair picks one position in a region chosen to reach a distinct
    /// decode path, so a case mixes scattered, spare-only, CRC-slot and
    /// padding flips, clusters in one chunk and repeated positions.
    fn shadow_positions(codec: &PageCodec, picks: &[(u8, u64)]) -> Vec<usize> {
        let data_bits = codec.data_bytes() * 8;
        let raw_bits = codec.raw_bytes() * 8;
        let overhead_bits = codec.scheme().overhead_bytes(codec.data_bytes()) * 8;
        let parity_bytes = codec.code.as_ref().map(|code| code.parity_bytes());
        let mut positions: Vec<usize> = Vec::new();
        for &(region, seed) in picks {
            let within = |start: usize, end: usize| start + (seed as usize) % (end - start);
            let position = match region {
                // Anywhere in the raw page.
                0 => within(0, raw_bits),
                // Spare only: parity slots, the CRC and padding.
                1 => within(data_bits, raw_bits),
                // Clustered in the first chunk, beyond t at this weight.
                2 => within(0, CHUNK_BYTES * 8),
                // The CRC slot, or the first parity slot without a CRC.
                3 => match (codec.crc_offset(), parity_bytes) {
                    (Some(offset), _) => {
                        within(data_bits + offset * 8, data_bits + offset * 8 + 32)
                    }
                    (None, Some(pb)) => within(data_bits, data_bits + pb * 8),
                    (None, None) => within(data_bits, raw_bits),
                },
                // Spare padding past the scheme's overhead.
                4 => within(data_bits + overhead_bits, raw_bits),
                // The last byte of a parity slot, padding bits included.
                5 => match parity_bytes {
                    Some(pb) => {
                        let slot = (seed as usize >> 8) % (overhead_bits / 8 / pb).max(1);
                        within(
                            data_bits + (slot * pb + pb - 1) * 8,
                            data_bits + (slot + 1) * pb * 8,
                        )
                    }
                    None => within(data_bits, raw_bits),
                },
                // A repeat of an earlier position: the flip cancels.
                _ if !positions.is_empty() => positions[(seed as usize) % positions.len()],
                _ => within(0, raw_bits),
            };
            positions.push(position);
        }
        positions
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Parity on demand changes no decode: `decode_with_dirty` on a
        /// framed page equals it on the encoded page, and both equal the
        /// eager-parity oracle on the encoded page, in data, corrected
        /// bits and status.
        #[test]
        fn framed_decode_matches_eager_oracle(
            seed in proptest::prelude::any::<u64>(),
            picks in proptest::collection::vec((0u8..7, proptest::prelude::any::<u64>()), 0..=80),
        ) {
            for scheme in [
                EccScheme::None,
                EccScheme::DetectOnly,
                EccScheme::Bch { t: 8 },
                EccScheme::Bch { t: 18 },
                EccScheme::PrioritySplit { t: 18, protected_chunks: 1 },
                EccScheme::PrioritySplit { t: 8, protected_chunks: 2 },
            ] {
                let codec = PageCodec::new(scheme, DATA, SPARE).unwrap();
                let data = payload(seed);
                let mut framed = codec.frame(&data).unwrap();
                let mut encoded = codec.encode(&data).unwrap();
                let positions = shadow_positions(&codec, &picks);
                for &bit in &positions {
                    framed[bit / 8] ^= 1 << (bit % 8);
                    encoded[bit / 8] ^= 1 << (bit % 8);
                }
                let lazy = codec.decode_with_dirty(&framed, &positions).unwrap();
                let eager = codec.decode_with_dirty(&encoded, &positions).unwrap();
                let oracle = codec.decode_with_dirty_oracle(&encoded, &positions).unwrap();
                for (name, report) in [("framed", &lazy), ("encoded", &eager)] {
                    proptest::prop_assert_eq!(report.status, oracle.status, "{} {}", scheme.name(), name);
                    proptest::prop_assert_eq!(report.corrected_bits, oracle.corrected_bits, "{} {}", scheme.name(), name);
                    proptest::prop_assert!(report.data == oracle.data, "{} {}: data differs", scheme.name(), name);
                }
            }
        }
    }

    #[test]
    fn frame_is_encode_without_bch_parity() {
        for scheme in [
            EccScheme::None,
            EccScheme::DetectOnly,
            EccScheme::Bch { t: 18 },
            EccScheme::PrioritySplit {
                t: 8,
                protected_chunks: 2,
            },
        ] {
            let codec = PageCodec::new(scheme, DATA, SPARE).unwrap();
            let data = payload(31);
            let mut encoded = codec.encode(&data).unwrap();
            if let Some(code) = &codec.code {
                let slots = codec.protected_end().div_ceil(CHUNK_BYTES) * code.parity_bytes();
                encoded[DATA..DATA + slots].fill(0);
            }
            assert_eq!(codec.frame(&data).unwrap(), encoded, "{}", scheme.name());
        }
    }

    #[test]
    fn rber_limits_order_by_strength() {
        let none = EccScheme::None.protected_rber_limit(1e-9);
        let weak = EccScheme::Bch { t: 8 }.protected_rber_limit(1e-9);
        let strong = EccScheme::Bch { t: 18 }.protected_rber_limit(1e-9);
        assert_eq!(none, 0.0);
        assert!(strong > weak && weak > 0.0);
    }
}
