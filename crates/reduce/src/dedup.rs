//! Content-defined-chunking deduplication.
//!
//! Mobile dedup schemes (Yen et al., TCAD '18 — the paper's ref. 67)
//! chunk data, fingerprint the chunks and store each unique chunk once.
//! This module implements gear-hash content-defined chunking with an
//! FNV-based fingerprint and a [`DedupStore`] that measures how much a
//! corpus actually deduplicates.

use std::collections::HashMap;

/// Chunking parameters.
#[derive(Debug, Clone, Copy)]
pub struct Chunker {
    /// Minimum chunk size, bytes.
    pub min: usize,
    /// Average (target) chunk size, bytes — must be a power of two.
    pub average: usize,
    /// Maximum chunk size, bytes.
    pub max: usize,
}

impl Default for Chunker {
    fn default() -> Self {
        Chunker {
            min: 2 * 1024,
            average: 8 * 1024,
            max: 32 * 1024,
        }
    }
}

/// Gear table for the rolling hash (deterministic pseudo-random).
fn gear_table() -> &'static [u64; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u64; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u64; 256];
        let mut state = 0x9E3779B97F4A7C15u64;
        for entry in table.iter_mut() {
            // SplitMix64.
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            *entry = z ^ (z >> 31);
        }
        table
    })
}

impl Chunker {
    /// Splits `data` into content-defined chunks (byte ranges).
    ///
    /// # Panics
    ///
    /// Panics if `average` is not a power of two or the sizes are not
    /// ordered `min <= average <= max`.
    // sos-lint: allow(panic-path, "documented config contract asserts; the gear table covers the full u8 domain and start/index walk the slice in lockstep")
    pub fn chunks<'d>(&self, data: &'d [u8]) -> Vec<&'d [u8]> {
        assert!(
            self.average.is_power_of_two(),
            "average must be a power of two"
        );
        assert!(self.min <= self.average && self.average <= self.max);
        let mask = (self.average - 1) as u64;
        let gear = gear_table();
        let mut out = Vec::new();
        let mut start = 0usize;
        let mut hash = 0u64;
        let mut index = 0usize;
        while index < data.len() {
            hash = (hash << 1).wrapping_add(gear[data[index] as usize]);
            let size = index - start + 1;
            let boundary = (hash & mask) == mask && size >= self.min;
            if boundary || size >= self.max {
                out.push(&data[start..=index]);
                start = index + 1;
                hash = 0;
            }
            index += 1;
        }
        if start < data.len() {
            out.push(&data[start..]);
        }
        out
    }
}

/// 128-bit FNV-style fingerprint (two independent 64-bit streams); not
/// cryptographic, but collision-safe at corpus scale.
pub fn fingerprint(data: &[u8]) -> (u64, u64) {
    let mut a = 0xcbf29ce484222325u64;
    let mut b = 0x100000001b3u64 ^ 0x9E3779B97F4A7C15;
    for &byte in data {
        a = (a ^ byte as u64).wrapping_mul(0x100000001b3);
        b = (b ^ byte as u64).wrapping_mul(0xc6a4a7935bd1e995);
    }
    (a, b)
}

/// A deduplicating store that tracks logical vs physical bytes.
#[derive(Debug, Default)]
pub struct DedupStore {
    chunker: Chunker,
    unique: HashMap<(u64, u64), usize>,
    /// Bytes ingested (logical).
    pub logical_bytes: u64,
    /// Bytes actually stored (unique chunks).
    pub physical_bytes: u64,
}

impl DedupStore {
    /// Creates a store with the default chunker.
    pub fn new() -> Self {
        DedupStore::default()
    }

    /// Ingests one file, returning the bytes newly stored.
    pub fn ingest(&mut self, data: &[u8]) -> u64 {
        let mut new_bytes = 0u64;
        self.logical_bytes += data.len() as u64;
        for chunk in self.chunker.chunks(data) {
            let key = fingerprint(chunk);
            if let std::collections::hash_map::Entry::Vacant(entry) = self.unique.entry(key) {
                entry.insert(chunk.len());
                self.physical_bytes += chunk.len() as u64;
                new_bytes += chunk.len() as u64;
            }
        }
        new_bytes
    }

    /// Dedup ratio: `physical / logical` (1.0 = nothing deduplicated).
    pub fn ratio(&self) -> f64 {
        if self.logical_bytes == 0 {
            return 1.0;
        }
        self.physical_bytes as f64 / self.logical_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn chunks_cover_input_exactly() {
        let mut rng = StdRng::seed_from_u64(3);
        let data: Vec<u8> = (0..100_000).map(|_| rng.gen()).collect();
        let chunker = Chunker::default();
        let chunks = chunker.chunks(&data);
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, data.len());
        for chunk in &chunks[..chunks.len() - 1] {
            assert!(
                chunk.len() >= chunker.min,
                "chunk {} below min",
                chunk.len()
            );
            assert!(
                chunk.len() <= chunker.max,
                "chunk {} above max",
                chunk.len()
            );
        }
    }

    #[test]
    fn average_chunk_size_is_near_target() {
        let mut rng = StdRng::seed_from_u64(5);
        let data: Vec<u8> = (0..1_000_000).map(|_| rng.gen()).collect();
        let chunker = Chunker::default();
        let chunks = chunker.chunks(&data);
        let average = data.len() as f64 / chunks.len() as f64;
        assert!(
            (4_000.0..20_000.0).contains(&average),
            "average chunk {average}"
        );
    }

    #[test]
    fn identical_files_dedup_fully() {
        let mut rng = StdRng::seed_from_u64(7);
        let file: Vec<u8> = (0..50_000).map(|_| rng.gen()).collect();
        let mut store = DedupStore::new();
        store.ingest(&file);
        let second = store.ingest(&file);
        assert_eq!(second, 0, "identical file must cost nothing");
        assert!(store.ratio() < 0.55, "ratio {}", store.ratio());
    }

    #[test]
    fn shifted_content_still_dedups() {
        // Content-defined chunking resists the boundary-shift problem:
        // prepend bytes and most chunks still match.
        let mut rng = StdRng::seed_from_u64(9);
        let file: Vec<u8> = (0..200_000).map(|_| rng.gen()).collect();
        let mut shifted = vec![0xAA; 13];
        shifted.extend_from_slice(&file);
        let mut store = DedupStore::new();
        store.ingest(&file);
        let new_bytes = store.ingest(&shifted);
        assert!(
            (new_bytes as f64) < shifted.len() as f64 * 0.2,
            "only {new_bytes} of {} should be new",
            shifted.len()
        );
    }

    #[test]
    fn unrelated_files_do_not_dedup() {
        let mut rng = StdRng::seed_from_u64(11);
        let a: Vec<u8> = (0..60_000).map(|_| rng.gen()).collect();
        let b: Vec<u8> = (0..60_000).map(|_| rng.gen()).collect();
        let mut store = DedupStore::new();
        store.ingest(&a);
        store.ingest(&b);
        assert!(store.ratio() > 0.99, "ratio {}", store.ratio());
    }

    #[test]
    fn fingerprints_differ_for_different_chunks() {
        assert_ne!(fingerprint(b"hello"), fingerprint(b"hellp"));
        assert_eq!(fingerprint(b"same"), fingerprint(b"same"));
    }
}
