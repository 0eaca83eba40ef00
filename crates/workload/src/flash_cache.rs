//! Datacenter flash-cache workload: the first non-personal-device
//! scenario (ROADMAP item 3).
//!
//! Models a CDN-style flash cache the way the FDP flash-cache work
//! does (arXiv:2503.11665): Zipf-distributed GETs over a large key
//! population, admit-on-miss, FIFO eviction at capacity, and in-place
//! updates of popular objects. Two data classes flow to storage:
//!
//! * cache **metadata** (index/journal updates) — significant, must
//!   not be lost;
//! * cached **objects** — degradable by construction: the origin holds
//!   the authoritative copy, so a SPARE-class object may silently decay
//!   on flash instead of being refreshed. A decayed read is just a
//!   cache miss (the object is refetched), never data loss.
//!
//! The module is device-agnostic (mirroring `sos-hostfs`'s `PageStore`
//! split): the cache drives any [`CacheBackend`]; `sos-bench`
//! implements the backend over a real FTL under different placement
//! policies (FDP tags vs legacy streams vs no hints) for
//! `exp_flash_cache`.

use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};

/// Storage class of one cache write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheClass {
    /// Cache index / journal pages: significant, never degradable.
    Metadata,
    /// Cached object bytes: the origin holds the authoritative copy,
    /// so these may silently decay instead of being rewritten.
    Object,
}

/// Temperature the cache derives for a key from its popularity rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheTemp {
    /// Popular key: expected to be overwritten / re-admitted soon.
    Hot,
    /// Tail key: will likely sit untouched until FIFO eviction reaches it.
    Cold,
}

/// Everything the cache knows about an object when writing it; the
/// backend's placement policy decides what (if anything) to do with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectMeta {
    /// Storage class.
    pub class: CacheClass,
    /// Popularity-derived temperature.
    pub temp: CacheTemp,
}

/// What a backend read of a cached object came back as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheReadback {
    /// Intact object bytes.
    Fresh,
    /// The object decayed on flash (degradable SPARE-class data that
    /// was never refreshed). The cache treats this as a miss.
    Decayed,
    /// The object is gone entirely (lost block, dropped pages).
    Gone,
}

/// Errors a cache backend can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheBackendError {
    /// Backing store is out of space.
    NoSpace,
    /// Any other device error, stringified.
    Device(String),
}

impl std::fmt::Display for CacheBackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheBackendError::NoSpace => write!(f, "backing store out of space"),
            CacheBackendError::Device(message) => write!(f, "device: {message}"),
        }
    }
}

impl std::error::Error for CacheBackendError {}

/// The storage surface a flash cache runs on. Slots are dense indices
/// in `0..capacity_objects`; every object occupies `object_pages`
/// backing pages starting at `slot * object_pages`.
pub trait CacheBackend {
    /// Writes one object (or metadata batch) into `slot`.
    fn put(&mut self, slot: u64, pages: u64, meta: ObjectMeta) -> Result<(), CacheBackendError>;
    /// Reads an object back, reporting whether it survived intact.
    fn get(&mut self, slot: u64, pages: u64) -> Result<CacheReadback, CacheBackendError>;
    /// Discards an object (eviction, or a decayed or gone read) — a TRIM.
    fn evict(&mut self, slot: u64, pages: u64) -> Result<(), CacheBackendError>;
}

/// Flash-cache workload configuration.
#[derive(Debug, Clone)]
pub struct FlashCacheConfig {
    /// Backing pages per cached object.
    pub object_pages: u64,
    /// GET operations per simulated day.
    pub gets_per_day: u64,
    /// Maximum resident objects (slots) before FIFO eviction. The key
    /// population (`max(5n, 16)` Zipf ranks) and the hot ranks
    /// (`max(⌈n/5⌉, 1)`) follow from it.
    pub capacity_objects: usize,
    /// Workload RNG seed.
    pub seed: u64,
}

impl FlashCacheConfig {
    /// A cache-server-rate configuration scaled down to simulator size:
    /// the cache holds ~60% of the key population's working set and
    /// sees tens of thousands of GETs per day.
    pub fn server(capacity_objects: usize, seed: u64) -> Self {
        FlashCacheConfig {
            object_pages: 2,
            gets_per_day: capacity_objects.saturating_mul(40).max(64) as u64,
            capacity_objects,
            seed,
        }
    }

    /// A tiny configuration for tests.
    #[cfg(test)]
    pub fn tiny(seed: u64) -> Self {
        let mut config = FlashCacheConfig::server(48, seed);
        config.gets_per_day = 600;
        config
    }
}

/// Zipf exponent over key ranks (~0.9–1.0 for CDN traffic).
const ZIPF_S: f64 = 0.95;
/// One metadata page is journalled per this many admissions.
const ADMISSIONS_PER_META_PAGE: u64 = 8;
/// Every this-many cache hits, the hit object is updated in place (a PUT
/// over a resident key). Updates concentrate on popular keys, so hot
/// pages die young while cold neighbours linger — the death-time mixing
/// that makes data placement matter.
const HITS_PER_UPDATE: u64 = 4;

/// Per-day cache traffic summary. All counters are deterministic for a
/// given config and seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheDayReport {
    /// GETs issued.
    pub gets: u64,
    /// GETs served intact from flash.
    pub hits: u64,
    /// GETs that found the object decayed (counted as misses; the
    /// object is refetched from origin and rewritten).
    pub decayed: u64,
    /// GETs that missed (not resident, decayed, or gone).
    pub misses: u64,
    /// Objects admitted (miss-path writes).
    pub admitted: u64,
    /// Resident objects updated in place (hit-path rewrites).
    pub updated: u64,
    /// Objects evicted to make room.
    pub evicted: u64,
}

impl CacheDayReport {
    /// Accumulates another day's counters.
    pub fn absorb(&mut self, other: &CacheDayReport) {
        self.gets += other.gets;
        self.hits += other.hits;
        self.decayed += other.decayed;
        self.misses += other.misses;
        self.admitted += other.admitted;
        self.updated += other.updated;
        self.evicted += other.evicted;
    }

    /// Hit ratio over all GETs (0 when no GETs ran).
    pub fn hit_ratio(&self) -> f64 {
        if self.gets == 0 {
            return 0.0;
        }
        self.hits as f64 / self.gets as f64
    }
}

/// A deterministic flash-cache simulator: Zipf GETs, admit-on-miss,
/// FIFO eviction. Drives any [`CacheBackend`].
#[derive(Debug)]
pub struct FlashCache {
    config: FlashCacheConfig,
    /// Keys with rank below this are tagged [`CacheTemp::Hot`].
    hot_ranks: usize,
    zipf: Zipf,
    rng: StdRng,
    /// Resident key → slot.
    resident: HashMap<u64, u64>,
    /// Admission order, oldest first (FIFO eviction). Holds each
    /// resident key exactly once, so eviction pops the front.
    fifo: VecDeque<u64>,
    /// Recycled slots, reused LIFO for determinism.
    free_slots: Vec<u64>,
    next_slot: u64,
    admissions_since_meta: u64,
    hits_since_update: u64,
}

impl FlashCache {
    /// Builds a cache over `config`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_objects` is zero (a configuration error).
    pub fn new(config: FlashCacheConfig) -> Self {
        assert!(config.capacity_objects > 0, "cache needs capacity");
        let keys = config.capacity_objects.saturating_mul(5).max(16);
        let zipf = Zipf::new(keys, ZIPF_S);
        let rng = StdRng::seed_from_u64(config.seed);
        FlashCache {
            hot_ranks: config.capacity_objects.div_ceil(5).max(1),
            config,
            zipf,
            rng,
            resident: HashMap::new(),
            fifo: VecDeque::new(),
            free_slots: Vec::new(),
            next_slot: 0,
            admissions_since_meta: 0,
            hits_since_update: 0,
        }
    }

    /// The slot the metadata journal writes into (one past the object
    /// slots; rewritten in place, so it stays a single hot page run).
    fn meta_slot(&self) -> u64 {
        self.config.capacity_objects as u64
    }

    fn temp_for_rank(&self, rank: usize) -> CacheTemp {
        if rank < self.hot_ranks {
            CacheTemp::Hot
        } else {
            CacheTemp::Cold
        }
    }

    fn take_slot(&mut self) -> u64 {
        if let Some(slot) = self.free_slots.pop() {
            return slot;
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        slot
    }

    /// Runs one simulated day of GET traffic against `backend`.
    pub fn run_day<B: CacheBackend>(
        &mut self,
        backend: &mut B,
    ) -> Result<CacheDayReport, CacheBackendError> {
        let mut report = CacheDayReport::default();
        for _ in 0..self.config.gets_per_day {
            let rank = self.zipf.sample(&mut self.rng) as u64;
            report.gets += 1;
            let pages = self.config.object_pages;
            if let Some(slot) = self.resident.get(&rank).copied() {
                match backend.get(slot, pages)? {
                    CacheReadback::Fresh => {
                        report.hits += 1;
                        self.maybe_update(rank, backend, &mut report)?;
                        continue;
                    }
                    CacheReadback::Decayed => report.decayed += 1,
                    CacheReadback::Gone => {}
                }
                // Decayed or gone: drop the stale entry from the middle
                // of the queue and fall through to the miss path
                // (refetch from origin).
                self.fifo.retain(|&key| key != rank);
                self.drop_key(rank, backend, &mut report)?;
            }
            report.misses += 1;
            self.admit(rank, backend, &mut report)?;
        }
        Ok(report)
    }

    /// Every `HITS_PER_UPDATE`-th hit rewrites the hit object in place
    /// (a PUT over a resident key). Because hits concentrate on popular
    /// keys, updates do too: hot pages die young while cold neighbours
    /// written alongside them stay valid.
    fn maybe_update<B: CacheBackend>(
        &mut self,
        key: u64,
        backend: &mut B,
        report: &mut CacheDayReport,
    ) -> Result<(), CacheBackendError> {
        self.hits_since_update += 1;
        if self.hits_since_update < HITS_PER_UPDATE {
            return Ok(());
        }
        self.hits_since_update = 0;
        let Some(slot) = self.resident.get(&key).copied() else {
            return Ok(());
        };
        let pages = self.config.object_pages;
        let meta = ObjectMeta {
            class: CacheClass::Object,
            temp: self.temp_for_rank(key as usize),
        };
        backend.put(slot, pages, meta)?;
        report.updated += 1;
        Ok(())
    }

    /// Removes a key's entry, trimming its backing pages. The caller
    /// has already taken the key out of the FIFO.
    fn drop_key<B: CacheBackend>(
        &mut self,
        key: u64,
        backend: &mut B,
        report: &mut CacheDayReport,
    ) -> Result<(), CacheBackendError> {
        let Some(slot) = self.resident.remove(&key) else {
            return Ok(());
        };
        backend.evict(slot, self.config.object_pages)?;
        self.free_slots.push(slot);
        report.evicted += 1;
        Ok(())
    }

    /// Admits a key: FIFO-evicts at capacity, writes the object, and
    /// journals metadata every few admissions.
    fn admit<B: CacheBackend>(
        &mut self,
        key: u64,
        backend: &mut B,
        report: &mut CacheDayReport,
    ) -> Result<(), CacheBackendError> {
        while self.resident.len() >= self.config.capacity_objects {
            let Some(victim) = self.fifo.pop_front() else {
                break;
            };
            self.drop_key(victim, backend, report)?;
        }
        let slot = self.take_slot();
        let pages = self.config.object_pages;
        let meta = ObjectMeta {
            class: CacheClass::Object,
            temp: self.temp_for_rank(key as usize),
        };
        backend.put(slot, pages, meta)?;
        report.admitted += 1;
        self.resident.insert(key, slot);
        self.fifo.push_back(key);
        // Journal the cache index: one metadata page per batch of
        // admissions, rewritten in place (a classic hot SYS page).
        self.admissions_since_meta += 1;
        if self.admissions_since_meta >= ADMISSIONS_PER_META_PAGE {
            self.admissions_since_meta = 0;
            let meta_slot = self.meta_slot();
            backend.put(
                meta_slot,
                1,
                ObjectMeta {
                    class: CacheClass::Metadata,
                    temp: CacheTemp::Hot,
                },
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory backend for tests: tracks slot occupancy and can be
    /// told to decay specific slots.
    #[derive(Debug, Default)]
    struct MemCacheBackend {
        /// Slots currently holding an object (slot → meta).
        stored: HashMap<u64, ObjectMeta>,
        /// Slots whose next read reports decay.
        decayed: Vec<u64>,
        /// Total puts observed.
        puts: u64,
        /// Total evictions observed.
        evictions: u64,
    }

    impl CacheBackend for MemCacheBackend {
        fn put(
            &mut self,
            slot: u64,
            _pages: u64,
            meta: ObjectMeta,
        ) -> Result<(), CacheBackendError> {
            self.stored.insert(slot, meta);
            self.decayed.retain(|&s| s != slot);
            self.puts += 1;
            Ok(())
        }

        fn get(&mut self, slot: u64, _pages: u64) -> Result<CacheReadback, CacheBackendError> {
            if self.decayed.contains(&slot) {
                return Ok(CacheReadback::Decayed);
            }
            if self.stored.contains_key(&slot) {
                Ok(CacheReadback::Fresh)
            } else {
                Ok(CacheReadback::Gone)
            }
        }

        fn evict(&mut self, slot: u64, _pages: u64) -> Result<(), CacheBackendError> {
            self.stored.remove(&slot);
            self.evictions += 1;
            Ok(())
        }
    }

    /// The invariant queue-pop eviction relies on: the FIFO holds each
    /// resident key exactly once, and nothing else (so its length is
    /// the resident count and every queued key is resident).
    fn assert_fifo_holds_each_resident_key_once(cache: &FlashCache) {
        let mut queued: Vec<u64> = cache.fifo.iter().copied().collect();
        let mut resident: Vec<u64> = cache.resident.keys().copied().collect();
        queued.sort_unstable();
        resident.sort_unstable();
        assert_eq!(queued, resident, "FIFO is not the resident key set");
    }

    fn run_days(seed: u64, days: u32) -> (CacheDayReport, MemCacheBackend) {
        let mut cache = FlashCache::new(FlashCacheConfig::tiny(seed));
        let mut backend = MemCacheBackend::default();
        let mut total = CacheDayReport::default();
        for _ in 0..days {
            total.absorb(&cache.run_day(&mut backend).unwrap());
        }
        (total, backend)
    }

    #[test]
    fn zipf_traffic_produces_hits_and_misses() {
        let (total, _) = run_days(7, 3);
        assert_eq!(total.gets, 1800);
        assert_eq!(total.hits + total.misses, total.gets);
        assert!(total.hits > total.gets / 4, "hits {}", total.hits);
        assert!(total.misses > 0);
        assert!(total.admitted >= total.misses / 2);
    }

    #[test]
    fn capacity_is_respected_via_fifo_eviction() {
        let mut cache = FlashCache::new(FlashCacheConfig::tiny(3));
        let mut backend = MemCacheBackend::default();
        for _ in 0..4 {
            cache.run_day(&mut backend).unwrap();
        }
        assert!(cache.resident.len() <= cache.config.capacity_objects);
        assert!(backend.evictions > 0, "eviction never ran");
        assert_fifo_holds_each_resident_key_once(&cache);
    }

    #[test]
    fn every_nth_hit_rewrites_in_place() {
        let (total, _) = run_days(7, 4);
        assert!(total.updated > 0, "no hit-path update ran");
        assert_eq!(total.updated, total.hits / HITS_PER_UPDATE);
    }

    #[test]
    fn decayed_reads_count_as_misses_and_rewrite() {
        let mut cache = FlashCache::new(FlashCacheConfig::tiny(11));
        let mut backend = MemCacheBackend::default();
        cache.run_day(&mut backend).unwrap();
        // Poison every stored slot; the next day's hits all decay.
        backend.decayed = backend.stored.keys().copied().collect();
        let report = cache.run_day(&mut backend).unwrap();
        assert!(report.decayed > 0, "no decayed reads observed");
        assert_eq!(report.hits + report.misses, report.gets);
        // Decayed objects were refetched, not served stale.
        assert!(report.admitted >= report.decayed);
        // Each refetched key left its old place in the queue.
        assert_fifo_holds_each_resident_key_once(&cache);
    }

    #[test]
    fn same_seed_is_deterministic() {
        let (a, backend_a) = run_days(42, 3);
        let (b, backend_b) = run_days(42, 3);
        assert_eq!(a, b);
        assert_eq!(backend_a.puts, backend_b.puts);
        let (c, _) = run_days(43, 3);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn metadata_is_journalled_on_its_own_slot() {
        let mut cache = FlashCache::new(FlashCacheConfig::tiny(9));
        let meta_slot = cache.config.capacity_objects as u64;
        let mut backend = MemCacheBackend::default();
        cache.run_day(&mut backend).unwrap();
        assert_eq!(
            backend.stored.get(&meta_slot).map(|m| m.class),
            Some(CacheClass::Metadata)
        );
    }
}
