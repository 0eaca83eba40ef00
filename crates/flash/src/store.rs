//! The device's page store, kept as struct-of-arrays.
//!
//! The simulator's hot loops touch page state on every program, read and
//! erase. The store keeps that state as struct-of-arrays — packed
//! `programmed`/`torn` bitmaps, contiguous per-page day and OOB
//! (lpn/seq/stream/kind/crc) arrays, which every programmed page fills,
//! and pooled per-block data buffers indexed by slot — so the common
//! operations are bit tests and flat array indexing instead of hash
//! probes and per-page heap boxes.
//!
//! [`FlashDevice`](crate::device::FlashDevice) reaches the store only
//! through [`PageStore::program`], [`PageStore::view`] and
//! [`PageStore::clear_block`]; the block scans are built on `view`. The
//! test module keeps the original per-page `HashMap` store as an oracle
//! and shadows it with a proptest that compares every page's `view`
//! after every operation, which is what makes device behaviour on this
//! store identical to device behaviour on the map.

use crate::geometry::Geometry;
use crate::oob::OobMeta;
use crate::oob::PageKind;

/// A read-only view of one programmed page, borrowed from the store.
#[derive(Debug)]
pub(crate) struct PageView<'a> {
    /// Stored contents (data + spare).
    pub data: &'a [u8],
    /// Simulated day the page was programmed.
    pub programmed_day: f64,
    /// Sidecar OOB metadata.
    pub oob: OobMeta,
    /// Program interrupted by a power cut.
    pub torn: bool,
}

/// Struct-of-arrays page store.
///
/// Per-page metadata lives in flat arrays indexed by
/// `block * pages_per_block + page`; page membership is a packed bitmap;
/// page contents live in per-block buffers handed out from a reuse pool
/// (a fresh simulated device would otherwise eagerly commit hundreds of
/// megabytes for the larger geometries).
#[derive(Debug)]
pub(crate) struct PageStore {
    pages_per_block: usize,
    /// Full page size (data + spare), bytes.
    page_bytes: usize,
    /// Bitmap words per block.
    bitmap_words: usize,
    /// Packed per-block `programmed` bitmaps, `bitmap_words` per block.
    programmed: Vec<u64>,
    /// Packed per-block `torn` bitmaps (subset of `programmed`).
    torn: Vec<u64>,
    /// Per-page program day.
    day: Vec<f64>,
    /// Per-page OOB fields, decomposed struct-of-arrays.
    lpn: Vec<u64>,
    seq: Vec<u64>,
    stream: Vec<u8>,
    /// 0 = data, 1 = checkpoint (mirrors [`PageKind`]).
    kind: Vec<u8>,
    crc: Vec<u32>,
    /// Per-block data-buffer slot into `pool`, `u32::MAX` when the block
    /// holds no data buffer.
    slot: Vec<u32>,
    /// Block-sized data buffers (`pages_per_block * page_bytes` each).
    pool: Vec<Box<[u8]>>,
    /// Slots in `pool` not currently attached to a block.
    free_slots: Vec<u32>,
}

/// Sentinel for "block has no pooled data buffer".
const NO_SLOT: u32 = u32::MAX;

impl PageStore {
    // sos-lint: allow(panic-path, "all vectors are allocated to the geometry's page count before use")
    pub(crate) fn new(geometry: &Geometry) -> Self {
        let blocks = geometry.total_blocks() as usize;
        let pages_per_block = geometry.pages_per_block as usize;
        let total_pages = blocks * pages_per_block;
        let bitmap_words = pages_per_block.div_ceil(64);
        PageStore {
            pages_per_block,
            page_bytes: (geometry.page_bytes + geometry.spare_bytes) as usize,
            bitmap_words,
            programmed: vec![0; blocks * bitmap_words],
            torn: vec![0; blocks * bitmap_words],
            day: vec![0.0; total_pages],
            lpn: vec![0; total_pages],
            seq: vec![0; total_pages],
            stream: vec![0; total_pages],
            kind: vec![0; total_pages],
            crc: vec![0; total_pages],
            slot: vec![NO_SLOT; blocks],
            pool: Vec::new(),
            free_slots: Vec::new(),
        }
    }

    #[inline]
    fn page_index(&self, block: u64, page: u32) -> usize {
        block as usize * self.pages_per_block + page as usize
    }

    #[inline]
    // sos-lint: allow(panic-path, "bitmaps are allocated to the geometry's block count; the device validates addresses first")
    fn bit(&self, map: &[u64], block: u64, page: u32) -> bool {
        let word = block as usize * self.bitmap_words + page as usize / 64;
        map[word] & (1u64 << (page % 64)) != 0
    }

    /// Ensures the block has a data buffer, returning its pool slot.
    // sos-lint: allow(panic-path, "the slot vector is allocated to the block count; pool slots are recorded at push")
    fn ensure_slot(&mut self, block: u64) -> usize {
        let current = self.slot[block as usize];
        if current != NO_SLOT {
            return current as usize;
        }
        let slot = match self.free_slots.pop() {
            Some(free) => free,
            None => {
                let buffer = vec![0u8; self.pages_per_block * self.page_bytes].into_boxed_slice();
                self.pool.push(buffer);
                // The pool never outgrows the block count, which the
                // geometry bounds well below u32::MAX.
                u32::try_from(self.pool.len() - 1).unwrap_or(NO_SLOT)
            }
        };
        self.slot[block as usize] = slot;
        slot as usize
    }

    /// Records a page program: contents, program day, OOB sidecar and
    /// torn flag, atomically.
    // sos-lint: allow(panic-path, "the device validates the address against the geometry before touching the store")
    pub(crate) fn program(
        &mut self,
        block: u64,
        page: u32,
        data: &[u8],
        day: f64,
        oob: OobMeta,
        torn: bool,
    ) {
        let slot = self.ensure_slot(block);
        let offset = page as usize * self.page_bytes;
        self.pool[slot][offset..offset + data.len()].copy_from_slice(data);
        let index = self.page_index(block, page);
        self.day[index] = day;
        let word = block as usize * self.bitmap_words + page as usize / 64;
        let mask = 1u64 << (page % 64);
        self.programmed[word] |= mask;
        if torn {
            self.torn[word] |= mask;
        } else {
            self.torn[word] &= !mask;
        }
        self.lpn[index] = oob.lpn;
        self.seq[index] = oob.seq;
        self.stream[index] = oob.stream;
        self.kind[index] = match oob.kind {
            PageKind::Data => 0,
            PageKind::Checkpoint => 1,
        };
        self.crc[index] = oob.crc;
    }

    /// A view of a programmed page, or `None` when the page holds no
    /// data since the last erase.
    // sos-lint: allow(panic-path, "the device validates the address against the geometry before touching the store")
    pub(crate) fn view(&self, block: u64, page: u32) -> Option<PageView<'_>> {
        if !self.bit(&self.programmed, block, page) {
            return None;
        }
        let index = self.page_index(block, page);
        let slot = self.slot[block as usize] as usize;
        let offset = page as usize * self.page_bytes;
        Some(PageView {
            data: &self.pool[slot][offset..offset + self.page_bytes],
            programmed_day: self.day[index],
            oob: OobMeta {
                lpn: self.lpn[index],
                seq: self.seq[index],
                stream: self.stream[index],
                kind: if self.kind[index] == 0 {
                    PageKind::Data
                } else {
                    PageKind::Checkpoint
                },
                crc: self.crc[index],
            },
            torn: self.bit(&self.torn, block, page),
        })
    }

    /// Drops every page of a block (erase, erase failure, retirement),
    /// returning the block's data buffer to the pool.
    // sos-lint: allow(panic-path, "the device validates the address against the geometry before touching the store")
    pub(crate) fn clear_block(&mut self, block: u64) {
        let word = block as usize * self.bitmap_words;
        for w in 0..self.bitmap_words {
            self.programmed[word + w] = 0;
            self.torn[word + w] = 0;
        }
        let slot = self.slot[block as usize];
        if slot != NO_SLOT {
            self.slot[block as usize] = NO_SLOT;
            self.free_slots.push(slot);
        }
    }

    /// Page indices of a block currently holding programmed data, in
    /// ascending order.
    pub(crate) fn programmed_pages(&self, block: u64, pages_per_block: u32) -> Vec<u32> {
        (0..pages_per_block)
            .filter(|&p| self.view(block, p).is_some())
            .collect()
    }

    /// Page indices of a block holding torn pages, in ascending order.
    pub(crate) fn torn_pages(&self, block: u64, pages_per_block: u32) -> Vec<u32> {
        (0..pages_per_block)
            .filter(|&p| self.view(block, p).is_some_and(|v| v.torn))
            .collect()
    }

    /// The earliest program day among a block's resident pages.
    pub(crate) fn oldest_day(&self, block: u64, pages_per_block: u32) -> Option<f64> {
        let oldest = (0..pages_per_block)
            .filter_map(|p| self.view(block, p).map(|v| v.programmed_day))
            .fold(f64::INFINITY, f64::min);
        oldest.is_finite().then_some(oldest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Stored contents of a programmed page (legacy store).
    #[derive(Debug, Clone)]
    struct PageData {
        data: Box<[u8]>,
        programmed_day: f64,
        oob: OobMeta,
        torn: bool,
    }

    /// The original per-page map store: one heap allocation per
    /// programmed page, keyed by flat page index. It is simple enough to
    /// be obviously right, so it serves as the oracle for [`PageStore`].
    #[derive(Debug, Default)]
    struct LegacyStore {
        pages_per_block: u64,
        pages: HashMap<u64, PageData>,
    }

    impl LegacyStore {
        fn new(geometry: &Geometry) -> Self {
            LegacyStore {
                pages_per_block: geometry.pages_per_block as u64,
                pages: HashMap::new(),
            }
        }

        fn index(&self, block: u64, page: u32) -> u64 {
            block * self.pages_per_block + page as u64
        }

        fn program(
            &mut self,
            block: u64,
            page: u32,
            data: &[u8],
            day: f64,
            oob: OobMeta,
            torn: bool,
        ) {
            let index = self.index(block, page);
            self.pages.insert(
                index,
                PageData {
                    data: data.into(),
                    programmed_day: day,
                    oob,
                    torn,
                },
            );
        }

        fn view(&self, block: u64, page: u32) -> Option<PageView<'_>> {
            let index = self.index(block, page);
            self.pages.get(&index).map(|p| PageView {
                data: &p.data,
                programmed_day: p.programmed_day,
                oob: p.oob,
                torn: p.torn,
            })
        }

        fn clear_block(&mut self, block: u64) {
            let base = block * self.pages_per_block;
            for page in 0..self.pages_per_block {
                self.pages.remove(&(base + page));
            }
        }
    }

    fn meta() -> OobMeta {
        OobMeta::data(0, 1, 0)
    }

    fn geo() -> Geometry {
        Geometry {
            blocks: 4,
            pages_per_block: 8,
            page_bytes: 32,
            spare_bytes: 4,
        }
    }

    /// A view reduced to comparable values (the day by its bit pattern).
    type ViewKey = (Vec<u8>, u64, OobMeta, bool);

    fn key(view: Option<PageView<'_>>) -> Option<ViewKey> {
        view.map(|v| (v.data.to_vec(), v.programmed_day.to_bits(), v.oob, v.torn))
    }

    /// The first page whose view differs between the two stores, if any.
    fn first_divergence(
        store: &PageStore,
        oracle: &LegacyStore,
        geometry: &Geometry,
    ) -> Option<(u64, u32)> {
        (0..geometry.total_blocks())
            .flat_map(|block| (0..geometry.pages_per_block).map(move |page| (block, page)))
            .find(|&(block, page)| key(store.view(block, page)) != key(oracle.view(block, page)))
    }

    #[test]
    fn program_view_roundtrip_matches_across_backends() {
        let mut store = PageStore::new(&geo());
        let mut oracle = LegacyStore::new(&geo());
        let data = vec![0xABu8; 36];
        let meta = OobMeta::data(7, 3, 1);
        store.program(2, 5, &data, 1.5, meta, false);
        oracle.program(2, 5, &data, 1.5, meta, false);
        let view = store.view(2, 5).expect("programmed page");
        assert_eq!(view.data, &data[..]);
        assert_eq!(view.programmed_day, 1.5);
        assert_eq!(view.oob, meta);
        assert!(!view.torn);
        assert!(store.view(2, 4).is_none());
        assert!(store.view(1, 5).is_none());
        assert_eq!(first_divergence(&store, &oracle, &geo()), None);
    }

    #[test]
    fn torn_pages_roundtrip() {
        let mut store = PageStore::new(&geo());
        let data = vec![1u8; 36];
        store.program(0, 0, &data, 0.0, OobMeta::data(1, 1, 0), true);
        assert!(store.view(0, 0).unwrap().torn);
        // Reprogramming the slot clears the torn flag.
        store.program(0, 0, &data, 0.0, OobMeta::data(1, 2, 0), false);
        assert!(!store.view(0, 0).unwrap().torn);
    }

    #[test]
    fn torn_oob_crc_survives_the_store() {
        // The corrupted CRC of a torn OOB record must roundtrip verbatim.
        let mut store = PageStore::new(&geo());
        let data = vec![2u8; 36];
        let torn_meta = OobMeta::data(9, 9, 2).torn();
        store.program(1, 1, &data, 0.25, torn_meta, true);
        let view = store.view(1, 1).unwrap();
        assert_eq!(view.oob, torn_meta);
        assert!(!view.oob.is_valid());
    }

    #[test]
    fn clear_block_drops_only_that_block() {
        let mut store = PageStore::new(&geo());
        let data = vec![3u8; 36];
        store.program(0, 0, &data, 0.0, meta(), false);
        store.program(1, 0, &data, 0.0, meta(), false);
        store.clear_block(0);
        assert!(store.view(0, 0).is_none());
        assert!(store.view(1, 0).is_some());
    }

    #[test]
    fn dense_buffer_pool_reuses_freed_slots() {
        let mut store = PageStore::new(&geo());
        let data = vec![4u8; 36];
        store.program(0, 0, &data, 0.0, meta(), false);
        store.program(1, 0, &data, 0.0, meta(), false);
        store.clear_block(0);
        store.program(2, 0, &data, 0.0, meta(), false);
        assert_eq!(store.pool.len(), 2, "freed slot must be reused");
        // Reused buffers must not leak stale contents into fresh pages.
        let fresh = vec![5u8; 36];
        store.program(2, 1, &fresh, 0.0, meta(), false);
        assert_eq!(store.view(2, 1).unwrap().data, &fresh[..]);
        assert!(store.view(2, 2).is_none());
    }

    #[test]
    fn scan_helpers_agree_across_backends() {
        let mut store = PageStore::new(&geo());
        let mut oracle = LegacyStore::new(&geo());
        let data = vec![6u8; 36];
        for (page, day, torn) in [(0, 2.0, false), (1, 1.0, true), (2, 3.0, false)] {
            store.program(3, page, &data, day, meta(), torn);
            oracle.program(3, page, &data, day, meta(), torn);
        }
        assert_eq!(store.programmed_pages(3, 8), vec![0, 1, 2]);
        assert_eq!(store.torn_pages(3, 8), vec![1]);
        assert_eq!(store.oldest_day(3, 8), Some(1.0));
        assert_eq!(store.oldest_day(2, 8), None);
        // The scans read nothing but `view`, which matches the oracle.
        assert_eq!(first_divergence(&store, &oracle, &geo()), None);
    }

    /// Operations the store-level shadow replays on both stores.
    #[derive(Debug, Clone)]
    enum Op {
        /// Program any page, in any order (the device enforces NAND
        /// order; the store must not care). `oob` picks a data record,
        /// a checkpoint record or a torn data record.
        Program {
            block: u64,
            page: u32,
            byte: u8,
            quarter_days: u16,
            oob: u8,
            torn: bool,
        },
        /// Drop a whole block.
        ClearBlock { block: u64 },
        /// Look at one page (also compared by the full sweep after
        /// every op; kept so reads interleave with writes).
        View { block: u64, page: u32 },
    }

    /// Three blocks of 70 pages: two bitmap words per block, so word
    /// boundaries and the partial last word are both exercised.
    fn shadow_geometry() -> Geometry {
        Geometry {
            blocks: 3,
            pages_per_block: 70,
            ..geo()
        }
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let program = || {
            (
                0u64..3,
                0u32..70,
                any::<u8>(),
                0u16..4000,
                0u8..3,
                any::<bool>(),
            )
                .prop_map(|(block, page, byte, quarter_days, oob, torn)| Op::Program {
                    block,
                    page,
                    byte,
                    quarter_days,
                    oob,
                    torn,
                })
        };
        // Programs are repeated so they dominate (the vendored proptest
        // has no weighted oneof): blocks fill, pages are re-programmed
        // and clears land on populated blocks.
        prop_oneof![
            program(),
            program(),
            program(),
            program(),
            (0u64..3).prop_map(|block| Op::ClearBlock { block }),
            (0u64..3, 0u32..70).prop_map(|(block, page)| Op::View { block, page }),
        ]
    }

    fn oob_record(selector: u8, block: u64, page: u32, byte: u8) -> OobMeta {
        let lpn = block * 1000 + u64::from(page);
        match selector {
            0 => OobMeta::data(lpn, u64::from(byte), byte % 5),
            1 => OobMeta::checkpoint(lpn, u64::from(byte), 254),
            _ => OobMeta::data(lpn, u64::from(byte), byte % 5).torn(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Struct-of-arrays store vs the per-page map: after every op of
        /// a random program/clear/view sequence, every page's view
        /// (contents, program day, OOB record, torn flag) is identical.
        #[test]
        fn store_views_match_the_legacy_map_after_every_op(
            ops in proptest::collection::vec(op_strategy(), 1..160),
        ) {
            let geometry = shadow_geometry();
            let page_bytes = (geometry.page_bytes + geometry.spare_bytes) as usize;
            let mut store = PageStore::new(&geometry);
            let mut oracle = LegacyStore::new(&geometry);
            for (index, op) in ops.iter().enumerate() {
                match *op {
                    Op::Program { block, page, byte, quarter_days, oob, torn } => {
                        // Vary bytes within the page so offset slips show.
                        let data: Vec<u8> = (0..page_bytes)
                            .map(|i| byte.wrapping_add(i as u8))
                            .collect();
                        let day = f64::from(quarter_days) / 4.0;
                        let meta = oob_record(oob, block, page, byte);
                        store.program(block, page, &data, day, meta, torn);
                        oracle.program(block, page, &data, day, meta, torn);
                    }
                    Op::ClearBlock { block } => {
                        store.clear_block(block);
                        oracle.clear_block(block);
                    }
                    Op::View { block, page } => {
                        prop_assert_eq!(
                            key(store.view(block, page)),
                            key(oracle.view(block, page)),
                            "op {} ({:?})", index, op
                        );
                    }
                }
                prop_assert_eq!(
                    first_divergence(&store, &oracle, &geometry),
                    None,
                    "op {} ({:?}) left the stores apart", index, op
                );
            }
        }
    }
}
