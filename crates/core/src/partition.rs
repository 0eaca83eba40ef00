//! Partition-level storage: LPN pooling, object page I/O and, where the
//! partition keeps it, stripe parity over one FTL instance.
//!
//! The SOS device is "two physically separate sets of flash blocks with
//! different data management decisions" (§4.2): each set is a
//! [`PartitionStore`] — its own FTL over its own silicon region, with
//! its own ECC scheme, wear policy and scrubbing rules. Extra redundancy
//! is one of those decisions: SYS is built with
//! [`PartitionStore::with_parity`], and its object writes, frees, reads
//! and remount keep that parity in step; SPARE and the baselines are
//! built with [`PartitionStore::new`] and keep none.

use crate::object::{merge_status, ObjectData, ObjectId, ObjectStatus};
use crate::stripe::{page_checksum, StripeManager};
use sos_ftl::{DataTag, Ftl, FtlError, FtlEvent, RecoveryReport};
use std::collections::BTreeSet;

/// Virtual page allocator over an FTL's logical space.
///
/// LPNs are virtual, so capacity variance needs no positional
/// relocation at this level: when the device retires blocks the pool's
/// *budget* shrinks, capping how many pages may be live at once.
#[derive(Debug)]
pub struct LpnPool {
    free: Vec<u64>,
    allocated: u64,
    budget: u64,
    /// The pool hands out LPNs `0..span`.
    span: u64,
}

impl LpnPool {
    /// Pool over `0..pages` with an initial budget of all of them.
    pub fn new(pages: u64) -> Self {
        LpnPool {
            free: (0..pages).rev().collect(),
            allocated: 0,
            budget: pages,
            span: pages,
        }
    }

    /// Number of LPNs the pool covers (`0..span`).
    pub fn span(&self) -> u64 {
        self.span
    }

    /// Pages currently allocated.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Current budget (sustainable live pages).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Lowers the budget (capacity variance). Existing allocations are
    /// untouched; new allocations fail until usage drops below the new
    /// budget.
    pub fn shrink_budget(&mut self, new_budget: u64) {
        self.budget = self.budget.min(new_budget);
    }

    /// Claims specific pages out of the free list, as the remount path
    /// does when re-adopting allocations recorded in the surviving
    /// object directory. Pages not currently free are ignored.
    pub fn reserve(&mut self, lpns: &BTreeSet<u64>) {
        if lpns.is_empty() {
            return;
        }
        let before = self.free.len();
        self.free.retain(|lpn| !lpns.contains(lpn));
        self.allocated += (before - self.free.len()) as u64;
    }

    /// Allocates `count` pages, or `None` (pool unchanged) if the
    /// budget or the free list cannot cover them.
    pub fn allocate(&mut self, count: u64) -> Option<Vec<u64>> {
        if self.allocated + count > self.budget || (self.free.len() as u64) < count {
            return None;
        }
        self.allocated += count;
        let at = self.free.len() - count as usize;
        Some(self.free.split_off(at))
    }

    /// Returns pages to the pool.
    pub fn release(&mut self, pages: &[u64]) {
        self.allocated = self.allocated.saturating_sub(pages.len() as u64);
        self.free.extend_from_slice(pages);
    }
}

/// One partition: an FTL, an LPN pool and, on SYS, the stripe parity
/// over the pool's pages.
#[derive(Debug)]
pub struct PartitionStore {
    /// The flash translation layer owning this partition's silicon.
    pub ftl: Ftl,
    /// Virtual page pool.
    pub pool: LpnPool,
    /// Data tag applied to object writes (derives the placement
    /// handle, and with it the reclaim unit, for this partition's data).
    pub data_tag: DataTag,
    /// Stripe parity over the pool's pages, kept in the FTL's logical
    /// pages above the pool's span (SYS's extra redundancy, §4.2).
    parity: Option<StripeManager>,
}

/// The pages [`PartitionStore::write_object`] wrote an object to, as
/// the object directory records them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObjectPages {
    /// Logical pages holding the object's data, in order.
    pub lpns: Vec<u64>,
    /// Each page's [`page_checksum`] as written, on a partition that
    /// keeps parity (empty on one that does not): the remount keeps a
    /// page rebuilt from parity only when it matches.
    pub sums: Vec<u64>,
}

/// What [`PartitionStore::remount`] rebuilt, repaired and gave up on.
#[derive(Debug, Clone, Default)]
pub struct PartitionRemount {
    /// The FTL rebuild report.
    pub recovery: RecoveryReport,
    /// Mapped pool LPNs no object references, re-trimmed.
    pub trimmed: u64,
    /// Referenced pages rebuilt from stripe parity.
    pub repaired: u64,
    /// Referenced pages beyond repair, as `(object, lpn)`, declared lost.
    pub lost: Vec<(ObjectId, u64)>,
    /// Live stripes whose parity was recomputed.
    pub parity_refreshed: u64,
}

impl PartitionStore {
    /// Wraps an FTL whose whole logical space holds object data.
    pub fn new(ftl: Ftl, data_tag: DataTag) -> Self {
        let pages = ftl.logical_pages();
        PartitionStore {
            ftl,
            pool: LpnPool::new(pages),
            data_tag,
            parity: None,
        }
    }

    /// Wraps an FTL under stripe parity of `width` data pages per parity
    /// page: the top of the logical space holds parity, and the pool
    /// hands out only the data LPNs below it.
    pub fn with_parity(ftl: Ftl, data_tag: DataTag, width: u64) -> Self {
        let (data_pages, _parity) = StripeManager::layout(ftl.logical_pages(), width);
        PartitionStore {
            pool: LpnPool::new(data_pages),
            parity: Some(StripeManager::new(width, data_pages)),
            ..PartitionStore::new(ftl, data_tag)
        }
    }

    /// Page payload size.
    pub fn page_bytes(&self) -> usize {
        self.ftl.page_bytes()
    }

    /// Writes an object's bytes to freshly-allocated pages, then XORs
    /// each into its stripe's RAM parity and checksums it, where the
    /// partition keeps parity. Returns the pages, or `None`, with
    /// nothing left allocated or mapped, if the partition lacks space.
    pub fn write_object(&mut self, bytes: &[u8]) -> Result<Option<ObjectPages>, FtlError> {
        let mut page = vec![0u8; self.page_bytes()];
        // An empty object still takes one page.
        let count = bytes.len().div_ceil(page.len()).max(1) as u64;
        let Some(lpns) = self.pool.allocate(count) else {
            return Ok(None);
        };
        for (index, &lpn) in lpns.iter().enumerate() {
            fill_page(&mut page, bytes, index);
            match self.ftl.write_placed(lpn, &page, self.data_tag.handle()) {
                Ok(_) => {}
                Err(FtlError::NoSpace) => {
                    // Roll back what we wrote; physical space exhausted
                    // even though the pool had budget (e.g. after heavy
                    // retirement).
                    for &written in lpns.iter().take(index) {
                        let _ = self.ftl.trim(written);
                    }
                    self.pool.release(&lpns);
                    return Ok(None);
                }
                Err(e) => return Err(e),
            }
        }
        let mut sums = Vec::new();
        if let Some(parity) = &mut self.parity {
            sums.reserve_exact(lpns.len());
            for (index, &lpn) in lpns.iter().enumerate() {
                fill_page(&mut page, bytes, index);
                parity.on_write(&mut self.ftl, lpn, &page)?;
                sums.push(page_checksum(&page));
            }
        }
        Ok(Some(ObjectPages { lpns, sums }))
    }

    /// Reads an object's pages. A page the FTL reports lost is rebuilt
    /// from stripe parity where the partition keeps it, and written
    /// back; a page beyond repair reads as zeros. The object's status is
    /// the worst status among the pages that read back, or
    /// [`ObjectStatus::PartiallyLost`] when a lost page stays
    /// unrepaired.
    pub fn read_object(&mut self, lpns: &[u64], len: usize) -> Result<ObjectData, FtlError> {
        let page_bytes = self.page_bytes();
        let mut bytes = Vec::with_capacity(lpns.len() * page_bytes);
        let mut status = ObjectStatus::Intact;
        let mut lost = Vec::new();
        let mut latency_us = 0.0;
        for &lpn in lpns {
            match self.ftl.read(lpn) {
                Ok(result) => {
                    status = merge_status(status, result.status);
                    latency_us += result.latency_us;
                    bytes.extend_from_slice(&result.data);
                }
                Err(FtlError::DataLost(_)) => {
                    lost.push(lpn);
                    bytes.extend(std::iter::repeat_n(0u8, page_bytes));
                }
                Err(e) => return Err(e),
            }
        }
        let mut unrepaired = lost.len();
        if let Some(parity) = self.parity.as_mut().filter(|_| !lost.is_empty()) {
            let pages = bytes.chunks_mut(page_bytes).zip(lpns);
            for (page, &lpn) in pages.filter(|(_, lpn)| lost.contains(lpn)) {
                let Some(rebuilt) = parity.reconstruct(&mut self.ftl, lpn) else {
                    continue;
                };
                for (byte, &rebuilt_byte) in page.iter_mut().zip(&rebuilt) {
                    *byte = rebuilt_byte;
                }
                // The parity already covers the rebuilt page. Without
                // free space the repair still serves this read; the page
                // stays lost until a later read repairs it.
                match self.ftl.write_placed(lpn, &rebuilt, self.data_tag.handle()) {
                    Ok(_) | Err(FtlError::NoSpace) => {}
                    Err(e) => return Err(e),
                }
                unrepaired -= 1;
            }
        }
        if unrepaired > 0 {
            status = ObjectStatus::PartiallyLost;
        }
        bytes.truncate(len);
        Ok(ObjectData {
            bytes,
            status,
            latency_us,
        })
    }

    /// Frees an object's pages: reads each page and XORs it out of its
    /// stripe's parity (see [`StripeManager::on_free`]), trims it, and
    /// only then returns them all to the pool. Never fails for lack of
    /// space.
    pub fn free_object(&mut self, lpns: &[u64]) -> Result<(), FtlError> {
        for &lpn in lpns {
            if let Some(parity) = &mut self.parity {
                parity.on_free(&mut self.ftl, lpn)?;
            }
            self.ftl.trim(lpn)?;
        }
        self.pool.release(lpns);
        Ok(())
    }

    /// Programs the RAM parity of every dirty stripe, where the
    /// partition keeps parity (see [`StripeManager::flush`]). Never
    /// fails for lack of space: a stripe without room stays dirty.
    pub fn flush_parity(&mut self) -> Result<(), FtlError> {
        match &mut self.parity {
            Some(parity) => parity.flush(&mut self.ftl),
            None => Ok(()),
        }
    }

    /// Parity pages programmed so far (0 without parity).
    pub fn parity_programs(&self) -> u64 {
        self.parity
            .as_ref()
            .map_or(0, StripeManager::parity_programs)
    }

    /// The stripes whose parity lives in RAM, in stripe order (none
    /// without parity).
    pub fn dirty_stripes(&self) -> impl Iterator<Item = u64> + '_ {
        self.parity.iter().flat_map(StripeManager::dirty_stripes)
    }

    /// Processes pending FTL events, shrinking the pool budget on
    /// capacity loss. Returns the LPNs whose data the FTL reported lost.
    pub fn process_events(&mut self) -> Vec<u64> {
        let mut lost = Vec::new();
        for event in self.ftl.drain_events() {
            match event {
                FtlEvent::CapacityShrunk { pages } => self.shrink_to(pages),
                FtlEvent::DataLost { lpn } => lost.push(lpn),
            }
        }
        lost
    }

    /// The repair-or-declare remount pass for one partition after a
    /// power cut. `objects` lists, in directory order, the pages each
    /// object on this partition holds. The pass:
    ///
    /// 1. rebuilds the FTL from flash ([`Ftl::recover`]);
    /// 2. re-adopts the referenced pages into a fresh pool, with the
    ///    budget the recovered FTL sustains (wear and retirement survive
    ///    the crash in the device);
    /// 3. trims every mapped pool LPN no object references: trims are
    ///    volatile until checkpointed, and pages of operations that
    ///    never reached the directory are live on flash too;
    /// 4. rebuilds stripe membership (RAM state) from the referenced
    ///    pages;
    /// 5. rebuilds each referenced page that did not survive from the
    ///    pre-refresh parity, when the partition keeps parity and the
    ///    page is not already lost, and keeps the rebuild only if it
    ///    matches the page's recorded checksum: RAM parity died with the
    ///    power, so the on-flash parity may predate the stripe's last
    ///    member writes and frees. Every other such page is declared:
    ///    marked `Lost`, so reads fail with an explicit `DataLost` and
    ///    the parity refresh drops it from its stripe;
    /// 6. with parity: checkpoints the FTL if it declared a loss, so the
    ///    `Lost` mark outlives another cut (without free space it stays
    ///    in RAM, and a retry after a cut re-declares the page because
    ///    its rebuild fails the checksum), then refreshes every live
    ///    stripe's parity (the RAID-5 write hole) and trims the parity
    ///    of dead stripes.
    pub fn remount(
        &mut self,
        objects: &[(ObjectId, &ObjectPages)],
    ) -> Result<PartitionRemount, FtlError> {
        let recovery = self.ftl.recover()?;
        let refs: BTreeSet<u64> = objects
            .iter()
            .flat_map(|&(_, pages)| pages.lpns.iter().copied())
            .collect();
        let span = self.pool.span();
        self.pool = LpnPool::new(span);
        self.pool.reserve(&refs);
        self.shrink_to(self.ftl.sustainable_pages());
        let mut report = PartitionRemount {
            recovery,
            ..PartitionRemount::default()
        };
        for lpn in 0..span {
            if self.ftl.is_mapped(lpn) && !refs.contains(&lpn) {
                self.ftl.trim(lpn)?;
                report.trimmed += 1;
            }
        }
        if let Some(parity) = &mut self.parity {
            parity.rebuild(refs.iter().copied());
        }
        for &(id, pages) in objects {
            for (index, &lpn) in pages.lpns.iter().enumerate() {
                if self.ftl.is_mapped(lpn) {
                    continue;
                }
                let rebuilt = match &self.parity {
                    Some(parity) if !self.ftl.is_lost(lpn) => parity
                        .reconstruct(&mut self.ftl, lpn)
                        .filter(|page| pages.sums.get(index) == Some(&page_checksum(page))),
                    _ => None,
                };
                if let Some(page) = rebuilt {
                    self.ftl.write_placed(lpn, &page, self.data_tag.handle())?;
                    report.repaired += 1;
                } else {
                    self.ftl.declare_lost(lpn);
                    report.lost.push((id, lpn));
                }
            }
        }
        if let Some(parity) = &mut self.parity {
            if !report.lost.is_empty() {
                match self.ftl.checkpoint() {
                    Ok(()) | Err(FtlError::NoSpace) => {}
                    Err(e) => return Err(e),
                }
            }
            report.parity_refreshed = parity.scrub_parity(&mut self.ftl)?;
        }
        Ok(report)
    }

    /// Lowers the pool budget to fit an FTL capacity of `pages` logical
    /// pages. FTL pages outside the pool's span (the parity range) stay
    /// live whatever the pool hands out, so they come off the top.
    pub fn shrink_to(&mut self, pages: u64) {
        let withheld = self.ftl.logical_pages().saturating_sub(self.pool.span());
        self.pool.shrink_budget(pages.saturating_sub(withheld));
    }

    /// Bytes this partition can sustainably hold.
    pub fn capacity_bytes(&self) -> u64 {
        self.pool.budget() * self.page_bytes() as u64
    }

    /// Whether usage is within `margin` of the budget.
    pub fn under_pressure(&self, margin: f64) -> bool {
        self.pool.allocated() as f64 >= self.pool.budget() as f64 * (1.0 - margin)
    }
}

/// Copies page `index` of `bytes` into `page`, zero-filling whatever
/// the bytes do not reach.
fn fill_page(page: &mut [u8], bytes: &[u8], index: usize) {
    let chunk = bytes.chunks(page.len()).nth(index).unwrap_or_default();
    let (head, tail) = page.split_at_mut(chunk.len());
    head.copy_from_slice(chunk);
    tail.fill(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_flash::{CellDensity, DeviceConfig, FaultAt, FaultKind, FaultPlan, ProgramMode};
    use sos_ftl::FtlConfig;

    fn tlc_ftl() -> Ftl {
        Ftl::new(
            &DeviceConfig::tiny(CellDensity::Tlc),
            FtlConfig::conventional(ProgramMode::native(CellDensity::Tlc)),
        )
    }

    fn store() -> PartitionStore {
        PartitionStore::new(tlc_ftl(), DataTag::sys_hot())
    }

    #[test]
    fn pool_allocate_release_roundtrip() {
        let mut pool = LpnPool::new(10);
        let pages = pool.allocate(4).unwrap();
        assert_eq!(pages.len(), 4);
        assert_eq!(pool.allocated(), 4);
        pool.release(&pages);
        assert_eq!(pool.allocated(), 0);
        assert!(pool.allocate(10).is_some());
    }

    #[test]
    fn pool_budget_caps_allocation() {
        let mut pool = LpnPool::new(10);
        pool.shrink_budget(3);
        assert!(pool.allocate(4).is_none());
        assert!(pool.allocate(3).is_some());
        assert!(pool.allocate(1).is_none());
    }

    #[test]
    fn object_write_read_roundtrip() {
        let mut store = store();
        let data: Vec<u8> = (0..5000).map(|i| (i % 255) as u8).collect();
        let lpns = store.write_object(&data).unwrap().expect("space").lpns;
        assert_eq!(lpns.len(), 3); // 5000 bytes over 2048-byte pages
        let read = store.read_object(&lpns, data.len()).unwrap();
        assert_eq!(read.bytes, data);
        assert_eq!(read.status, ObjectStatus::Intact);
        assert!(read.latency_us > 0.0);
    }

    #[test]
    fn empty_object_takes_one_page() {
        let mut store = store();
        let lpns = store.write_object(&[]).unwrap().expect("space").lpns;
        assert_eq!(lpns.len(), 1);
        let read = store.read_object(&lpns, 0).unwrap();
        assert!(read.bytes.is_empty());
    }

    #[test]
    fn free_returns_budget() {
        let mut store = store();
        let before = store.pool.allocated();
        let lpns = store
            .write_object(&[7u8; 4096])
            .unwrap()
            .expect("space")
            .lpns;
        assert!(store.pool.allocated() > before);
        store.free_object(&lpns).unwrap();
        assert_eq!(store.pool.allocated(), before);
    }

    #[test]
    fn oversized_object_is_rejected_cleanly() {
        let mut store = store();
        let capacity = store.capacity_bytes();
        let result = store
            .write_object(&vec![1u8; capacity as usize + 4096])
            .unwrap();
        assert!(result.is_none());
        assert_eq!(store.pool.allocated(), 0, "failed write must not leak");
    }

    #[test]
    fn a_parity_repair_does_not_hide_an_uncorrectable_page() {
        let mut store = PartitionStore::with_parity(tlc_ftl(), DataTag::sys_hot(), 4);
        let data = [5u8; 5000];
        let lpns = store.write_object(&data).unwrap().expect("space").lpns;
        assert_eq!(lpns.len(), 3);
        store.ftl.declare_lost(lpns[0]);
        // Page 0's read fails in the FTL without touching flash, so the
        // noise lands on page 1's read; parity still rebuilds page 0,
        // because the rebuild's own read of page 1 comes after it.
        let noise = FaultPlan {
            kind: FaultKind::ReadNoise { bits: 400 },
            at: FaultAt::OpCount(0),
        };
        store.ftl.arm_fault(noise, 7);
        let read = store.read_object(&lpns, data.len()).unwrap();
        let page_bytes = store.page_bytes();
        assert_eq!(
            read.bytes[..page_bytes],
            data[..page_bytes],
            "page 0 repaired"
        );
        assert_eq!(read.status, ObjectStatus::PartiallyLost);
    }
}
