//! Partition-level storage: LPN pooling and object page I/O over one
//! FTL instance.
//!
//! The SOS device is "two physically separate sets of flash blocks with
//! different data management decisions" (§4.2): each set is a
//! [`PartitionStore`] — its own FTL over its own silicon region, with
//! its own ECC scheme, wear policy and scrubbing rules.

use crate::object::{merge_status, ObjectStatus};
use sos_ftl::{DataTag, Ftl, FtlError, FtlEvent};

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
    pub fn reserve(&mut self, lpns: &[u64]) {
        if lpns.is_empty() {
            return;
        }
        let claimed: std::collections::HashSet<u64> = lpns.iter().copied().collect();
        let before = self.free.len();
        self.free.retain(|lpn| !claimed.contains(lpn));
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

/// Result of reading an object's pages from one partition.
#[derive(Debug, Clone)]
pub struct PartitionRead {
    /// Concatenated page payloads (trimmed to the object length by the
    /// caller).
    pub bytes: Vec<u8>,
    /// Worst page status.
    pub status: ObjectStatus,
    /// LPNs whose pages were unrecoverable (for stripe repair).
    pub lost_pages: Vec<u64>,
    /// Device latency, µs.
    pub latency_us: f64,
}

/// One partition: an FTL plus an LPN pool.
#[derive(Debug)]
pub struct PartitionStore {
    /// The flash translation layer owning this partition's silicon.
    pub ftl: Ftl,
    /// Virtual page pool.
    pub pool: LpnPool,
    /// Data tag applied to object writes (derives the placement
    /// handle, and with it the reclaim unit, for this partition's data).
    pub data_tag: DataTag,
}

impl PartitionStore {
    /// Wraps an FTL.
    pub fn new(ftl: Ftl, data_tag: DataTag) -> Self {
        let pages = ftl.logical_pages();
        PartitionStore {
            ftl,
            pool: LpnPool::new(pages),
            data_tag,
        }
    }

    /// Page payload size.
    pub fn page_bytes(&self) -> usize {
        self.ftl.page_bytes()
    }

    /// Pages needed for `len` bytes.
    pub fn pages_for(&self, len: usize) -> u64 {
        (len as u64).div_ceil(self.page_bytes() as u64).max(1)
    }

    /// Writes an object's bytes to freshly-allocated pages. Returns the
    /// page list, or `None` if the partition lacks space.
    pub fn write_object(&mut self, bytes: &[u8]) -> Result<Option<Vec<u64>>, FtlError> {
        let count = self.pages_for(bytes.len());
        let Some(lpns) = self.pool.allocate(count) else {
            return Ok(None);
        };
        let page_bytes = self.page_bytes();
        let mut buffer = vec![0u8; page_bytes];
        for (index, &lpn) in lpns.iter().enumerate() {
            let start = index * page_bytes;
            let end = (start + page_bytes).min(bytes.len());
            buffer.iter_mut().for_each(|b| *b = 0);
            if start < bytes.len() {
                buffer[..end - start].copy_from_slice(&bytes[start..end]);
            }
            match self.ftl.write_placed(lpn, &buffer, self.data_tag.handle()) {
                Ok(_) => {}
                Err(FtlError::NoSpace) => {
                    // Roll back what we wrote; physical space exhausted
                    // even though the pool had budget (e.g. after heavy
                    // retirement).
                    for &written in &lpns[..index] {
                        let _ = self.ftl.trim(written);
                    }
                    self.pool.release(&lpns);
                    return Ok(None);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(Some(lpns))
    }

    /// Reads an object's pages.
    pub fn read_object(&mut self, lpns: &[u64], len: usize) -> Result<PartitionRead, FtlError> {
        let page_bytes = self.page_bytes();
        let mut bytes = Vec::with_capacity(lpns.len() * page_bytes);
        let mut status = ObjectStatus::Intact;
        let mut lost = Vec::new();
        let mut latency = 0.0;
        for &lpn in lpns {
            match self.ftl.read(lpn) {
                Ok(result) => {
                    status = merge_status(status, result.status);
                    latency += result.latency_us;
                    bytes.extend_from_slice(&result.data);
                }
                Err(FtlError::DataLost(_)) => {
                    status = ObjectStatus::PartiallyLost;
                    lost.push(lpn);
                    bytes.extend(std::iter::repeat_n(0u8, page_bytes));
                }
                Err(e) => return Err(e),
            }
        }
        bytes.truncate(len);
        Ok(PartitionRead {
            bytes,
            status,
            lost_pages: lost,
            latency_us: latency,
        })
    }

    /// Frees an object's pages.
    pub fn free_object(&mut self, lpns: &[u64]) -> Result<(), FtlError> {
        for &lpn in lpns {
            self.ftl.trim(lpn)?;
        }
        self.pool.release(lpns);
        Ok(())
    }

    /// Processes pending FTL events, shrinking the pool budget on
    /// capacity loss. Returns the LPNs whose data the FTL reported lost.
    pub fn process_events(&mut self) -> Vec<u64> {
        let mut lost = Vec::new();
        for event in self.ftl.drain_events() {
            match event {
                FtlEvent::CapacityShrunk { pages, .. } => self.shrink_to(pages),
                FtlEvent::DataLost { lpn, .. } => lost.push(lpn),
                FtlEvent::BlockRetired { .. } | FtlEvent::BlockResuscitated { .. } => {}
            }
        }
        lost
    }

    /// Lowers the pool budget to fit an FTL capacity of `pages` logical
    /// pages. FTL pages outside the pool's span (the SYS parity range)
    /// stay live whatever the pool hands out, so they come off the top.
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

#[cfg(test)]
mod tests {
    use super::*;
    use sos_flash::{CellDensity, DeviceConfig, ProgramMode};
    use sos_ftl::FtlConfig;

    fn store() -> PartitionStore {
        let ftl = Ftl::new(
            &DeviceConfig::tiny(CellDensity::Tlc),
            FtlConfig::conventional(ProgramMode::native(CellDensity::Tlc)),
        );
        PartitionStore::new(ftl, DataTag::sys_hot())
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
        let lpns = store.write_object(&data).unwrap().expect("space");
        assert_eq!(lpns.len(), 3); // 5000 bytes over 2048-byte pages
        let read = store.read_object(&lpns, data.len()).unwrap();
        assert_eq!(read.bytes, data);
        assert_eq!(read.status, ObjectStatus::Intact);
        assert!(read.latency_us > 0.0);
    }

    #[test]
    fn empty_object_takes_one_page() {
        let mut store = store();
        let lpns = store.write_object(&[]).unwrap().expect("space");
        assert_eq!(lpns.len(), 1);
        let read = store.read_object(&lpns, 0).unwrap();
        assert!(read.bytes.is_empty());
    }

    #[test]
    fn free_returns_budget() {
        let mut store = store();
        let before = store.pool.allocated();
        let lpns = store.write_object(&[7u8; 4096]).unwrap().expect("space");
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
}
