//! The page-store abstraction the filesystem runs on.
//!
//! `sos-hostfs` deliberately does not depend on the FTL crate: it talks
//! to any [`PageStore`] — the SOS device, a plain FTL, or the in-memory
//! store used in tests. The `hint` parameter carries the per-file
//! placement class down to multi-stream/zoned/FDP devices (§4.3); on
//! the simulated FTL it selects the reclaim unit the file's pages
//! append into (`sos_ftl::placement` maps it onto a placement handle).

/// Placement hint forwarded to the device: the wire form of a
/// placement handle (legacy stream / zone id). The byte values belong
/// to the device; on the simulated FTL `sos_ftl::placement` owns them.
pub type PlacementHint = u8;

/// Errors a page store can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Page index beyond the device.
    OutOfRange(u64),
    /// Data length does not match the page size.
    WrongLength {
        /// Expected bytes.
        expected: usize,
        /// Got bytes.
        got: usize,
    },
    /// The page was never written.
    NotWritten(u64),
    /// The data at this page is lost/unrecoverable.
    Lost(u64),
    /// The device is out of usable space.
    NoSpace,
    /// The device lost power mid-operation; the host must remount the
    /// recovered store before continuing.
    PowerLoss,
    /// Any other device failure, described by the device.
    Storage(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::OutOfRange(p) => write!(f, "page {p} out of range"),
            StoreError::WrongLength { expected, got } => {
                write!(f, "wrong length: expected {expected}, got {got}")
            }
            StoreError::NotWritten(p) => write!(f, "page {p} not written"),
            StoreError::Lost(p) => write!(f, "page {p} lost"),
            StoreError::NoSpace => write!(f, "no space"),
            StoreError::PowerLoss => write!(f, "device lost power; remount required"),
            StoreError::Storage(e) => write!(f, "storage failure: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A logical page store (what a block device exports to the host).
pub trait PageStore {
    /// Page size in bytes.
    fn page_bytes(&self) -> usize;
    /// Exported capacity in pages.
    fn pages(&self) -> u64;
    /// Writes one full page.
    fn write_page(&mut self, page: u64, data: &[u8], hint: PlacementHint)
        -> Result<(), StoreError>;
    /// Reads one full page.
    fn read_page(&mut self, page: u64) -> Result<Vec<u8>, StoreError>;
    /// Discards a page (TRIM).
    fn trim_page(&mut self, page: u64) -> Result<(), StoreError>;
}

/// A trivial in-memory page store for tests.
#[derive(Debug, Clone)]
pub struct MemStore {
    page_bytes: usize,
    pages: Vec<Option<Vec<u8>>>,
}

impl MemStore {
    /// Creates a store of `pages` pages of `page_bytes` each.
    pub fn new(pages: u64, page_bytes: usize) -> Self {
        MemStore {
            page_bytes,
            pages: vec![None; pages as usize],
        }
    }
}

impl PageStore for MemStore {
    fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    fn pages(&self) -> u64 {
        self.pages.len() as u64
    }

    fn write_page(
        &mut self,
        page: u64,
        data: &[u8],
        _hint: PlacementHint,
    ) -> Result<(), StoreError> {
        if data.len() != self.page_bytes {
            return Err(StoreError::WrongLength {
                expected: self.page_bytes,
                got: data.len(),
            });
        }
        let slot = self
            .pages
            .get_mut(page as usize)
            .ok_or(StoreError::OutOfRange(page))?;
        *slot = Some(data.to_vec());
        Ok(())
    }

    fn read_page(&mut self, page: u64) -> Result<Vec<u8>, StoreError> {
        self.pages
            .get(page as usize)
            .ok_or(StoreError::OutOfRange(page))?
            .clone()
            .ok_or(StoreError::NotWritten(page))
    }

    fn trim_page(&mut self, page: u64) -> Result<(), StoreError> {
        let slot = self
            .pages
            .get_mut(page as usize)
            .ok_or(StoreError::OutOfRange(page))?;
        *slot = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memstore_roundtrip() {
        let mut store = MemStore::new(4, 8);
        store.write_page(1, &[7u8; 8], 0).unwrap();
        assert_eq!(store.read_page(1).unwrap(), vec![7u8; 8]);
        store.trim_page(1).unwrap();
        assert_eq!(store.read_page(1).unwrap_err(), StoreError::NotWritten(1));
    }

    #[test]
    fn memstore_bounds() {
        let mut store = MemStore::new(2, 8);
        assert_eq!(
            store.write_page(5, &[0u8; 8], 0).unwrap_err(),
            StoreError::OutOfRange(5)
        );
        assert!(matches!(
            store.write_page(0, &[0u8; 3], 0).unwrap_err(),
            StoreError::WrongLength { .. }
        ));
    }
}
