//! A small extent-based host filesystem that tolerates capacity
//! variance.
//!
//! The paper requires "the host file system ... modified accordingly to
//! tolerate capacity-variance" (§4.3, citing CPR-for-SSDs). This FS
//! keeps per-file extents and supports [`HostFs::shrink`]: when the
//! device reports reduced capacity, extents above the new limit are
//! relocated into free space below it and the allocator ceiling drops.
//!
//! Placement hints: each file carries a [`PlacementHint`] (e.g. SYS vs
//! SPARE stream) forwarded to the device on every write, which is how
//! the SOS classifier's verdicts reach the FTL.

use crate::alloc::Allocator;
use crate::store::{PageStore, PlacementHint, StoreError};
use std::collections::BTreeMap;

/// File identifier.
pub type FileId = u64;

/// A contiguous run of device pages belonging to a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First device page.
    pub start: u64,
    /// Number of pages.
    pub pages: u64,
}

/// Per-file metadata.
#[derive(Debug, Clone)]
pub struct Inode {
    /// File id.
    pub id: FileId,
    /// Logical size in bytes.
    pub size: u64,
    /// Data extents, in file order.
    pub extents: Vec<Extent>,
    /// Placement hint used for this file's pages.
    pub hint: PlacementHint,
}

/// Filesystem errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path already exists.
    Exists(String),
    /// Path not found.
    NotFound(String),
    /// Unknown file id.
    BadFileId(FileId),
    /// Out of space (allocation failed).
    NoSpace,
    /// Read past end of file.
    PastEof {
        /// Requested offset.
        offset: u64,
        /// File size.
        size: u64,
    },
    /// Shrink target cannot fit the live data.
    ShrinkTooSmall {
        /// Pages required by live data + metadata.
        needed: u64,
        /// Pages requested.
        requested: u64,
    },
    /// Underlying store error.
    Store(StoreError),
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::Exists(p) => write!(f, "path exists: {p}"),
            FsError::NotFound(p) => write!(f, "path not found: {p}"),
            FsError::BadFileId(id) => write!(f, "unknown file id {id}"),
            FsError::NoSpace => write!(f, "filesystem full"),
            FsError::PastEof { offset, size } => {
                write!(f, "read at {offset} past EOF (size {size})")
            }
            FsError::ShrinkTooSmall { needed, requested } => {
                write!(f, "cannot shrink to {requested} pages; {needed} needed")
            }
            FsError::Store(e) => write!(f, "store: {e}"),
        }
    }
}

impl std::error::Error for FsError {}

impl From<StoreError> for FsError {
    fn from(e: StoreError) -> Self {
        FsError::Store(e)
    }
}

/// The filesystem.
#[derive(Debug)]
pub struct HostFs<S: PageStore> {
    store: S,
    allocator: Allocator,
    inodes: BTreeMap<FileId, Inode>,
    directory: BTreeMap<String, FileId>,
    next_id: FileId,
}

impl<S: PageStore> HostFs<S> {
    /// Formats a filesystem over a store.
    pub fn format(store: S) -> Self {
        let pages = store.pages();
        HostFs {
            store,
            allocator: Allocator::new(pages),
            inodes: BTreeMap::new(),
            directory: BTreeMap::new(),
            next_id: 1,
        }
    }

    /// Re-attaches a filesystem to a recovered store after a crash.
    ///
    /// Inodes and the directory are host metadata, modelled as
    /// crash-safe (journaled on a boot volume that is not simulated);
    /// the allocator is RAM state, rebuilt here by reserving every
    /// extent the surviving inodes reference. Pages the store lost in
    /// the crash window surface as read errors or zeros on access, not
    /// as mount failures.
    pub fn remount(
        mut store: S,
        inodes: impl IntoIterator<Item = Inode>,
        directory: impl IntoIterator<Item = (String, FileId)>,
    ) -> Self {
        let pages = store.pages();
        let mut allocator = Allocator::new(pages);
        let inodes: BTreeMap<FileId, Inode> =
            inodes.into_iter().map(|inode| (inode.id, inode)).collect();
        let mut next_id = 1;
        let mut referenced = vec![false; pages as usize];
        for inode in inodes.values() {
            next_id = next_id.max(inode.id + 1);
            for extent in &inode.extents {
                allocator.reserve(*extent);
                for page in extent.start..(extent.start + extent.pages).min(pages) {
                    if let Some(slot) = referenced.get_mut(page as usize) {
                        *slot = true;
                    }
                }
            }
        }
        // The store may have resurrected pages trimmed shortly before
        // the crash (device trims are volatile until checkpointed). The
        // directory is the authority on what is live: drop every page
        // no extent references.
        for (page, &live) in referenced.iter().enumerate() {
            if !live {
                let _ = store.trim_page(page as u64);
            }
        }
        HostFs {
            store,
            allocator,
            inodes,
            directory: directory.into_iter().collect(),
            next_id,
        }
    }

    /// Clones the host metadata a remount needs: `(inodes, directory)`.
    /// A real host journals these; the simulation snapshots them.
    pub fn metadata(&self) -> (Vec<Inode>, Vec<(String, FileId)>) {
        (
            self.inodes.values().cloned().collect(),
            self.directory
                .iter()
                .map(|(path, &id)| (path.clone(), id))
                .collect(),
        )
    }

    /// Consumes the filesystem, returning the underlying store (e.g. to
    /// run crash recovery on its device).
    pub fn into_store(self) -> S {
        self.store
    }

    /// Page size of the underlying store.
    pub fn page_bytes(&self) -> usize {
        self.store.page_bytes()
    }

    /// Current capacity ceiling in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.allocator.capacity()
    }

    /// Free pages below the ceiling.
    pub fn free_pages(&self) -> u64 {
        self.allocator.free_pages()
    }

    /// Access to the underlying store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable access to the underlying store (e.g. to advance a
    /// simulated clock).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.directory.len()
    }

    /// Looks up a path.
    pub fn lookup(&self, path: &str) -> Option<FileId> {
        self.directory.get(path).copied()
    }

    /// Inode of a file.
    pub fn inode(&self, id: FileId) -> Result<&Inode, FsError> {
        self.inodes.get(&id).ok_or(FsError::BadFileId(id))
    }

    /// Iterates `(path, file id)` in lexicographic order.
    pub fn list(&self) -> impl Iterator<Item = (&str, FileId)> {
        self.directory.iter().map(|(p, &id)| (p.as_str(), id))
    }

    /// Creates an empty file.
    pub fn create(&mut self, path: &str, hint: PlacementHint) -> Result<FileId, FsError> {
        if self.directory.contains_key(path) {
            return Err(FsError::Exists(path.to_string()));
        }
        let id = self.next_id;
        self.next_id += 1;
        self.inodes.insert(
            id,
            Inode {
                id,
                size: 0,
                extents: Vec::new(),
                hint,
            },
        );
        self.directory.insert(path.to_string(), id);
        Ok(id)
    }

    /// Maps a file-relative page index to its device page.
    fn device_page(inode: &Inode, file_page: u64) -> Option<u64> {
        let mut remaining = file_page;
        for extent in &inode.extents {
            if remaining < extent.pages {
                return Some(extent.start + remaining);
            }
            remaining -= extent.pages;
        }
        None
    }

    fn file_pages(inode: &Inode) -> u64 {
        inode.extents.iter().map(|e| e.pages).sum()
    }

    /// Writes `data` at `offset`, growing the file as needed.
    pub fn write(&mut self, id: FileId, offset: u64, data: &[u8]) -> Result<(), FsError> {
        let page_bytes = self.store.page_bytes() as u64;
        let end = offset + data.len() as u64;
        let needed_pages = end.div_ceil(page_bytes);
        // Grow with new extents if required.
        let have = {
            let inode = self.inodes.get(&id).ok_or(FsError::BadFileId(id))?;
            Self::file_pages(inode)
        };
        if needed_pages > have {
            let grow = needed_pages - have;
            let extents = self.allocator.allocate(grow).ok_or(FsError::NoSpace)?;
            let inode = self.inodes.get_mut(&id).ok_or(FsError::BadFileId(id))?;
            inode.extents.extend(extents);
        }
        // Write page by page (read-modify-write at the edges).
        let inode = self.inodes.get(&id).ok_or(FsError::BadFileId(id))?.clone();
        let mut written = 0usize;
        while written < data.len() {
            let absolute = offset + written as u64;
            let file_page = absolute / page_bytes;
            let in_page = (absolute % page_bytes) as usize;
            let chunk = ((page_bytes as usize) - in_page).min(data.len() - written);
            let device_page = Self::device_page(&inode, file_page).ok_or(FsError::PastEof {
                offset: absolute,
                size: inode.size,
            })?;
            let mut page = if in_page != 0 || chunk != page_bytes as usize {
                match self.store.read_page(device_page) {
                    Ok(existing) => existing,
                    Err(StoreError::NotWritten(_)) => vec![0u8; page_bytes as usize],
                    Err(e) => return Err(e.into()),
                }
            } else {
                vec![0u8; page_bytes as usize]
            };
            page[in_page..in_page + chunk].copy_from_slice(&data[written..written + chunk]);
            self.store.write_page(device_page, &page, inode.hint)?;
            written += chunk;
        }
        let inode = self.inodes.get_mut(&id).ok_or(FsError::BadFileId(id))?;
        inode.size = inode.size.max(end);
        Ok(())
    }

    /// Reads `len` bytes at `offset`.
    pub fn read(&mut self, id: FileId, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
        let inode = self.inodes.get(&id).ok_or(FsError::BadFileId(id))?.clone();
        if offset + len as u64 > inode.size {
            return Err(FsError::PastEof {
                offset: offset + len as u64,
                size: inode.size,
            });
        }
        let page_bytes = self.store.page_bytes() as u64;
        let mut out = Vec::with_capacity(len);
        let mut read = 0usize;
        while read < len {
            let absolute = offset + read as u64;
            let file_page = absolute.checked_div(page_bytes).unwrap_or(0);
            let in_page = absolute.checked_rem(page_bytes).unwrap_or(0) as usize;
            let chunk = ((page_bytes as usize) - in_page).min(len - read);
            let device_page = Self::device_page(&inode, file_page).ok_or(FsError::PastEof {
                offset: absolute,
                size: inode.size,
            })?;
            let page = match self.store.read_page(device_page) {
                Ok(p) => p,
                // Sparse region (never written within an allocated
                // extent): reads as zeros.
                Err(StoreError::NotWritten(_)) => vec![0u8; page_bytes as usize],
                Err(e) => return Err(e.into()),
            };
            if let Some(slice) = page.get(in_page..in_page + chunk) {
                out.extend_from_slice(slice);
            }
            read += chunk;
        }
        Ok(out)
    }

    /// Deletes a file, trimming its pages.
    pub fn delete(&mut self, path: &str) -> Result<(), FsError> {
        let id = self
            .directory
            .remove(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        let inode = self.inodes.remove(&id).ok_or(FsError::BadFileId(id))?;
        for extent in &inode.extents {
            for page in extent.start..extent.start + extent.pages {
                // Trim failures on lost pages are fine — the data is gone
                // either way.
                let _ = self.store.trim_page(page);
            }
            self.allocator.release(*extent);
        }
        Ok(())
    }

    /// Live data pages in use.
    pub fn used_pages(&self) -> u64 {
        self.inodes.values().map(Self::file_pages).sum()
    }

    /// Shrinks the filesystem to `new_pages` of capacity (capacity
    /// variance, §4.3): extents at or above the new ceiling are
    /// relocated into free space below it.
    ///
    /// # Errors
    ///
    /// Fails with [`FsError::ShrinkTooSmall`] when live data does not
    /// fit, leaving the filesystem unchanged.
    pub fn shrink(&mut self, new_pages: u64) -> Result<u64, FsError> {
        let used = self.used_pages();
        if used > new_pages {
            return Err(FsError::ShrinkTooSmall {
                needed: used,
                requested: new_pages,
            });
        }
        // Collect extents that must move.
        let mut moved_pages = 0u64;
        let ids: Vec<FileId> = self.inodes.keys().copied().collect();
        // Lower the ceiling first so relocation targets are valid.
        self.allocator.set_capacity_floor(new_pages);
        for id in ids {
            let Some(inode) = self.inodes.get(&id).cloned() else {
                continue;
            };
            let mut new_extents: Vec<Extent> = Vec::with_capacity(inode.extents.len());
            for extent in &inode.extents {
                if extent.start + extent.pages <= new_pages {
                    new_extents.push(*extent);
                    continue;
                }
                // Relocate this extent page by page.
                let replacement = self
                    .allocator
                    .allocate(extent.pages)
                    .ok_or(FsError::NoSpace)?;
                let mut targets: Vec<u64> = replacement
                    .iter()
                    .flat_map(|e| e.start..e.start + e.pages)
                    .collect();
                targets.reverse(); // pop from the front order
                for source in extent.start..extent.start + extent.pages {
                    // The replacement allocation is exactly extent-sized,
                    // so targets cannot run out; guard anyway.
                    let Some(target) = targets.pop() else {
                        return Err(FsError::NoSpace);
                    };
                    match self.store.read_page(source) {
                        Ok(page) => {
                            self.store.write_page(target, &page, inode.hint)?;
                        }
                        Err(StoreError::NotWritten(_)) => {
                            // Sparse page: nothing to copy.
                        }
                        Err(e) => return Err(e.into()),
                    }
                    let _ = self.store.trim_page(source);
                    moved_pages += 1;
                }
                self.allocator.release(*extent);
                new_extents.extend(replacement);
            }
            if let Some(entry) = self.inodes.get_mut(&id) {
                entry.extents = new_extents;
            }
        }
        Ok(moved_pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn fs() -> HostFs<MemStore> {
        HostFs::format(MemStore::new(64, 256))
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut fs = fs();
        let id = fs.create("/a.txt", 0).unwrap();
        let data: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        fs.write(id, 0, &data).unwrap();
        assert_eq!(fs.read(id, 0, 1000).unwrap(), data);
        assert_eq!(fs.inode(id).unwrap().size, 1000);
    }

    #[test]
    fn unaligned_offsets_roundtrip() {
        let mut fs = fs();
        let id = fs.create("/b", 0).unwrap();
        fs.write(id, 0, &[1u8; 600]).unwrap();
        fs.write(id, 100, &[2u8; 300]).unwrap();
        let data = fs.read(id, 0, 600).unwrap();
        assert_eq!(&data[..100], &[1u8; 100][..]);
        assert_eq!(&data[100..400], &[2u8; 300][..]);
        assert_eq!(&data[400..], &[1u8; 200][..]);
    }

    #[test]
    fn duplicate_path_rejected() {
        let mut fs = fs();
        fs.create("/x", 0).unwrap();
        assert!(matches!(
            fs.create("/x", 0).unwrap_err(),
            FsError::Exists(_)
        ));
    }

    #[test]
    fn delete_frees_space() {
        let mut fs = fs();
        let free_before = fs.free_pages();
        let id = fs.create("/big", 0).unwrap();
        fs.write(id, 0, &vec![9u8; 256 * 10]).unwrap();
        assert_eq!(fs.free_pages(), free_before - 10);
        fs.delete("/big").unwrap();
        assert_eq!(fs.free_pages(), free_before);
        assert!(fs.lookup("/big").is_none());
    }

    #[test]
    fn read_past_eof_fails() {
        let mut fs = fs();
        let id = fs.create("/s", 0).unwrap();
        fs.write(id, 0, &[1u8; 10]).unwrap();
        assert!(matches!(
            fs.read(id, 5, 10).unwrap_err(),
            FsError::PastEof { .. }
        ));
    }

    #[test]
    fn fills_to_capacity_then_no_space() {
        let mut fs = fs();
        let id = fs.create("/fill", 0).unwrap();
        let capacity_bytes = 64 * 256;
        fs.write(id, 0, &vec![5u8; capacity_bytes]).unwrap();
        let id2 = fs.create("/more", 0).unwrap();
        assert_eq!(fs.write(id2, 0, &[1u8; 256]).unwrap_err(), FsError::NoSpace);
    }

    #[test]
    fn shrink_relocates_tail_extents() {
        let mut fs = fs();
        // Fill pages across the whole device with several files, delete
        // some to create free space low, then shrink.
        let a = fs.create("/a", 0).unwrap();
        fs.write(a, 0, &vec![1u8; 256 * 20]).unwrap();
        let b = fs.create("/b", 0).unwrap();
        fs.write(b, 0, &vec![2u8; 256 * 20]).unwrap();
        let c = fs.create("/c", 0).unwrap();
        fs.write(c, 0, &vec![3u8; 256 * 20]).unwrap();
        // Free the first file: 20 pages free at the bottom.
        fs.delete("/a").unwrap();
        // Shrink from 64 to 44 pages: /c's pages (40..60) must move.
        let moved = fs.shrink(44).unwrap();
        assert!(moved > 0, "expected relocations");
        assert_eq!(fs.capacity_pages(), 44);
        // Data intact after relocation.
        assert_eq!(fs.read(b, 0, 256 * 20).unwrap(), vec![2u8; 256 * 20]);
        assert_eq!(fs.read(c, 0, 256 * 20).unwrap(), vec![3u8; 256 * 20]);
        // All extents now below the ceiling.
        for (_, id) in fs
            .list()
            .map(|(p, i)| (p.to_string(), i))
            .collect::<Vec<_>>()
        {
            for extent in &fs.inode(id).unwrap().extents {
                assert!(extent.start + extent.pages <= 44);
            }
        }
    }

    #[test]
    fn shrink_too_small_is_rejected_and_harmless() {
        let mut fs = fs();
        let id = fs.create("/a", 0).unwrap();
        fs.write(id, 0, &vec![1u8; 256 * 30]).unwrap();
        let err = fs.shrink(20).unwrap_err();
        assert!(matches!(err, FsError::ShrinkTooSmall { needed: 30, .. }));
        // Still readable, capacity unchanged at the original size.
        assert_eq!(fs.read(id, 0, 256 * 30).unwrap(), vec![1u8; 256 * 30]);
    }

    #[test]
    fn hints_are_tracked_per_file() {
        let mut fs = fs();
        let id = fs.create("/media.jpg", 7).unwrap();
        assert_eq!(fs.inode(id).unwrap().hint, 7);
    }

    #[test]
    fn remount_rebuilds_the_allocator_from_inodes() {
        let mut fs = fs();
        let a = fs.create("/a", 0).unwrap();
        fs.write(a, 0, &vec![1u8; 256 * 5]).unwrap();
        let b = fs.create("/b", 0).unwrap();
        fs.write(b, 0, &vec![2u8; 256 * 3]).unwrap();
        fs.delete("/a").unwrap();
        let free_before = fs.free_pages();
        let (inodes, directory) = fs.metadata();
        let mut fs = HostFs::remount(fs.into_store(), inodes, directory);
        assert_eq!(fs.free_pages(), free_before);
        assert_eq!(fs.file_count(), 1);
        assert_eq!(fs.read(b, 0, 256 * 3).unwrap(), vec![2u8; 256 * 3]);
        // New files land in space no surviving file occupies, and ids
        // never collide with surviving inodes.
        let c = fs.create("/c", 0).unwrap();
        assert!(c > b);
        fs.write(c, 0, &vec![3u8; 256 * 4]).unwrap();
        assert_eq!(fs.read(b, 0, 256 * 3).unwrap(), vec![2u8; 256 * 3]);
        assert_eq!(fs.read(c, 0, 256 * 4).unwrap(), vec![3u8; 256 * 4]);
    }

    #[test]
    fn grows_across_multiple_extents_after_fragmentation() {
        let mut fs = fs();
        // Fragment the free space: allocate alternating files, delete
        // every other one.
        let mut ids = Vec::new();
        for i in 0..10 {
            let id = fs.create(&format!("/f{i}"), 0).unwrap();
            fs.write(id, 0, &vec![i as u8; 256 * 4]).unwrap();
            ids.push(id);
        }
        for i in (0..10).step_by(2) {
            fs.delete(&format!("/f{i}")).unwrap();
        }
        // A 12-page file must span several non-contiguous extents.
        let big = fs.create("/big", 0).unwrap();
        fs.write(big, 0, &vec![0xAB; 256 * 12]).unwrap();
        assert!(fs.inode(big).unwrap().extents.len() > 1);
        assert_eq!(fs.read(big, 0, 256 * 12).unwrap(), vec![0xAB; 256 * 12]);
    }
}
