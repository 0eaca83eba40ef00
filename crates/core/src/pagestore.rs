//! `PageStore` adapter: mount the host filesystem on an FTL.
//!
//! Connects `sos-hostfs` (which only knows the [`PageStore`] trait) to a
//! real simulated FTL, mapping the per-file placement hints onto FDP
//! placement handles (§4.3's multi-stream interface, now
//! [`sos_ftl::placement`]).

use sos_flash::FlashError;
use sos_ftl::{Ftl, FtlError, PlacementHandle};
use sos_hostfs::{PageStore, PlacementHint, StoreError};

/// An FTL exposed as a host-filesystem page store.
#[derive(Debug)]
pub struct FtlPageStore {
    /// The wrapped FTL (public so simulations can scrub/advance time).
    pub ftl: Ftl,
}

impl FtlPageStore {
    /// Wraps an FTL.
    pub fn new(ftl: Ftl) -> Self {
        FtlPageStore { ftl }
    }
}

fn map_error(e: FtlError) -> StoreError {
    match e {
        FtlError::LpnOutOfRange { lpn, .. } => StoreError::OutOfRange(lpn),
        FtlError::NotWritten(lpn) => StoreError::NotWritten(lpn),
        FtlError::DataLost(lpn) => StoreError::Lost(lpn),
        FtlError::WrongDataLength { expected, got } => StoreError::WrongLength { expected, got },
        FtlError::NoSpace => StoreError::NoSpace,
        FtlError::Device(FlashError::PowerLoss) => StoreError::PowerLoss,
        other => StoreError::Storage(other.to_string()),
    }
}

impl PageStore for FtlPageStore {
    fn page_bytes(&self) -> usize {
        self.ftl.page_bytes()
    }

    fn pages(&self) -> u64 {
        self.ftl.logical_pages()
    }

    fn write_page(
        &mut self,
        page: u64,
        data: &[u8],
        hint: PlacementHint,
    ) -> Result<(), StoreError> {
        // The reserved GC stream is remapped rather than rejected.
        self.ftl
            .write_placed(page, data, PlacementHandle::from_host_hint(hint))
            .map(|_| ())
            .map_err(map_error)
    }

    fn read_page(&mut self, page: u64) -> Result<Vec<u8>, StoreError> {
        self.ftl.read(page).map(|r| r.data).map_err(map_error)
    }

    fn trim_page(&mut self, page: u64) -> Result<(), StoreError> {
        self.ftl.trim(page).map_err(map_error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_flash::{CellDensity, DeviceConfig, ProgramMode};
    use sos_ftl::FtlConfig;
    use sos_hostfs::HostFs;

    fn ftl_store() -> FtlPageStore {
        FtlPageStore::new(Ftl::new(
            &DeviceConfig::tiny(CellDensity::Tlc),
            FtlConfig::conventional(ProgramMode::native(CellDensity::Tlc)),
        ))
    }

    #[test]
    fn hostfs_mounts_on_ftl() {
        let mut fs = HostFs::format(ftl_store());
        let id = fs.create("/photos/img1.jpg", 2).unwrap();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 249) as u8).collect();
        fs.write(id, 0, &data).unwrap();
        assert_eq!(fs.read(id, 0, data.len()).unwrap(), data);
    }

    #[test]
    fn trim_reaches_the_ftl() {
        let mut store = ftl_store();
        let page = vec![1u8; store.page_bytes()];
        store.write_page(3, &page, 0).unwrap();
        assert_eq!(store.read_page(3).unwrap(), page);
        store.trim_page(3).unwrap();
        assert_eq!(store.read_page(3).unwrap_err(), StoreError::NotWritten(3));
    }

    #[test]
    fn remount_after_power_cut_recovers_files() {
        use sos_flash::{FaultAt, FaultKind, FaultPlan};
        use sos_hostfs::FsError;

        let mut fs = HostFs::format(ftl_store());
        let keep = fs.create("/keep.bin", 0).unwrap();
        let data: Vec<u8> = (0..6000).map(|i| (i % 253) as u8).collect();
        fs.write(keep, 0, &data).unwrap();
        fs.store_mut().ftl.checkpoint().unwrap();

        // Cut power a few device operations into the next write burst.
        let at = fs.store().ftl.injector().map(|i| i.op_count()).unwrap_or(0) + 5;
        fs.store_mut().ftl.arm_fault(
            FaultPlan {
                kind: FaultKind::PowerCut,
                at: FaultAt::OpCount(at),
            },
            17,
        );
        let doomed = fs.create("/doomed.bin", 0).unwrap();
        let mut crashed = false;
        for chunk in 0u64..64 {
            match fs.write(doomed, chunk * 4096, &[0xEE; 4096]) {
                Ok(()) => {}
                Err(FsError::Store(StoreError::PowerLoss)) => {
                    crashed = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(crashed, "armed power cut never fired");

        // The host journal rolls back the incomplete transaction: the
        // doomed file never becomes durable metadata.
        let (inodes, directory) = fs.metadata();
        let inodes: Vec<_> = inodes.into_iter().filter(|i| i.id == keep).collect();
        let directory: Vec<_> = directory
            .into_iter()
            .filter(|(_, id)| *id == keep)
            .collect();

        let mut store = fs.into_store();
        let report = store.ftl.recover().unwrap();
        assert!(report.used_checkpoint, "checkpoint must bound the scan");
        let mut fs = HostFs::remount(store, inodes, directory);

        assert_eq!(fs.read(keep, 0, data.len()).unwrap(), data);
        // Writable again after remount.
        let fresh = fs.create("/new.bin", 0).unwrap();
        fs.write(fresh, 0, &[9u8; 2048]).unwrap();
        assert_eq!(fs.read(fresh, 0, 2048).unwrap(), vec![9u8; 2048]);
    }

    #[test]
    fn other_ftl_errors_map_to_storage_failures() {
        let bad_block = FtlError::Device(FlashError::BadBlock(3));
        assert_eq!(
            map_error(bad_block.clone()),
            StoreError::Storage(bad_block.to_string())
        );
        assert_eq!(
            map_error(FtlError::ReservedStream),
            StoreError::Storage(FtlError::ReservedStream.to_string())
        );
        assert_eq!(map_error(FtlError::NoSpace), StoreError::NoSpace);
        assert_eq!(
            map_error(FtlError::Device(FlashError::PowerLoss)),
            StoreError::PowerLoss
        );
    }

    #[test]
    fn reserved_stream_hint_is_remapped() {
        let mut store = ftl_store();
        let page = vec![2u8; store.page_bytes()];
        // Hint 255 must not error out (FTL reserves stream 255).
        store.write_page(0, &page, 255).unwrap();
        assert_eq!(store.read_page(0).unwrap(), page);
    }
}
