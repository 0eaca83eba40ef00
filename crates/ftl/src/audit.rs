//! Read-only snapshots of FTL state for external invariant auditing.
//!
//! The `sos-analyze` crate walks these snapshots to verify translation-
//! layer invariants (L2P injectivity, valid-page accounting, NAND
//! program discipline, wear monotonicity, GC conservation) without
//! needing access to the FTL's private fields. Snapshots are plain data:
//! taking one never mutates the FTL, and auditors operating on them can
//! be fed deliberately corrupted copies in tests.

use crate::ftl::{Ftl, Slot};
use crate::stats::FtlStats;
use sos_flash::{BlockSnapshot, ProgramMode};

/// One logical page's mapping state, mirrored from the private L2P map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotSnapshot {
    /// Never written, or trimmed.
    Unmapped,
    /// Mapped to a flat physical page index.
    Mapped(u64),
    /// Data was lost (block failure / uncorrectable wear).
    Lost,
}

/// One block's reverse-map bookkeeping, mirrored from the FTL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMapSnapshot {
    /// Reverse map: page offset within the block → owning LPN, if the
    /// page holds valid data.
    pub lpns: Vec<Option<u64>>,
    /// The FTL's cached count of valid pages in this block.
    pub valid: u32,
    /// Whether the block has been fully programmed.
    pub full: bool,
    /// Whether the FTL has retired the block.
    pub bad: bool,
}

/// A complete, self-consistent snapshot of one FTL's auditable state.
///
/// Produced by [`Ftl::audit_snapshot`]; consumed by the auditors in
/// `sos-analyze`.
#[derive(Debug, Clone, PartialEq)]
pub struct FtlState {
    /// The program mode the FTL applies to blocks it allocates.
    pub mode: ProgramMode,
    /// Exported logical capacity in pages.
    pub logical_pages: u64,
    /// Physical pages per block (before density derating).
    pub pages_per_block: u32,
    /// Logical-to-physical map; index is the LPN, values are flat
    /// physical page indices.
    pub l2p: Vec<SlotSnapshot>,
    /// Per-block reverse maps and valid-page counts; index is the flat
    /// block index.
    pub blocks: Vec<BlockMapSnapshot>,
    /// Blocks currently in the free pool.
    pub free: Vec<u64>,
    /// Open (partially programmed) blocks by placement handle wire byte.
    pub open: Vec<(u8, u64)>,
    /// Cumulative FTL counters at snapshot time.
    pub stats: FtlStats,
    /// The underlying device's per-block management state.
    pub device: Vec<BlockSnapshot>,
}

impl FtlState {
    /// Flat physical page index for a (block, offset) pair.
    pub fn flat_page(&self, block: u64, offset: u32) -> u64 {
        block * self.pages_per_block as u64 + offset as u64
    }

    /// Splits a flat physical page index into (block, offset).
    pub fn split_page(&self, flat: u64) -> (u64, u32) {
        let per_block = self.pages_per_block as u64;
        let block = flat.checked_div(per_block).unwrap_or(0);
        let offset = u32::try_from(flat.checked_rem(per_block).unwrap_or(0)).unwrap_or(u32::MAX);
        (block, offset)
    }

    /// Logical pages currently mapped to live data.
    pub fn mapped_pages(&self) -> u64 {
        self.l2p
            .iter()
            .filter(|s| matches!(s, SlotSnapshot::Mapped(_)))
            .count() as u64
    }

    /// Logical pages in the `Lost` state.
    pub fn lost_pages(&self) -> u64 {
        self.l2p
            .iter()
            .filter(|s| matches!(s, SlotSnapshot::Lost))
            .count() as u64
    }
}

impl Ftl {
    /// Takes a read-only snapshot of the FTL's auditable state.
    ///
    /// Always compiled (snapshots are cheap relative to simulation), but
    /// only exercised when an auditing harness asks for one.
    pub fn audit_snapshot(&self) -> FtlState {
        let geometry = self.device.geometry();
        FtlState {
            mode: self.config.mode,
            logical_pages: self.logical_pages,
            pages_per_block: geometry.pages_per_block,
            l2p: self
                .l2p
                .iter()
                .map(|slot| match slot {
                    Slot::Unmapped => SlotSnapshot::Unmapped,
                    Slot::Mapped(loc) => SlotSnapshot::Mapped(*loc),
                    Slot::Lost => SlotSnapshot::Lost,
                })
                .collect(),
            blocks: self
                .blocks
                .iter()
                .map(|info| BlockMapSnapshot {
                    lpns: info.lpns.clone(),
                    valid: info.valid,
                    full: info.full,
                    bad: info.bad,
                })
                .collect(),
            free: self.free.iter().copied().collect(),
            open: self
                .placement
                .open_units()
                .iter()
                .map(|unit| (unit.handle.stream(), unit.block))
                .collect(),
            stats: self.stats,
            device: self.device.snapshot_blocks(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FtlConfig;
    use sos_flash::{CellDensity, DeviceConfig};

    fn small_ftl() -> Ftl {
        Ftl::new(
            &DeviceConfig::tiny(CellDensity::Tlc),
            FtlConfig::conventional(ProgramMode::native(CellDensity::Tlc)),
        )
    }

    #[test]
    fn fresh_snapshot_is_empty_and_consistent() {
        let ftl = small_ftl();
        let state = ftl.audit_snapshot();
        assert_eq!(state.mapped_pages(), 0);
        assert_eq!(state.lost_pages(), 0);
        assert_eq!(state.l2p.len() as u64, state.logical_pages);
        assert_eq!(state.blocks.len(), state.device.len());
        assert!(state.blocks.iter().all(|b| b.valid == 0));
    }

    #[test]
    fn snapshot_tracks_writes_and_trims() {
        let mut ftl = small_ftl();
        let page = vec![7u8; ftl.page_bytes()];
        for lpn in 0..4 {
            ftl.write(lpn, &page).expect("write");
        }
        let state = ftl.audit_snapshot();
        assert_eq!(state.mapped_pages(), 4);
        let valid_total: u32 = state.blocks.iter().map(|b| b.valid).sum();
        assert_eq!(valid_total, 4);

        ftl.trim(0).expect("trim");
        let state = ftl.audit_snapshot();
        assert_eq!(state.mapped_pages(), 3);
        assert_eq!(state.stats.trims, 1);
    }

    #[test]
    fn flat_page_roundtrip() {
        let state = small_ftl().audit_snapshot();
        let flat = state.flat_page(3, 5);
        assert_eq!(state.split_page(flat), (3, 5));
    }
}
