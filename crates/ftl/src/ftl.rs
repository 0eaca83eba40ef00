//! Core flash translation layer: logical-to-physical mapping, the write
//! path with FDP-style placement (see [`crate::placement`]), and the
//! read path with ECC decode.

use crate::config::{FtlConfig, GC_HIGH_WATERMARK, OVER_PROVISIONING};
use crate::placement::{PlacementHandle, PlacementStats, ReclaimUnit, StreamPlacement};
use crate::recovery::CheckpointHandle;
use crate::stats::FtlStats;
use sos_ecc::{CodecError, PageCodec, PageStatus};
use sos_flash::{DeviceConfig, FaultInjector, FaultPlan, FlashDevice, FlashError, OobMeta};
use std::collections::VecDeque;

/// Errors surfaced by FTL operations.
#[derive(Debug, Clone, PartialEq)]
pub enum FtlError {
    /// Logical page number beyond the exported capacity.
    LpnOutOfRange {
        /// Offending LPN.
        lpn: u64,
        /// Exported logical pages.
        capacity: u64,
    },
    /// Read of a logical page that was never written (or trimmed).
    NotWritten(u64),
    /// The data stored at this LPN has been lost (uncorrectable or on a
    /// failed block).
    DataLost(u64),
    /// Payload length must equal the logical page size.
    WrongDataLength {
        /// Expected bytes.
        expected: usize,
        /// Provided bytes.
        got: usize,
    },
    /// No free space: even garbage collection cannot reclaim a block.
    NoSpace,
    /// The GC stream is reserved for internal use.
    ReservedStream,
    /// Underlying device error.
    Device(FlashError),
    /// Page codec error (configuration bug).
    Codec(CodecError),
}

impl std::fmt::Display for FtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtlError::LpnOutOfRange { lpn, capacity } => {
                write!(f, "lpn {lpn} out of range (capacity {capacity} pages)")
            }
            FtlError::NotWritten(lpn) => write!(f, "lpn {lpn} not written"),
            FtlError::DataLost(lpn) => write!(f, "data at lpn {lpn} lost"),
            FtlError::WrongDataLength { expected, got } => {
                write!(f, "wrong data length: expected {expected}, got {got}")
            }
            FtlError::NoSpace => write!(f, "no reclaimable space"),
            FtlError::ReservedStream => write!(f, "stream 255 is reserved for GC"),
            FtlError::Device(e) => write!(f, "device: {e}"),
            FtlError::Codec(e) => write!(f, "codec: {e}"),
        }
    }
}

impl std::error::Error for FtlError {}

impl From<FlashError> for FtlError {
    fn from(e: FlashError) -> Self {
        FtlError::Device(e)
    }
}

impl From<CodecError> for FtlError {
    fn from(e: CodecError) -> Self {
        FtlError::Codec(e)
    }
}

/// State of one logical page mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// Never written or trimmed.
    Unmapped,
    /// Mapped to a flat physical page index.
    Mapped(u64),
    /// Data irrecoverably lost (uncorrectable page or failed block).
    Lost,
}

/// Per-block FTL bookkeeping.
#[derive(Debug, Clone)]
pub(crate) struct BlockInfo {
    /// Reverse map: which LPN each programmed page slot holds (`None` =
    /// invalidated or GC metadata).
    pub lpns: Vec<Option<u64>>,
    /// Count of valid (still-mapped) pages.
    pub valid: u32,
    /// All usable pages programmed; candidate for GC.
    pub full: bool,
    /// Retired from service.
    pub bad: bool,
    /// Simulated day of the last program into this block (for
    /// cost-benefit GC).
    pub last_write_day: f64,
}

/// Result of a logical page read.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadResult {
    /// Decoded page data (best effort when degraded).
    pub data: Vec<u8>,
    /// ECC status of the page.
    pub status: PageStatus,
    /// End-to-end latency, µs.
    pub latency_us: f64,
}

/// Capacity and data-loss events the host must react to (§4.3
/// capacity variance).
#[derive(Debug, Clone, PartialEq)]
pub enum FtlEvent {
    /// Exported capacity shrank below the previously reported value.
    CapacityShrunk {
        /// New exported capacity in logical pages.
        pages: u64,
    },
    /// Data at an LPN was lost.
    DataLost {
        /// The affected logical page.
        lpn: u64,
    },
}

/// A page-mapped flash translation layer over a simulated device.
#[derive(Debug)]
pub struct Ftl {
    pub(crate) device: FlashDevice,
    pub(crate) config: FtlConfig,
    pub(crate) codec: PageCodec,
    pub(crate) l2p: Vec<Slot>,
    pub(crate) blocks: Vec<BlockInfo>,
    pub(crate) free: VecDeque<u64>,
    pub(crate) placement: StreamPlacement,
    pub(crate) logical_pages: u64,
    pub(crate) last_reported_capacity: u64,
    pub(crate) stats: FtlStats,
    pub(crate) events: Vec<FtlEvent>,
    /// Next OOB sequence number; every page program consumes one, so
    /// recovery can order duplicate LPN copies latest-wins.
    pub(crate) seq: u64,
    /// The on-flash checkpoint currently protecting the rebuild scan.
    pub(crate) checkpoint: Option<CheckpointHandle>,
}

impl Ftl {
    /// Builds an FTL over a fresh device described by `device_config`.
    ///
    /// # Panics
    ///
    /// Panics if the ECC scheme does not fit the device's spare area or
    /// the mode's physical density mismatches the device (configuration
    /// errors, not runtime conditions). Use [`Ftl::try_new`] to handle
    /// the ECC misfit as an error instead.
    pub fn new(device_config: &DeviceConfig, config: FtlConfig) -> Self {
        match Self::try_new(device_config, config) {
            Ok(ftl) => ftl,
            Err(e) => panic!("invalid FTL configuration: {e}"),
        }
    }

    /// Builds an FTL over a fresh device, reporting an ECC scheme too
    /// large for the spare area as an error rather than panicking.
    ///
    /// # Panics
    ///
    /// Panics if the mode's physical density mismatches the device.
    pub fn try_new(device_config: &DeviceConfig, config: FtlConfig) -> Result<Self, FtlError> {
        assert_eq!(
            config.mode.physical, device_config.physical_density,
            "FTL mode must match device density"
        );
        let device = FlashDevice::new(device_config);
        let geometry = *device.geometry();
        let codec = PageCodec::new(
            config.ecc,
            geometry.page_bytes as usize,
            geometry.spare_bytes as usize,
        )?;
        let total_blocks = geometry.total_blocks();
        let usable = config.mode.usable_pages(geometry.pages_per_block);
        let blocks = (0..total_blocks)
            .map(|_| BlockInfo {
                lpns: vec![None; usable as usize],
                valid: 0,
                full: false,
                bad: false,
                last_write_day: 0.0,
            })
            .collect();
        let logical_pages = exported_pages(total_blocks, usable);
        let mut ftl = Ftl {
            device,
            config,
            codec,
            l2p: vec![Slot::Unmapped; logical_pages as usize],
            blocks,
            free: (0..total_blocks).collect(),
            placement: StreamPlacement::new(),
            logical_pages,
            last_reported_capacity: logical_pages,
            stats: FtlStats::default(),
            events: Vec::new(),
            seq: 1,
            checkpoint: None,
        };
        // Apply the configured mode to every block (fresh blocks are
        // erased, so this always succeeds).
        for b in 0..total_blocks {
            ftl.device.set_block_mode(b, ftl.config.mode)?;
        }
        Ok(ftl)
    }

    /// Logical page size in bytes (payload, excluding ECC).
    pub fn page_bytes(&self) -> usize {
        self.codec.data_bytes()
    }

    /// Exported logical capacity in pages, as sized at creation.
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// The capacity (in logical pages) the device can currently sustain,
    /// given retired and density-reduced blocks. When this drops below
    /// [`Ftl::logical_pages`], the host must shrink (capacity variance,
    /// §4.3).
    pub fn sustainable_pages(&self) -> u64 {
        let mut usable_total: u64 = 0;
        let mut good_blocks = 0u64;
        for info in &self.blocks {
            if info.bad {
                continue;
            }
            good_blocks += 1;
            usable_total += info.lpns.len() as u64;
        }
        if good_blocks <= RESERVE_BLOCKS {
            return 0;
        }
        // Subtract the reserve at the average per-block page count.
        let avg = usable_total as f64 / good_blocks as f64;
        let after_reserve = usable_total as f64 - RESERVE_BLOCKS as f64 * avg;
        (after_reserve * (1.0 - OVER_PROVISIONING)).max(0.0) as u64
    }

    /// Access to the underlying device (read-only).
    pub fn device(&self) -> &FlashDevice {
        &self.device
    }

    /// Arms one fault on the device's injector (attaching a fresh
    /// injector seeded with `seed` if none is attached yet).
    pub fn arm_fault(&mut self, plan: FaultPlan, seed: u64) {
        if self.device.injector_mut().is_none() {
            self.device.attach_injector(FaultInjector::new(seed));
        }
        if let Some(injector) = self.device.injector_mut() {
            injector.arm(plan);
        }
    }

    /// Drops every fault still armed on the device's injector.
    pub fn disarm_faults(&mut self) {
        if let Some(injector) = self.device.injector_mut() {
            injector.disarm();
        }
    }

    /// The device's fault injector, if one is attached.
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.device.injector()
    }

    /// Sequence floor of the current on-flash checkpoint, if one exists:
    /// data pages with OOB sequence numbers at or below it are covered
    /// by the checkpoint and need not be rescanned at recovery.
    pub fn checkpoint_seq(&self) -> Option<u64> {
        self.checkpoint.as_ref().map(|handle| handle.data_seq)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &FtlStats {
        &self.stats
    }

    /// Advances the simulated clock (retention errors accrue).
    pub fn advance_days(&mut self, days: f64) {
        self.device.advance_days(days);
    }

    /// Current simulated day.
    pub fn now_days(&self) -> f64 {
        self.device.now_days()
    }

    /// Drains pending lifecycle events for the host.
    pub fn drain_events(&mut self) -> Vec<FtlEvent> {
        std::mem::take(&mut self.events)
    }

    /// Cumulative placement-mix counters (reclaim units opened, filled
    /// and erased; host vs relocation pages appended).
    pub fn placement_stats(&self) -> PlacementStats {
        self.placement.stats()
    }

    /// The currently open reclaim units, ordered by wire stream id.
    pub fn open_reclaim_units(&self) -> Vec<ReclaimUnit> {
        self.placement.open_units()
    }

    /// Writes one logical page on the default placement handle.
    pub fn write(&mut self, lpn: u64, data: &[u8]) -> Result<f64, FtlError> {
        self.write_placed(lpn, data, PlacementHandle::DEFAULT)
    }

    /// Writes one logical page into the reclaim unit open for `handle`.
    /// This is the one placed write; a typed [`crate::DataTag`] places
    /// through `tag.handle()`.
    ///
    /// Returns the device latency in µs.
    pub fn write_placed(
        &mut self,
        lpn: u64,
        data: &[u8],
        handle: PlacementHandle,
    ) -> Result<f64, FtlError> {
        if handle.is_reserved() {
            return Err(FtlError::ReservedStream);
        }
        self.check_lpn(lpn)?;
        if data.len() != self.page_bytes() {
            return Err(FtlError::WrongDataLength {
                expected: self.page_bytes(),
                got: data.len(),
            });
        }
        self.ensure_free_space()?;
        let latency = self.program_mapped(lpn, data, handle)?;
        self.stats.host_writes += 1;
        Ok(latency)
    }

    /// Reads one logical page.
    pub fn read(&mut self, lpn: u64) -> Result<ReadResult, FtlError> {
        self.check_lpn(lpn)?;
        let location = match self.l2p.get(lpn as usize) {
            None | Some(Slot::Unmapped) => return Err(FtlError::NotWritten(lpn)),
            Some(Slot::Lost) => return Err(FtlError::DataLost(lpn)),
            Some(Slot::Mapped(loc)) => *loc,
        };
        let outcome = match self.device.read(location) {
            Ok(o) => o,
            Err(FlashError::BadBlock(_)) | Err(FlashError::TornPage(_)) => {
                // A mapping should never point at a torn page (recovery
                // discards them), but if one does the data is as gone as
                // on a failed block: record the loss rather than crash.
                self.mark_lost(lpn);
                return Err(FtlError::DataLost(lpn));
            }
            Err(e) => return Err(e.into()),
        };
        // Selective decode: only chunks that actually carry injected
        // errors pay the syndrome pass, run on their error patterns
        // (observationally equivalent to a full decode of the encoded
        // page — clean chunks decode to themselves).
        let report = self
            .codec
            .decode_with_dirty(&outcome.data, &outcome.injected_positions)?;
        self.stats.reads += 1;
        self.stats.corrected_bits += report.corrected_bits as u64;
        if report.status == PageStatus::Uncorrectable {
            self.stats.uncorrectable_reads += 1;
        }
        if report.status == PageStatus::DegradedDetected {
            self.stats.degraded_reads += 1;
        }
        Ok(ReadResult {
            data: report.data,
            status: report.status,
            latency_us: outcome.latency_us,
        })
    }

    /// Invalidates a logical page (TRIM/delete).
    pub fn trim(&mut self, lpn: u64) -> Result<(), FtlError> {
        self.check_lpn(lpn)?;
        match self.l2p.get(lpn as usize).copied() {
            Some(Slot::Mapped(loc)) => {
                self.invalidate_location(loc);
                self.stats.trims += 1;
            }
            Some(Slot::Lost) => self.stats.trims += 1,
            Some(Slot::Unmapped) | None => {}
        }
        if let Some(slot) = self.l2p.get_mut(lpn as usize) {
            *slot = Slot::Unmapped;
        }
        Ok(())
    }

    /// Whether an LPN currently maps to live data.
    pub fn is_mapped(&self, lpn: u64) -> bool {
        matches!(self.l2p.get(lpn as usize), Some(Slot::Mapped(_)))
    }

    /// Whether an LPN's data has been recorded as lost.
    pub fn is_lost(&self, lpn: u64) -> bool {
        matches!(self.l2p.get(lpn as usize), Some(Slot::Lost))
    }

    /// Declares the data at `lpn` lost. The crash-recovery remount uses
    /// this when a referenced page cannot be rebuilt, so later reads
    /// fail with an explicit [`FtlError::DataLost`] (the host degrades
    /// gracefully) instead of a confusing [`FtlError::NotWritten`].
    pub fn declare_lost(&mut self, lpn: u64) {
        if lpn < self.logical_pages && !self.is_lost(lpn) {
            self.mark_lost(lpn);
        }
    }

    // ------------------------------------------------------------------
    // Internals shared with gc.rs / scrub.rs.
    // ------------------------------------------------------------------

    pub(crate) fn check_lpn(&self, lpn: u64) -> Result<(), FtlError> {
        if lpn >= self.logical_pages {
            Err(FtlError::LpnOutOfRange {
                lpn,
                capacity: self.logical_pages,
            })
        } else {
            Ok(())
        }
    }

    pub(crate) fn flat_page(&self, block: u64, page: u32) -> u64 {
        block * self.device.geometry().pages_per_block as u64 + page as u64
    }

    /// Marks a physical location invalid and updates block accounting.
    pub(crate) fn invalidate_location(&mut self, flat: u64) {
        let pages_per_block = self.device.geometry().pages_per_block as u64;
        let block = flat.checked_div(pages_per_block).unwrap_or(0) as usize;
        let page = flat.checked_rem(pages_per_block).unwrap_or(0) as usize;
        let Some(info) = self.blocks.get_mut(block) else {
            return;
        };
        if let Some(slot) = info.lpns.get_mut(page) {
            if slot.is_some() {
                *slot = None;
                info.valid = info.valid.saturating_sub(1);
            }
        }
    }

    /// Records loss of the data at `lpn`.
    pub(crate) fn mark_lost(&mut self, lpn: u64) {
        if let Some(Slot::Mapped(loc)) = self.l2p.get(lpn as usize).copied() {
            self.invalidate_location(loc);
        }
        if let Some(slot) = self.l2p.get_mut(lpn as usize) {
            *slot = Slot::Lost;
        }
        self.stats.lost_pages += 1;
        self.events.push(FtlEvent::DataLost { lpn });
    }

    /// Frames and programs `data` for `lpn` through `handle`'s reclaim
    /// unit, updating maps. Used by both the host write path and
    /// GC/refresh relocation. The page carries its CRCs but no BCH
    /// parity: the read path decodes error patterns, never stored parity
    /// (`PageCodec::frame`).
    pub(crate) fn program_mapped(
        &mut self,
        lpn: u64,
        data: &[u8],
        handle: PlacementHandle,
    ) -> Result<f64, FtlError> {
        let raw = self.codec.frame(data)?;
        self.program_raw(lpn, &raw, handle)
    }

    /// Programs an already-framed raw page for `lpn` (the GC/refresh
    /// copyback path), updating maps.
    pub(crate) fn program_raw(
        &mut self,
        lpn: u64,
        raw: &[u8],
        handle: PlacementHandle,
    ) -> Result<f64, FtlError> {
        loop {
            let (block, page) = self.alloc_page(handle)?;
            let flat = self.flat_page(block, page);
            // OOB metadata rides the same program pulse: LPN, a fresh
            // monotonic sequence number, and the handle's wire stream,
            // so a post-crash scan can rebuild the L2P map latest-wins.
            let oob = OobMeta::data(lpn, self.next_seq(), handle.stream());
            match self.device.program(flat, raw, oob) {
                Ok(latency) => {
                    // Invalidate the previous location, if any.
                    if let Some(Slot::Mapped(old)) = self.l2p.get(lpn as usize).copied() {
                        self.invalidate_location(old);
                    }
                    let day = self.device.now_days();
                    if let Some(info) = self.blocks.get_mut(block as usize) {
                        if let Some(slot) = info.lpns.get_mut(page as usize) {
                            *slot = Some(lpn);
                            info.valid += 1;
                        }
                        info.last_write_day = day;
                    }
                    if let Some(slot) = self.l2p.get_mut(lpn as usize) {
                        *slot = Slot::Mapped(flat);
                    }
                    self.stats.flash_writes += 1;
                    self.placement.note_append(handle);
                    return Ok(latency);
                }
                Err(FlashError::ProgramFailed(failed)) => {
                    // The block went bad mid-programming: its resident
                    // valid data is lost; retry on a fresh block.
                    self.handle_block_failure(failed);
                    continue;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Consumes and returns the next OOB sequence number.
    pub(crate) fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Allocates the next programmable page on the handle's open
    /// reclaim unit, opening a fresh unit from the free pool when the
    /// current one fills (which counts in
    /// [`PlacementStats::units_filled`]).
    pub(crate) fn alloc_page(&mut self, handle: PlacementHandle) -> Result<(u64, u32), FtlError> {
        loop {
            if let Some(block) = self.placement.unit_for(handle) {
                match self.device.next_free_page(block)? {
                    Some(page) => return Ok((block, page)),
                    None => {
                        if let Some(info) = self.blocks.get_mut(block as usize) {
                            info.full = true;
                        }
                        self.placement.close_unit(handle, true);
                    }
                }
            }
            let block = self.free.pop_front().ok_or(FtlError::NoSpace)?;
            self.placement.open_unit(handle, block);
        }
    }

    /// Handles a block that failed program/erase: valid data on it is
    /// lost, mappings are cleared and the retirement is recorded.
    pub(crate) fn handle_block_failure(&mut self, block: u64) {
        let lpns: Vec<u64> = self
            .blocks
            .get(block as usize)
            .map(|info| info.lpns.iter().flatten().copied().collect())
            .unwrap_or_default();
        for lpn in lpns {
            if let Some(slot) = self.l2p.get_mut(lpn as usize) {
                *slot = Slot::Lost;
            }
            self.stats.lost_pages += 1;
            self.events.push(FtlEvent::DataLost { lpn });
        }
        let Some(info) = self.blocks.get_mut(block as usize) else {
            return;
        };
        info.lpns.iter_mut().for_each(|slot| *slot = None);
        info.valid = 0;
        info.bad = true;
        info.full = false;
        self.stats.blocks_retired += 1;
        // Remove from open reclaim units and the free list if present.
        self.placement.evict_block(block);
        self.free.retain(|&b| b != block);
        self.report_capacity();
    }

    /// Emits a capacity-shrink event when sustainable capacity drops.
    pub(crate) fn report_capacity(&mut self) {
        let sustainable = self.sustainable_pages();
        if sustainable < self.last_reported_capacity {
            self.last_reported_capacity = sustainable;
            self.events
                .push(FtlEvent::CapacityShrunk { pages: sustainable });
        }
    }
}

/// Blocks held back from the exported capacity as GC headroom.
const RESERVE_BLOCKS: u64 = GC_HIGH_WATERMARK as u64 + 2;

/// Logical pages exported to the host by an FTL over `total_blocks`
/// blocks of `usable_per_block` pages each: the GC reserve and the
/// over-provisioning come out of the raw capacity first.
pub(crate) fn exported_pages(total_blocks: u64, usable_per_block: u32) -> u64 {
    let usable_total = total_blocks.saturating_sub(RESERVE_BLOCKS) * usable_per_block as u64;
    (usable_total as f64 * (1.0 - OVER_PROVISIONING)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FtlConfig;
    use crate::placement::{DataClass, DataTag, Temperature};
    use sos_flash::{CellDensity, ProgramMode};

    fn small_ftl() -> Ftl {
        let device_config = DeviceConfig::tiny(CellDensity::Tlc);
        let config = FtlConfig::conventional(ProgramMode::native(CellDensity::Tlc));
        Ftl::new(&device_config, config)
    }

    fn page_of(ftl: &Ftl, byte: u8) -> Vec<u8> {
        vec![byte; ftl.page_bytes()]
    }

    #[test]
    fn write_read_roundtrip() {
        let mut ftl = small_ftl();
        let data = page_of(&ftl, 0x42);
        ftl.write(7, &data).unwrap();
        let result = ftl.read(7).unwrap();
        assert_eq!(result.data, data);
        assert_eq!(result.status, PageStatus::Intact);
    }

    #[test]
    fn overwrite_returns_latest() {
        let mut ftl = small_ftl();
        ftl.write(3, &page_of(&ftl, 1)).unwrap();
        ftl.write(3, &page_of(&ftl, 2)).unwrap();
        assert_eq!(ftl.read(3).unwrap().data, page_of(&ftl, 2));
    }

    #[test]
    fn read_unwritten_fails() {
        let mut ftl = small_ftl();
        assert!(matches!(ftl.read(0).unwrap_err(), FtlError::NotWritten(0)));
    }

    #[test]
    fn lpn_out_of_range_fails() {
        let mut ftl = small_ftl();
        let cap = ftl.logical_pages();
        let data = page_of(&ftl, 0);
        assert!(matches!(
            ftl.write(cap, &data).unwrap_err(),
            FtlError::LpnOutOfRange { .. }
        ));
    }

    #[test]
    fn wrong_length_fails() {
        let mut ftl = small_ftl();
        assert!(matches!(
            ftl.write(0, &[1, 2, 3]).unwrap_err(),
            FtlError::WrongDataLength { .. }
        ));
    }

    #[test]
    fn trim_unmaps() {
        let mut ftl = small_ftl();
        ftl.write(5, &page_of(&ftl, 9)).unwrap();
        assert!(ftl.is_mapped(5));
        ftl.trim(5).unwrap();
        assert!(!ftl.is_mapped(5));
        assert!(matches!(ftl.read(5).unwrap_err(), FtlError::NotWritten(5)));
    }

    #[test]
    fn gc_stream_is_reserved() {
        let mut ftl = small_ftl();
        let data = page_of(&ftl, 0);
        assert_eq!(
            ftl.write_placed(0, &data, PlacementHandle::GC).unwrap_err(),
            FtlError::ReservedStream
        );
    }

    #[test]
    fn streams_land_in_distinct_blocks() {
        let mut ftl = small_ftl();
        ftl.write_placed(0, &page_of(&ftl, 1), PlacementHandle::PARITY)
            .unwrap();
        ftl.write_placed(1, &page_of(&ftl, 2), PlacementHandle::COLD)
            .unwrap();
        let loc0 = match ftl.l2p[0] {
            Slot::Mapped(l) => l,
            _ => panic!(),
        };
        let loc1 = match ftl.l2p[1] {
            Slot::Mapped(l) => l,
            _ => panic!(),
        };
        let ppb = ftl.device.geometry().pages_per_block as u64;
        assert_ne!(loc0 / ppb, loc1 / ppb, "streams must use separate blocks");
    }

    #[test]
    fn tagged_writes_land_in_distinct_reclaim_units() {
        let mut ftl = small_ftl();
        let hot = DataTag::new(DataClass::Sys, Temperature::Hot);
        let cold = DataTag::new(DataClass::Spare, Temperature::Cold);
        ftl.write_placed(0, &page_of(&ftl, 1), hot.handle())
            .unwrap();
        ftl.write_placed(1, &page_of(&ftl, 2), cold.handle())
            .unwrap();
        let units = ftl.open_reclaim_units();
        assert_eq!(units.len(), 2);
        assert_ne!(units[0].block, units[1].block);
        assert_eq!(units[0].handle, hot.handle());
        assert_eq!(units[1].handle, cold.handle());
    }

    #[test]
    fn reclaim_unit_fill_is_host_visible() {
        let mut ftl = small_ftl();
        let usable = ftl.blocks[0].lpns.len() as u64;
        for i in 0..=usable {
            ftl.write(i, &page_of(&ftl, i as u8)).unwrap();
        }
        let stats = ftl.placement_stats();
        assert_eq!(stats.units_opened, 2);
        assert_eq!(stats.units_filled, 1);
        assert_eq!(stats.host_pages, usable + 1);
    }

    #[test]
    fn capacity_accounts_for_overprovisioning() {
        let ftl = small_ftl();
        let geometry = ftl.device().geometry();
        let raw_pages = geometry.total_pages();
        assert!(ftl.logical_pages() < raw_pages);
        assert!(ftl.logical_pages() > raw_pages / 2);
        assert_eq!(ftl.sustainable_pages(), ftl.logical_pages());
    }

    #[test]
    fn pseudo_mode_exports_less_capacity() {
        let device_config = DeviceConfig::tiny(CellDensity::Plc);
        let native = Ftl::new(
            &device_config,
            FtlConfig::conventional(ProgramMode::native(CellDensity::Plc)),
        );
        let pseudo = Ftl::new(&device_config, FtlConfig::sos_sys());
        let ratio = pseudo.logical_pages() as f64 / native.logical_pages() as f64;
        // pseudo-QLC in PLC keeps 4/5 of pages; OP differs slightly
        // between the presets (0.1 vs 0.07).
        assert!((0.7..0.85).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn fill_device_to_capacity() {
        let mut ftl = small_ftl();
        let data = page_of(&ftl, 0xEE);
        for lpn in 0..ftl.logical_pages() {
            ftl.write(lpn, &data)
                .unwrap_or_else(|e| panic!("lpn {lpn}: {e}"));
        }
        // Every page readable.
        for lpn in (0..ftl.logical_pages()).step_by(37) {
            assert_eq!(ftl.read(lpn).unwrap().data, data);
        }
    }

    #[test]
    fn sustained_random_overwrites_trigger_gc() {
        let mut ftl = small_ftl();
        let cap = ftl.logical_pages();
        // Fill, then overwrite 3x the capacity randomly.
        for lpn in 0..cap {
            ftl.write(lpn, &page_of(&ftl, lpn as u8)).unwrap();
        }
        let mut x = 12345u64;
        for i in 0..(3 * cap) {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lpn = x % cap;
            ftl.write(lpn, &page_of(&ftl, i as u8)).unwrap();
        }
        assert!(ftl.stats().gc_runs > 0, "GC never ran");
        let wa = ftl.stats().write_amplification();
        assert!(wa >= 1.0, "WA {wa} must be at least 1");
        assert!(wa < 10.0, "WA {wa} implausibly high");
    }

    #[test]
    fn stats_track_host_vs_flash_writes() {
        let mut ftl = small_ftl();
        for lpn in 0..10 {
            ftl.write(lpn, &page_of(&ftl, 1)).unwrap();
        }
        assert_eq!(ftl.stats().host_writes, 10);
        assert!(ftl.stats().flash_writes >= 10);
    }
}
