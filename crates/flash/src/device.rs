//! The flash device simulator.
//!
//! [`FlashDevice`] enforces real NAND constraints — erase-before-program,
//! strictly in-order page programming within a block, per-mode usable page
//! counts for pseudo-density blocks — and injects bit errors on reads
//! according to each block's stress history. A simulated clock (in days)
//! drives retention error growth; the FTL advances it.
//!
//! There is one way to do each part. Page state lives in the
//! struct-of-arrays `store` module. Each block has one error sampler
//! (the `batch` module): one call per read returns the read's error
//! count, its RBER and whether the static RBER term was a memo hit, and
//! the device flips that many bits. Neither is a switch: the oracles
//! they are checked against live only in tests.

use crate::batch::ErrorBatcher;
use crate::cell::{CellModel, CellState};
use crate::config::DeviceConfig;
use crate::density::ProgramMode;
use crate::errors::inject_errors;
use crate::fault::{FaultInjector, FaultKind, FaultOp};
use crate::geometry::Geometry;
use crate::oob::OobMeta;
use crate::store::PageStore;
use crate::timing::{latencies, transfer_us};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Errors returned by flash operations.
///
/// Marked non-exhaustive: fault-injection work keeps growing this set,
/// so downstream matches must carry a catch-all arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlashError {
    /// The addressed block is marked bad (failed program/erase).
    BadBlock(u64),
    /// Program issued to a page in a block that is not erased at that
    /// position (NAND requires erase before program).
    NotErased(u64),
    /// Pages within a block must be programmed in order; the expected
    /// next page index is given.
    OutOfOrderProgram {
        /// Flat index of the offending block.
        block: u64,
        /// The page index the block expects next.
        expected: u32,
    },
    /// Read of a page that was never programmed since the last erase.
    PageNotProgrammed(u64),
    /// Data length does not match the page size.
    WrongDataLength {
        /// Bytes expected (page + spare).
        expected: usize,
        /// Bytes provided.
        got: usize,
    },
    /// The page index exceeds the usable page count for the block's
    /// current program mode (pseudo modes expose fewer pages).
    PageOutOfRange {
        /// Flat index of the block.
        block: u64,
        /// Usable pages in the current mode.
        usable: u32,
    },
    /// The erase operation failed; the block is now marked bad.
    EraseFailed(u64),
    /// The program operation failed; the block is now marked bad.
    ProgramFailed(u64),
    /// Address outside the device geometry.
    InvalidAddress,
    /// Mode change requested on a block that still holds data.
    BlockNotEmpty(u64),
    /// Power was cut; the device rejects every operation until
    /// [`FlashDevice::power_cycle`] is called.
    PowerLoss,
    /// Read of a page whose program was interrupted by a power cut; its
    /// contents are unreliable and its OOB CRC is invalid.
    TornPage(u64),
}

impl std::fmt::Display for FlashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlashError::BadBlock(b) => write!(f, "block {b} is bad"),
            FlashError::NotErased(b) => write!(f, "block {b} is not erased"),
            FlashError::OutOfOrderProgram { block, expected } => {
                write!(
                    f,
                    "out-of-order program in block {block}, expected page {expected}"
                )
            }
            FlashError::PageNotProgrammed(p) => write!(f, "page {p} not programmed"),
            FlashError::WrongDataLength { expected, got } => {
                write!(f, "wrong data length: expected {expected}, got {got}")
            }
            FlashError::PageOutOfRange { block, usable } => {
                write!(
                    f,
                    "page out of range for block {block} ({usable} usable pages)"
                )
            }
            FlashError::EraseFailed(b) => write!(f, "erase failed, block {b} marked bad"),
            FlashError::ProgramFailed(b) => write!(f, "program failed, block {b} marked bad"),
            FlashError::InvalidAddress => write!(f, "address outside device geometry"),
            FlashError::BlockNotEmpty(b) => write!(f, "block {b} still holds data"),
            FlashError::PowerLoss => write!(f, "power lost; device needs a power cycle"),
            FlashError::TornPage(p) => write!(f, "page {p} torn by a power cut"),
        }
    }
}

impl std::error::Error for FlashError {}

/// Result of a page read.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadOutcome {
    /// Page contents (data + spare) with bit errors injected.
    pub data: Vec<u8>,
    /// Bit positions of the injected errors (simulator knowledge: lets
    /// callers skip ECC work on provably-clean regions, which is
    /// observationally equivalent to decoding them).
    pub injected_positions: Vec<usize>,
    /// The raw bit error rate the model assigned to this read.
    pub rber: f64,
    /// Array + transfer latency, µs.
    pub latency_us: f64,
}

/// Per-block simulator state.
#[derive(Debug, Clone)]
struct BlockState {
    mode: ProgramMode,
    pec: u32,
    bad: bool,
    /// Next page that may be programmed (NAND in-order constraint).
    next_page: u32,
    /// Reads since last program anywhere in the block (read disturb).
    reads_since_program: u64,
    /// Error sampler: the static RBER memo and the batched error-count
    /// draw, invalidated together by the `(mode, pec)` epoch.
    sampler: ErrorBatcher,
}

/// Cumulative operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceStats {
    /// Pages read.
    pub reads: u64,
    /// Pages programmed.
    pub programs: u64,
    /// Blocks erased.
    pub erases: u64,
    /// OOB metadata reads (recovery scan cost).
    pub oob_reads: u64,
    /// Total bit errors injected across all reads.
    pub bit_errors_injected: u64,
    /// Total device busy time, µs.
    pub busy_us: f64,
    /// Reads whose static RBER term was served from the per-block memo.
    pub rber_cache_hits: u64,
    /// Reads that had to recompute the static RBER term.
    pub rber_cache_misses: u64,
}

impl DeviceStats {
    /// Adds another device's counters into this one (a multi-device
    /// total, e.g. both partitions of an SOS device).
    pub fn absorb(&mut self, other: &DeviceStats) {
        self.reads += other.reads;
        self.programs += other.programs;
        self.erases += other.erases;
        self.oob_reads += other.oob_reads;
        self.bit_errors_injected += other.bit_errors_injected;
        self.busy_us += other.busy_us;
        self.rber_cache_hits += other.rber_cache_hits;
        self.rber_cache_misses += other.rber_cache_misses;
    }
}

/// Read-only view of one block's management state, taken by
/// [`FlashDevice::snapshot_blocks`] so external auditors can check NAND
/// discipline (erase-before-program, in-order writes) without reaching
/// into the simulator's private fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSnapshot {
    /// Flat index of the block.
    pub block: u64,
    /// Current program mode (native or pseudo density).
    pub mode: ProgramMode,
    /// Program/erase cycles endured so far.
    pub pec: u32,
    /// Whether the block has been retired.
    pub bad: bool,
    /// The next in-order page index the block expects to program.
    pub next_page: u32,
    /// Usable pages under the current mode.
    pub usable_pages: u32,
    /// Page indices (within the block) currently holding programmed
    /// data, in ascending order.
    pub programmed: Vec<u32>,
    /// Page indices whose program was interrupted by a power cut
    /// (subset of `programmed`; their contents are unreliable).
    pub torn: Vec<u32>,
}

/// A simulated NAND flash device.
#[derive(Debug)]
pub struct FlashDevice {
    geometry: Geometry,
    cell_model: CellModel,
    rng: StdRng,
    now_days: f64,
    blocks: Vec<BlockState>,
    store: PageStore,
    stats: DeviceStats,
    injector: Option<FaultInjector>,
    powered_off: bool,
}

impl FlashDevice {
    /// Builds a device from a configuration.
    pub fn new(config: &DeviceConfig) -> Self {
        let mode = ProgramMode::native(config.physical_density);
        let blocks = (0..config.geometry.total_blocks())
            .map(|_| BlockState {
                mode,
                pec: 0,
                bad: false,
                next_page: 0,
                reads_since_program: 0,
                sampler: ErrorBatcher::default(),
            })
            .collect();
        FlashDevice {
            geometry: config.geometry,
            cell_model: CellModel::for_density(config.physical_density),
            rng: StdRng::seed_from_u64(config.seed),
            now_days: 0.0,
            blocks,
            store: PageStore::new(&config.geometry),
            stats: DeviceStats::default(),
            injector: None,
            powered_off: false,
        }
    }

    /// Attaches a deterministic fault injector. Replaces any injector
    /// already attached.
    pub fn attach_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// The attached fault injector, if any.
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Mutable access to the attached fault injector (for arming more
    /// faults mid-run).
    pub fn injector_mut(&mut self) -> Option<&mut FaultInjector> {
        self.injector.as_mut()
    }

    /// Restores power after a [`FlashError::PowerLoss`]. NAND contents
    /// (including any torn page) survive the cycle; armed faults stay
    /// armed.
    pub fn power_cycle(&mut self) {
        self.powered_off = false;
    }

    /// Consults the fault injector for an operation about to execute.
    fn fault_for(&mut self, op: FaultOp) -> Option<FaultKind> {
        let now = self.now_days;
        self.injector.as_mut().and_then(|inj| inj.on_op(op, now))
    }

    /// The device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The cell model the read path's error rates come from.
    pub fn cell_model(&self) -> &CellModel {
        &self.cell_model
    }

    /// Current simulated time, in days since power-on.
    pub fn now_days(&self) -> f64 {
        self.now_days
    }

    /// Advances the simulated clock; retention errors accrue with it.
    pub fn advance_days(&mut self, days: f64) {
        assert!(days >= 0.0, "time cannot go backwards");
        self.now_days += days;
    }

    /// Cumulative operation counters.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Full page size (data + spare bytes).
    pub fn page_total_bytes(&self) -> usize {
        (self.geometry.page_bytes + self.geometry.spare_bytes) as usize
    }

    /// Splits a flat page index into its block and its page within the
    /// block. A zero-page geometry maps every index past the last block.
    fn locate(&self, index: u64) -> (u64, u32) {
        let per_block = self.geometry.pages_per_block as u64;
        let block = index.checked_div(per_block).unwrap_or(u64::MAX);
        // A remainder of a u32 divisor always fits u32.
        let page = u32::try_from(index.checked_rem(per_block).unwrap_or(0)).unwrap_or(u32::MAX);
        (block, page)
    }

    fn block_state(&self, block: u64) -> Result<&BlockState, FlashError> {
        self.blocks
            .get(block as usize)
            .ok_or(FlashError::InvalidAddress)
    }

    /// Program mode of a block.
    pub fn block_mode(&self, block: u64) -> Result<ProgramMode, FlashError> {
        Ok(self.block_state(block)?.mode)
    }

    /// Program/erase cycles endured by a block.
    pub fn block_pec(&self, block: u64) -> Result<u32, FlashError> {
        Ok(self.block_state(block)?.pec)
    }

    /// Whether a block is marked bad.
    pub fn is_bad(&self, block: u64) -> Result<bool, FlashError> {
        Ok(self.block_state(block)?.bad)
    }

    /// Usable pages in a block under its current program mode.
    ///
    /// Pseudo modes store fewer bits per cell, so a block exposes
    /// proportionally fewer same-sized pages.
    pub fn usable_pages(&self, block: u64) -> Result<u32, FlashError> {
        let state = self.block_state(block)?;
        Ok(state.mode.usable_pages(self.geometry.pages_per_block))
    }

    /// The next page index the block expects to be programmed, or `None`
    /// if the block is full (or bad).
    pub fn next_free_page(&self, block: u64) -> Result<Option<u32>, FlashError> {
        let state = self.block_state(block)?;
        if state.bad {
            return Ok(None);
        }
        let usable = state.mode.usable_pages(self.geometry.pages_per_block);
        Ok((state.next_page < usable).then_some(state.next_page))
    }

    /// Changes the program mode of an *erased* block (pseudo-density
    /// reprogramming, §4.3 "resuscitate worn-out PLC blocks ... e.g.
    /// pseudo-TLC").
    pub fn set_block_mode(&mut self, block: u64, mode: ProgramMode) -> Result<(), FlashError> {
        // sos-lint: allow(panic-path, "mode/array density mismatch is a firmware configuration bug, not a data-dependent condition")
        assert_eq!(
            mode.physical,
            self.cell_model.physical(),
            "mode physical density must match the array"
        );
        let state = self
            .blocks
            .get_mut(block as usize)
            .ok_or(FlashError::InvalidAddress)?;
        if state.bad {
            return Err(FlashError::BadBlock(block));
        }
        if state.next_page != 0 {
            return Err(FlashError::BlockNotEmpty(block));
        }
        state.mode = mode;
        Ok(())
    }

    /// Erases a block, incrementing its wear. Deep-worn blocks may fail
    /// the erase and become bad.
    ///
    /// Returns the operation latency in µs.
    pub fn erase(&mut self, block: u64) -> Result<f64, FlashError> {
        if self.powered_off {
            return Err(FlashError::PowerLoss);
        }
        {
            let state = self.block_state(block)?;
            if state.bad {
                return Err(FlashError::BadBlock(block));
            }
        }
        let fault = self.fault_for(FaultOp::Erase);
        let state = self
            .blocks
            .get_mut(block as usize)
            .ok_or(FlashError::InvalidAddress)?;
        match fault {
            Some(FaultKind::PowerCut) => {
                // The erase pulse had started: contents are gone, wear
                // accrued, but the device is offline until power returns.
                state.pec = state.pec.saturating_add(1);
                state.next_page = 0;
                state.reads_since_program = 0;
                self.store.clear_block(block);
                self.powered_off = true;
                return Err(FlashError::PowerLoss);
            }
            Some(FaultKind::FailErase) => {
                // Like a worn-out erase below: the block ends up empty
                // and bad.
                state.pec = state.pec.saturating_add(1);
                state.next_page = 0;
                state.reads_since_program = 0;
                state.bad = true;
                self.store.clear_block(block);
                self.stats.erases += 1;
                return Err(FlashError::EraseFailed(block));
            }
            _ => {}
        }
        state.pec = state.pec.saturating_add(1);
        state.next_page = 0;
        state.reads_since_program = 0;
        let latency = latencies(state.mode).erase_us;
        self.stats.erases += 1;
        self.stats.busy_us += latency;
        // Physical erase failure: negligible until the cell is cycled far
        // past its rated endurance, then climbs steeply.
        let wear_frac = state.pec as f64 / state.mode.physical.rated_endurance() as f64;
        let p_fail = (wear_frac / 4.0).powi(6).min(1.0);
        if self.rng.gen_bool(p_fail) {
            state.bad = true;
            // Drop any residual page data for the block.
            self.store.clear_block(block);
            return Err(FlashError::EraseFailed(block));
        }
        // Erase destroys all page contents.
        self.store.clear_block(block);
        Ok(latency)
    }

    /// Programs the page at flat index `index`
    /// (`block * pages_per_block + page`) together with its OOB
    /// metadata. `data` must be exactly `page_bytes + spare_bytes` long;
    /// pages must be programmed in order within their block. Data and
    /// OOB record are stored atomically, as on real NAND where the spare
    /// area is part of the same program pulse. A power cut during the
    /// program leaves the page *torn*: scrambled contents and an OOB
    /// record whose CRC check fails.
    ///
    /// Returns the operation latency in µs.
    pub fn program(&mut self, index: u64, data: &[u8], oob: OobMeta) -> Result<f64, FlashError> {
        if self.powered_off {
            return Err(FlashError::PowerLoss);
        }
        let (block, page) = self.locate(index);
        let expected_len = self.page_total_bytes();
        if data.len() != expected_len {
            return Err(FlashError::WrongDataLength {
                expected: expected_len,
                got: data.len(),
            });
        }
        let pages_per_block = self.geometry.pages_per_block;
        // Validate against current state before consulting the fault
        // injector: rejected requests never reach the array.
        {
            let state = self.block_state(block)?;
            if state.bad {
                return Err(FlashError::BadBlock(block));
            }
            let usable = state.mode.usable_pages(pages_per_block);
            if page >= usable {
                return Err(FlashError::PageOutOfRange { block, usable });
            }
            if page != state.next_page {
                return Err(if page < state.next_page {
                    FlashError::NotErased(block)
                } else {
                    FlashError::OutOfOrderProgram {
                        block,
                        expected: state.next_page,
                    }
                });
            }
        }
        let fault = self.fault_for(FaultOp::Program);
        let now = self.now_days;
        match fault {
            Some(FaultKind::PowerCut) => {
                // Mid-program power cut: the page occupies its slot but
                // holds partially-programmed cells, and its OOB CRC no
                // longer verifies. The device is offline until
                // [`Self::power_cycle`].
                let mut torn = data.to_vec();
                if let Some(inj) = self.injector.as_mut() {
                    inj.tear_data(&mut torn);
                }
                let state = self
                    .blocks
                    .get_mut(block as usize)
                    .ok_or(FlashError::InvalidAddress)?;
                state.next_page += 1;
                state.reads_since_program = 0;
                self.stats.programs += 1;
                self.store
                    .program(block, page, &torn, now, oob.torn(), true);
                self.powered_off = true;
                return Err(FlashError::PowerLoss);
            }
            Some(FaultKind::FailProgram) => {
                let state = self
                    .blocks
                    .get_mut(block as usize)
                    .ok_or(FlashError::InvalidAddress)?;
                state.bad = true;
                return Err(FlashError::ProgramFailed(block));
            }
            _ => {}
        }
        let state = self
            .blocks
            .get_mut(block as usize)
            .ok_or(FlashError::InvalidAddress)?;
        // Program failure, like erase failure, only matters deep past
        // rated endurance.
        let wear_frac = state.pec as f64 / state.mode.physical.rated_endurance() as f64;
        let p_fail = (wear_frac / 5.0).powi(6).min(1.0);
        if self.rng.gen_bool(p_fail) {
            state.bad = true;
            return Err(FlashError::ProgramFailed(block));
        }
        state.next_page += 1;
        state.reads_since_program = 0;
        let latency = latencies(state.mode).program_us + transfer_us(data.len());
        self.stats.programs += 1;
        self.stats.busy_us += latency;
        self.store.program(block, page, data, now, oob, false);
        Ok(latency)
    }

    /// Reads the OOB metadata of the page at flat index `index` without
    /// transferring the payload.
    ///
    /// Recovery scans use this; every call (including probes of
    /// unprogrammed pages) is counted in [`DeviceStats::oob_reads`] so
    /// scan cost stays observable. OOB words are short and heavily
    /// checksummed, so no bit errors are injected — a torn page is
    /// detected because its stored record fails [`OobMeta::is_valid`].
    pub fn read_oob(&mut self, index: u64) -> Result<OobMeta, FlashError> {
        if self.powered_off {
            return Err(FlashError::PowerLoss);
        }
        let (block, page) = self.locate(index);
        {
            let state = self.block_state(block)?;
            if state.bad {
                return Err(FlashError::BadBlock(block));
            }
        }
        self.stats.oob_reads += 1;
        let view = self
            .store
            .view(block, page)
            .ok_or(FlashError::PageNotProgrammed(index))?;
        Ok(view.oob)
    }

    /// Reads the page at flat index `index`, injecting bit errors per the
    /// block's stress history.
    pub fn read(&mut self, index: u64) -> Result<ReadOutcome, FlashError> {
        if self.powered_off {
            return Err(FlashError::PowerLoss);
        }
        let (block, page) = self.locate(index);
        let now = self.now_days;
        {
            let state = self.block_state(block)?;
            if state.bad {
                return Err(FlashError::BadBlock(block));
            }
        }
        let fault = self.fault_for(FaultOp::Read);
        if matches!(fault, Some(FaultKind::PowerCut)) {
            self.powered_off = true;
            return Err(FlashError::PowerLoss);
        }
        let state = self
            .blocks
            .get_mut(block as usize)
            .ok_or(FlashError::InvalidAddress)?;
        state.reads_since_program += 1;
        let cell_state_mode = state.mode;
        let reads = state.reads_since_program;
        let pec = state.pec;
        let view = self
            .store
            .view(block, page)
            .ok_or(FlashError::PageNotProgrammed(index))?;
        if view.torn {
            self.stats.reads += 1;
            return Err(FlashError::TornPage(index));
        }
        let retention_days = (now - view.programmed_day).max(0.0);
        let mut data = view.data.to_vec();
        // Per-page-type asymmetry: lower pages of a multi-bit wordline
        // are more reliable than upper pages.
        let page_type = page
            .checked_rem(cell_state_mode.logical.bits_per_cell())
            .unwrap_or(0);
        let draw = match self.blocks.get_mut(block as usize) {
            Some(state) => state.sampler.sample(
                &mut self.rng,
                &self.cell_model,
                cell_state_mode,
                pec,
                retention_days,
                page_type,
                reads,
                data.len() * 8,
            ),
            None => return Err(FlashError::InvalidAddress),
        };
        if draw.memo_hit {
            self.stats.rber_cache_hits += 1;
        } else {
            self.stats.rber_cache_misses += 1;
        }
        let mut positions = inject_errors(&mut self.rng, &mut data, draw.count);
        if let Some(FaultKind::ReadNoise { bits }) = fault {
            if let Some(inj) = self.injector.as_mut() {
                positions.extend(inj.flip_bits(&mut data, bits));
            }
        }
        let latency = latencies(cell_state_mode).read_us + transfer_us(data.len());
        self.stats.reads += 1;
        self.stats.bit_errors_injected += positions.len() as u64;
        self.stats.busy_us += latency;
        Ok(ReadOutcome {
            data,
            injected_positions: positions,
            rber: draw.rber,
            latency_us: latency,
        })
    }

    /// Current RBER estimate for a block's resident data, assuming the
    /// oldest data in the block (worst case). Used by the scrubber.
    pub fn block_rber_estimate(&self, block: u64) -> Result<f64, FlashError> {
        let state = self.block_state(block)?;
        if state.bad {
            return Err(FlashError::BadBlock(block));
        }
        let retention_days = match self.store.oldest_day(block, self.geometry.pages_per_block) {
            Some(oldest) => (self.now_days - oldest).max(0.0),
            None => 0.0,
        };
        Ok(self.cell_model.rber(
            state.mode,
            CellState {
                pec: state.pec,
                retention_days,
                reads_since_program: state.reads_since_program,
            },
        ))
    }

    /// Marks a block bad explicitly (FTL retirement decision).
    pub fn mark_bad(&mut self, block: u64) -> Result<(), FlashError> {
        let state = self
            .blocks
            .get_mut(block as usize)
            .ok_or(FlashError::InvalidAddress)?;
        state.bad = true;
        self.store.clear_block(block);
        Ok(())
    }

    /// Snapshots every block's management state for invariant auditing.
    ///
    /// The `programmed` lists are reconstructed from the page store, so
    /// an auditor can cross-check them against `next_page`: under NAND
    /// discipline the programmed pages of a block are exactly the prefix
    /// `0..next_page`.
    pub fn snapshot_blocks(&self) -> Vec<BlockSnapshot> {
        let pages_per_block = self.geometry.pages_per_block;
        self.blocks
            .iter()
            .enumerate()
            .map(|(index, state)| {
                let block = index as u64;
                let programmed = self.store.programmed_pages(block, pages_per_block);
                let torn = self.store.torn_pages(block, pages_per_block);
                BlockSnapshot {
                    block,
                    mode: state.mode,
                    pec: state.pec,
                    bad: state.bad,
                    next_page: state.next_page,
                    usable_pages: state.mode.usable_pages(pages_per_block),
                    programmed,
                    torn,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use crate::density::CellDensity;

    fn tiny_device(density: CellDensity) -> FlashDevice {
        FlashDevice::new(&DeviceConfig::tiny(density))
    }

    fn page(device: &FlashDevice, block: u64, page: u32) -> u64 {
        block * device.geometry().pages_per_block as u64 + page as u64
    }

    fn fill(device: &FlashDevice, byte: u8) -> Vec<u8> {
        vec![byte; device.page_total_bytes()]
    }

    fn meta() -> OobMeta {
        OobMeta::data(0, 1, 0)
    }

    #[test]
    fn program_read_roundtrip_fresh_device_is_error_free() {
        let mut dev = tiny_device(CellDensity::Tlc);
        let data = fill(&dev, 0xA5);
        dev.program(page(&dev, 0, 0), &data, meta()).unwrap();
        let out = dev.read(page(&dev, 0, 0)).unwrap();
        // TLC fresh RBER is ~5e-8; a single 2 KiB page essentially never
        // sees an error.
        assert_eq!(out.data, data);
        assert!(out.injected_positions.is_empty());
    }

    #[test]
    fn in_order_programming_is_enforced() {
        let mut dev = tiny_device(CellDensity::Tlc);
        let data = fill(&dev, 1);
        dev.program(page(&dev, 0, 0), &data, meta()).unwrap();
        let err = dev.program(page(&dev, 0, 2), &data, meta()).unwrap_err();
        assert!(matches!(
            err,
            FlashError::OutOfOrderProgram { expected: 1, .. }
        ));
    }

    #[test]
    fn reprogram_without_erase_fails() {
        let mut dev = tiny_device(CellDensity::Tlc);
        let data = fill(&dev, 1);
        dev.program(page(&dev, 0, 0), &data, meta()).unwrap();
        let err = dev.program(page(&dev, 0, 0), &data, meta()).unwrap_err();
        assert!(matches!(err, FlashError::NotErased(_)));
    }

    #[test]
    fn erase_clears_and_allows_reprogram() {
        let mut dev = tiny_device(CellDensity::Tlc);
        let data = fill(&dev, 1);
        dev.program(page(&dev, 0, 0), &data, meta()).unwrap();
        dev.erase(0).unwrap();
        assert!(matches!(
            dev.read(page(&dev, 0, 0)).unwrap_err(),
            FlashError::PageNotProgrammed(_)
        ));
        dev.program(page(&dev, 0, 0), &data, meta()).unwrap();
        assert_eq!(dev.block_pec(0).unwrap(), 1);
    }

    #[test]
    fn wrong_length_is_rejected() {
        let mut dev = tiny_device(CellDensity::Tlc);
        let err = dev
            .program(page(&dev, 0, 0), &[0u8; 10], meta())
            .unwrap_err();
        assert!(matches!(err, FlashError::WrongDataLength { .. }));
    }

    #[test]
    fn pseudo_mode_reduces_usable_pages() {
        let mut dev = tiny_device(CellDensity::Plc);
        // tiny geometry has 32 pages/block; pseudo-QLC in PLC keeps 4/5.
        assert_eq!(dev.usable_pages(0).unwrap(), 32);
        dev.set_block_mode(0, ProgramMode::pseudo(CellDensity::Plc, CellDensity::Qlc))
            .unwrap();
        assert_eq!(dev.usable_pages(0).unwrap(), 25);
        let data = fill(&dev, 3);
        for p in 0..25 {
            dev.program(page(&dev, 0, p), &data, meta()).unwrap();
        }
        let err = dev.program(page(&dev, 0, 25), &data, meta()).unwrap_err();
        assert!(matches!(err, FlashError::PageOutOfRange { usable: 25, .. }));
    }

    #[test]
    fn mode_change_requires_empty_block() {
        let mut dev = tiny_device(CellDensity::Plc);
        let data = fill(&dev, 3);
        dev.program(page(&dev, 0, 0), &data, meta()).unwrap();
        let err = dev
            .set_block_mode(0, ProgramMode::pseudo(CellDensity::Plc, CellDensity::Tlc))
            .unwrap_err();
        assert!(matches!(err, FlashError::BlockNotEmpty(0)));
        dev.erase(0).unwrap();
        dev.set_block_mode(0, ProgramMode::pseudo(CellDensity::Plc, CellDensity::Tlc))
            .unwrap();
    }

    #[test]
    fn retention_ages_data_and_increases_errors() {
        let mut dev = tiny_device(CellDensity::Plc);
        // Pre-wear the block so retention has something to amplify.
        for _ in 0..400 {
            dev.erase(0).unwrap();
        }
        let data = fill(&dev, 0xFF);
        dev.program(page(&dev, 0, 0), &data, meta()).unwrap();
        let fresh = dev.read(page(&dev, 0, 0)).unwrap();
        dev.advance_days(720.0);
        let aged = dev.read(page(&dev, 0, 0)).unwrap();
        assert!(
            aged.rber > fresh.rber * 1.5,
            "aged rber {} vs fresh {}",
            aged.rber,
            fresh.rber
        );
    }

    #[test]
    fn worn_plc_block_injects_visible_errors() {
        let mut dev = tiny_device(CellDensity::Plc);
        // Cycle to rated endurance; tolerate the (rare, but possible) deep
        // wear erase failure by stopping early — the block is worn enough
        // either way.
        for _ in 0..500 {
            if dev.erase(0).is_err() {
                break;
            }
        }
        if dev.is_bad(0).unwrap() {
            return;
        }
        let data = fill(&dev, 0x5A);
        dev.program(page(&dev, 0, 0), &data, meta()).unwrap();
        dev.advance_days(365.0);
        // At rated endurance + 1 year retention PLC RBER should be well
        // above 1e-4: a 2 KiB page (17408 bits with spare) sees errors.
        let total: usize = (0..20)
            .map(|_| dev.read(page(&dev, 0, 0)).unwrap().injected_positions.len())
            .sum();
        assert!(total > 0, "expected some injected errors on worn PLC");
    }

    #[test]
    fn mark_bad_removes_block_from_service() {
        let mut dev = tiny_device(CellDensity::Tlc);
        let bad = |dev: &FlashDevice| dev.snapshot_blocks().iter().filter(|b| b.bad).count();
        assert_eq!(bad(&dev), 0);
        dev.mark_bad(5).unwrap();
        assert_eq!(bad(&dev), 1);
        assert!(matches!(dev.erase(5).unwrap_err(), FlashError::BadBlock(5)));
        assert!(matches!(
            dev.read(page(&dev, 5, 0)).unwrap_err(),
            FlashError::BadBlock(5)
        ));
    }

    #[test]
    fn deep_wear_eventually_fails_erase() {
        let mut dev = tiny_device(CellDensity::Plc);
        // Cycle a single block far past rated endurance (500): failure
        // probability reaches certainty near 4x rated * some slack.
        let mut failed = false;
        for _ in 0..20_000 {
            match dev.erase(1) {
                Ok(_) => {}
                Err(FlashError::EraseFailed(1)) => {
                    failed = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(failed, "block never failed erase");
        assert!(dev.is_bad(1).unwrap());
    }

    #[test]
    fn stats_accumulate() {
        let mut dev = tiny_device(CellDensity::Tlc);
        let data = fill(&dev, 9);
        dev.program(page(&dev, 0, 0), &data, meta()).unwrap();
        dev.read(page(&dev, 0, 0)).unwrap();
        dev.erase(0).unwrap();
        let s = dev.stats();
        assert_eq!((s.programs, s.reads, s.erases), (1, 1, 1));
        assert!(s.busy_us > 0.0);
    }

    #[test]
    fn stats_absorb_sums_every_field() {
        let a = DeviceStats {
            reads: 1,
            programs: 2,
            erases: 3,
            oob_reads: 4,
            bit_errors_injected: 5,
            busy_us: 6.5,
            rber_cache_hits: 7,
            rber_cache_misses: 8,
        };
        let b = DeviceStats {
            reads: 10,
            programs: 20,
            erases: 30,
            oob_reads: 40,
            bit_errors_injected: 50,
            busy_us: 60.0,
            rber_cache_hits: 70,
            rber_cache_misses: 80,
        };
        let mut total = DeviceStats::default();
        total.absorb(&a);
        total.absorb(&b);
        assert_eq!(
            total,
            DeviceStats {
                reads: 11,
                programs: 22,
                erases: 33,
                oob_reads: 44,
                bit_errors_injected: 55,
                busy_us: 66.5,
                rber_cache_hits: 77,
                rber_cache_misses: 88,
            }
        );
    }

    #[test]
    fn block_rber_estimate_tracks_worst_page() {
        let mut dev = tiny_device(CellDensity::Qlc);
        let data = fill(&dev, 2);
        dev.program(page(&dev, 3, 0), &data, meta()).unwrap();
        let fresh = dev.block_rber_estimate(3).unwrap();
        dev.advance_days(400.0);
        dev.program(page(&dev, 3, 1), &data, meta()).unwrap();
        let with_old_data = dev.block_rber_estimate(3).unwrap();
        assert!(with_old_data > fresh, "estimate must reflect oldest data");
    }

    #[test]
    fn oob_roundtrips_with_program() {
        let mut dev = tiny_device(CellDensity::Tlc);
        let data = fill(&dev, 0x11);
        let meta = OobMeta::data(77, 4, 2);
        dev.program(page(&dev, 0, 0), &data, meta).unwrap();
        let read_back = dev.read_oob(page(&dev, 0, 0)).unwrap();
        assert_eq!(read_back, meta);
        assert!(read_back.is_valid());
        assert_eq!(dev.stats().oob_reads, 1);
    }

    #[test]
    fn power_cut_tears_in_flight_page_and_offlines_device() {
        use crate::fault::{FaultAt, FaultInjector, FaultKind, FaultPlan};
        let mut dev = tiny_device(CellDensity::Tlc);
        let mut inj = FaultInjector::new(3);
        inj.arm(FaultPlan {
            kind: FaultKind::PowerCut,
            at: FaultAt::OpCount(2),
        });
        dev.attach_injector(inj);
        let data = fill(&dev, 0x22);
        dev.program(page(&dev, 0, 0), &data, OobMeta::data(0, 1, 0))
            .unwrap();
        let err = dev
            .program(page(&dev, 0, 1), &data, OobMeta::data(1, 2, 0))
            .unwrap_err();
        assert_eq!(err, FlashError::PowerLoss);
        // Everything fails until power returns.
        assert_eq!(
            dev.read(page(&dev, 0, 0)).unwrap_err(),
            FlashError::PowerLoss
        );
        dev.power_cycle();
        // The completed page survives; the torn one is detectable.
        assert_eq!(dev.read(page(&dev, 0, 0)).unwrap().data, data);
        assert!(matches!(
            dev.read(page(&dev, 0, 1)).unwrap_err(),
            FlashError::TornPage(_)
        ));
        let torn_oob = dev.read_oob(page(&dev, 0, 1)).unwrap();
        assert!(!torn_oob.is_valid());
        let intact_oob = dev.read_oob(page(&dev, 0, 0)).unwrap();
        assert!(intact_oob.is_valid());
        // The torn page still occupies its slot: in-order programming
        // resumes after it.
        assert_eq!(dev.next_free_page(0).unwrap(), Some(2));
        let snapshot = &dev.snapshot_blocks()[0];
        assert_eq!(snapshot.torn, vec![1]);
    }

    #[test]
    fn scheduled_program_and_erase_failures_retire_block() {
        use crate::fault::{FaultAt, FaultInjector, FaultKind, FaultPlan};
        let mut dev = tiny_device(CellDensity::Tlc);
        let mut inj = FaultInjector::new(4);
        inj.arm(FaultPlan {
            kind: FaultKind::FailProgram,
            at: FaultAt::OpCount(1),
        });
        dev.attach_injector(inj);
        let data = fill(&dev, 0x33);
        assert_eq!(
            dev.program(page(&dev, 0, 0), &data, meta()).unwrap_err(),
            FlashError::ProgramFailed(0)
        );
        assert!(dev.is_bad(0).unwrap());
        dev.program(page(&dev, 1, 0), &data, meta()).unwrap();
        if let Some(inj) = dev.injector_mut() {
            inj.arm(FaultPlan {
                kind: FaultKind::FailErase,
                at: FaultAt::OpCount(0),
            });
        }
        assert_eq!(dev.erase(1).unwrap_err(), FlashError::EraseFailed(1));
        assert!(dev.is_bad(1).unwrap());
        // The failed erase still emptied the block.
        let snapshot = &dev.snapshot_blocks()[1];
        assert_eq!(snapshot.next_page, 0);
        assert!(snapshot.programmed.is_empty());
    }

    #[test]
    fn read_noise_injects_transient_errors_once() {
        use crate::fault::{FaultAt, FaultInjector, FaultKind, FaultPlan};
        let mut dev = tiny_device(CellDensity::Tlc);
        let data = fill(&dev, 0x44);
        dev.program(page(&dev, 0, 0), &data, meta()).unwrap();
        let mut inj = FaultInjector::new(5);
        inj.arm(FaultPlan {
            kind: FaultKind::ReadNoise { bits: 12 },
            at: FaultAt::OpCount(1),
        });
        dev.attach_injector(inj);
        let noisy = dev.read(page(&dev, 0, 0)).unwrap();
        assert!(noisy.injected_positions.len() >= 12);
        let clean = dev.read(page(&dev, 0, 0)).unwrap();
        assert!(
            clean.injected_positions.is_empty(),
            "noise must be transient"
        );
        assert_eq!(clean.data, data);
    }

    #[test]
    fn flat_index_errors_carry_the_callers_index() {
        use crate::fault::{FaultAt, FaultInjector, FaultKind, FaultPlan};
        let mut dev = tiny_device(CellDensity::Tlc);
        let data = fill(&dev, 0x55);
        let total = dev.geometry().total_pages();
        for index in [total, total + 1, u64::MAX] {
            assert_eq!(dev.read(index).unwrap_err(), FlashError::InvalidAddress);
            assert_eq!(dev.read_oob(index).unwrap_err(), FlashError::InvalidAddress);
            assert_eq!(
                dev.program(index, &data, meta()).unwrap_err(),
                FlashError::InvalidAddress
            );
        }
        // The last page of the device is in range.
        assert_eq!(
            dev.read(total - 1).unwrap_err(),
            FlashError::PageNotProgrammed(total - 1)
        );
        let unwritten = page(&dev, 7, 3);
        assert_eq!(
            dev.read(unwritten).unwrap_err(),
            FlashError::PageNotProgrammed(unwritten)
        );
        assert_eq!(
            dev.read_oob(unwritten).unwrap_err(),
            FlashError::PageNotProgrammed(unwritten)
        );
        let mut inj = FaultInjector::new(6);
        inj.arm(FaultPlan {
            kind: FaultKind::PowerCut,
            at: FaultAt::OpCount(2),
        });
        dev.attach_injector(inj);
        dev.program(page(&dev, 5, 0), &data, meta()).unwrap();
        let torn = page(&dev, 5, 1);
        assert_eq!(
            dev.program(torn, &data, meta()).unwrap_err(),
            FlashError::PowerLoss
        );
        dev.power_cycle();
        assert_eq!(dev.read(torn).unwrap_err(), FlashError::TornPage(torn));
        assert_eq!(dev.read(page(&dev, 5, 0)).unwrap().data, data);
    }

    #[test]
    fn next_free_page_walks_forward() {
        let mut dev = tiny_device(CellDensity::Tlc);
        assert_eq!(dev.next_free_page(0).unwrap(), Some(0));
        let data = fill(&dev, 7);
        dev.program(page(&dev, 0, 0), &data, meta()).unwrap();
        assert_eq!(dev.next_free_page(0).unwrap(), Some(1));
        for p in 1..32 {
            dev.program(page(&dev, 0, p), &data, meta()).unwrap();
        }
        assert_eq!(dev.next_free_page(0).unwrap(), None);
    }
}
