//! Crash recovery: OOB scan, latest-sequence-wins L2P rebuild, and the
//! on-flash checkpoint that bounds the rebuild scan.
//!
//! After a power cut the FTL's RAM state (L2P map, valid counts, free
//! list, open reclaim units) is gone; only the NAND array survives. Recovery
//! rebuilds firmware state from per-page OOB metadata
//! ([`sos_flash::OobMeta`], which [`sos_flash::FlashDevice::program`]
//! stores with every page): every data program records its LPN, a
//! monotonic sequence number and its placement stream, so a physical
//! scan can reconstruct the forward map by keeping, for each LPN, the
//! copy with the highest sequence number. Pages whose OOB CRC fails are
//! *torn* (their program was interrupted by the cut) and are discarded —
//! the previous copy of that LPN, wherever it lives, wins instead.
//!
//! A full-device scan is linear in programmed pages. [`Ftl::checkpoint`]
//! bounds it: the L2P map and each block's write pointer are serialized,
//! ECC-protected, and written to dedicated blocks taken from the free
//! pool. Recovery then restores the checkpointed map and only scans
//! pages programmed *after* the checkpoint (each block's suffix past its
//! checkpointed write pointer, plus any block erased and rewritten
//! since, which is detected by its first page's sequence number).
//! Checkpoint writes are crash-safe: a new generation is written in full
//! before the previous one is erased, and an interrupted generation
//! fails its own CRC/completeness check, so recovery falls back to the
//! older generation or to a full scan.
//!
//! Semantics worth knowing (also documented in `DESIGN.md` §8):
//!
//! * **Trims are volatile until the next checkpoint.** The OOB scan has
//!   no record of a trim, so a crash may resurrect an LPN trimmed after
//!   the last checkpoint (the stale copy still carries the highest
//!   sequence number). This mirrors losing an unsynced unlink; the host
//!   layer re-trims LPNs its directory no longer references at remount.
//! * **Partially-programmed blocks are closed.** Recovery marks them
//!   `full` rather than reopening them for appends; GC reclaims the
//!   wasted tail later. The torn page (if any) stays in place until its
//!   block is erased and can never be read as valid data.
//! * **Wear and retirement live in the device.** Program/erase counts
//!   and bad-block marks survive the crash (a real controller keeps
//!   them in OOB or a bad-block table); recovery re-adopts them as-is.
//! * **Recovery is retryable.** [`Ftl::recover`] rebuilds from the
//!   device alone and replaces the RAM tables only on success, so a
//!   power cut inside it leaves the FTL holding its device, ready for
//!   another `recover`.

use crate::config::FtlConfig;
use crate::ftl::{exported_pages, BlockInfo, Ftl, FtlError, Slot};
use crate::placement::{PlacementHandle, StreamPlacement};
use crate::stats::FtlStats;
use sos_ecc::{crc32, EccScheme, PageCodec, PageStatus};
use sos_flash::{FlashDevice, FlashError, Geometry, OobMeta, PageKind};
use std::collections::{HashSet, VecDeque};

/// A decoded checkpoint ready to apply: `(data_seq, l2p slots,
/// per-block next-page pointers, blocks holding the checkpoint)`.
type AppliedCheckpoint = (u64, Vec<Slot>, Vec<u32>, HashSet<u64>);

const CKPT_MAGIC: u64 = 0x534F_535F_434B_5054; // "SOS_CKPT"
const CKPT_VERSION: u32 = 1;
/// Fixed header bytes before the L2P entries.
const CKPT_HEADER_BYTES: usize = 36;
/// Bytes per serialized L2P entry (tag + location).
const CKPT_ENTRY_BYTES: usize = 9;

/// The FTL's handle on its current on-flash checkpoint generation.
#[derive(Debug, Clone)]
pub(crate) struct CheckpointHandle {
    /// Blocks holding the checkpoint; excluded from GC and the free
    /// pool until the next generation supersedes them.
    pub blocks: Vec<u64>,
    /// Data pages with OOB sequence numbers at or below this value are
    /// fully reflected in the checkpoint.
    pub data_seq: u64,
}

/// What recovery did and what it cost.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// OOB reads performed (probes of unprogrammed pages included) —
    /// the scan cost a checkpoint exists to bound.
    pub scanned_pages: u64,
    /// Whether a valid checkpoint was found and applied.
    pub used_checkpoint: bool,
    /// The applied checkpoint's data sequence floor (0 without one).
    pub checkpoint_seq: u64,
    /// LPNs mapped after the rebuild.
    pub recovered_mappings: u64,
    /// LPNs restored in the `Lost` state (pre-crash media failures).
    pub lost_mappings: u64,
    /// Flat page indices discarded because their OOB CRC failed.
    pub torn_pages: Vec<u64>,
    /// Checkpointed mappings dropped because their block was erased or
    /// retired after the checkpoint (a newer copy, when one exists, is
    /// picked up by the scan).
    pub stale_dropped: u64,
}

/// One page's OOB record, classified.
#[derive(Debug, Clone, Copy)]
enum Probe {
    /// Not programmed since the last erase.
    Empty,
    /// Program interrupted by a power cut: the OOB CRC fails.
    Torn,
    /// An intact OOB record.
    Valid(OobMeta),
}

impl Probe {
    fn is_checkpoint(self) -> bool {
        matches!(self, Probe::Valid(meta) if meta.kind == PageKind::Checkpoint)
    }
}

/// The rebuild scan's device handle and running tallies.
struct Scan<'a> {
    device: &'a mut FlashDevice,
    report: RecoveryReport,
    /// Highest sequence number on any intact page probed.
    max_seq: u64,
}

impl Scan<'_> {
    /// Reads and classifies one page's OOB record. Every probe counts in
    /// [`RecoveryReport::scanned_pages`]; a torn page is recorded in
    /// [`RecoveryReport::torn_pages`].
    fn probe(&mut self, flat: u64) -> Result<Probe, FtlError> {
        self.report.scanned_pages += 1;
        match self.device.read_oob(flat) {
            Err(FlashError::PageNotProgrammed(_)) => Ok(Probe::Empty),
            Err(e) => Err(e.into()),
            Ok(meta) if !meta.is_valid() => {
                self.report.torn_pages.push(flat);
                Ok(Probe::Torn)
            }
            Ok(meta) => {
                self.max_seq = self.max_seq.max(meta.seq);
                Ok(Probe::Valid(meta))
            }
        }
    }
}

/// The codec of checkpoint pages on every partition: full BCH, which
/// fits every supported spare area. A checkpoint is the FTL's own
/// metadata, so it never rides a partition's approximate scheme, whose
/// unprotected tail would fail the payload CRC on one bit error and
/// force the full scan the checkpoint exists to avoid.
fn checkpoint_codec(geometry: &Geometry) -> Result<PageCodec, FtlError> {
    let (data, spare) = (geometry.page_bytes as usize, geometry.spare_bytes as usize);
    Ok(PageCodec::new(EccScheme::Bch { t: 18 }, data, spare)?)
}

/// The RAM tables [`rebuild`] derives from flash.
struct Rebuilt {
    l2p: Vec<Slot>,
    blocks: Vec<BlockInfo>,
    free: VecDeque<u64>,
    /// Next OOB sequence number to hand out.
    seq: u64,
    checkpoint: Option<CheckpointHandle>,
}

impl Ftl {
    /// Writes an on-flash checkpoint of the current L2P map and block
    /// write pointers, bounding the scan a later [`Ftl::recover`] must
    /// perform. The previous checkpoint generation is erased only after
    /// the new one is complete, so a crash mid-checkpoint falls back to
    /// the older generation (or a full scan).
    pub fn checkpoint(&mut self) -> Result<(), FtlError> {
        // Top up the free pool first so taking checkpoint blocks cannot
        // starve the write path.
        self.ensure_free_space()?;
        let data_seq = self.next_seq();
        let payload = self.checkpoint_payload(data_seq);
        let codec = checkpoint_codec(self.device.geometry())?;
        let pages: Vec<Vec<u8>> = payload
            .chunks(codec.data_bytes())
            .map(|c| {
                let mut chunk = c.to_vec();
                chunk.resize(codec.data_bytes(), 0);
                codec.frame(&chunk)
            })
            .collect::<Result<_, _>>()?;
        for _attempt in 0..3 {
            match self.write_checkpoint_once(&pages) {
                Ok(blocks) => {
                    // Retire the previous generation now that the new
                    // one is durable.
                    if let Some(old) = self.checkpoint.take() {
                        for block in old.blocks {
                            self.recycle(block)?;
                        }
                    }
                    self.checkpoint = Some(CheckpointHandle { blocks, data_seq });
                    return Ok(());
                }
                Err((partial, FtlError::Device(FlashError::ProgramFailed(failed)))) => {
                    // A checkpoint block went bad mid-write: abandon the
                    // partial generation (GC reclaims those blocks) and
                    // retry from scratch.
                    for block in partial.into_iter().filter(|&block| block != failed) {
                        if let Some(info) = self.blocks.get_mut(block as usize) {
                            info.full = true;
                        }
                    }
                    self.handle_block_failure(failed);
                }
                Err((partial, e)) => {
                    for block in partial {
                        if let Some(info) = self.blocks.get_mut(block as usize) {
                            info.full = true;
                        }
                    }
                    return Err(e);
                }
            }
        }
        Err(FtlError::NoSpace)
    }

    /// One attempt at programming every framed checkpoint page; returns
    /// the blocks used, or the partially-used blocks alongside the error.
    #[allow(clippy::type_complexity)]
    fn write_checkpoint_once(
        &mut self,
        pages: &[Vec<u8>],
    ) -> Result<Vec<u64>, (Vec<u64>, FtlError)> {
        let mut blocks: Vec<u64> = Vec::new();
        let mut current: Option<u64> = None;
        for (index, raw) in pages.iter().enumerate() {
            loop {
                let block = match current {
                    Some(block) => block,
                    None => {
                        let Some(block) = self.free.pop_front() else {
                            return Err((blocks, FtlError::NoSpace));
                        };
                        blocks.push(block);
                        current = Some(block);
                        block
                    }
                };
                let page = match self.device.next_free_page(block) {
                    Ok(Some(page)) => page,
                    Ok(None) => {
                        current = None;
                        continue;
                    }
                    Err(e) => return Err((blocks, e.into())),
                };
                let oob = OobMeta::checkpoint(
                    index as u64,
                    self.next_seq(),
                    PlacementHandle::CKPT.stream(),
                );
                let flat = self.flat_page(block, page);
                match self.device.program(flat, raw, oob) {
                    Ok(_) => break,
                    Err(e) => return Err((blocks, e.into())),
                }
            }
        }
        Ok(blocks)
    }

    /// Serializes the checkpoint: header, L2P entries, per-block write
    /// pointers, trailing CRC.
    fn checkpoint_payload(&self, data_seq: u64) -> Vec<u8> {
        let block_count = self.blocks.len() as u64;
        let mut payload = Vec::with_capacity(
            CKPT_HEADER_BYTES + self.l2p.len() * CKPT_ENTRY_BYTES + self.blocks.len() * 4 + 4,
        );
        payload.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
        payload.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        payload.extend_from_slice(&data_seq.to_le_bytes());
        payload.extend_from_slice(&self.logical_pages.to_le_bytes());
        payload.extend_from_slice(&block_count.to_le_bytes());
        for slot in &self.l2p {
            let (tag, loc) = match slot {
                Slot::Unmapped => (0u8, 0u64),
                Slot::Mapped(loc) => (1, *loc),
                Slot::Lost => (2, 0),
            };
            payload.push(tag);
            payload.extend_from_slice(&loc.to_le_bytes());
        }
        for snapshot in self.device.snapshot_blocks() {
            payload.extend_from_slice(&snapshot.next_page.to_le_bytes());
        }
        let crc = crc32(&payload);
        payload.extend_from_slice(&crc.to_le_bytes());
        payload
    }

    /// Rebuilds this FTL's RAM state (L2P map, valid counts, free list,
    /// open reclaim units, statistics) from its device after a power
    /// cut, by scanning OOB metadata.
    ///
    /// The device is power-cycled first. The rebuild sees only the
    /// device and the configuration (firmware configuration
    /// is code, not state, so it survives the crash by construction),
    /// never the RAM tables it replaces. Those tables are replaced only
    /// when the scan succeeds: on error the FTL keeps its device, and a
    /// later `recover` may retry.
    pub fn recover(&mut self) -> Result<RecoveryReport, FtlError> {
        self.device.power_cycle();
        let (rebuilt, report) = rebuild(&mut self.device, &self.config)?;
        self.l2p = rebuilt.l2p;
        self.blocks = rebuilt.blocks;
        self.free = rebuilt.free;
        self.placement = StreamPlacement::default();
        self.stats = FtlStats {
            lost_pages: report.lost_mappings,
            ..FtlStats::default()
        };
        self.events.clear();
        self.seq = rebuilt.seq;
        self.checkpoint = rebuilt.checkpoint;
        self.last_reported_capacity = self.sustainable_pages();
        Ok(report)
    }
}

/// Rebuilds the FTL's RAM tables from a power-cycled device: the
/// checkpoint (when one validates) seeds the map, and a roll-forward
/// scan of OOB records adds everything programmed since,
/// latest-sequence-wins.
// sos-lint: allow(panic-path, "scan tables are sized from the device geometry in phase 1 and every OOB lpn/offset is range-checked before indexing; divisors are construction-validated nonzero geometry fields")
fn rebuild(
    device: &mut FlashDevice,
    config: &FtlConfig,
) -> Result<(Rebuilt, RecoveryReport), FtlError> {
    let geometry = *device.geometry();
    let codec = checkpoint_codec(&geometry)?;
    let total_blocks = geometry.total_blocks();
    let ppb = geometry.pages_per_block as u64;
    let logical_pages = exported_pages(
        total_blocks,
        config.mode.usable_pages(geometry.pages_per_block),
    );
    let mut scan = Scan {
        device,
        report: RecoveryReport::default(),
        max_seq: 0,
    };

    // Phase 1: probe page 0 of every good block (`None` marks a bad
    // one). This classifies blocks (empty / data / checkpoint), finds
    // each block's generation (a block's first-page sequence number
    // predates everything else in it, because erases clear whole
    // blocks), and costs one OOB read per block.
    let mut first: Vec<Option<Probe>> = Vec::with_capacity(total_blocks as usize);
    for block in 0..total_blocks {
        let probe = if scan.device.is_bad(block)? {
            None
        } else {
            Some(scan.probe(block * ppb)?)
        };
        first.push(probe);
    }

    // Phase 2: gather checkpoint chunks and pick the newest complete,
    // CRC-valid generation. Generations have disjoint, ascending
    // sequence ranges and chunk indices counting up from 0, so runs
    // split wherever a chunk index restarts at 0.
    let mut ckpt_pages: Vec<(u64, u64, u64, u64)> = Vec::new(); // (seq, chunk, flat, block)
    for (block, &probe) in first.iter().enumerate() {
        let Some(probe) = probe.filter(|probe| probe.is_checkpoint()) else {
            continue;
        };
        let block = block as u64;
        for offset in 0..ppb {
            let flat = block * ppb + offset;
            // Page 0 reuses the phase-1 probe rather than re-reading.
            let page = if offset == 0 {
                probe
            } else {
                scan.probe(flat)?
            };
            match page {
                Probe::Empty => break,
                Probe::Torn => {}
                Probe::Valid(meta) => {
                    if meta.kind == PageKind::Checkpoint {
                        ckpt_pages.push((meta.seq, meta.lpn, flat, block));
                    }
                }
            }
        }
    }
    ckpt_pages.sort_unstable();
    let mut runs: Vec<Vec<(u64, u64, u64, u64)>> = Vec::new();
    for page in ckpt_pages {
        if page.1 == 0 || runs.is_empty() {
            runs.push(Vec::new());
        }
        if let Some(run) = runs.last_mut() {
            run.push(page);
        }
    }
    let mut applied: Option<AppliedCheckpoint> = None;
    for run in runs.iter().rev() {
        if run
            .iter()
            .enumerate()
            .any(|(index, page)| page.1 != index as u64)
        {
            continue; // chunk indices not consecutive: incomplete
        }
        let mut payload = Vec::new();
        let mut intact = true;
        for &(_, _, flat, _) in run {
            // An unreadable page fails this generation; any other device
            // error (a power cut above all) fails the recovery itself.
            let outcome = match scan.device.read(flat) {
                Ok(outcome) => outcome,
                Err(FlashError::BadBlock(_) | FlashError::TornPage(_)) => {
                    intact = false;
                    break;
                }
                Err(e) => return Err(e.into()),
            };
            match codec.decode_with_dirty(&outcome.data, &outcome.injected_positions) {
                Ok(decoded) if decoded.status != PageStatus::Uncorrectable => {
                    payload.extend_from_slice(&decoded.data);
                }
                _ => {
                    intact = false;
                    break;
                }
            }
        }
        if !intact {
            continue;
        }
        if let Some((data_seq, slots, next_pages)) =
            parse_checkpoint(&payload, logical_pages, total_blocks)
        {
            let checkpoint_blocks: HashSet<u64> =
                run.iter().map(|&(_, _, _, block)| block).collect();
            applied = Some((data_seq, slots, next_pages, checkpoint_blocks));
            break;
        }
    }

    // Phase 3: seed the map from the checkpoint (when one was found)
    // and derive per-block scan bounds. A block whose first page
    // post-dates the checkpoint was erased and rewritten since, so its
    // checkpointed mappings are stale and it is scanned in full.
    let (data_seq, ckpt_slots, ckpt_next, live_ckpt_blocks) = match applied {
        Some((seq, slots, next, blocks)) => (seq, Some(slots), Some(next), blocks),
        None => (0, None, None, HashSet::new()),
    };
    scan.report.used_checkpoint = ckpt_slots.is_some();
    scan.report.checkpoint_seq = data_seq;
    scan.max_seq = scan.max_seq.max(data_seq);
    let mut l2p: Vec<Slot> = vec![Slot::Unmapped; logical_pages as usize];
    let mut best_seq: Vec<u64> = vec![0; logical_pages as usize];
    let mut from_ckpt: Vec<bool> = vec![false; logical_pages as usize];
    if let Some(slots) = &ckpt_slots {
        for (lpn, slot) in slots.iter().enumerate() {
            match slot {
                Slot::Mapped(loc) => {
                    l2p[lpn] = Slot::Mapped(*loc);
                    best_seq[lpn] = data_seq;
                    from_ckpt[lpn] = true;
                }
                Slot::Lost => l2p[lpn] = Slot::Lost,
                Slot::Unmapped => {}
            }
        }
    }

    // Phase 4: roll-forward scan.
    let mut rewritten: Vec<bool> = vec![false; total_blocks as usize];
    for block in 0..total_blocks {
        let Some(probe) = first[block as usize] else {
            continue;
        };
        if probe.is_checkpoint() {
            continue;
        }
        let start = match (&ckpt_next, probe) {
            (Some(next), Probe::Valid(meta)) if meta.seq <= data_seq => {
                // Unchanged since the checkpoint: skip the prefix the
                // checkpoint already accounts for.
                next[block as usize] as u64
            }
            (Some(next), _) => {
                // Erased (and possibly rewritten) after the checkpoint:
                // any checkpointed mapping into it is stale; scan it in
                // full.
                rewritten[block as usize] = next[block as usize] > 0;
                0
            }
            (None, _) => 0,
        };
        for offset in start..ppb {
            let flat = block * ppb + offset;
            // Page 0 reuses the phase-1 probe rather than re-reading.
            let page = if offset == 0 {
                probe
            } else {
                scan.probe(flat)?
            };
            let meta = match page {
                Probe::Empty => break,
                Probe::Torn => continue,
                Probe::Valid(meta) => meta,
            };
            if meta.kind != PageKind::Data || meta.lpn >= logical_pages {
                continue;
            }
            let lpn = meta.lpn as usize;
            if meta.seq > best_seq[lpn] {
                l2p[lpn] = Slot::Mapped(flat);
                best_seq[lpn] = meta.seq;
                from_ckpt[lpn] = false;
            }
        }
    }
    let Scan {
        device,
        mut report,
        max_seq,
    } = scan;

    // Phase 5: drop checkpointed mappings whose blocks were erased or
    // retired after the checkpoint. GC relocates valid data before
    // erasing, so a surviving copy (with a higher sequence number) was
    // found by the scan whenever one exists.
    for lpn in 0..logical_pages as usize {
        if !from_ckpt[lpn] {
            continue;
        }
        let Slot::Mapped(loc) = l2p[lpn] else {
            continue;
        };
        let block = loc / ppb;
        if rewritten[block as usize] || device.is_bad(block)? {
            l2p[lpn] = Slot::Unmapped;
            report.stale_dropped += 1;
        }
    }

    // Phase 6: rebuild per-block reverse maps and valid counts from the
    // forward map, adopt device wear/retirement state, and close every
    // partially-programmed block (GC reclaims the tails).
    let now = device.now_days();
    let mut blocks: Vec<BlockInfo> = Vec::with_capacity(total_blocks as usize);
    for block in 0..total_blocks {
        let mode = device.block_mode(block)?;
        let usable = mode.usable_pages(geometry.pages_per_block);
        blocks.push(BlockInfo {
            lpns: vec![None; usable as usize],
            valid: 0,
            full: false,
            bad: device.is_bad(block)?,
            last_write_day: now,
        });
    }
    for (lpn, slot) in l2p.iter_mut().enumerate() {
        let Slot::Mapped(loc) = *slot else { continue };
        let block = (loc / ppb) as usize;
        let offset = (loc % ppb) as usize;
        let info = &mut blocks[block];
        if offset >= info.lpns.len() {
            // Defensive: a mapping past the block's current usable range
            // (mode changed under it) cannot be trusted.
            *slot = Slot::Unmapped;
            report.stale_dropped += 1;
            continue;
        }
        info.lpns[offset] = Some(lpn as u64);
        info.valid += 1;
    }
    let mut free: VecDeque<u64> = VecDeque::new();
    for block in 0..total_blocks {
        let info = &mut blocks[block as usize];
        if info.bad {
            continue;
        }
        if live_ckpt_blocks.contains(&block) {
            // The current checkpoint generation: neither free nor a GC
            // candidate until the next checkpoint supersedes it.
            continue;
        }
        match device.next_free_page(block)? {
            Some(0) => free.push_back(block),
            // Fully programmed, or partially programmed and closed
            // conservatively (this also covers stale checkpoint
            // generations, which GC now reclaims like any other garbage
            // block).
            _ => info.full = true,
        }
    }

    report.recovered_mappings = l2p.iter().filter(|s| matches!(s, Slot::Mapped(_))).count() as u64;
    report.lost_mappings = l2p.iter().filter(|s| matches!(s, Slot::Lost)).count() as u64;
    let checkpoint = report.used_checkpoint.then(|| {
        let mut blocks: Vec<u64> = live_ckpt_blocks.into_iter().collect();
        blocks.sort_unstable();
        CheckpointHandle { blocks, data_seq }
    });
    let rebuilt = Rebuilt {
        l2p,
        blocks,
        free,
        seq: max_seq + 1,
        checkpoint,
    };
    Ok((rebuilt, report))
}

/// Parses and validates a reassembled checkpoint payload. Returns the
/// data sequence floor, the L2P slots and the per-block write pointers.
fn parse_checkpoint(
    payload: &[u8],
    logical_pages: u64,
    total_blocks: u64,
) -> Option<(u64, Vec<Slot>, Vec<u32>)> {
    let need = CKPT_HEADER_BYTES
        + logical_pages as usize * CKPT_ENTRY_BYTES
        + total_blocks as usize * 4
        + 4;
    if payload.len() < need {
        return None;
    }
    let read_u64 = |at: usize| -> Option<u64> {
        let bytes: [u8; 8] = payload.get(at..at + 8)?.try_into().ok()?;
        Some(u64::from_le_bytes(bytes))
    };
    let read_u32 = |at: usize| -> Option<u32> {
        let bytes: [u8; 4] = payload.get(at..at + 4)?.try_into().ok()?;
        Some(u32::from_le_bytes(bytes))
    };
    if read_u64(0)? != CKPT_MAGIC || read_u32(8)? != CKPT_VERSION {
        return None;
    }
    let data_seq = read_u64(12)?;
    if read_u64(20)? != logical_pages || read_u64(28)? != total_blocks {
        return None;
    }
    if read_u32(need - 4)? != crc32(payload.get(..need - 4)?) {
        return None;
    }
    let mut slots = Vec::with_capacity(logical_pages as usize);
    let mut at = CKPT_HEADER_BYTES;
    for _ in 0..logical_pages {
        let tag = *payload.get(at)?;
        let loc = read_u64(at + 1)?;
        at += CKPT_ENTRY_BYTES;
        slots.push(match tag {
            1 => Slot::Mapped(loc),
            2 => Slot::Lost,
            _ => Slot::Unmapped,
        });
    }
    let mut next_pages = Vec::with_capacity(total_blocks as usize);
    for _ in 0..total_blocks {
        next_pages.push(read_u32(at)?);
        at += 4;
    }
    Some((data_seq, slots, next_pages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftl::Ftl;
    use sos_flash::{CellDensity, DeviceConfig, FaultAt, FaultKind, FaultPlan, ProgramMode};

    fn small_ftl() -> Ftl {
        Ftl::new(
            &DeviceConfig::tiny(CellDensity::Tlc),
            FtlConfig::conventional(ProgramMode::native(CellDensity::Tlc)),
        )
    }

    fn page_of(ftl: &Ftl, byte: u8) -> Vec<u8> {
        vec![byte; ftl.page_bytes()]
    }

    fn crash_and_recover(mut ftl: Ftl) -> (Ftl, RecoveryReport) {
        match ftl.recover() {
            Ok(report) => (ftl, report),
            Err(e) => panic!("recovery failed: {e}"),
        }
    }

    #[test]
    fn clean_shutdown_recovery_rebuilds_identical_l2p() {
        let mut ftl = small_ftl();
        for lpn in 0..200 {
            ftl.write(lpn, &page_of(&ftl, lpn as u8)).unwrap();
        }
        // Overwrites create duplicate copies the scan must resolve
        // latest-wins.
        for lpn in 0..100 {
            ftl.write(lpn, &page_of(&ftl, 0xAA)).unwrap();
        }
        let before = ftl.audit_snapshot();
        let (recovered, report) = crash_and_recover(ftl);
        let after = recovered.audit_snapshot();
        assert_eq!(before.l2p, after.l2p);
        assert!(!report.used_checkpoint);
        assert!(report.recovered_mappings == 200);
        assert!(report.torn_pages.is_empty());

        // Every preset (mode and ECC scheme) rebuilds the same map.
        for config in [
            FtlConfig::conventional(ProgramMode::native(CellDensity::Tlc)),
            FtlConfig::sos_sys(),
            FtlConfig::sos_spare(),
        ] {
            let mut ftl = Ftl::new(&DeviceConfig::tiny(config.mode.physical), config);
            for lpn in 0..64 {
                ftl.write(lpn, &page_of(&ftl, lpn as u8)).unwrap();
            }
            let before = ftl.audit_snapshot();
            let (recovered, _) = crash_and_recover(ftl);
            assert_eq!(before.l2p, recovered.audit_snapshot().l2p);
        }
    }

    #[test]
    fn recovered_data_reads_back() {
        let mut ftl = small_ftl();
        for lpn in 0..50 {
            ftl.write(lpn, &page_of(&ftl, lpn as u8)).unwrap();
        }
        let (mut recovered, _) = crash_and_recover(ftl);
        for lpn in 0..50 {
            assert_eq!(
                recovered.read(lpn).unwrap().data,
                vec![lpn as u8; recovered.page_bytes()],
                "lpn {lpn}"
            );
        }
        // And the recovered FTL keeps serving writes.
        for lpn in 0..50 {
            recovered.write(lpn, &page_of(&recovered, 0x77)).unwrap();
        }
        assert_eq!(recovered.read(10).unwrap().data, page_of(&recovered, 0x77));
    }

    #[test]
    fn torn_page_is_discarded_and_old_copy_survives() {
        let mut ftl = small_ftl();
        ftl.write(9, &page_of(&ftl, 0x01)).unwrap();
        // Cut power during the overwrite of LPN 9: the new copy tears.
        ftl.arm_fault(
            FaultPlan {
                kind: FaultKind::PowerCut,
                at: FaultAt::OpCount(1),
            },
            42,
        );
        let err = ftl.write(9, &page_of(&ftl, 0x02)).unwrap_err();
        assert!(matches!(err, FtlError::Device(FlashError::PowerLoss)));
        // Pre-crash RAM still maps the old copy (the map updates only
        // after a successful program).
        let before = ftl.audit_snapshot();
        let (mut recovered, report) = crash_and_recover(ftl);
        assert_eq!(report.torn_pages.len(), 1);
        let after = recovered.audit_snapshot();
        assert_eq!(before.l2p, after.l2p, "torn copy must not win");
        assert_eq!(recovered.read(9).unwrap().data, page_of(&recovered, 0x01));
        // The torn page is never addressable as valid data.
        let torn = report.torn_pages[0];
        assert!(
            !after
                .l2p
                .contains(&crate::audit::SlotSnapshot::Mapped(torn)),
            "torn page resurfaced in the L2P map"
        );
    }

    #[test]
    fn checkpoint_bounds_the_scan() {
        let build = |with_checkpoint: bool| {
            let mut ftl = small_ftl();
            let cap = ftl.logical_pages();
            for lpn in 0..cap {
                ftl.write(lpn, &page_of(&ftl, lpn as u8)).unwrap();
            }
            if with_checkpoint {
                ftl.checkpoint().unwrap();
            }
            // A little post-checkpoint work for the roll-forward.
            for lpn in 0..32 {
                ftl.write(lpn, &page_of(&ftl, 0xCC)).unwrap();
            }
            let before = ftl.audit_snapshot();
            let (recovered, report) = crash_and_recover(ftl);
            assert_eq!(before.l2p, recovered.audit_snapshot().l2p);
            report
        };
        let full = build(false);
        let bounded = build(true);
        assert!(!full.used_checkpoint);
        assert!(bounded.used_checkpoint);
        assert!(
            bounded.scanned_pages < full.scanned_pages,
            "checkpointed recovery must scan strictly fewer pages: {} vs {}",
            bounded.scanned_pages,
            full.scanned_pages
        );
        // One page-0 probe per block (64), read once and reused by the
        // checkpoint gather and the roll-forward, plus the pages past
        // page 0 of the checkpoint block and past each data block's
        // checkpointed write pointer (40).
        assert_eq!(bounded.scanned_pages, 104);
    }

    #[test]
    fn recovery_after_checkpoint_survives_block_churn() {
        let mut ftl = small_ftl();
        let cap = ftl.logical_pages();
        for lpn in 0..cap {
            ftl.write(lpn, &page_of(&ftl, lpn as u8)).unwrap();
        }
        ftl.checkpoint().unwrap();
        // Heavy overwrites force GC to erase and rewrite blocks the
        // checkpoint still references.
        let mut x = 7u64;
        for i in 0..2 * cap {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ftl.write(x % cap, &page_of(&ftl, i as u8)).unwrap();
        }
        assert!(ftl.stats().gc_runs > 0, "churn must trigger GC");
        let before = ftl.audit_snapshot();
        let (recovered, report) = crash_and_recover(ftl);
        assert!(report.used_checkpoint);
        assert_eq!(before.l2p, recovered.audit_snapshot().l2p);
    }

    #[test]
    fn crash_during_checkpoint_falls_back_cleanly() {
        let mut ftl = small_ftl();
        for lpn in 0..300 {
            ftl.write(lpn, &page_of(&ftl, lpn as u8)).unwrap();
        }
        ftl.checkpoint().unwrap();
        for lpn in 300..400 {
            ftl.write(lpn, &page_of(&ftl, lpn as u8)).unwrap();
        }
        // Tear the second checkpoint mid-write.
        ftl.arm_fault(
            FaultPlan {
                kind: FaultKind::PowerCut,
                at: FaultAt::OpCount(3),
            },
            7,
        );
        let before = ftl.audit_snapshot();
        let err = ftl.checkpoint().unwrap_err();
        assert!(matches!(err, FtlError::Device(FlashError::PowerLoss)));
        let (recovered, report) = crash_and_recover(ftl);
        // The old (complete) generation still validates and is used.
        assert!(report.used_checkpoint);
        assert_eq!(before.l2p, recovered.audit_snapshot().l2p);
    }

    #[test]
    fn power_cut_inside_recovery_leaves_it_retryable() {
        let crashed = || {
            let mut ftl = small_ftl();
            for lpn in 0..300 {
                ftl.write(lpn, &page_of(&ftl, lpn as u8)).unwrap();
            }
            ftl.checkpoint().unwrap();
            for lpn in 0..32 {
                ftl.write(lpn, &page_of(&ftl, 0xCC)).unwrap();
            }
            ftl.arm_fault(
                FaultPlan {
                    kind: FaultKind::PowerCut,
                    at: FaultAt::OpCount(1),
                },
                11,
            );
            let err = ftl.write(40, &page_of(&ftl, 0xDD)).unwrap_err();
            assert_eq!(err, FtlError::Device(FlashError::PowerLoss));
            ftl
        };
        let (reference, _) = crash_and_recover(crashed());

        // A second cut, due at once, fires at recovery's first injector-
        // visible operation: the read of a checkpoint page (OOB probes
        // do not pass through the injector).
        let mut ftl = crashed();
        ftl.arm_fault(
            FaultPlan {
                kind: FaultKind::PowerCut,
                at: FaultAt::OpCount(0),
            },
            11,
        );
        assert_eq!(
            ftl.recover().unwrap_err(),
            FtlError::Device(FlashError::PowerLoss)
        );
        let report = ftl.recover().unwrap();
        assert!(report.used_checkpoint);
        assert_eq!(reference.audit_snapshot().l2p, ftl.audit_snapshot().l2p);
    }

    #[test]
    fn trims_after_checkpoint_may_resurrect() {
        let mut ftl = small_ftl();
        ftl.write(5, &page_of(&ftl, 0x55)).unwrap();
        ftl.checkpoint().unwrap();
        ftl.trim(5).unwrap();
        let (recovered, _) = crash_and_recover(ftl);
        // Documented semantics: the trim was volatile, the stale copy
        // resurrects. The host layer re-trims unreferenced LPNs.
        assert!(recovered.is_mapped(5), "post-checkpoint trim is volatile");
    }
}
