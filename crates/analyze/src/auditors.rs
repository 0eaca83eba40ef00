//! Concrete invariant auditors over FTL and SOS-device snapshots.
//!
//! Each auditor checks one invariant family and returns structured
//! [`Violation`]s. The within-snapshot auditors are stateless; wear
//! monotonicity and GC conservation compare successive snapshots and
//! therefore keep history between calls.

use crate::{StateAuditor, Violation};
use sos_core::CoreState;
use sos_core::Partition;
use sos_flash::CellDensity;
use sos_ftl::{FtlState, SlotSnapshot};
use std::collections::{HashMap, HashSet};

/// Checks that the L2P map is injective and consistent: every mapped
/// LPN points to a distinct, in-range, *programmed* physical page, and
/// the owning block's reverse map points back at the same LPN.
#[derive(Debug, Default)]
pub struct L2pInjectivityAuditor;

impl StateAuditor<FtlState> for L2pInjectivityAuditor {
    // sos-lint: allow(panic-path, "snapshot vectors are sized from the same geometry the offsets were derived from")
    fn audit(&mut self, state: &FtlState) -> Vec<Violation> {
        let mut violations = Vec::new();
        let mut owners: HashMap<u64, u64> = HashMap::new();
        for (lpn, slot) in state.l2p.iter().enumerate() {
            let lpn = lpn as u64;
            let SlotSnapshot::Mapped(location) = *slot else {
                continue;
            };
            if let Some(&other) = owners.get(&location) {
                violations.push(Violation::DuplicateMapping {
                    lpn_a: other,
                    lpn_b: lpn,
                    location,
                });
                continue;
            }
            owners.insert(location, lpn);
            let (block, offset) = state.split_page(location);
            let Some(map) = state.blocks.get(block as usize) else {
                violations.push(Violation::MappingOutOfRange { lpn, location });
                continue;
            };
            if offset as usize >= map.lpns.len() {
                violations.push(Violation::MappingOutOfRange { lpn, location });
                continue;
            }
            // The device must actually hold data at the mapped page; a
            // mapping into an erased page is stale. Report only the most
            // specific violation per LPN.
            let programmed = state
                .device
                .get(block as usize)
                .is_some_and(|snapshot| snapshot.programmed.binary_search(&offset).is_ok());
            if !programmed {
                violations.push(Violation::MappedPageNotProgrammed { lpn, location });
                continue;
            }
            let reverse = map.lpns[offset as usize];
            if reverse != Some(lpn) {
                violations.push(Violation::ReverseMapMismatch {
                    block,
                    offset,
                    forward: Some(lpn),
                    reverse,
                });
            }
        }
        violations
    }
}

/// Checks that every block's cached valid-page count equals the number
/// of LPNs its reverse map actually holds.
#[derive(Debug, Default)]
pub struct ValidCountAuditor;

impl StateAuditor<FtlState> for ValidCountAuditor {
    fn audit(&mut self, state: &FtlState) -> Vec<Violation> {
        let mut violations = Vec::new();
        for (block, map) in state.blocks.iter().enumerate() {
            let actual = map.lpns.iter().filter(|slot| slot.is_some()).count() as u32;
            if actual != map.valid {
                violations.push(Violation::ValidCountMismatch {
                    block: block as u64,
                    recorded: map.valid,
                    actual,
                });
            }
        }
        violations
    }
}

/// Checks NAND program discipline from the device's own bookkeeping:
/// within each block, the programmed pages are exactly the prefix
/// `[0, next_page)` — no holes (missed erase accounting) and no pages
/// at or past the write pointer (double program) — and the write
/// pointer never exceeds the block's usable pages.
#[derive(Debug, Default)]
pub struct EraseDisciplineAuditor;

impl StateAuditor<FtlState> for EraseDisciplineAuditor {
    fn audit(&mut self, state: &FtlState) -> Vec<Violation> {
        let mut violations = Vec::new();
        for snapshot in &state.device {
            if snapshot.next_page > snapshot.usable_pages {
                violations.push(Violation::WritePointerOverflow {
                    block: snapshot.block,
                    next_page: snapshot.next_page,
                    usable: snapshot.usable_pages,
                });
            }
            let programmed_pages: HashSet<u32> = snapshot.programmed.iter().copied().collect();
            for page in 0..snapshot.next_page {
                if !programmed_pages.contains(&page) {
                    violations.push(Violation::ProgrammedPrefixHole {
                        block: snapshot.block,
                        page,
                    });
                }
            }
            for &page in &snapshot.programmed {
                if page >= snapshot.next_page {
                    violations.push(Violation::ProgramBeyondWritePointer {
                        block: snapshot.block,
                        page,
                        next_page: snapshot.next_page,
                    });
                }
            }
        }
        violations
    }
}

/// Checks that wear only accumulates: per-block program/erase counts
/// never decrease between snapshots, and retired blocks stay retired.
#[derive(Debug, Default)]
pub struct WearMonotonicityAuditor {
    last: Option<Vec<(u32, bool)>>,
}

impl StateAuditor<FtlState> for WearMonotonicityAuditor {
    fn audit(&mut self, state: &FtlState) -> Vec<Violation> {
        let mut violations = Vec::new();
        let current: Vec<(u32, bool)> = state
            .device
            .iter()
            .map(|snapshot| (snapshot.pec, snapshot.bad))
            .collect();
        if let Some(previous) = &self.last {
            for (block, (&(prev_pec, prev_bad), &(pec, bad))) in
                previous.iter().zip(&current).enumerate()
            {
                if pec < prev_pec {
                    violations.push(Violation::WearRollback {
                        block: block as u64,
                        previous: prev_pec,
                        current: pec,
                    });
                }
                if prev_bad && !bad {
                    violations.push(Violation::RetiredBlockRevived {
                        block: block as u64,
                    });
                }
            }
        }
        self.last = Some(current);
        violations
    }
}

/// Checks that garbage collection conserves live data: between
/// snapshots, the count of mapped + lost logical pages may only drop by
/// as much as the host trimmed.
#[derive(Debug, Default)]
pub struct GcConservationAuditor {
    last: Option<(u64, u64)>,
}

impl StateAuditor<FtlState> for GcConservationAuditor {
    fn audit(&mut self, state: &FtlState) -> Vec<Violation> {
        let mut violations = Vec::new();
        let live = state.mapped_pages() + state.lost_pages();
        let trims = state.stats.trims;
        if let Some((prev_live, prev_trims)) = self.last {
            let trimmed = trims.saturating_sub(prev_trims);
            if live + trimmed < prev_live {
                violations.push(Violation::LiveDataShrank {
                    before: prev_live,
                    after: live,
                    trims: trimmed,
                });
            }
        }
        self.last = Some((live, trims));
        violations
    }
}

/// All FTL-level auditors bundled for one partition.
#[derive(Debug, Default)]
pub struct FtlAuditorSet {
    injectivity: L2pInjectivityAuditor,
    valid_count: ValidCountAuditor,
    erase: EraseDisciplineAuditor,
    wear: WearMonotonicityAuditor,
    conservation: GcConservationAuditor,
}

impl FtlAuditorSet {
    /// A fresh set with no snapshot history.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StateAuditor<FtlState> for FtlAuditorSet {
    fn audit(&mut self, state: &FtlState) -> Vec<Violation> {
        let mut violations = self.injectivity.audit(state);
        violations.extend(self.valid_count.audit(state));
        violations.extend(self.erase.audit(state));
        violations.extend(self.wear.audit(state));
        violations.extend(self.conservation.audit(state));
        violations
    }
}

/// Checks the SOS partition rules (§4.2/§4.4): the SYS partition runs
/// pseudo-QLC with every live data stripe covered by parity (on flash
/// or, written back since the last flush, in controller RAM), objects
/// never sit in the reserved parity range, and the SPARE partition sits
/// on physical PLC (possibly resuscitated to a lower pseudo-density).
#[derive(Debug, Default)]
pub struct PlacementAuditor;

impl StateAuditor<CoreState> for PlacementAuditor {
    // sos-lint: allow(panic-path, "lpns are filtered against the snapshot's l2p length before use and stripe_width is validated nonzero at mount")
    fn audit(&mut self, state: &CoreState) -> Vec<Violation> {
        let mut violations = Vec::new();
        let sys_mode = state.sys.mode;
        if sys_mode.logical != CellDensity::Qlc
            || sys_mode.physical.bits_per_cell() <= sys_mode.logical.bits_per_cell()
        {
            violations.push(Violation::PartitionModeMismatch {
                partition: "sys",
                detail: format!("expected pseudo-QLC, found {sys_mode:?}"),
            });
        }
        let spare_mode = state.spare.mode;
        if spare_mode.physical != CellDensity::Plc {
            violations.push(Violation::PartitionModeMismatch {
                partition: "spare",
                detail: format!("expected physical PLC cells, found {spare_mode:?}"),
            });
        }
        // Resuscitation may step individual SPARE blocks down the
        // density ladder, but never up past the physical density.
        for snapshot in &state.spare.device {
            if snapshot.mode.logical.bits_per_cell() > snapshot.mode.physical.bits_per_cell() {
                violations.push(Violation::PartitionModeMismatch {
                    partition: "spare",
                    detail: format!(
                        "block {} over-programmed: {:?}",
                        snapshot.block, snapshot.mode
                    ),
                });
            }
        }
        let mut parity_checked: HashSet<u64> = HashSet::new();
        for object in &state.objects {
            match object.partition {
                Partition::Sys => {
                    for &lpn in &object.lpns {
                        if lpn >= state.sys.logical_pages {
                            violations.push(Violation::ObjectLpnOutOfRange {
                                id: object.id,
                                lpn,
                                capacity: state.sys.logical_pages,
                            });
                            continue;
                        }
                        if lpn >= state.parity_base {
                            violations.push(Violation::SysObjectInParityRange {
                                id: object.id,
                                lpn,
                                parity_base: state.parity_base,
                            });
                            continue;
                        }
                        // Parity coverage: every stripe with live data
                        // must have a mapped parity page, or its parity
                        // in controller RAM (written back since the last
                        // flush).
                        if !matches!(state.sys.l2p[lpn as usize], SlotSnapshot::Mapped(_)) {
                            continue;
                        }
                        let stripe = lpn / state.stripe_width;
                        if !parity_checked.insert(stripe) {
                            continue;
                        }
                        let parity_lpn = state.parity_base + stripe;
                        let covered = state.ram_parity.contains(&stripe)
                            || state
                                .sys
                                .l2p
                                .get(parity_lpn as usize)
                                .is_some_and(|slot| matches!(slot, SlotSnapshot::Mapped(_)));
                        if !covered {
                            violations.push(Violation::SysParityMissing { stripe, parity_lpn });
                        }
                    }
                }
                Partition::Spare => {
                    for &lpn in &object.lpns {
                        if lpn >= state.spare.logical_pages {
                            violations.push(Violation::ObjectLpnOutOfRange {
                                id: object.id,
                                lpn,
                                capacity: state.spare.logical_pages,
                            });
                        }
                    }
                }
            }
        }
        violations
    }
}
