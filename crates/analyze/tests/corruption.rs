//! Corruption-injection tests: each FTL/partition invariant is broken
//! in a snapshot copy and must produce *exactly* the expected
//! [`Violation`] — no more, no less. Clean snapshots must audit clean.
//!
//! Snapshots are plain data, so corrupting one never touches a live
//! FTL; the auditors cannot tell the difference, which is the point.

use proptest::prelude::*;
use sos_analyze::{
    CoreAuditorSet, EraseDisciplineAuditor, FtlAuditorSet, PlacementAuditor, StateAuditor,
    Violation,
};
use sos_core::{CoreState, ObjectStore, Partition, SosConfig, SosDevice};
use sos_flash::{CellDensity, DeviceConfig, ProgramMode};
use sos_ftl::{Ftl, FtlConfig, FtlError, FtlState, ReadResult, ScrubReport, SlotSnapshot};

/// An FTL wrapper that audits the complete state after every mutating
/// operation. Violations accumulate instead of panicking, so a test
/// decides how strictly to react.
struct AuditedFtl {
    ftl: Ftl,
    auditors: FtlAuditorSet,
    violations: Vec<Violation>,
}

impl AuditedFtl {
    /// Wraps an FTL, auditing its (clean) initial state.
    fn new(ftl: Ftl) -> Self {
        let mut audited = AuditedFtl {
            ftl,
            auditors: FtlAuditorSet::new(),
            violations: Vec::new(),
        };
        audited.check();
        audited
    }

    fn check(&mut self) {
        let state = self.ftl.audit_snapshot();
        self.violations.extend(self.auditors.audit(&state));
    }

    fn inner(&self) -> &Ftl {
        &self.ftl
    }

    /// Drains the violations collected so far.
    fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    fn write(&mut self, lpn: u64, data: &[u8]) -> Result<f64, FtlError> {
        let result = self.ftl.write(lpn, data);
        self.check();
        result
    }

    /// Reads mutate statistics and can surface lost data, so they are
    /// audited too.
    fn read(&mut self, lpn: u64) -> Result<ReadResult, FtlError> {
        let result = self.ftl.read(lpn);
        self.check();
        result
    }

    fn trim(&mut self, lpn: u64) -> Result<(), FtlError> {
        let result = self.ftl.trim(lpn);
        self.check();
        result
    }

    fn scrub(&mut self) -> Result<ScrubReport, FtlError> {
        let result = self.ftl.scrub();
        self.check();
        result
    }

    /// No audit needed: time alone moves no mapping state, only the
    /// error clock.
    fn advance_days(&mut self, days: f64) {
        self.ftl.advance_days(days);
    }
}

fn populated_ftl() -> Ftl {
    let mut ftl = Ftl::new(
        &DeviceConfig::tiny(CellDensity::Tlc),
        FtlConfig::conventional(ProgramMode::native(CellDensity::Tlc)),
    );
    let page = vec![0xA5; ftl.page_bytes()];
    for lpn in 0..16 {
        ftl.write(lpn, &page).expect("write");
    }
    // Overwrites create invalidated-but-programmed pages; a trim leaves
    // an unmapped LPN behind.
    for lpn in 0..4 {
        ftl.write(lpn, &page).expect("overwrite");
    }
    ftl.trim(5).expect("trim");
    ftl
}

fn populated_device() -> SosDevice {
    let mut device = SosDevice::new(&SosConfig::tiny(9));
    for id in 0..5u64 {
        device
            .put(id, &vec![id as u8 + 1; 4096], Partition::Sys)
            .expect("sys put");
    }
    for id in 10..13u64 {
        device
            .put(id, &vec![id as u8; 2048], Partition::Spare)
            .expect("spare put");
    }
    device
}

/// A flat physical page index that is certainly unprogrammed: page 0 of
/// an erased block from the free pool.
fn unprogrammed_location(state: &FtlState) -> u64 {
    let block = state
        .free
        .iter()
        .copied()
        .find(|&b| state.device[b as usize].next_page == 0)
        .expect("an erased free block exists");
    state.flat_page(block, 0)
}

#[test]
fn clean_ftl_snapshot_audits_clean() {
    let ftl = populated_ftl();
    let mut auditors = FtlAuditorSet::new();
    // Twice, so the stateful auditors (wear, conservation) also see a
    // clean history step.
    assert_eq!(auditors.audit(&ftl.audit_snapshot()), vec![]);
    assert_eq!(auditors.audit(&ftl.audit_snapshot()), vec![]);
}

#[test]
fn stale_l2p_entry_is_detected() {
    let ftl = populated_ftl();
    let mut state = ftl.audit_snapshot();
    let location = unprogrammed_location(&state);
    // LPN 5 was trimmed; resurrect it pointing at an erased page.
    state.l2p[5] = SlotSnapshot::Mapped(location);
    let violations = FtlAuditorSet::new().audit(&state);
    assert_eq!(
        violations,
        vec![Violation::MappedPageNotProgrammed { lpn: 5, location }]
    );
}

#[test]
fn duplicate_mapping_is_detected() {
    let ftl = populated_ftl();
    let mut state = ftl.audit_snapshot();
    let SlotSnapshot::Mapped(location) = state.l2p[6] else {
        panic!("LPN 6 is mapped");
    };
    state.l2p[7] = SlotSnapshot::Mapped(location);
    let violations = FtlAuditorSet::new().audit(&state);
    assert_eq!(
        violations,
        vec![Violation::DuplicateMapping {
            lpn_a: 6,
            lpn_b: 7,
            location
        }]
    );
}

#[test]
fn reverse_map_mismatch_is_detected() {
    let ftl = populated_ftl();
    let mut state = ftl.audit_snapshot();
    let SlotSnapshot::Mapped(location) = state.l2p[8] else {
        panic!("LPN 8 is mapped");
    };
    let (block, offset) = state.split_page(location);
    // The reverse map claims a different owner.
    state.blocks[block as usize].lpns[offset as usize] = Some(9999);
    let violations = FtlAuditorSet::new().audit(&state);
    assert_eq!(
        violations,
        vec![Violation::ReverseMapMismatch {
            block,
            offset,
            forward: Some(8),
            reverse: Some(9999),
        }]
    );
}

#[test]
fn valid_count_skew_is_detected() {
    let ftl = populated_ftl();
    let mut state = ftl.audit_snapshot();
    let SlotSnapshot::Mapped(location) = state.l2p[0] else {
        panic!("LPN 0 is mapped");
    };
    let (block, _) = state.split_page(location);
    let recorded = state.blocks[block as usize].valid + 1;
    state.blocks[block as usize].valid = recorded;
    let violations = FtlAuditorSet::new().audit(&state);
    assert_eq!(
        violations,
        vec![Violation::ValidCountMismatch {
            block,
            recorded,
            actual: recorded - 1,
        }]
    );
}

#[test]
fn double_program_is_detected() {
    let ftl = populated_ftl();
    let mut state = ftl.audit_snapshot();
    // An erased free block suddenly holds a programmed page at (and so
    // beyond) its write pointer: a program without an erase.
    let (block, _) = state.split_page(unprogrammed_location(&state));
    state.device[block as usize].programmed.push(0);
    let violations = FtlAuditorSet::new().audit(&state);
    assert_eq!(
        violations,
        vec![Violation::ProgramBeyondWritePointer {
            block,
            page: 0,
            next_page: 0,
        }]
    );
}

#[test]
fn programmed_prefix_hole_is_detected() {
    let ftl = populated_ftl();
    let mut state = ftl.audit_snapshot();
    // Find a programmed page that no LPN owns (an invalidated old
    // version), so removing it trips only the discipline auditor.
    let (block, page) = state
        .device
        .iter()
        .find_map(|snapshot| {
            let map = &state.blocks[snapshot.block as usize];
            snapshot
                .programmed
                .iter()
                .copied()
                .find(|&p| map.lpns.get(p as usize).is_some_and(|slot| slot.is_none()))
                .map(|p| (snapshot.block, p))
        })
        .expect("an invalidated programmed page exists");
    state.device[block as usize]
        .programmed
        .retain(|&p| p != page);
    let violations = EraseDisciplineAuditor.audit(&state);
    assert_eq!(
        violations,
        vec![Violation::ProgrammedPrefixHole { block, page }]
    );
}

#[test]
fn wear_rollback_is_detected() {
    let ftl = populated_ftl();
    let mut auditors = FtlAuditorSet::new();
    // A lightly-worn baseline (a fresh device has all-zero PEC, which
    // cannot roll back further).
    let mut worn = ftl.audit_snapshot();
    worn.device[2].pec = 5;
    assert_eq!(auditors.audit(&worn), vec![]);
    // Between snapshots, the block's PEC travels backwards.
    let mut corrupted = worn.clone();
    corrupted.device[2].pec = 4;
    let violations = auditors.audit(&corrupted);
    assert_eq!(
        violations,
        vec![Violation::WearRollback {
            block: 2,
            previous: 5,
            current: 4,
        }]
    );
}

#[test]
fn retired_block_revival_is_detected() {
    let ftl = populated_ftl();
    let mut auditors = FtlAuditorSet::new();
    let mut retired = ftl.audit_snapshot();
    retired.device[0].bad = true;
    assert_eq!(auditors.audit(&retired), vec![]);
    let mut revived = retired.clone();
    revived.device[0].bad = false;
    assert_eq!(
        auditors.audit(&revived),
        vec![Violation::RetiredBlockRevived { block: 0 }]
    );
}

#[test]
fn gc_conservation_breach_is_detected() {
    let ftl = populated_ftl();
    let mut auditors = FtlAuditorSet::new();
    let clean = ftl.audit_snapshot();
    assert_eq!(auditors.audit(&clean), vec![]);
    let before = clean.mapped_pages() + clean.lost_pages();
    // A mapped page vanishes without a trim being recorded — the
    // signature of a GC bug that drops live data.
    let mut corrupted = clean.clone();
    corrupted.l2p[3] = SlotSnapshot::Unmapped;
    let violations = auditors.audit(&corrupted);
    assert_eq!(
        violations,
        vec![Violation::LiveDataShrank {
            before,
            after: before - 1,
            trims: 0,
        }]
    );
}

#[test]
fn clean_device_snapshot_audits_clean() {
    let device = populated_device();
    let mut auditors = CoreAuditorSet::new();
    assert_eq!(auditors.audit(&device.audit_snapshot()), vec![]);
    assert_eq!(auditors.audit(&device.audit_snapshot()), vec![]);
}

#[test]
fn sys_on_native_plc_is_detected() {
    let device = populated_device();
    let mut state = device.audit_snapshot();
    // The SYS partition silently runs native PLC instead of pseudo-QLC:
    // durable data on the least durable cells.
    state.sys.mode = ProgramMode::native(CellDensity::Plc);
    let violations = PlacementAuditor.audit(&state);
    assert_eq!(violations.len(), 1);
    assert!(matches!(
        &violations[0],
        Violation::PartitionModeMismatch {
            partition: "sys",
            ..
        }
    ));
}

#[test]
fn sys_object_in_parity_range_is_detected() {
    let device = populated_device();
    let mut state = device.audit_snapshot();
    let parity_base = state.parity_base;
    state.objects[0].lpns[0] = parity_base;
    let violations = PlacementAuditor.audit(&state);
    assert_eq!(
        violations,
        vec![Violation::SysObjectInParityRange {
            id: state.objects[0].id,
            lpn: parity_base,
            parity_base,
        }]
    );
}

/// The stripe of a live SYS data page, and its parity LPN.
fn live_sys_stripe(state: &CoreState) -> (u64, u64) {
    let lpn = state
        .objects
        .iter()
        .filter(|object| object.partition == Partition::Sys)
        .flat_map(|object| object.lpns.iter().copied())
        .find(|&lpn| matches!(state.sys.l2p[lpn as usize], SlotSnapshot::Mapped(_)))
        .expect("a live SYS page exists");
    let stripe = lpn / state.stripe_width;
    (stripe, state.parity_base + stripe)
}

#[test]
fn missing_stripe_parity_is_detected() {
    let mut device = populated_device();
    // The checkpoint flushes every stripe's parity to flash.
    device.checkpoint().expect("checkpoint");
    let mut state = device.audit_snapshot();
    assert!(state.ram_parity.is_empty(), "{:?}", state.ram_parity);
    // Pick a live SYS data page and erase its stripe's parity mapping.
    let (stripe, parity_lpn) = live_sys_stripe(&state);
    state.sys.l2p[parity_lpn as usize] = SlotSnapshot::Unmapped;
    let violations = PlacementAuditor.audit(&state);
    assert_eq!(
        violations,
        vec![Violation::SysParityMissing { stripe, parity_lpn }]
    );
}

#[test]
fn stripe_neither_mapped_nor_in_ram_is_detected() {
    // Before any flush every written stripe's parity lives in RAM only:
    // the snapshot audits clean although no parity page is mapped.
    let device = populated_device();
    let mut state = device.audit_snapshot();
    let (stripe, parity_lpn) = live_sys_stripe(&state);
    assert!(!matches!(
        state.sys.l2p[parity_lpn as usize],
        SlotSnapshot::Mapped(_)
    ));
    assert!(state.ram_parity.contains(&stripe));
    assert_eq!(PlacementAuditor.audit(&state), vec![]);
    // Drop the stripe from the RAM set: nothing covers it any more.
    state.ram_parity.remove(&stripe);
    let violations = PlacementAuditor.audit(&state);
    assert_eq!(
        violations,
        vec![Violation::SysParityMissing { stripe, parity_lpn }]
    );
}

#[test]
fn audited_ftl_wrapper_stays_clean_through_scrub() {
    let ftl = Ftl::new(
        &DeviceConfig::tiny(CellDensity::Tlc),
        FtlConfig::conventional(ProgramMode::native(CellDensity::Tlc)),
    );
    let mut audited = AuditedFtl::new(ftl);
    let page = vec![0x5A; audited.inner().page_bytes()];
    for lpn in 0..24 {
        audited.write(lpn, &page).expect("write");
    }
    for lpn in 0..24 {
        audited.read(lpn).expect("read");
    }
    for lpn in (0..24).step_by(3) {
        audited.trim(lpn).expect("trim");
    }
    audited.advance_days(30.0);
    audited.scrub().expect("scrub");
    assert_eq!(audited.take_violations(), vec![]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary write/overwrite/trim interleavings never trip an
    /// auditor on a healthy FTL — the per-operation audit hook holds.
    #[test]
    fn audited_ftl_clean_under_arbitrary_ops(
        ops in proptest::collection::vec((0u8..3, 0u64..32), 1..80),
    ) {
        let ftl = Ftl::new(
            &DeviceConfig::tiny(CellDensity::Tlc),
            FtlConfig::conventional(ProgramMode::native(CellDensity::Tlc)),
        );
        let mut audited = AuditedFtl::new(ftl);
        let page = vec![0xC3; audited.inner().page_bytes()];
        for (op, lpn) in ops {
            match op {
                0 | 1 => {
                    let _ = audited.write(lpn, &page);
                }
                _ => {
                    let _ = audited.trim(lpn);
                }
            }
        }
        prop_assert_eq!(audited.take_violations(), vec![]);
    }

    /// A stale mapping injected at any LPN is always caught, and the
    /// report names that exact LPN.
    #[test]
    fn stale_mapping_detected_at_any_lpn(lpn in 0u64..16) {
        let ftl = populated_ftl();
        let mut state = ftl.audit_snapshot();
        let location = unprogrammed_location(&state);
        state.l2p[lpn as usize] = SlotSnapshot::Mapped(location);
        let violations = FtlAuditorSet::new().audit(&state);
        prop_assert_eq!(
            violations,
            vec![Violation::MappedPageNotProgrammed { lpn, location }]
        );
    }
}
