//! Property-based placement-API tests: reclaim units left open by a
//! power cut must come back closed and writable after recovery.

use proptest::prelude::*;
use sos_flash::{
    CellDensity, DeviceConfig, FaultAt, FaultKind, FaultPlan, FlashError, ProgramMode,
};
use sos_ftl::{Ftl, FtlConfig, FtlError, PlacementHandle};

fn small_ftl() -> Ftl {
    Ftl::new(
        &DeviceConfig::tiny(CellDensity::Tlc),
        FtlConfig::conventional(ProgramMode::native(CellDensity::Tlc)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Open several reclaim units (one per handle), cut power
    /// mid-append, recover. Units open at the crash must come back
    /// closed (the recovered FTL reports no open units), every mapped
    /// page must read without panicking, and placed appends must work
    /// again — reopening fresh units.
    #[test]
    fn reclaim_units_recover_closed_and_writable(
        crash_op in 60u64..900,
        seed in any::<u64>(),
    ) {
        let handles = [
            PlacementHandle::DEFAULT,
            PlacementHandle::COLD,
            PlacementHandle::SPARE_HOT,
            PlacementHandle::SPARE_COLD,
        ];
        let mut ftl = small_ftl();
        let page_bytes = ftl.page_bytes();
        // Open a unit on every handle before arming the fault.
        for (index, &handle) in handles.iter().enumerate() {
            match ftl.write_placed(index as u64, &vec![0xA0; page_bytes], handle) {
                Ok(_) => {}
                Err(e) => return Err(TestCaseError::fail(format!("warm-up write: {e}"))),
            }
        }
        prop_assert_eq!(ftl.audit_snapshot().open.len(), handles.len());

        ftl.arm_fault(
            FaultPlan { kind: FaultKind::PowerCut, at: FaultAt::OpCount(crash_op) },
            seed,
        );
        let mut crashed = false;
        'outer: for round in 0u64..2000 {
            for (index, &handle) in handles.iter().enumerate() {
                let lpn = (round * handles.len() as u64 + index as u64) % 96;
                match ftl.write_placed(lpn, &vec![round as u8; page_bytes], handle) {
                    Ok(_) => {}
                    Err(FtlError::Device(FlashError::PowerLoss)) => {
                        crashed = true;
                        break 'outer;
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("workload error: {e}"))),
                }
            }
        }
        prop_assert!(crashed, "armed power cut never fired");

        if let Err(e) = ftl.recover() {
            return Err(TestCaseError::fail(format!("recovery failed: {e}")));
        }
        // Units open at the crash come back closed: the rebuilt FTL has
        // no open reclaim units until the host writes again.
        let snapshot = ftl.audit_snapshot();
        prop_assert!(
            snapshot.open.is_empty(),
            "open units survived recovery: {:?}",
            snapshot.open
        );
        // The rebuilt L2P must be internally consistent: every mapped
        // page reads back (possibly degraded, never a panic or a
        // mapping to thin air).
        for (lpn, slot) in snapshot.l2p.iter().enumerate() {
            if matches!(slot, sos_ftl::SlotSnapshot::Mapped(_)) {
                match ftl.read(lpn as u64) {
                    Ok(_) | Err(FtlError::DataLost(_)) => {}
                    Err(e) => {
                        return Err(TestCaseError::fail(format!(
                            "mapped lpn {lpn} unreadable after recovery: {e}"
                        )));
                    }
                }
            }
        }
        // Placed appends work again and reopen units.
        for (index, &handle) in handles.iter().enumerate() {
            match ftl.write_placed(index as u64, &vec![0xB0; page_bytes], handle) {
                Ok(_) => {}
                Err(e) => return Err(TestCaseError::fail(format!("post-recovery write: {e}"))),
            }
        }
        prop_assert_eq!(ftl.audit_snapshot().open.len(), handles.len());
    }
}
