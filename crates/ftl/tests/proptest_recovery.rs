//! Property-based crash-recovery tests: for random workloads crashed at
//! a random operation, the OOB rebuild must produce an L2P map identical
//! to replaying the write log up to the last durable page.

use proptest::prelude::*;
use sos_flash::{
    CellDensity, DeviceConfig, FaultAt, FaultKind, FaultPlan, FlashError, ProgramMode,
};
use sos_ftl::{Ftl, FtlConfig, FtlError, SlotSnapshot};
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone)]
enum Op {
    Write { lpn: u16, byte: u8 },
    Trim { lpn: u16 },
    Checkpoint,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Writes dominate so overwrites build up GC pressure; LPNs are
        // drawn from a small window to force duplicate copies on flash.
        (0u16..96, any::<u8>()).prop_map(|(lpn, byte)| Op::Write { lpn, byte }),
        (0u16..96, any::<u8>()).prop_map(|(lpn, byte)| Op::Write { lpn, byte }),
        (0u16..96, any::<u8>()).prop_map(|(lpn, byte)| Op::Write { lpn, byte }),
        (0u16..96).prop_map(|lpn| Op::Trim { lpn }),
        Just(Op::Checkpoint),
    ]
}

fn small_ftl() -> Ftl {
    Ftl::new(
        &DeviceConfig::tiny(CellDensity::Tlc),
        FtlConfig::conventional(ProgramMode::native(CellDensity::Tlc)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Run a random mix of writes, overwrites, trims and checkpoints,
    /// cut power at a random device operation, recover, and compare
    /// against the write log replayed up to the last durable page:
    ///
    /// * every LPN whose latest durable write survives must read back
    ///   that exact payload;
    /// * the rebuilt map must equal the pre-crash map, except that an
    ///   LPN trimmed after the last checkpoint may legitimately
    ///   resurrect (trims are volatile until checkpointed — the host
    ///   re-trims at remount);
    /// * no torn page may ever resurface as mapped data.
    #[test]
    fn rebuilt_l2p_matches_replayed_write_log(
        ops in proptest::collection::vec(op_strategy(), 20..120),
        crash_op in 1u64..4000,
        seed in any::<u64>(),
    ) {
        let mut ftl = small_ftl();
        ftl.arm_fault(
            FaultPlan { kind: FaultKind::PowerCut, at: FaultAt::OpCount(crash_op) },
            seed,
        );
        // Replay model: last durable payload byte per LPN.
        let mut model: HashMap<u64, u8> = HashMap::new();
        let mut trimmed_since_ckpt: HashSet<u64> = HashSet::new();
        let mut crashed = false;
        for op in ops {
            let result = match op {
                Op::Write { lpn, byte } => {
                    let lpn = lpn as u64;
                    match ftl.write(lpn, &vec![byte; ftl.page_bytes()]) {
                        Ok(_) => {
                            model.insert(lpn, byte);
                            trimmed_since_ckpt.remove(&lpn);
                            Ok(())
                        }
                        Err(e) => Err(e),
                    }
                }
                Op::Trim { lpn } => {
                    let lpn = lpn as u64;
                    match ftl.trim(lpn) {
                        Ok(()) => {
                            model.remove(&lpn);
                            trimmed_since_ckpt.insert(lpn);
                            Ok(())
                        }
                        Err(e) => Err(e),
                    }
                }
                Op::Checkpoint => match ftl.checkpoint() {
                    Ok(()) => {
                        trimmed_since_ckpt.clear();
                        Ok(())
                    }
                    Err(e) => Err(e),
                },
            };
            match result {
                Ok(()) => {}
                Err(FtlError::Device(FlashError::PowerLoss)) => {
                    crashed = true;
                    break;
                }
                Err(e) => return Err(TestCaseError::fail(format!("workload error: {e}"))),
            }
        }
        // The failed operation updated no mapping, so the pre-crash RAM
        // map *is* the write log replayed up to the last durable page.
        let before = ftl.audit_snapshot();
        let report = match ftl.recover() {
            Ok(report) => report,
            Err(e) => return Err(TestCaseError::fail(format!("recovery failed: {e}"))),
        };
        let after = ftl.audit_snapshot();

        prop_assert_eq!(before.l2p.len(), after.l2p.len());
        for (lpn, (pre, post)) in before.l2p.iter().zip(after.l2p.iter()).enumerate() {
            if trimmed_since_ckpt.contains(&(lpn as u64)) {
                // Volatile trim: the stale copy may resurrect; anything
                // else it could be is its pre-crash state.
                continue;
            }
            prop_assert_eq!(
                pre, post,
                "lpn {} diverged (crashed={}, used_checkpoint={})",
                lpn, crashed, report.used_checkpoint
            );
        }

        // Torn pages must never resurface as valid mapped data.
        for &torn in &report.torn_pages {
            prop_assert!(
                !after.l2p.contains(&SlotSnapshot::Mapped(torn)),
                "torn page {} resurfaced in the rebuilt map",
                torn
            );
        }

        // Latest durable payload survives the rebuild byte-for-byte.
        for (&lpn, &byte) in &model {
            match ftl.read(lpn) {
                Ok(result) => {
                    prop_assert_eq!(
                        &result.data,
                        &vec![byte; result.data.len()],
                        "lpn {} payload diverged",
                        lpn
                    );
                }
                Err(e) => {
                    return Err(TestCaseError::fail(format!(
                        "durable lpn {lpn} unreadable after recovery: {e}"
                    )));
                }
            }
        }
    }
}
