//! A SYS partition that runs out of physical space part-way through an
//! operation must leave the device consistent: a write that reports
//! `NoSpace` leaves nothing allocated or mapped, pages go back to the
//! pool only once no object holds them, and the device audits clean.

use sos_analyze::CoreAuditorSet;
use sos_core::{ObjectError, ObjectStore, Partition, SosConfig, SosDevice};
use sos_flash::{FaultAt, FaultKind, FaultPlan};
use std::collections::{BTreeMap, BTreeSet};

fn payload(id: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| (id * 31 + i as u64 % 251) as u8).collect()
}

fn sys_host_writes(device: &SosDevice) -> u64 {
    device.partition(Partition::Sys).ftl.stats().host_writes
}

/// Checks the audit, the directory and the pool, and reads every object
/// back.
fn assert_consistent(device: &mut SosDevice, expected: &BTreeMap<u64, Vec<u8>>) {
    let snapshot = device.audit_snapshot();
    let findings = CoreAuditorSet::new().audit(&snapshot);
    assert!(findings.is_empty(), "audit findings: {findings:?}");
    let mut held = BTreeSet::new();
    for object in &snapshot.objects {
        for &lpn in &object.lpns {
            assert!(held.insert(lpn), "LPN {lpn} held by two objects");
        }
    }
    assert_eq!(
        device.partition(Partition::Sys).pool.allocated(),
        held.len() as u64,
        "pool allocations must match the pages objects hold"
    );
    for (&id, bytes) in expected {
        assert_eq!(
            &device.get(id).expect("readable").bytes,
            bytes,
            "object {id}"
        );
    }
}

/// Shrinks the SYS partition by `retired` blocks without telling the
/// pool (maintenance never runs), then puts `pages`-page objects until
/// one fails. Returns whether that put failed on a parity write, i.e.
/// after all its data pages were written.
fn fill_shrunken_sys(pages: usize, retired: u64) -> bool {
    let mut device = SosDevice::new(&SosConfig::tiny(5));
    let len = pages * device.partition(Partition::Sys).page_bytes();
    for _ in 0..retired {
        let plan = FaultPlan {
            kind: FaultKind::FailErase,
            at: FaultAt::OpCount(0),
        };
        device.arm_fault(Partition::Sys, plan, 3);
    }
    // Churn one object until GC has erased (and so retired) `retired`
    // blocks; the partition is nearly empty, so nothing runs out.
    device
        .put(0, &payload(0, len), Partition::Sys)
        .expect("put");
    while device.partition(Partition::Sys).ftl.stats().blocks_retired < retired {
        device.update(0, &payload(0, len)).expect("churn update");
    }
    let mut expected = BTreeMap::from([(0, payload(0, len))]);
    let mut parity_failure = false;
    for id in 1.. {
        let bytes = payload(id, len);
        let before = sys_host_writes(&device);
        match device.put(id, &bytes, Partition::Sys) {
            Ok(()) => {
                expected.insert(id, bytes);
            }
            Err(ObjectError::NoSpace) => {
                parity_failure = sys_host_writes(&device) - before >= pages as u64;
                break;
            }
            Err(error) => panic!("put {id} failed: {error}"),
        }
    }
    assert_consistent(&mut device, &expected);
    // With no space left a delete may fail to refresh its stripe's
    // parity (the stripe goes stale); its pages are released all the
    // same.
    for id in (1..expected.len() as u64).step_by(3) {
        device.delete(id).expect("delete");
        expected.remove(&id);
    }
    assert_consistent(&mut device, &expected);
    // Maintenance tells the pool about the retired blocks, less the
    // pages the parity range needs.
    device.maintain().expect("maintain");
    let sys = device.partition(Partition::Sys);
    let parity_pages = sys.ftl.logical_pages() - sys.pool.span();
    assert_eq!(
        sys.pool.budget(),
        sys.ftl.sustainable_pages() - parity_pages
    );
    assert_consistent(&mut device, &expected);
    parity_failure
}

#[test]
fn sys_running_out_of_space_mid_write_leaves_the_device_consistent() {
    let parity_failures = (1..=8).filter(|&pages| fill_shrunken_sys(pages, 8)).count();
    assert!(parity_failures > 0, "no put ran out of space on parity");
}
