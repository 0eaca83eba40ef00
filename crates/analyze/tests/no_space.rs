//! A SYS partition that runs out of physical space part-way through an
//! operation must leave the device consistent: a write that reports
//! `NoSpace` leaves nothing allocated or mapped, a parity flush without
//! room keeps its stripes' parity in RAM, pages go back to the pool only
//! once no object holds them, and the device audits clean.

use sos_analyze::CoreAuditorSet;
use sos_core::{ObjectError, ObjectStore, Partition, SosConfig, SosDevice};
use sos_flash::{FaultAt, FaultKind, FaultPlan};
use std::collections::{BTreeMap, BTreeSet};

fn payload(id: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| (id * 31 + i as u64 % 251) as u8).collect()
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
/// one fails, and ends the day. Returns whether the day-end parity flush
/// found no room, leaving stripes' parity in RAM.
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
    for id in 1.. {
        let bytes = payload(id, len);
        match device.put(id, &bytes, Partition::Sys) {
            Ok(()) => {
                expected.insert(id, bytes);
            }
            Err(ObjectError::NoSpace) => break,
            Err(error) => panic!("put {id} failed: {error}"),
        }
    }
    // The day-end flush cannot fail: without room for a stripe's parity
    // page the parity stays in RAM, where the audit counts it as cover.
    device.advance_days(1.0);
    let flush_failure = !device.audit_snapshot().ram_parity.is_empty();
    assert_consistent(&mut device, &expected);
    // A delete XORs its pages out of the RAM parity, which needs no
    // space; its pages are released.
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
    flush_failure
}

#[test]
fn sys_running_out_of_space_mid_write_leaves_the_device_consistent() {
    // Twelve retired blocks: with parity programmed only at flush, eight
    // leave the FTL room for the pool's whole budget and its parity.
    let flush_failures = (1..=8)
        .filter(|&pages| fill_shrunken_sys(pages, 12))
        .count();
    assert!(flush_failures > 0, "no parity flush ran out of space");
}
