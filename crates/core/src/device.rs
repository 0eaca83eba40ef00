//! The SOS device: a split PLC / pseudo-QLC personal storage device.
//!
//! Implements Figure 2 of the paper: one physical PLC die whose blocks
//! are split into a durable SYS partition (pseudo-QLC + per-page BCH +
//! stripe parity) and a degradable SPARE partition (native PLC,
//! priority-split approximate ECC, no preemptive wear leveling,
//! resuscitation ladder).
//!
//! Each partition is a [`PartitionStore`]; SYS is the one built with
//! stripe parity, which it keeps in step itself. The device adds only
//! what spans both: the object directory (the same one
//! [`crate::BaselineDevice`] keeps), migration between the partitions,
//! and the remount that runs each partition's repair-or-declare pass.

use crate::object::{
    DeviceCounters, Directory, ObjectData, ObjectError, ObjectId, ObjectStore, Partition,
};
use crate::partition::PartitionStore;
use serde::{Deserialize, Serialize};
use sos_flash::{CellDensity, DeviceConfig, FaultPlan, Geometry};
use sos_ftl::{Ftl, FtlConfig, FtlError, PlacementHandle, RecoveryReport};

/// SOS device configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SosConfig {
    /// Base PLC device the two partitions are carved from.
    pub base: DeviceConfig,
}

impl SosConfig {
    /// The paper's default on a small simulated device.
    pub fn small(seed: u64) -> Self {
        SosConfig {
            base: DeviceConfig::sim_small(CellDensity::Plc).with_seed(seed),
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny(seed: u64) -> Self {
        SosConfig {
            base: DeviceConfig::tiny(CellDensity::Plc).with_seed(seed),
        }
    }
}

/// SYS stripe width (data pages per parity page).
const STRIPE_WIDTH: u64 = 8;

/// Splits a geometry's blocks between the SYS and SPARE sub-devices:
/// half the silicon each (§4.2), SYS taking the odd block.
fn split_geometry(base: &Geometry) -> (Geometry, Geometry) {
    let mut sys = *base;
    sys.blocks = base.blocks.div_ceil(2);
    let mut spare = *base;
    spare.blocks = base.blocks - sys.blocks;
    (sys, spare)
}

/// What the remount path recovered, repaired and gave up on. The
/// crash-sweep harness uses this to check that every page lost in the
/// crash window is either repaired or *declared* — silent loss is an
/// audit violation.
#[derive(Debug, Clone, Default)]
pub struct RemountReport {
    /// SYS-partition FTL rebuild report.
    pub sys: RecoveryReport,
    /// SPARE-partition FTL rebuild report.
    pub spare: RecoveryReport,
    /// Live stripes whose parity was recomputed after recovery.
    pub parity_refreshed: u64,
    /// SYS pages lost in the crash window and rebuilt from stripe
    /// parity.
    pub sys_repaired: u64,
    /// SYS pages lost beyond parity's reach, as `(object, lpn)`. Each
    /// is surfaced as explicit damage on the owning object.
    pub sys_lost: Vec<(ObjectId, u64)>,
    /// SPARE pages lost in the crash window, as `(object, lpn)`.
    /// Tolerated (SPARE is approximate storage) but reported.
    pub spare_lost: Vec<(ObjectId, u64)>,
    /// Mapped-but-unreferenced LPNs re-trimmed at remount: trims are
    /// volatile until checkpointed, so the OOB rebuild can resurrect
    /// them; the object directory is the authority on what is live.
    pub resurrected_trimmed: u64,
}

/// The SOS device.
pub struct SosDevice {
    sys: PartitionStore,
    spare: PartitionStore,
    directory: Directory,
}

impl SosDevice {
    /// Builds the device.
    ///
    /// # Panics
    ///
    /// Panics on configuration errors (ECC not fitting the spare area).
    pub fn new(config: &SosConfig) -> Self {
        let (sys_geometry, spare_geometry) = split_geometry(&config.base.geometry);
        let mut sys_device = config.base.clone();
        sys_device.geometry = sys_geometry;
        let mut spare_device = config.base.clone();
        spare_device.geometry = spare_geometry;
        spare_device.seed = config.base.seed.wrapping_add(1);
        let sys_ftl = Ftl::new(&sys_device, FtlConfig::sos_sys());
        let spare_ftl = Ftl::new(&spare_device, FtlConfig::sos_spare());
        SosDevice {
            sys: PartitionStore::with_parity(sys_ftl, PlacementHandle::DEFAULT, STRIPE_WIDTH),
            spare: PartitionStore::new(spare_ftl, PlacementHandle::SPARE_HOT),
            directory: Directory::default(),
        }
    }

    /// A partition's store and the directory, borrowed apart.
    fn split(&mut self, partition: Partition) -> (&mut PartitionStore, &mut Directory) {
        let store = match partition {
            Partition::Sys => &mut self.sys,
            Partition::Spare => &mut self.spare,
        };
        (store, &mut self.directory)
    }

    /// Read-only access to a partition (experiment harnesses).
    pub fn partition(&self, partition: Partition) -> &PartitionStore {
        match partition {
            Partition::Sys => &self.sys,
            Partition::Spare => &self.spare,
        }
    }

    /// Takes a read-only snapshot of both partition FTLs, the stripe
    /// layout, and the object directory for invariant auditing.
    pub fn audit_snapshot(&self) -> crate::audit::CoreState {
        let objects = self
            .directory
            .iter()
            .map(|(id, info)| crate::audit::ObjectSnapshot {
                id,
                partition: info.partition,
                lpns: info.pages.lpns.clone(),
                len: info.len,
                damaged: info.damaged,
            })
            .collect();
        crate::audit::CoreState {
            sys: self.sys.ftl.audit_snapshot(),
            spare: self.spare.ftl.audit_snapshot(),
            stripe_width: STRIPE_WIDTH,
            parity_base: self.sys.pool.span(),
            ram_parity: self.sys.dirty_stripes().collect(),
            objects,
        }
    }

    /// SYS parity pages programmed so far, counted apart from data.
    pub fn parity_programs(&self) -> u64 {
        self.sys.parity_programs()
    }

    /// Live bytes per partition `(sys, spare)`.
    pub fn partition_bytes(&self) -> (u64, u64) {
        let mut sys = 0;
        let mut spare = 0;
        for (_, info) in self.directory.iter() {
            match info.partition {
                Partition::Sys => sys += info.len as u64,
                Partition::Spare => spare += info.len as u64,
            }
        }
        (sys, spare)
    }

    /// Flushes SYS's RAM parity, then writes an on-flash checkpoint on
    /// both partition FTLs, bounding the OOB scan a later remount must
    /// perform.
    pub fn checkpoint(&mut self) -> Result<(), FtlError> {
        self.sys.flush_parity()?;
        self.sys.ftl.checkpoint()?;
        self.spare.ftl.checkpoint()
    }

    /// Arms a deterministic fault on one partition's flash device (the
    /// crash-sweep harness cuts power on SYS and SPARE alternately).
    pub fn arm_fault(&mut self, partition: Partition, plan: FaultPlan, seed: u64) {
        self.split(partition).0.ftl.arm_fault(plan, seed);
    }

    /// Drops every fault still armed on either partition.
    pub fn disarm_faults(&mut self) {
        self.sys.ftl.disarm_faults();
        self.spare.ftl.disarm_faults();
    }

    /// Device operations observed by a partition's fault injector so
    /// far (0 when no injector is attached). Crash schedules are
    /// expressed relative to this count.
    pub fn injector_op_count(&self, partition: Partition) -> u64 {
        self.partition(partition)
            .ftl
            .injector()
            .map(|injector| injector.op_count())
            .unwrap_or(0)
    }

    /// The remount path: recovers both partitions from flash after a
    /// power cut and re-attaches the host state on top.
    ///
    /// The object directory and workload state are host metadata,
    /// modelled as crash-safe (a journaled filesystem on a separate
    /// boot device); what this path rebuilds is everything the *device*
    /// keeps in RAM. It runs one repair-or-declare pass
    /// ([`PartitionStore::remount`]) on SYS and then on SPARE, marks
    /// the owner of every page either pass declared lost as damaged,
    /// and reports both passes. SYS repairs what its stripe parity can
    /// and declares the rest in [`RemountReport::sys_lost`]; SPARE
    /// keeps no parity, so it declares every loss, in
    /// [`RemountReport::spare_lost`].
    ///
    /// Every step is recomputed from flash and the directory, so after
    /// an error (a power cut inside it above all) the call can simply be
    /// retried. The report describes the call that succeeded: its
    /// `sys_lost`/`spare_lost` name every page still lost, its
    /// `sys_repaired` only the repairs it made itself.
    pub fn recover_in_place(&mut self) -> Result<RemountReport, FtlError> {
        let sys = self.sys.remount(&self.directory.pages_on(Partition::Sys))?;
        let spare = self
            .spare
            .remount(&self.directory.pages_on(Partition::Spare))?;
        for (partition, lost) in [(Partition::Sys, &sys.lost), (Partition::Spare, &spare.lost)] {
            let pages = lost.iter().map(|&(_, lpn)| lpn);
            self.directory.mark_lost_pages(partition, pages);
        }
        Ok(RemountReport {
            sys: sys.recovery,
            spare: spare.recovery,
            parity_refreshed: sys.parity_refreshed,
            sys_repaired: sys.repaired,
            sys_lost: sys.lost,
            spare_lost: spare.lost,
            resurrected_trimmed: sys.trimmed + spare.trimmed,
        })
    }
}

impl ObjectStore for SosDevice {
    fn put(&mut self, id: ObjectId, bytes: &[u8], partition: Partition) -> Result<(), ObjectError> {
        let (store, directory) = self.split(partition);
        directory.put(store, id, bytes, partition)
    }

    fn get(&mut self, id: ObjectId) -> Result<ObjectData, ObjectError> {
        let (store, directory) = self.split(self.directory.info(id)?.partition);
        directory.get(store, id)
    }

    fn update(&mut self, id: ObjectId, bytes: &[u8]) -> Result<(), ObjectError> {
        let (store, directory) = self.split(self.directory.info(id)?.partition);
        directory.update(store, id, bytes)
    }

    fn delete(&mut self, id: ObjectId) -> Result<(), ObjectError> {
        let (store, directory) = self.split(self.directory.info(id)?.partition);
        directory.delete(store, id)
    }

    fn migrate(&mut self, id: ObjectId, partition: Partition) -> Result<(), ObjectError> {
        if self.directory.info(id)?.partition == partition {
            return Ok(());
        }
        let (from, to) = match partition {
            Partition::Sys => (&mut self.spare, &mut self.sys),
            Partition::Spare => (&mut self.sys, &mut self.spare),
        };
        self.directory.migrate(from, to, id, partition)
    }

    fn placement(&self, id: ObjectId) -> Option<Partition> {
        self.directory.info(id).ok().map(|info| info.partition)
    }

    /// Ends the day: flushes SYS's RAM parity, then advances both
    /// partitions' clocks. The trait method cannot fail, so a flush
    /// error is left for the next device call to meet: a power cut
    /// inside the flush leaves the device off, and that call returns
    /// [`ObjectError::PowerLoss`] (halting the controller's day); a
    /// stripe the flush could not program stays dirty in RAM, and
    /// reconstructable, until the next flush.
    fn advance_days(&mut self, days: f64) {
        // A flush error can only be the device's own, which its next
        // call reports again.
        self.sys.flush_parity().ok();
        self.sys.ftl.advance_days(days);
        self.spare.ftl.advance_days(days);
    }

    fn maintain(&mut self) -> Result<bool, ObjectError> {
        let sys_report = self.sys.ftl.scrub()?;
        let spare_report = self.spare.ftl.scrub()?;
        let sys_lost = self.sys.process_events();
        let spare_lost = self.spare.process_events();
        self.sys.flush_parity()?;
        self.directory.mark_lost_pages(Partition::Sys, sys_lost);
        self.directory.mark_lost_pages(Partition::Spare, spare_lost);
        Ok(sys_report.aborted_no_space
            || spare_report.aborted_no_space
            || self.spare.under_pressure(0.03)
            || self.sys.under_pressure(0.03))
    }

    fn capacity_bytes(&self) -> u64 {
        self.sys.capacity_bytes() + self.spare.capacity_bytes()
    }

    fn counters(&self) -> DeviceCounters {
        self.directory.counters(
            self.sys.ftl.device().stats().busy_us + self.spare.ftl.device().stats().busy_us,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectStatus;

    fn device() -> SosDevice {
        SosDevice::new(&SosConfig::tiny(7))
    }

    /// SPARE is approximate storage on native PLC: a handful of byte
    /// errors per object is *expected*, so equality there is "mostly
    /// equal".
    fn mostly_equal(a: &[u8], b: &[u8], tolerance: usize) {
        assert_eq!(a.len(), b.len(), "length must match");
        let diffs = a.iter().zip(b).filter(|(x, y)| x != y).count();
        assert!(
            diffs <= tolerance,
            "{diffs} byte diffs exceed tolerance {tolerance}"
        );
    }

    #[test]
    fn put_get_roundtrip_on_both_partitions() {
        let mut device = device();
        let a: Vec<u8> = (0..3000).map(|i| (i % 251) as u8).collect();
        let b: Vec<u8> = (0..3000).map(|i| (i % 241) as u8).collect();
        device.put(1, &a, Partition::Sys).unwrap();
        device.put(2, &b, Partition::Spare).unwrap();
        assert_eq!(device.get(1).unwrap().bytes, a, "SYS must be exact");
        mostly_equal(&device.get(2).unwrap().bytes, &b, 8);
        assert_eq!(device.placement(1), Some(Partition::Sys));
        assert_eq!(device.placement(2), Some(Partition::Spare));
    }

    #[test]
    fn duplicate_put_is_rejected() {
        let mut device = device();
        device.put(1, &[1, 2, 3], Partition::Sys).unwrap();
        assert_eq!(
            device.put(1, &[4, 5], Partition::Sys).unwrap_err(),
            ObjectError::Exists(1)
        );
    }

    #[test]
    fn update_replaces_content() {
        let mut device = device();
        device.put(1, &[1u8; 100], Partition::Spare).unwrap();
        device.update(1, &[2u8; 5000]).unwrap();
        let got = device.get(1).unwrap();
        mostly_equal(&got.bytes, &vec![2u8; 5000], 8);
    }

    #[test]
    fn delete_then_get_fails() {
        let mut device = device();
        device.put(1, &[1u8; 10], Partition::Sys).unwrap();
        device.delete(1).unwrap();
        assert_eq!(device.get(1).unwrap_err(), ObjectError::NotFound(1));
        assert_eq!(device.counters().objects, 0);
    }

    #[test]
    fn migrate_moves_between_partitions() {
        let mut device = device();
        let data: Vec<u8> = (0..4000).map(|i| (i * 7 % 256) as u8).collect();
        device.put(1, &data, Partition::Sys).unwrap();
        device.migrate(1, Partition::Spare).unwrap();
        assert_eq!(device.placement(1), Some(Partition::Spare));
        mostly_equal(&device.get(1).unwrap().bytes, &data, 8);
        // Migrating to the same partition is a no-op.
        device.migrate(1, Partition::Spare).unwrap();
        mostly_equal(&device.get(1).unwrap().bytes, &data, 8);
    }

    #[test]
    fn counters_track_bytes() {
        let mut device = device();
        device.put(1, &[0u8; 1000], Partition::Sys).unwrap();
        device.put(2, &[0u8; 500], Partition::Spare).unwrap();
        let counters = device.counters();
        assert_eq!(counters.objects, 2);
        assert_eq!(counters.live_bytes, 1500);
        assert_eq!(counters.bytes_written, 1500);
        let (sys, spare) = device.partition_bytes();
        assert_eq!((sys, spare), (1000, 500));
    }

    #[test]
    fn device_fills_and_reports_no_space() {
        let mut device = device();
        let chunk = vec![9u8; 64 * 1024];
        let mut id = 0;
        loop {
            id += 1;
            match device.put(id, &chunk, Partition::Spare) {
                Ok(()) => {}
                Err(ObjectError::NoSpace) => break,
                Err(e) => panic!("unexpected {e}"),
            }
            assert!(id < 1000, "never filled");
        }
    }

    #[test]
    fn maintenance_runs_clean_on_fresh_device() {
        let mut device = device();
        device.put(1, &[1u8; 2000], Partition::Spare).unwrap();
        device.advance_days(10.0);
        let pressure = device.maintain().unwrap();
        assert!(!pressure);
        mostly_equal(&device.get(1).unwrap().bytes, &vec![1u8; 2000], 8);
    }

    #[test]
    fn remount_after_mid_write_power_cut() {
        use sos_flash::{FaultAt, FaultKind};
        let mut device = device();
        let a: Vec<u8> = (0..3000).map(|i| (i % 251) as u8).collect();
        device.put(1, &a, Partition::Sys).unwrap();
        device.put(2, &a, Partition::Spare).unwrap();
        device.checkpoint().unwrap();
        // Cut power a few device operations into the next write burst.
        let at = device.injector_op_count(Partition::Sys) + 7;
        device.arm_fault(
            Partition::Sys,
            FaultPlan {
                kind: FaultKind::PowerCut,
                at: FaultAt::OpCount(at),
            },
            99,
        );
        let mut crashed = false;
        for id in 10..200 {
            match device.put(id, &a, Partition::Sys) {
                Ok(()) => {}
                Err(ObjectError::PowerLoss) => {
                    crashed = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(crashed, "armed power cut never fired");
        assert_eq!(device.get(1).unwrap_err(), ObjectError::PowerLoss);

        let report = device.recover_in_place().unwrap();
        assert!(report.sys.used_checkpoint, "checkpoint must bound the scan");
        assert!(report.sys_lost.is_empty(), "{:?}", report.sys_lost);
        // Every object the directory still references survives: the
        // interrupted create never reached the directory and its pages
        // were re-trimmed.
        assert_eq!(device.get(1).unwrap().bytes, a, "SYS survives exactly");
        mostly_equal(&device.get(2).unwrap().bytes, &a, 8);
        // The device is writable again after remount.
        device.put(1000, &a, Partition::Sys).unwrap();
        assert_eq!(device.get(1000).unwrap().bytes, a);
    }

    fn lpns(device: &SosDevice, id: ObjectId) -> Vec<u64> {
        device.directory.info(id).unwrap().pages.lpns.clone()
    }

    /// Three nine-page objects (SYS 1 and 2, SPARE 3), then a simulated
    /// crash window that loses one repairable SYS page of object 1, one
    /// SYS page of object 2 together with its stripe's parity, and one
    /// SPARE page of object 3. Returns the device, the objects' bytes,
    /// object 2's dead page and object 3's faded page.
    fn crash_window_losses() -> (SosDevice, Vec<u8>, u64, u64) {
        let mut device = device();
        let page = device.sys.ftl.page_bytes();
        // Nine pages per object so each spans more than one stripe.
        let data: Vec<u8> = (0..page * 9).map(|i| (i % 241) as u8).collect();
        device.put(1, &data, Partition::Sys).unwrap();
        device.put(2, &data, Partition::Sys).unwrap();
        device.put(3, &data, Partition::Spare).unwrap();
        device.checkpoint().unwrap();

        // The crash window eats one member of object 1: its stripe
        // parity survives, so the remount can rebuild the page.
        let repairable = lpns(&device, 1)[0];
        // Object 2 loses a member in a *different* stripe plus that
        // stripe's parity: beyond repair, must be declared.
        let dead = *lpns(&device, 2)
            .iter()
            .find(|&&lpn| lpn / STRIPE_WIDTH != repairable / STRIPE_WIDTH)
            .expect("nine pages span several stripes");
        let parity = device.sys.pool.span() + dead / STRIPE_WIDTH;
        // A SPARE page vanishes too: tolerated but declared.
        let faded = lpns(&device, 3)[0];
        device.sys.ftl.trim(repairable).unwrap();
        device.sys.ftl.trim(dead).unwrap();
        if device.sys.ftl.is_mapped(parity) {
            device.sys.ftl.trim(parity).unwrap();
        }
        device.spare.ftl.trim(faded).unwrap();
        // Trims are volatile until checkpointed; make the simulated
        // crash-window losses durable so recovery cannot resurrect them.
        device.checkpoint().unwrap();
        (device, data, dead, faded)
    }

    #[test]
    fn remount_repairs_or_declares_referenced_losses() {
        let (mut device, data, dead, faded) = crash_window_losses();
        let report = device.recover_in_place().unwrap();
        assert_eq!(report.sys_repaired, 1, "{report:?}");
        assert_eq!(report.sys_lost, vec![(2, dead)]);
        assert_eq!(report.spare_lost, vec![(3, faded)]);

        // Object 1 reads back byte-exact from the parity rebuild.
        assert_eq!(device.get(1).unwrap().bytes, data, "repair failed");
        // Object 2 degrades gracefully: explicit damage, zero-filled gap.
        let two = device.get(2).unwrap();
        assert_eq!(two.status, ObjectStatus::PartiallyLost);
        assert_eq!(two.bytes.len(), data.len());
        // Object 3's SPARE loss is tolerated the same way.
        assert_eq!(device.get(3).unwrap().status, ObjectStatus::PartiallyLost);
    }

    #[test]
    fn remount_keeps_a_declared_loss_declared_across_a_second_cut() {
        let (mut device, data, dead, _) = crash_window_losses();
        device.recover_in_place().unwrap();
        // Power fails again before the host takes a checkpoint. The
        // refreshed parity no longer covers the dead page, so a rebuild
        // from it would fabricate data: the loss must be re-declared.
        let report = device.recover_in_place().unwrap();
        assert_eq!(report.sys_repaired, 0, "{report:?}");
        assert_eq!(report.sys_lost, vec![(2, dead)]);
        assert_eq!(device.get(1).unwrap().bytes, data);
        assert_eq!(device.get(2).unwrap().status, ObjectStatus::PartiallyLost);
    }

    #[test]
    fn remount_reads_the_spare_checkpoint_through_full_ecc() {
        // SPARE's own ECC leaves the page tail to a CRC; a checkpoint
        // decoded through it would fail on any tail bit error, and the
        // full scan that follows could resurrect the declared page.
        let (mut device, _, _, faded) = crash_window_losses();
        for remount in 0..4 {
            let report = device.recover_in_place().unwrap();
            assert!(
                report.spare.used_checkpoint,
                "remount {remount}: {report:?}"
            );
            assert_eq!(report.spare_lost, vec![(3, faded)], "remount {remount}");
        }
    }

    /// The crash-window losses of [`crash_window_losses`], then a real
    /// power cut on SYS a few operations into a burst of creates.
    fn crash_image() -> SosDevice {
        let (mut device, data, _, _) = crash_window_losses();
        cut_power(&mut device, Partition::Sys, 7);
        for id in 10..200 {
            match device.put(id, &data, Partition::Sys) {
                Ok(()) => {}
                Err(ObjectError::PowerLoss) => return device,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        panic!("armed power cut never fired");
    }

    /// Arms a power cut `ops` operations past `partition`'s injector
    /// count.
    fn cut_power(device: &mut SosDevice, partition: Partition, ops: u64) {
        use sos_flash::{FaultAt, FaultKind};
        let at = device.injector_op_count(partition) + ops;
        let plan = FaultPlan {
            kind: FaultKind::PowerCut,
            at: FaultAt::OpCount(at),
        };
        device.arm_fault(partition, plan, 99);
    }

    /// What a remount must reproduce however often it was cut: the
    /// directory, each partition's mapped LPNs, and the declared losses.
    #[derive(Debug, PartialEq)]
    struct RemountOutcome {
        directory: Vec<crate::audit::ObjectSnapshot>,
        mapped: [Vec<u64>; 2],
        lost: [Vec<(ObjectId, u64)>; 2],
    }

    fn remount_outcome(device: &SosDevice, report: &RemountReport) -> RemountOutcome {
        let mapped = |store: &PartitionStore| {
            let pages = store.ftl.logical_pages();
            (0..pages).filter(|&lpn| store.ftl.is_mapped(lpn)).collect()
        };
        RemountOutcome {
            directory: device.audit_snapshot().objects,
            mapped: [mapped(&device.sys), mapped(&device.spare)],
            lost: [report.sys_lost.clone(), report.spare_lost.clone()],
        }
    }

    #[test]
    fn remount_cut_at_any_operation_is_retried_to_the_uncut_outcome() {
        let mut uncut = crash_image();
        let report = uncut.recover_in_place().unwrap();
        let expected = remount_outcome(&uncut, &report);
        assert_eq!(expected.lost[0].len(), 1, "{report:?}");
        assert_eq!(expected.lost[1].len(), 1, "{report:?}");
        for partition in [Partition::Sys, Partition::Spare] {
            let mut cuts = 0;
            for ops in 1.. {
                let mut device = crash_image();
                cut_power(&mut device, partition, ops);
                match device.recover_in_place() {
                    Err(FtlError::Device(sos_flash::FlashError::PowerLoss)) => cuts += 1,
                    Err(e) => panic!("{partition:?} cut {ops} ops in: unexpected {e}"),
                    // The remount finished before the cut was due.
                    Ok(_) => break,
                }
                let report = device.recover_in_place().unwrap();
                assert_eq!(
                    remount_outcome(&device, &report),
                    expected,
                    "{partition:?} cut {ops} ops into the remount"
                );
            }
            assert!(cuts > 0, "no {partition:?} cut landed inside the remount");
        }
    }

    #[test]
    fn remount_declares_both_of_two_losses_in_one_stripe() {
        let mut device = device();
        let data: Vec<u8> = (0..device.sys.page_bytes() * 2)
            .map(|i| (i % 241) as u8)
            .collect();
        device.put(1, &data, Partition::Sys).unwrap();
        device.checkpoint().unwrap();
        let pages = lpns(&device, 1);
        assert_eq!(pages[0] / STRIPE_WIDTH, pages[1] / STRIPE_WIDTH);
        for &lpn in &pages {
            device.sys.ftl.trim(lpn).unwrap();
        }
        device.checkpoint().unwrap();
        // The stripe's parity survives, but it covers two missing
        // members: rebuilding either from it would return their XOR.
        let report = device.recover_in_place().unwrap();
        assert_eq!(report.sys_repaired, 0, "{report:?}");
        assert_eq!(report.sys_lost, vec![(1, pages[0]), (1, pages[1])]);
    }

    #[test]
    fn parity_never_rebuilds_a_member_it_stopped_covering() {
        let mut device = device();
        let page = device.sys.page_bytes();
        let data: Vec<u8> = (0..page * 2).map(|i| (i % 241) as u8 + 1).collect();
        device.put(1, &data, Partition::Sys).unwrap();
        device.checkpoint().unwrap();
        // The crash window eats page 0 together with its stripe's
        // parity: the remount declares it, and its parity refresh drops
        // it from the stripe.
        let lost = lpns(&device, 1)[0];
        device.sys.ftl.trim(lost).unwrap();
        let parity = device.sys.pool.span() + lost / STRIPE_WIDTH;
        device.sys.ftl.trim(parity).unwrap();
        device.sys.ftl.checkpoint().unwrap();
        let report = device.recover_in_place().unwrap();
        assert_eq!(report.sys_lost, vec![(1, lost)]);
        // A write into the same stripe loads the refreshed parity into
        // RAM and XORs the new member in; neither covers the lost page.
        device.put(2, &[7u8; 100], Partition::Sys).unwrap();
        assert_eq!(lpns(&device, 2)[0] / STRIPE_WIDTH, lost / STRIPE_WIDTH);
        let one = device.get(1).unwrap();
        assert_eq!(one.status, ObjectStatus::PartiallyLost);
        assert_eq!(device.counters().objects_damaged, 1);
    }

    /// One page of distinct content per `seed`.
    fn one_page(device: &SosDevice, seed: u8) -> Vec<u8> {
        (0..device.sys.page_bytes())
            .map(|i| (i as u8).wrapping_mul(seed | 1).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn a_loss_before_the_flush_is_rebuilt_from_ram_parity() {
        let mut device = device();
        let data: Vec<u8> = (0..device.sys.page_bytes() * 3)
            .map(|i| (i % 239) as u8)
            .collect();
        device.put(1, &data, Partition::Sys).unwrap();
        // No flush yet: the stripe's parity exists only in RAM.
        let lost = lpns(&device, 1)[1];
        let stripe = lost / STRIPE_WIDTH;
        assert!(device.audit_snapshot().ram_parity.contains(&stripe));
        assert!(!device.sys.ftl.is_mapped(device.sys.pool.span() + stripe));
        device.sys.ftl.declare_lost(lost);
        let read = device.get(1).unwrap();
        assert_eq!(read.status, ObjectStatus::Intact);
        assert_eq!(read.bytes, data);
    }

    #[test]
    fn remount_declares_a_page_its_stale_parity_would_rebuild_wrong() {
        let mut device = device();
        for id in 1..=3 {
            let data = one_page(&device, 37 * id as u8);
            device.put(id, &data, Partition::Sys).unwrap();
        }
        // The stripe's parity reaches flash.
        device.checkpoint().unwrap();
        let stripe = lpns(&device, 1)[0] / STRIPE_WIDTH;
        // One member is freed and another written: the parity moves to
        // RAM, and the copy on flash goes stale.
        device.delete(2).unwrap();
        let four = one_page(&device, 201);
        device.put(4, &four, Partition::Sys).unwrap();
        for id in [1, 3, 4] {
            assert_eq!(lpns(&device, id)[0] / STRIPE_WIDTH, stripe, "object {id}");
        }
        // The power cut loses the RAM parity, and its crash window eats
        // object 1's page (the FTL's own checkpoint makes the trim
        // durable without flushing parity). The stale parity still
        // folds in object 2 instead of object 4.
        let missing = lpns(&device, 1)[0];
        device.sys.ftl.trim(missing).unwrap();
        device.sys.ftl.checkpoint().unwrap();
        let report = device.recover_in_place().unwrap();
        assert_eq!(report.sys_repaired, 0, "{report:?}");
        assert_eq!(report.sys_lost, vec![(1, missing)]);
        assert_eq!(device.get(1).unwrap().status, ObjectStatus::PartiallyLost);
        assert_eq!(device.get(3).unwrap().bytes, one_page(&device, 111));
        assert_eq!(device.get(4).unwrap().bytes, four);
    }

    #[test]
    fn a_cut_inside_the_day_end_flush_halts_the_next_call_and_remounts() {
        let data = |device: &SosDevice, id: u8| {
            let pages = 3 * device.sys.page_bytes();
            (0..pages).map(|i| (i as u8) ^ id).collect::<Vec<u8>>()
        };
        let (mut repaired, mut declared) = (0, 0);
        for ops in 1.. {
            let mut device = device();
            for id in 1..=4 {
                let bytes = data(&device, id);
                device.put(id.into(), &bytes, Partition::Sys).unwrap();
            }
            device.checkpoint().unwrap();
            // An update and a delete leave their stripes' parity dirty,
            // object 3's second page among them.
            let updated = data(&device, 11);
            device.update(1, &updated).unwrap();
            device.delete(2).unwrap();
            let victim = lpns(&device, 3)[1];
            let ram_parity = device.audit_snapshot().ram_parity;
            assert!(ram_parity.contains(&(victim / STRIPE_WIDTH)));
            // The crash window will eat that page (the FTL's own
            // checkpoint makes the trim durable without a flush).
            device.sys.ftl.trim(victim).unwrap();
            device.sys.ftl.checkpoint().unwrap();
            cut_power(&mut device, Partition::Sys, ops);
            device.advance_days(1.0);
            let injector = device.sys.ftl.injector();
            if injector.is_some_and(|injector| !injector.pending().is_empty()) {
                // The flush finished before the cut was due.
                break;
            }
            assert_eq!(device.get(4).unwrap_err(), ObjectError::PowerLoss);
            let report = device.recover_in_place().unwrap();
            // The victim is rebuilt exactly when its stripe's parity
            // reached flash before the cut, and declared when the parity
            // there is stale; never rebuilt wrong.
            let three = device.get(3).unwrap();
            if report.sys_lost.is_empty() {
                assert_eq!(report.sys_repaired, 1, "cut {ops}: {report:?}");
                assert_eq!(three.bytes, data(&device, 3), "cut {ops}");
                repaired += 1;
            } else {
                assert_eq!(report.sys_lost, vec![(3, victim)], "cut {ops}");
                assert_eq!(report.sys_repaired, 0, "cut {ops}: {report:?}");
                assert_eq!(three.status, ObjectStatus::PartiallyLost);
                declared += 1;
            }
            assert_eq!(device.get(1).unwrap().bytes, updated, "cut {ops}");
            // The remount refreshed every stripe's parity, whatever the
            // cut left on flash: a media loss now is rebuilt exactly.
            device.sys.ftl.declare_lost(lpns(&device, 4)[1]);
            let four = device.get(4).unwrap();
            assert_eq!(four.status, ObjectStatus::Intact, "cut {ops}");
            assert_eq!(four.bytes, data(&device, 4), "cut {ops}");
        }
        assert!(
            repaired > 0 && declared > 0,
            "{repaired} repaired, {declared} declared"
        );
    }

    #[test]
    fn remount_retry_declares_a_loss_whose_mark_missed_the_checkpoint() {
        use sos_flash::{FaultAt, FaultKind};
        // Object 1's first page and its stripe's parity vanish in the
        // crash window; object 2 shares the stripe, and object 3 spans
        // it and the next one, whose parity the refresh programs after.
        let image = || {
            let mut device = device();
            let two_pages: Vec<u8> = (0..device.sys.page_bytes() * 2)
                .map(|i| (i % 233) as u8)
                .collect();
            device.put(1, &two_pages, Partition::Sys).unwrap();
            let peer = one_page(&device, 9);
            device.put(2, &peer, Partition::Sys).unwrap();
            let eight_pages = vec![3u8; device.sys.page_bytes() * 8];
            device.put(3, &eight_pages, Partition::Sys).unwrap();
            device.checkpoint().unwrap();
            let dead = lpns(&device, 1)[0];
            let stripe = dead / STRIPE_WIDTH;
            assert_eq!(lpns(&device, 2)[0] / STRIPE_WIDTH, stripe);
            device.sys.ftl.trim(dead).unwrap();
            let parity = device.sys.pool.span() + stripe;
            device.sys.ftl.trim(parity).unwrap();
            device.sys.ftl.checkpoint().unwrap();
            (device, dead, peer)
        };
        let mut retried = 0;
        for ops in 1.. {
            let (mut device, dead, peer) = image();
            let checkpoint = device.sys.ftl.checkpoint_seq();
            // The remount's checkpoint finds no room: three program
            // failures use up its attempts, so the `Lost` mark it sets on
            // the dead page stays in RAM while the parity refresh drops
            // the page from its stripe. A cut `ops` operations in then
            // lands before, inside or after that refresh.
            for _ in 0..3 {
                let plan = FaultPlan {
                    kind: FaultKind::FailProgram,
                    at: FaultAt::OpCount(0),
                };
                device.arm_fault(Partition::Sys, plan, 5);
            }
            cut_power(&mut device, Partition::Sys, ops);
            match device.recover_in_place() {
                Err(FtlError::Device(sos_flash::FlashError::PowerLoss)) => {}
                Ok(report) => {
                    assert_eq!(device.sys.ftl.checkpoint_seq(), checkpoint);
                    assert_eq!(report.sys_lost, vec![(1, dead)]);
                    break;
                }
                Err(e) => panic!("cut {ops} ops in: unexpected {e}"),
            }
            retried += 1;
            device.disarm_faults();
            // Parity refreshed without the dead page rebuilds it as
            // zeros; the checksum turns that into a declared loss.
            let report = device.recover_in_place().unwrap();
            assert_eq!(report.sys_repaired, 0, "cut {ops}: {report:?}");
            assert_eq!(report.sys_lost, vec![(1, dead)], "cut {ops}");
            assert_eq!(device.get(1).unwrap().status, ObjectStatus::PartiallyLost);
            assert_eq!(device.get(2).unwrap().bytes, peer, "cut {ops}");
        }
        assert!(retried > 0, "no cut landed inside the remount");
    }

    #[test]
    fn geometry_split_is_complementary() {
        // Every SOS digest rests on these block counts.
        for (base, blocks) in [
            (DeviceConfig::tiny(CellDensity::Plc).geometry, 32),
            (DeviceConfig::sim_small(CellDensity::Plc).geometry, 128),
        ] {
            let (sys, spare) = split_geometry(&base);
            assert_eq!((sys.blocks, spare.blocks), (blocks, blocks));
            assert_eq!(sys.blocks + spare.blocks, base.blocks);
            assert_eq!(sys.page_bytes, base.page_bytes);
        }
        // SYS takes the odd block: the rounded half of every count.
        let mut base = DeviceConfig::tiny(CellDensity::Plc).geometry;
        for blocks in 2..=257 {
            base.blocks = blocks;
            let (sys, spare) = split_geometry(&base);
            assert_eq!(sys.blocks, (blocks as f64 * 0.5).round() as u32);
            assert_eq!(sys.blocks + spare.blocks, blocks);
        }
    }
}
