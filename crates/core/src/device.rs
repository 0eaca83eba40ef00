//! The SOS device: a split PLC / pseudo-QLC personal storage device.
//!
//! Implements Figure 2 of the paper: one physical PLC die whose blocks
//! are split into a durable SYS partition (pseudo-QLC + per-page BCH +
//! stripe parity) and a degradable SPARE partition (native PLC,
//! priority-split approximate ECC, no preemptive wear leveling,
//! resuscitation ladder).

use crate::object::{
    DeviceCounters, ObjectData, ObjectError, ObjectId, ObjectStatus, ObjectStore, Partition,
};
use crate::partition::PartitionStore;
use crate::stripe::StripeManager;
use serde::{Deserialize, Serialize};
use sos_flash::{CellDensity, DeviceConfig, FaultPlan, Geometry};
use sos_ftl::{DataTag, Ftl, FtlConfig, FtlError, RecoveryReport};
use std::collections::{BTreeMap, BTreeSet};

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

/// Fraction of physical blocks given to the SYS partition (the paper's
/// split is 50/50 by silicon, §4.2).
const SYS_CELL_FRACTION: f64 = 0.5;
/// SYS stripe width (data pages per parity page).
const STRIPE_WIDTH: u64 = 8;

/// Splits a geometry's blocks between two sub-devices by plane rows.
fn split_geometry(base: &Geometry, fraction: f64) -> (Geometry, Geometry) {
    let first_blocks = ((base.blocks_per_plane as f64 * fraction).round() as u32)
        .clamp(1, base.blocks_per_plane - 1);
    let mut first = *base;
    first.blocks_per_plane = first_blocks;
    let mut second = *base;
    second.blocks_per_plane = base.blocks_per_plane - first_blocks;
    (first, second)
}

/// Location record for one stored object.
#[derive(Debug, Clone)]
struct ObjectInfo {
    partition: Partition,
    lpns: Vec<u64>,
    len: usize,
    damaged: bool,
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
    stripes: StripeManager,
    objects: BTreeMap<ObjectId, ObjectInfo>,
    counters: DeviceCounters,
}

impl SosDevice {
    /// Builds the device.
    ///
    /// # Panics
    ///
    /// Panics on configuration errors (ECC not fitting the spare area).
    pub fn new(config: &SosConfig) -> Self {
        let (sys_geometry, spare_geometry) =
            split_geometry(&config.base.geometry, SYS_CELL_FRACTION);
        let mut sys_device = config.base.clone();
        sys_device.geometry = sys_geometry;
        let mut spare_device = config.base.clone();
        spare_device.geometry = spare_geometry;
        spare_device.seed = config.base.seed.wrapping_add(1);
        let sys_ftl = Ftl::new(&sys_device, FtlConfig::sos_sys());
        let spare_ftl = Ftl::new(&spare_device, FtlConfig::sos_spare());
        // Reserve the top of the SYS logical space for stripe parity.
        let (data_pages, _parity) = StripeManager::layout(sys_ftl.logical_pages(), STRIPE_WIDTH);
        let stripes = StripeManager::new(STRIPE_WIDTH, data_pages);
        let mut sys = PartitionStore::new(sys_ftl, DataTag::sys_hot());
        // Re-derive the pool so only data LPNs are handed out.
        sys.pool = crate::partition::LpnPool::new(data_pages);
        let spare = PartitionStore::new(spare_ftl, DataTag::spare_hot());
        SosDevice {
            sys,
            spare,
            stripes,
            objects: BTreeMap::new(),
            counters: DeviceCounters::default(),
        }
    }

    fn store(&mut self, partition: Partition) -> &mut PartitionStore {
        match partition {
            Partition::Sys => &mut self.sys,
            Partition::Spare => &mut self.spare,
        }
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
        let objects: Vec<crate::audit::ObjectSnapshot> = self
            .objects
            .iter()
            .map(|(&id, info)| crate::audit::ObjectSnapshot {
                id,
                partition: info.partition,
                lpns: info.lpns.clone(),
                len: info.len,
                damaged: info.damaged,
            })
            .collect();
        crate::audit::CoreState {
            sys: self.sys.ftl.audit_snapshot(),
            spare: self.spare.ftl.audit_snapshot(),
            stripe_width: self.stripes.width(),
            parity_base: self.stripes.parity_base(),
            stripes: self.stripes.stripe_snapshot(),
            objects,
        }
    }

    /// Live bytes per partition `(sys, spare)`.
    pub fn partition_bytes(&self) -> (u64, u64) {
        let mut sys = 0;
        let mut spare = 0;
        for info in self.objects.values() {
            match info.partition {
                Partition::Sys => sys += info.len as u64,
                Partition::Spare => spare += info.len as u64,
            }
        }
        (sys, spare)
    }

    /// Writes an object's pages (and, on SYS, their stripe parity).
    /// Returns `None`, with nothing left allocated or mapped, when the
    /// partition runs out of space.
    fn write_to(
        &mut self,
        partition: Partition,
        bytes: &[u8],
    ) -> Result<Option<Vec<u64>>, FtlError> {
        let lpns = match self.store(partition).write_object(bytes)? {
            Some(lpns) => lpns,
            None => return Ok(None),
        };
        if partition == Partition::Sys {
            // Maintain stripe parity for every page just written.
            let page_bytes = self.sys.page_bytes();
            for (index, &lpn) in lpns.iter().enumerate() {
                let start = index * page_bytes;
                let mut page = vec![0u8; page_bytes];
                if start < bytes.len() {
                    let end = (start + page_bytes).min(bytes.len());
                    page[..end - start].copy_from_slice(&bytes[start..end]);
                }
                match self.stripes.on_write(&mut self.sys.ftl, lpn, &page) {
                    Ok(()) => {}
                    Err(FtlError::NoSpace) => {
                        // Parity found no room: undo the data writes
                        // as `write_object` does for its own.
                        self.free_from(partition, &lpns)?;
                        return Ok(None);
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(Some(lpns))
    }

    /// Trims an object's pages, drops them from their SYS stripes and
    /// only then returns them to the pool. Never fails for lack of
    /// space (see [`StripeManager::on_trim`]).
    fn free_from(&mut self, partition: Partition, lpns: &[u64]) -> Result<(), FtlError> {
        for &lpn in lpns {
            self.store(partition).ftl.trim(lpn)?;
        }
        if partition == Partition::Sys {
            for &lpn in lpns {
                self.stripes.on_trim(&mut self.sys.ftl, lpn)?;
            }
        }
        self.store(partition).pool.release(lpns);
        Ok(())
    }

    /// Attempts stripe reconstruction of lost SYS pages, patching
    /// `bytes` in place. Returns how many pages were repaired.
    fn repair_sys_pages(
        &mut self,
        lpns: &[u64],
        lost: &[u64],
        bytes: &mut [u8],
    ) -> Result<usize, FtlError> {
        let page_bytes = self.sys.page_bytes();
        let mut repaired = 0;
        for &lost_lpn in lost {
            let Some(position) = lpns.iter().position(|&l| l == lost_lpn) else {
                continue;
            };
            if let Some(rebuilt) = self.stripes.reconstruct(&mut self.sys.ftl, lost_lpn) {
                let start = position * page_bytes;
                if start < bytes.len() {
                    let end = (start + page_bytes).min(bytes.len());
                    if let (Some(dst), Some(src)) =
                        (bytes.get_mut(start..end), rebuilt.get(..end - start))
                    {
                        dst.copy_from_slice(src);
                    }
                }
                // Write the repaired page back so the mapping is live
                // again.
                let restored = self
                    .sys
                    .ftl
                    .write_placed(lost_lpn, &rebuilt, self.sys.data_tag.handle())
                    .and_then(|_| self.stripes.on_write(&mut self.sys.ftl, lost_lpn, &rebuilt));
                match restored {
                    // Without free space the repair still serves this
                    // read; the page stays lost (or its stripe stale)
                    // until a later write.
                    Ok(()) | Err(FtlError::NoSpace) => {}
                    Err(e) => return Err(e),
                }
                repaired += 1;
            }
        }
        Ok(repaired)
    }

    /// Writes an on-flash checkpoint on both partition FTLs, bounding
    /// the OOB scan a later remount must perform.
    pub fn checkpoint(&mut self) -> Result<(), FtlError> {
        self.sys.ftl.checkpoint()?;
        self.spare.ftl.checkpoint()
    }

    /// Arms a deterministic fault on one partition's flash device (the
    /// crash-sweep harness cuts power on SYS and SPARE alternately).
    pub fn arm_fault(&mut self, partition: Partition, plan: FaultPlan, seed: u64) {
        self.store(partition).ftl.arm_fault(plan, seed);
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

    /// Whether a partition's flash device has latched power-off (every
    /// operation fails with `PowerLoss` until remount).
    pub fn is_powered_off(&self, partition: Partition) -> bool {
        self.partition(partition).ftl.device().is_powered_off()
    }

    /// The remount path: recovers both partition FTLs from flash after
    /// a power cut and re-attaches the host state on top.
    ///
    /// The object directory and workload state are host metadata,
    /// modelled as crash-safe (a journaled filesystem on a separate
    /// boot device); what this path rebuilds is everything the *device*
    /// keeps in RAM. Concretely it:
    ///
    /// 1. per partition ([`PartitionStore::remount`]): rebuilds the
    ///    FTL's L2P map, valid counts and free list from the OOB scan
    ///    ([`Ftl::recover`]), re-adopts LPN allocations from the object
    ///    directory and re-trims resurrected pages no object references
    ///    (trims are volatile until checkpointed),
    /// 2. rebuilds SYS stripe membership from the directory and repairs
    ///    crash-window SYS losses from surviving parity; what parity
    ///    cannot rebuild is declared in [`RemountReport::sys_lost`] and
    ///    marked as damage on the owning object,
    /// 3. tolerates SPARE losses, declaring them in
    ///    [`RemountReport::spare_lost`],
    /// 4. recomputes every live stripe's parity (the RAID-5 write hole:
    ///    a cut between a member write and its parity update leaves
    ///    parity stale).
    ///
    /// On error the device is poisoned and must be discarded.
    pub fn recover_in_place(&mut self) -> Result<RemountReport, FtlError> {
        let parity_base = self.stripes.parity_base();
        let width = self.stripes.width();
        let mut sys_refs: BTreeSet<u64> = BTreeSet::new();
        let mut spare_refs: BTreeSet<u64> = BTreeSet::new();
        for info in self.objects.values() {
            match info.partition {
                Partition::Sys => sys_refs.extend(info.lpns.iter().copied()),
                Partition::Spare => spare_refs.extend(info.lpns.iter().copied()),
            }
        }
        let (sys, sys_trimmed) = self.sys.remount(parity_base, &sys_refs)?;
        let spare_span = self.spare.ftl.logical_pages();
        let (spare, spare_trimmed) = self.spare.remount(spare_span, &spare_refs)?;
        let mut report = RemountReport {
            sys,
            spare,
            resurrected_trimmed: sys_trimmed + spare_trimmed,
            ..RemountReport::default()
        };

        // Stripe membership is RAM state; rebuild it from the
        // directory, then repair crash-window SYS losses from the
        // pre-refresh parity (still consistent with the stripe unless
        // the parity write itself tore — the documented write hole).
        self.stripes = StripeManager::rebuild(width, parity_base, sys_refs.iter().copied());
        let ids: Vec<ObjectId> = self.objects.keys().copied().collect();
        let mut newly_damaged = 0u64;
        for id in ids {
            let Some(info) = self.objects.get(&id).cloned() else {
                continue;
            };
            let mut object_lost = false;
            for &lpn in &info.lpns {
                match info.partition {
                    Partition::Sys => {
                        if self.sys.ftl.is_mapped(lpn) {
                            continue;
                        }
                        if let Some(rebuilt) = self.stripes.reconstruct(&mut self.sys.ftl, lpn) {
                            self.sys
                                .ftl
                                .write_placed(lpn, &rebuilt, self.sys.data_tag.handle())?;
                            report.sys_repaired += 1;
                        } else {
                            // Beyond parity's reach: declare the loss so
                            // reads surface an explicit DataLost rather
                            // than a never-written page, and drop the
                            // member so the refreshed parity (computed
                            // over survivors) is never used to fabricate
                            // its data.
                            self.sys.ftl.declare_lost(lpn);
                            self.stripes.forget_member(lpn);
                            report.sys_lost.push((id, lpn));
                            object_lost = true;
                        }
                    }
                    Partition::Spare => {
                        if !self.spare.ftl.is_mapped(lpn) {
                            self.spare.ftl.declare_lost(lpn);
                            report.spare_lost.push((id, lpn));
                            object_lost = true;
                        }
                    }
                }
            }
            if object_lost {
                if let Some(entry) = self.objects.get_mut(&id) {
                    if !entry.damaged {
                        entry.damaged = true;
                        newly_damaged += 1;
                    }
                }
            }
        }
        self.counters.objects_damaged += newly_damaged;

        // Refresh parity for every live stripe and drop parity pages of
        // stripes with no surviving members.
        report.parity_refreshed = self.stripes.scrub_parity(&mut self.sys.ftl)?;
        for lpn in parity_base..self.sys.ftl.logical_pages() {
            if self.sys.ftl.is_mapped(lpn) && !self.stripes.has_stripe(lpn - parity_base) {
                self.sys.ftl.trim(lpn)?;
            }
        }

        Ok(report)
    }
}

impl ObjectStore for SosDevice {
    fn put(&mut self, id: ObjectId, bytes: &[u8], partition: Partition) -> Result<(), ObjectError> {
        if self.objects.contains_key(&id) {
            return Err(ObjectError::Exists(id));
        }
        let lpns = self
            .write_to(partition, bytes)?
            .ok_or(ObjectError::NoSpace)?;
        self.objects.insert(
            id,
            ObjectInfo {
                partition,
                lpns,
                len: bytes.len(),
                damaged: false,
            },
        );
        self.counters.objects += 1;
        self.counters.live_bytes += bytes.len() as u64;
        self.counters.bytes_written += bytes.len() as u64;
        Ok(())
    }

    fn get(&mut self, id: ObjectId) -> Result<ObjectData, ObjectError> {
        let info = self
            .objects
            .get(&id)
            .ok_or(ObjectError::NotFound(id))?
            .clone();
        let read = self
            .store(info.partition)
            .read_object(&info.lpns, info.len)?;
        let mut bytes = read.bytes;
        let mut status = read.status;
        if info.partition == Partition::Sys && !read.lost_pages.is_empty() {
            let repaired = self.repair_sys_pages(&info.lpns, &read.lost_pages, &mut bytes)?;
            if repaired == read.lost_pages.len() {
                status = ObjectStatus::Intact;
            }
        }
        if status == ObjectStatus::PartiallyLost && !info.damaged {
            if let Some(entry) = self.objects.get_mut(&id) {
                entry.damaged = true;
            }
            self.counters.objects_damaged += 1;
        }
        self.counters.bytes_read += bytes.len() as u64;
        self.counters.busy_us += read.latency_us;
        Ok(ObjectData {
            bytes,
            status,
            latency_us: read.latency_us,
        })
    }

    fn update(&mut self, id: ObjectId, bytes: &[u8]) -> Result<(), ObjectError> {
        let info = self
            .objects
            .get(&id)
            .ok_or(ObjectError::NotFound(id))?
            .clone();
        let new_lpns = self
            .write_to(info.partition, bytes)?
            .ok_or(ObjectError::NoSpace)?;
        self.free_from(info.partition, &info.lpns)?;
        let entry = self.objects.get_mut(&id).ok_or(ObjectError::NotFound(id))?;
        entry.lpns = new_lpns;
        self.counters.live_bytes = self.counters.live_bytes + bytes.len() as u64 - entry.len as u64;
        entry.len = bytes.len();
        self.counters.bytes_written += bytes.len() as u64;
        Ok(())
    }

    fn delete(&mut self, id: ObjectId) -> Result<(), ObjectError> {
        let info = self.objects.remove(&id).ok_or(ObjectError::NotFound(id))?;
        // Counters first, so they stay consistent with the directory
        // even when a power cut interrupts the page frees below (the
        // remount re-trim sweeps up whatever was left mapped).
        self.counters.objects -= 1;
        self.counters.live_bytes -= info.len as u64;
        self.free_from(info.partition, &info.lpns)?;
        Ok(())
    }

    fn migrate(&mut self, id: ObjectId, partition: Partition) -> Result<(), ObjectError> {
        let info = self
            .objects
            .get(&id)
            .ok_or(ObjectError::NotFound(id))?
            .clone();
        if info.partition == partition {
            return Ok(());
        }
        // Best-effort read (degradation carries over — §4.2), then move.
        let data = self.get(id)?;
        let new_lpns = self
            .write_to(partition, &data.bytes)?
            .ok_or(ObjectError::NoSpace)?;
        self.free_from(info.partition, &info.lpns)?;
        let entry = self.objects.get_mut(&id).ok_or(ObjectError::NotFound(id))?;
        entry.partition = partition;
        entry.lpns = new_lpns;
        Ok(())
    }

    fn placement(&self, id: ObjectId) -> Option<Partition> {
        self.objects.get(&id).map(|info| info.partition)
    }

    fn advance_days(&mut self, days: f64) {
        self.sys.ftl.advance_days(days);
        self.spare.ftl.advance_days(days);
    }

    fn maintain(&mut self) -> Result<bool, ObjectError> {
        let sys_report = self.sys.ftl.scrub()?;
        let spare_report = self.spare.ftl.scrub()?;
        let sys_lost = self.sys.process_events();
        let spare_lost = self.spare.process_events();
        self.stripes.refresh_stale(&mut self.sys.ftl)?;
        // Mark objects whose pages the FTL reported lost.
        for (partition, lost) in [(Partition::Sys, sys_lost), (Partition::Spare, spare_lost)] {
            if lost.is_empty() {
                continue;
            }
            let lost_set: std::collections::HashSet<u64> = lost.into_iter().collect();
            for info in self.objects.values_mut() {
                if info.partition == partition
                    && !info.damaged
                    && info.lpns.iter().any(|l| lost_set.contains(l))
                {
                    info.damaged = true;
                    self.counters.objects_damaged += 1;
                }
            }
        }
        Ok(sys_report.aborted_no_space
            || spare_report.aborted_no_space
            || self.spare.under_pressure(0.03)
            || self.sys.under_pressure(0.03))
    }

    fn capacity_bytes(&self) -> u64 {
        self.sys.capacity_bytes() + self.spare.capacity_bytes()
    }

    fn counters(&self) -> DeviceCounters {
        let mut counters = self.counters;
        counters.busy_us +=
            self.sys.ftl.device().stats().busy_us + self.spare.ftl.device().stats().busy_us;
        counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(device.is_powered_off(Partition::Sys));

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

    #[test]
    fn remount_repairs_or_declares_referenced_losses() {
        let mut device = device();
        let page = device.sys.ftl.page_bytes();
        // Nine pages per object so each spans more than one stripe.
        let data: Vec<u8> = (0..page * 9).map(|i| (i % 241) as u8).collect();
        device.put(1, &data, Partition::Sys).unwrap();
        device.put(2, &data, Partition::Sys).unwrap();
        device.put(3, &data, Partition::Spare).unwrap();
        device.checkpoint().unwrap();

        let width = device.stripes.width();
        let parity_base = device.stripes.parity_base();
        // The crash window eats one member of object 1: its stripe
        // parity survives, so the remount can rebuild the page.
        let repairable = device.objects[&1].lpns[0];
        // Object 2 loses a member in a *different* stripe plus that
        // stripe's parity: beyond repair, must be declared.
        let dead = *device.objects[&2]
            .lpns
            .iter()
            .find(|&&lpn| lpn / width != repairable / width)
            .expect("nine pages span several stripes");
        let parity = parity_base + dead / width;
        // A SPARE page vanishes too: tolerated but declared.
        let faded = device.objects[&3].lpns[0];
        device.sys.ftl.trim(repairable).unwrap();
        device.sys.ftl.trim(dead).unwrap();
        if device.sys.ftl.is_mapped(parity) {
            device.sys.ftl.trim(parity).unwrap();
        }
        device.spare.ftl.trim(faded).unwrap();
        // Trims are volatile until checkpointed; make the simulated
        // crash-window losses durable so recovery cannot resurrect them.
        device.checkpoint().unwrap();

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
    fn geometry_split_is_complementary() {
        let base = DeviceConfig::tiny(CellDensity::Plc).geometry;
        let (sys, spare) = split_geometry(&base, 0.5);
        assert_eq!(
            sys.blocks_per_plane + spare.blocks_per_plane,
            base.blocks_per_plane
        );
        assert_eq!(sys.page_bytes, base.page_bytes);
    }
}
