//! Baseline devices for comparison: a conventional single-partition SSD
//! (TLC or QLC, full-strength ECC, wear leveling on).
//!
//! Every experiment that reports "SOS vs. baseline" runs the same object
//! workload against [`BaselineDevice`] instances at these densities. A
//! baseline is one [`PartitionStore`] without stripe parity under the
//! same object directory as the SOS device.

use crate::object::{
    DeviceCounters, Directory, ObjectData, ObjectError, ObjectId, ObjectStore, Partition,
};
use crate::partition::PartitionStore;
use sos_flash::{CellDensity, DeviceConfig, ProgramMode};
use sos_ftl::{DataTag, Ftl, FtlConfig};

/// A conventional personal storage device: one partition, one density.
pub struct BaselineDevice {
    store: PartitionStore,
    directory: Directory,
}

impl BaselineDevice {
    /// Builds a baseline at the given native density over `base`
    /// geometry (the density is overridden).
    pub fn new(mut base: DeviceConfig, density: CellDensity) -> Self {
        base.physical_density = density;
        let ftl = Ftl::new(&base, FtlConfig::conventional(ProgramMode::native(density)));
        BaselineDevice {
            store: PartitionStore::new(ftl, DataTag::sys_hot()),
            directory: Directory::default(),
        }
    }

    /// A TLC baseline on the small simulation geometry.
    pub fn tlc_small(seed: u64) -> Self {
        BaselineDevice::new(
            DeviceConfig::sim_small(CellDensity::Tlc).with_seed(seed),
            CellDensity::Tlc,
        )
    }

    /// A QLC baseline on the small simulation geometry.
    pub fn qlc_small(seed: u64) -> Self {
        BaselineDevice::new(
            DeviceConfig::sim_small(CellDensity::Qlc).with_seed(seed),
            CellDensity::Qlc,
        )
    }

    /// Access to the underlying partition (experiments).
    pub fn partition(&self) -> &PartitionStore {
        &self.store
    }
}

/// Every object lives on the one partition, recorded as SYS; placement
/// hints are ignored.
impl ObjectStore for BaselineDevice {
    fn put(
        &mut self,
        id: ObjectId,
        bytes: &[u8],
        _partition: Partition,
    ) -> Result<(), ObjectError> {
        self.directory
            .put(&mut self.store, id, bytes, Partition::Sys)
    }

    fn get(&mut self, id: ObjectId) -> Result<ObjectData, ObjectError> {
        self.directory.get(&mut self.store, id)
    }

    fn update(&mut self, id: ObjectId, bytes: &[u8]) -> Result<(), ObjectError> {
        self.directory.update(&mut self.store, id, bytes)
    }

    fn delete(&mut self, id: ObjectId) -> Result<(), ObjectError> {
        self.directory.delete(&mut self.store, id)
    }

    fn migrate(&mut self, id: ObjectId, _partition: Partition) -> Result<(), ObjectError> {
        self.directory.info(id).map(|_| ())
    }

    fn placement(&self, id: ObjectId) -> Option<Partition> {
        self.directory.info(id).ok().map(|info| info.partition)
    }

    fn advance_days(&mut self, days: f64) {
        self.store.ftl.advance_days(days);
    }

    fn maintain(&mut self) -> Result<bool, ObjectError> {
        let report = self.store.ftl.scrub()?;
        let lost = self.store.process_events();
        self.directory.mark_lost_pages(Partition::Sys, lost);
        Ok(report.aborted_no_space || self.store.under_pressure(0.03))
    }

    fn capacity_bytes(&self) -> u64 {
        self.store.capacity_bytes()
    }

    fn counters(&self) -> DeviceCounters {
        self.directory
            .counters(self.store.ftl.device().stats().busy_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectStatus;

    fn tiny_tlc() -> BaselineDevice {
        BaselineDevice::new(DeviceConfig::tiny(CellDensity::Tlc), CellDensity::Tlc)
    }

    #[test]
    fn roundtrip() {
        let mut device = tiny_tlc();
        let data: Vec<u8> = (0..5000).map(|i| (i % 253) as u8).collect();
        device.put(1, &data, Partition::Spare).unwrap(); // hint ignored
        let got = device.get(1).unwrap();
        assert_eq!(got.bytes, data);
        assert_eq!(got.status, ObjectStatus::Intact);
    }

    #[test]
    fn update_and_delete() {
        let mut device = tiny_tlc();
        device.put(1, &[1u8; 100], Partition::Sys).unwrap();
        device.update(1, &[2u8; 200]).unwrap();
        assert_eq!(device.get(1).unwrap().bytes, vec![2u8; 200]);
        device.delete(1).unwrap();
        assert_eq!(device.get(1).unwrap_err(), ObjectError::NotFound(1));
    }

    #[test]
    fn migrate_is_a_noop() {
        let mut device = tiny_tlc();
        device.put(1, &[1u8; 10], Partition::Sys).unwrap();
        device.migrate(1, Partition::Spare).unwrap();
        assert_eq!(device.placement(1), Some(Partition::Sys));
    }

    #[test]
    fn qlc_has_more_capacity_than_tlc_on_same_silicon() {
        // Same geometry interpreted at different densities has the same
        // byte capacity in this simulator (geometry is fixed), so this
        // checks the *carbon* story instead: per-GB cost differs. Here we
        // only validate both construct and export capacity.
        let tlc = BaselineDevice::tlc_small(1);
        let qlc = BaselineDevice::qlc_small(1);
        assert!(tlc.capacity_bytes() > 0);
        assert_eq!(tlc.capacity_bytes(), qlc.capacity_bytes());
    }
}
