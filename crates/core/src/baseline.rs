//! Baseline devices for comparison: a conventional single-partition SSD
//! (TLC or QLC, full-strength ECC, wear leveling on).
//!
//! Every experiment that reports "SOS vs. baseline" runs the same object
//! workload against [`BaselineDevice`] instances at these densities.

use crate::object::{
    DeviceCounters, ObjectData, ObjectError, ObjectId, ObjectStatus, ObjectStore, Partition,
};
use crate::partition::PartitionStore;
use sos_flash::{CellDensity, DeviceConfig, ProgramMode};
use sos_ftl::{DataTag, Ftl, FtlConfig};
use std::collections::BTreeMap;

/// Location record for one stored object.
#[derive(Debug, Clone)]
struct ObjectInfo {
    lpns: Vec<u64>,
    len: usize,
    damaged: bool,
}

/// A conventional personal storage device: one partition, one density.
pub struct BaselineDevice {
    store: PartitionStore,
    objects: BTreeMap<ObjectId, ObjectInfo>,
    counters: DeviceCounters,
}

impl BaselineDevice {
    /// Builds a baseline at the given native density over `base`
    /// geometry (the density is overridden).
    pub fn new(mut base: DeviceConfig, density: CellDensity) -> Self {
        base.physical_density = density;
        let ftl = Ftl::new(&base, FtlConfig::conventional(ProgramMode::native(density)));
        BaselineDevice {
            store: PartitionStore::new(ftl, DataTag::sys_hot()),
            objects: BTreeMap::new(),
            counters: DeviceCounters::default(),
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

impl ObjectStore for BaselineDevice {
    fn put(
        &mut self,
        id: ObjectId,
        bytes: &[u8],
        _partition: Partition,
    ) -> Result<(), ObjectError> {
        if self.objects.contains_key(&id) {
            return Err(ObjectError::Exists(id));
        }
        let lpns = self
            .store
            .write_object(bytes)?
            .ok_or(ObjectError::NoSpace)?;
        self.objects.insert(
            id,
            ObjectInfo {
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
        let read = self.store.read_object(&info.lpns, info.len)?;
        if read.status == ObjectStatus::PartiallyLost && !info.damaged {
            if let Some(entry) = self.objects.get_mut(&id) {
                entry.damaged = true;
            }
            self.counters.objects_damaged += 1;
        }
        self.counters.bytes_read += read.bytes.len() as u64;
        self.counters.busy_us += read.latency_us;
        Ok(ObjectData {
            bytes: read.bytes,
            status: read.status,
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
            .store
            .write_object(bytes)?
            .ok_or(ObjectError::NoSpace)?;
        self.store.free_object(&info.lpns)?;
        let entry = self.objects.get_mut(&id).ok_or(ObjectError::NotFound(id))?;
        entry.lpns = new_lpns;
        self.counters.live_bytes = self.counters.live_bytes + bytes.len() as u64 - entry.len as u64;
        entry.len = bytes.len();
        self.counters.bytes_written += bytes.len() as u64;
        Ok(())
    }

    fn delete(&mut self, id: ObjectId) -> Result<(), ObjectError> {
        let info = self.objects.remove(&id).ok_or(ObjectError::NotFound(id))?;
        self.store.free_object(&info.lpns)?;
        self.counters.objects -= 1;
        self.counters.live_bytes -= info.len as u64;
        Ok(())
    }

    fn migrate(&mut self, id: ObjectId, _partition: Partition) -> Result<(), ObjectError> {
        // Single-partition device: placement hints are ignored.
        if self.objects.contains_key(&id) {
            Ok(())
        } else {
            Err(ObjectError::NotFound(id))
        }
    }

    fn placement(&self, id: ObjectId) -> Option<Partition> {
        self.objects.get(&id).map(|_| Partition::Sys)
    }

    fn advance_days(&mut self, days: f64) {
        self.store.ftl.advance_days(days);
    }

    fn maintain(&mut self) -> Result<bool, ObjectError> {
        let report = self.store.ftl.scrub()?;
        let lost = self.store.process_events();
        if !lost.is_empty() {
            let lost_set: std::collections::HashSet<u64> = lost.into_iter().collect();
            for info in self.objects.values_mut() {
                if !info.damaged && info.lpns.iter().any(|l| lost_set.contains(l)) {
                    info.damaged = true;
                    self.counters.objects_damaged += 1;
                }
            }
        }
        Ok(report.aborted_no_space || self.store.under_pressure(0.03))
    }

    fn capacity_bytes(&self) -> u64 {
        self.store.capacity_bytes()
    }

    fn counters(&self) -> DeviceCounters {
        let mut counters = self.counters;
        counters.busy_us += self.store.ftl.device().stats().busy_us;
        counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
