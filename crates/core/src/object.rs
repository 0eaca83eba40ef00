//! Object-granular storage API shared by the SOS device and the
//! baseline devices, and the one object directory both keep.
//!
//! SOS manages *files* (objects), not raw blocks: the classifier decides
//! placement per file and the device moves whole files between
//! partitions (§4.2, Fig. 2). [`ObjectStore`] is the interface the
//! controller and the experiment harnesses program against; each device
//! implements it by picking the partition store and handing it to the
//! directory.

use crate::partition::{ObjectPages, PartitionStore};
use serde::{Deserialize, Serialize};
use sos_ecc::PageStatus;
use sos_flash::FlashError;
use sos_ftl::FtlError;
use std::collections::{BTreeMap, BTreeSet};

/// Object identifier (matches workload file ids).
pub type ObjectId = u64;

/// Where an object's pages live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Partition {
    /// Durable partition (pseudo-QLC + parity under SOS; the whole
    /// device for baselines).
    Sys,
    /// Degradable approximate partition (native PLC under SOS).
    Spare,
}

/// Integrity of a retrieved object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObjectStatus {
    /// All pages verified intact.
    Intact,
    /// At least one page carries detected residual errors (approximate
    /// data has degraded).
    Degraded,
    /// At least one page was unrecoverable; the returned bytes contain
    /// gaps of stale/zero data.
    PartiallyLost,
}

/// A retrieved object.
#[derive(Debug, Clone)]
pub struct ObjectData {
    /// The object's bytes (best effort).
    pub bytes: Vec<u8>,
    /// Worst-page integrity status.
    pub status: ObjectStatus,
    /// Total device latency spent serving the read, µs.
    pub latency_us: f64,
}

/// Errors from object operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectError {
    /// Unknown object.
    NotFound(ObjectId),
    /// Object already exists (use `update`).
    Exists(ObjectId),
    /// The device cannot hold the object.
    NoSpace,
    /// The device lost power mid-operation: every further call fails
    /// the same way until the host remounts the recovered device. The
    /// interrupted operation took partial effect on flash at most; the
    /// crash-recovery scan decides what survived.
    PowerLoss,
    /// Internal storage failure.
    Storage(String),
}

impl std::fmt::Display for ObjectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObjectError::NotFound(id) => write!(f, "object {id} not found"),
            ObjectError::Exists(id) => write!(f, "object {id} already exists"),
            ObjectError::NoSpace => write!(f, "device full"),
            ObjectError::PowerLoss => write!(f, "device lost power; remount required"),
            ObjectError::Storage(e) => write!(f, "storage failure: {e}"),
        }
    }
}

impl std::error::Error for ObjectError {}

impl From<FtlError> for ObjectError {
    fn from(e: FtlError) -> Self {
        match e {
            FtlError::NoSpace => ObjectError::NoSpace,
            FtlError::Device(FlashError::PowerLoss) => ObjectError::PowerLoss,
            other => ObjectError::Storage(other.to_string()),
        }
    }
}

/// Summary counters every device flavour reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceCounters {
    /// Objects currently stored.
    pub objects: u64,
    /// Live object bytes.
    pub live_bytes: u64,
    /// Total host bytes written over the device lifetime.
    pub bytes_written: u64,
    /// Total host bytes read.
    pub bytes_read: u64,
    /// Objects that returned `PartiallyLost` at least once.
    pub objects_damaged: u64,
    /// Device busy time, µs.
    pub busy_us: f64,
}

/// Location record for one stored object.
#[derive(Debug, Clone)]
pub(crate) struct ObjectInfo {
    /// Partition holding the object's pages (always SYS on a
    /// single-partition device).
    pub partition: Partition,
    /// The object's pages, with each page's checksum where its
    /// partition keeps parity.
    pub pages: ObjectPages,
    /// Object length in bytes.
    pub len: usize,
    /// Whether the object ever lost data (counted once in
    /// [`DeviceCounters::objects_damaged`]).
    pub damaged: bool,
}

/// The object directory both devices keep, and the object operations
/// on top of it: one [`ObjectInfo`] per stored object, and the
/// [`DeviceCounters`] its operations move. Each operation takes the
/// [`PartitionStore`] to act on; the device picks it by partition.
///
/// Host metadata, modelled as crash-safe (a journaled filesystem on a
/// separate boot device): the remount path reads it to decide what the
/// recovered flash must still hold, and checks every page it rebuilds
/// from parity against the checksum recorded here.
#[derive(Debug, Default)]
pub(crate) struct Directory {
    objects: BTreeMap<ObjectId, ObjectInfo>,
    counters: DeviceCounters,
}

impl Directory {
    /// The record of `id`.
    pub fn info(&self, id: ObjectId) -> Result<&ObjectInfo, ObjectError> {
        self.objects.get(&id).ok_or(ObjectError::NotFound(id))
    }

    /// Stores a new object in `store`, recorded on `partition`.
    pub fn put(
        &mut self,
        store: &mut PartitionStore,
        id: ObjectId,
        bytes: &[u8],
        partition: Partition,
    ) -> Result<(), ObjectError> {
        if self.objects.contains_key(&id) {
            return Err(ObjectError::Exists(id));
        }
        let pages = store.write_object(bytes)?.ok_or(ObjectError::NoSpace)?;
        let info = ObjectInfo {
            partition,
            pages,
            len: bytes.len(),
            damaged: false,
        };
        self.objects.insert(id, info);
        self.counters.objects += 1;
        self.counters.live_bytes += bytes.len() as u64;
        self.counters.bytes_written += bytes.len() as u64;
        Ok(())
    }

    /// Reads `id` from `store`, the store holding it, and marks the
    /// object damaged when the read comes back partially lost.
    pub fn get(
        &mut self,
        store: &mut PartitionStore,
        id: ObjectId,
    ) -> Result<ObjectData, ObjectError> {
        let info = self.objects.get_mut(&id).ok_or(ObjectError::NotFound(id))?;
        let data = store.read_object(&info.pages.lpns, info.len)?;
        if data.status == ObjectStatus::PartiallyLost && !info.damaged {
            info.damaged = true;
            self.counters.objects_damaged += 1;
        }
        self.counters.bytes_read += data.bytes.len() as u64;
        self.counters.busy_us += data.latency_us;
        Ok(data)
    }

    /// Overwrites `id` in `store`, the store holding it: the new copy
    /// is written before the old one is freed.
    pub fn update(
        &mut self,
        store: &mut PartitionStore,
        id: ObjectId,
        bytes: &[u8],
    ) -> Result<(), ObjectError> {
        let info = self.objects.get_mut(&id).ok_or(ObjectError::NotFound(id))?;
        let pages = store.write_object(bytes)?.ok_or(ObjectError::NoSpace)?;
        store.free_object(&info.pages.lpns)?;
        self.counters.live_bytes = self.counters.live_bytes + bytes.len() as u64 - info.len as u64;
        self.counters.bytes_written += bytes.len() as u64;
        info.pages = pages;
        info.len = bytes.len();
        Ok(())
    }

    /// Deletes `id` from `store`, the store holding it. The record and
    /// the counters go first, so they stay consistent with each other
    /// even when a power cut interrupts the frees (the remount re-trim
    /// sweeps up whatever was left mapped).
    pub fn delete(&mut self, store: &mut PartitionStore, id: ObjectId) -> Result<(), ObjectError> {
        let info = self.objects.remove(&id).ok_or(ObjectError::NotFound(id))?;
        self.counters.objects -= 1;
        self.counters.live_bytes -= info.len as u64;
        store.free_object(&info.pages.lpns)?;
        Ok(())
    }

    /// Moves `id` from `from`, the store holding it, to `to`, recorded
    /// on `partition`: a best-effort read (degradation carries over,
    /// §4.2), a write, then the old copy is freed.
    pub fn migrate(
        &mut self,
        from: &mut PartitionStore,
        to: &mut PartitionStore,
        id: ObjectId,
        partition: Partition,
    ) -> Result<(), ObjectError> {
        let data = self.get(from, id)?;
        let pages = to.write_object(&data.bytes)?.ok_or(ObjectError::NoSpace)?;
        let info = self.objects.get_mut(&id).ok_or(ObjectError::NotFound(id))?;
        from.free_object(&info.pages.lpns)?;
        info.partition = partition;
        info.pages = pages;
        Ok(())
    }

    /// Marks damaged, counting each once, every object on `partition`
    /// holding one of the `lost` pages.
    pub fn mark_lost_pages(&mut self, partition: Partition, lost: impl IntoIterator<Item = u64>) {
        let lost_pages: BTreeSet<u64> = lost.into_iter().collect();
        if lost_pages.is_empty() {
            return;
        }
        for info in self.objects.values_mut() {
            if info.partition == partition
                && !info.damaged
                && info.pages.lpns.iter().any(|lpn| lost_pages.contains(lpn))
            {
                info.damaged = true;
                self.counters.objects_damaged += 1;
            }
        }
    }

    /// Every object's record, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &ObjectInfo)> {
        self.objects.iter().map(|(&id, info)| (id, info))
    }

    /// The pages each object on `partition` holds, in id order (what a
    /// remount of that partition must find on flash).
    pub fn pages_on(&self, partition: Partition) -> Vec<(ObjectId, &ObjectPages)> {
        self.iter()
            .filter(|(_, info)| info.partition == partition)
            .map(|(id, info)| (id, &info.pages))
            .collect()
    }

    /// The counters, with the devices' `busy_us` added to the host-side
    /// read time.
    pub fn counters(&self, device_busy_us: f64) -> DeviceCounters {
        let mut counters = self.counters;
        counters.busy_us += device_busy_us;
        counters
    }
}

/// The object-granular device interface.
pub trait ObjectStore {
    /// Stores a new object on the given partition.
    fn put(&mut self, id: ObjectId, bytes: &[u8], partition: Partition) -> Result<(), ObjectError>;

    /// Retrieves an object.
    fn get(&mut self, id: ObjectId) -> Result<ObjectData, ObjectError>;

    /// Overwrites an existing object in place (same partition).
    fn update(&mut self, id: ObjectId, bytes: &[u8]) -> Result<(), ObjectError>;

    /// Deletes an object.
    fn delete(&mut self, id: ObjectId) -> Result<(), ObjectError>;

    /// Moves an object to another partition (classifier demotion /
    /// promotion). No-op if it is already there.
    fn migrate(&mut self, id: ObjectId, partition: Partition) -> Result<(), ObjectError>;

    /// Which partition an object currently lives on.
    fn placement(&self, id: ObjectId) -> Option<Partition>;

    /// Advances the simulated clock (retention degradation accrues).
    fn advance_days(&mut self, days: f64);

    /// Runs periodic maintenance (scrubbing etc.); returns whether the
    /// device is under space pressure and the host should free data.
    fn maintain(&mut self) -> Result<bool, ObjectError>;

    /// Usable capacity in bytes the device can currently sustain.
    fn capacity_bytes(&self) -> u64;

    /// Summary counters.
    fn counters(&self) -> DeviceCounters;
}

/// Merges page statuses into an object status (worst wins).
pub fn merge_status(object: ObjectStatus, page: PageStatus) -> ObjectStatus {
    match (object, page) {
        (ObjectStatus::PartiallyLost, _) | (_, PageStatus::Uncorrectable) => {
            ObjectStatus::PartiallyLost
        }
        (ObjectStatus::Degraded, _) | (_, PageStatus::DegradedDetected) => ObjectStatus::Degraded,
        (ObjectStatus::Intact, PageStatus::Intact) => ObjectStatus::Intact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ftl_errors_map_to_object_errors() {
        assert_eq!(ObjectError::from(FtlError::NoSpace), ObjectError::NoSpace);
        assert_eq!(
            ObjectError::from(FtlError::Device(FlashError::PowerLoss)),
            ObjectError::PowerLoss
        );
        let lost = FtlError::DataLost(7);
        assert_eq!(
            ObjectError::from(lost.clone()),
            ObjectError::Storage(lost.to_string())
        );
    }

    #[test]
    fn status_merge_is_worst_wins() {
        use ObjectStatus::*;
        assert_eq!(merge_status(Intact, PageStatus::Intact), Intact);
        assert_eq!(merge_status(Intact, PageStatus::DegradedDetected), Degraded);
        assert_eq!(merge_status(Degraded, PageStatus::Intact), Degraded);
        assert_eq!(
            merge_status(Degraded, PageStatus::Uncorrectable),
            PartiallyLost
        );
        assert_eq!(
            merge_status(PartiallyLost, PageStatus::Intact),
            PartiallyLost
        );
    }
}
