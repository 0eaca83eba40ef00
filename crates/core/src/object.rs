//! Object-granular storage API shared by the SOS device and the
//! baseline devices.
//!
//! SOS manages *files* (objects), not raw blocks: the classifier decides
//! placement per file and the device moves whole files between
//! partitions (§4.2, Fig. 2). [`ObjectStore`] is the interface the
//! controller and the experiment harnesses program against.

use serde::{Deserialize, Serialize};
use sos_ecc::PageStatus;
use sos_flash::FlashError;
use sos_ftl::FtlError;

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
