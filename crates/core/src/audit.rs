//! Read-only snapshots of SOS-device state for external invariant
//! auditing.
//!
//! `sos-analyze` walks a [`CoreState`] to verify the paper's partition
//! rules (§4.2/§4.4): SYS objects live on the pseudo-QLC partition under
//! stripe parity, SPARE objects on native-PLC (or resuscitated
//! pseudo-TLC/SLC) blocks. Like the FTL snapshots these are plain data,
//! so tests can corrupt copies freely.

use crate::object::{ObjectId, Partition};
use sos_ftl::FtlState;
use std::collections::BTreeSet;

/// One stored object's placement record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectSnapshot {
    /// Host-assigned object id.
    pub id: ObjectId,
    /// Partition the object lives on.
    pub partition: Partition,
    /// Logical pages holding the object's data, in order.
    pub lpns: Vec<u64>,
    /// Object length in bytes.
    pub len: usize,
    /// Whether a read ever returned partially-lost data.
    pub damaged: bool,
}

/// A complete snapshot of the SOS device's auditable state: both
/// partition FTLs, the stripe-parity layout and RAM-parity set, and the
/// object directory.
///
/// Produced by [`crate::SosDevice::audit_snapshot`].
#[derive(Debug, Clone)]
pub struct CoreState {
    /// The SYS (durable, pseudo-QLC) partition FTL.
    pub sys: FtlState,
    /// The SPARE (degradable, native-PLC) partition FTL.
    pub spare: FtlState,
    /// Data LPNs per parity page on SYS.
    pub stripe_width: u64,
    /// First SYS LPN of the reserved parity range.
    pub parity_base: u64,
    /// SYS stripes whose parity lives in controller RAM (written back
    /// since the last flush), so their on-flash parity page may be stale
    /// or absent.
    pub ram_parity: BTreeSet<u64>,
    /// Every stored object's placement record, sorted by id.
    pub objects: Vec<ObjectSnapshot>,
}
