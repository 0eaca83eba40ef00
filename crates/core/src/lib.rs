//! # sos-core — Sustainability-Oriented Storage
//!
//! The primary contribution of *"Degrading Data to Save the Planet"*
//! (Zuck, Porter, Tsafrir — HotOS '23), built on the substrate crates:
//!
//! * [`object`] — the object-granular device API (files are the unit of
//!   classification and placement),
//! * [`partition`] / [`stripe`] / [`device`] — the SOS device itself:
//!   a PLC die split into a durable pseudo-QLC SYS partition (strong
//!   BCH + stripe parity) and a degradable native-PLC SPARE partition
//!   (approximate ECC, no preemptive wear leveling, resuscitation),
//! * [`baseline`] — conventional TLC/QLC devices for comparison,
//! * [`controller`] — the host-side daemon loop: classification-driven
//!   demotion (§4.4), auto-delete fallback (§4.5), cloud repair (§4.3),
//! * [`cloud`] — optional golden-copy backup,
//! * [`pagestore`] — mounts `sos-hostfs` on an FTL,
//! * [`sim`] — the end-to-end device-life comparison engine (E11),
//! * [`metrics`] — latency and quality aggregation.
//!
//! ## Quickstart
//!
//! ```
//! use sos_core::{ObjectStore, Partition, SosConfig, SosDevice};
//!
//! let mut device = SosDevice::new(&SosConfig::tiny(7));
//! device.put(1, b"family photo", Partition::Sys).unwrap();
//! device.migrate(1, Partition::Spare).unwrap(); // classifier demotes it
//! let data = device.get(1).unwrap();
//! assert_eq!(data.bytes, b"family photo");
//! ```

pub mod audit;
pub mod baseline;
pub mod cloud;
pub mod controller;
pub mod device;
pub mod metrics;
pub mod object;
pub mod pagestore;
pub mod partition;
pub mod sim;
pub mod stripe;

pub use audit::{CoreState, ObjectSnapshot};
pub use baseline::BaselineDevice;
pub use cloud::{CloudBackup, CloudConfig};
pub use controller::{ControllerConfig, ControllerStats, SosController};
pub use device::{RemountReport, SosConfig, SosDevice};
pub use metrics::{LatencyRecorder, LatencySummary, PerfCounters, QualityTimeline};
pub use object::{
    DeviceCounters, ObjectData, ObjectError, ObjectId, ObjectStatus, ObjectStore, Partition,
};
pub use pagestore::FtlPageStore;
pub use partition::{LpnPool, PartitionStore};
pub use sim::{compare, format_comparison, run_design, DesignKind, SimConfig, SimResult};
pub use stripe::StripeManager;
