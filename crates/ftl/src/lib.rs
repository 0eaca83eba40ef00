//! # sos-ftl — a page-mapped flash translation layer
//!
//! The SSD-firmware substrate for the SOS reproduction of *"Degrading
//! Data to Save the Planet"* (HotOS '23). It provides:
//!
//! * logical-to-physical page mapping with FDP-style data placement —
//!   a [`PlacementHandle`] on each write names the reclaim unit it
//!   appends into ([`placement`]) — driven by the write path in [`ftl`],
//! * garbage collection (greedy and cost-benefit) and optional static
//!   wear leveling — disabled on the SOS SPARE partition per §4.3
//!   ([`gc`]),
//! * a background scrubber that refreshes ageing data, retires worn
//!   blocks (capacity variance) and resuscitates PLC blocks at reduced
//!   pseudo-density ([`scrub`]),
//! * crash recovery — OOB-scan L2P rebuild bounded by an on-flash
//!   checkpoint ([`recovery`]),
//! * write-amplification / wear / loss statistics ([`stats`]).

#![warn(missing_docs)]
// The storage stack degrades, it never aborts: a panic would end the
// simulated device life and every lifetime claim past it.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod audit;
pub mod config;
pub mod ftl;
pub mod gc;
pub mod placement;
pub mod recovery;
pub mod scrub;
pub mod stats;

pub use audit::{BlockMapSnapshot, FtlState, SlotSnapshot};
pub use config::{FtlConfig, GcPolicy, ResuscitationPolicy, ScrubConfig, WearLevelingConfig};
pub use ftl::{Ftl, FtlError, FtlEvent, ReadResult};
pub use placement::{PlacementHandle, PlacementStats};
pub use recovery::RecoveryReport;
pub use scrub::ScrubReport;
pub use stats::{FtlStats, WearSummary};
