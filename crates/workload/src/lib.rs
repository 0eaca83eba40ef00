//! # sos-workload — personal-device workload generation
//!
//! Synthetic-but-calibrated stand-in for the private smartphone traces
//! the SOS paper builds on (Zhang et al. MobiSys '19; refs 66–68):
//!
//! * [`filetypes`] — file classes with realistic byte shares (media >50%
//!   of resident bytes), size distributions, update/read behaviour, and
//!   ground-truth error-tolerance / significance labels,
//! * [`zipf`] — skewed access sampling,
//! * [`device_life`] — a day-by-day multi-year generator with usage
//!   profiles from light use to the paper's worst-case "9 hours of Final
//!   Fantasy daily",
//! * [`trace`] — the operation records consumed by the storage stack,
//! * [`flash_cache`] — a datacenter flash-cache scenario (Zipf GETs,
//!   admit-on-miss, FIFO eviction, degradable objects) for the FDP
//!   placement experiments.

pub mod device_life;
pub mod filetypes;
pub mod flash_cache;
pub(crate) mod hash;
pub mod trace;
pub mod zipf;

pub use device_life::{DeviceLife, UsageProfile, WorkloadConfig};
pub use filetypes::{byte_share, FileClass, FileMeta};
pub use trace::{DayTrace, TraceOp};
pub use zipf::Zipf;

pub use flash_cache::{
    CacheBackend, CacheBackendError, CacheClass, CacheDayReport, CacheReadback, CacheTemp,
    FlashCache, FlashCacheConfig, ObjectMeta,
};
