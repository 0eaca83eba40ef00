//! # sos-hostfs — a capacity-variance-tolerant host filesystem
//!
//! The host-side substrate the paper's §4.3 requires: "the capacity of
//! the device may eventually slowly reduce and the host file system will
//! be modified accordingly to tolerate capacity-variance". This crate
//! provides:
//!
//! * [`store`] — the [`PageStore`] abstraction the FS
//!   runs on (the SOS device implements it; a memory store serves tests),
//! * [`alloc`] — a first-fit extent allocator with a movable capacity
//!   ceiling,
//! * [`fs`] — a small extent-based filesystem with per-file placement
//!   hints and [`shrink`](fs::HostFs::shrink) support that relocates
//!   extents below a reduced ceiling.

// The storage stack degrades, it never aborts: a panic would end the
// simulated device life and every lifetime claim past it.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod alloc;
pub mod fs;
pub mod store;

pub use alloc::Allocator;
pub use fs::{Extent, FileId, FsError, HostFs, Inode};
pub use store::{MemStore, PageStore, PlacementHint, StoreError};
