//! # sos-flash — NAND flash device simulator
//!
//! A behavioural simulator of 3D NAND flash used as the hardware substrate
//! for the SOS (Sustainability-Oriented Storage) reproduction of
//! *"Degrading Data to Save the Planet"* (HotOS '23).
//!
//! The simulator models:
//!
//! * **Cell densities** from SLC through PLC, including *pseudo* modes in
//!   which a physically dense cell (e.g. PLC) is programmed with fewer
//!   levels (e.g. pseudo-QLC) trading capacity for margin and endurance
//!   ([`density`]).
//! * **Device geometry** — blocks and pages, with one flat page index as
//!   the page address, and NAND programming constraints
//!   (erase-before-program, in-order page programming within a block)
//!   ([`geometry`], [`device`]).
//! * **A voltage-window error model** — threshold-voltage distributions
//!   widen with program/erase wear, retention time and read disturb; the
//!   raw bit error rate (RBER) is derived from the overlap of adjacent
//!   level distributions via a Q-function, so pseudo-modes and density
//!   effects fall out of the physics rather than being hard-coded
//!   ([`cell`]).
//! * **Bit-error injection on reads** — each block has one error
//!   sampler that memoizes the static RBER term, draws error counts in
//!   Poisson batches, and falls back to a per-page draw outside the
//!   batch envelope; the device flips the drawn bits (`batch.rs`,
//!   `errors.rs`).
//! * **Operation timing** — per-density read/program/erase latencies
//!   from fixed calibration constants ([`timing`]).
//!
//! The entry point is [`device::FlashDevice`]; presets for realistic
//! devices live in [`config`].

// The storage stack degrades, it never aborts: a panic would end the
// simulated device life and every lifetime claim past it.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub(crate) mod batch;
pub mod cell;
pub mod config;
pub mod density;
pub mod device;
pub(crate) mod errors;
pub mod fault;
pub mod geometry;
pub mod oob;
pub(crate) mod store;
pub mod timing;

pub use cell::CellState;
pub use config::DeviceConfig;
pub use density::{CellDensity, ProgramMode};
pub use device::{BlockSnapshot, DeviceStats, FlashDevice, FlashError, ReadOutcome};
pub use fault::{FaultAt, FaultInjector, FaultKind, FaultOp, FaultPlan};
pub use geometry::Geometry;
pub use oob::{OobMeta, PageKind};
