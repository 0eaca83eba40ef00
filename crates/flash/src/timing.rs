//! Operation latency model.
//!
//! Denser cells are slower: programming uses incremental step-pulse
//! programming (ISPP) whose step count grows with the number of voltage
//! levels, and reads need more sense operations to resolve more levels
//! (§2.1, §4.5). Pseudo-modes therefore also regain *speed*: a PLC cell
//! programmed as pseudo-QLC takes roughly QLC time.
//!
//! Latencies are returned in microseconds. They are deterministic
//! functions of the programmed density, with fixed calibration
//! constants, so simulations are reproducible. Queueing and channel/die
//! contention are left out, which is why the geometry has no
//! parallelism hierarchy.

use crate::density::ProgramMode;
use serde::{Deserialize, Serialize};

/// Latency of one flash array operation, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpLatencies {
    /// Array read time (tR).
    pub read_us: f64,
    /// Page program time (tPROG).
    pub program_us: f64,
    /// Block erase time (tBERS).
    pub erase_us: f64,
}

// Calibrated against public datasheet ballparks: SLC reads ~30 µs /
// programs ~200 µs, TLC ~60/800 µs, QLC ~100/1600 µs, with PLC projected
// at ~180/3200 µs (nearline-class, §4.5).

/// Fixed read overhead (sense amp setup), µs.
const READ_BASE_US: f64 = 20.0;
/// Additional read time per voltage level, µs.
const READ_PER_LEVEL_US: f64 = 5.0;
/// Program time per voltage level (ISPP steps), µs.
const PROGRAM_PER_LEVEL_US: f64 = 100.0;
/// Fixed erase time, µs.
const ERASE_BASE_US: f64 = 2000.0;
/// Additional erase time per *physical* level, µs.
const ERASE_PER_LEVEL_US: f64 = 60.0;
/// Channel transfer bandwidth for page data, MB/s.
const CHANNEL_MB_S: f64 = 800.0;

/// Array latencies for a block programmed in `mode`.
///
/// Read and program scale with the *logical* level count (that is what
/// the sense/ISPP machinery has to resolve); erase scales with the
/// *physical* level count (the whole window must be discharged).
pub fn latencies(mode: ProgramMode) -> OpLatencies {
    let logical_levels = mode.logical.levels() as f64;
    let physical_levels = mode.physical.levels() as f64;
    OpLatencies {
        read_us: READ_BASE_US + READ_PER_LEVEL_US * logical_levels,
        program_us: PROGRAM_PER_LEVEL_US * logical_levels,
        erase_us: ERASE_BASE_US + ERASE_PER_LEVEL_US * physical_levels,
    }
}

/// Time to move `bytes` over the channel, in µs.
pub fn transfer_us(bytes: usize) -> f64 {
    bytes as f64 / CHANNEL_MB_S
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::CellDensity;

    #[test]
    fn denser_modes_are_slower() {
        let mut prev_read = 0.0;
        let mut prev_prog = 0.0;
        for d in CellDensity::ALL {
            let l = latencies(ProgramMode::native(d));
            assert!(l.read_us > prev_read, "{d} read");
            assert!(l.program_us > prev_prog, "{d} program");
            prev_read = l.read_us;
            prev_prog = l.program_us;
        }
    }

    #[test]
    fn datasheet_ballparks() {
        let tlc = latencies(ProgramMode::native(CellDensity::Tlc));
        assert!(
            (40.0..=100.0).contains(&tlc.read_us),
            "TLC tR {}",
            tlc.read_us
        );
        assert!(
            (500.0..=1200.0).contains(&tlc.program_us),
            "TLC tPROG {}",
            tlc.program_us
        );
        let plc = latencies(ProgramMode::native(CellDensity::Plc));
        assert!(plc.program_us >= 2.0 * tlc.program_us, "PLC much slower");
    }

    #[test]
    fn pseudo_mode_regains_speed() {
        let native = latencies(ProgramMode::native(CellDensity::Plc));
        let pqlc = latencies(ProgramMode::pseudo(CellDensity::Plc, CellDensity::Qlc));
        let qlc = latencies(ProgramMode::native(CellDensity::Qlc));
        assert!(pqlc.program_us < native.program_us);
        assert!((pqlc.program_us - qlc.program_us).abs() < 1e-9);
        // Erase still pays for the physical window.
        assert!(pqlc.erase_us > qlc.erase_us);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        assert!((transfer_us(8192) - 2.0 * transfer_us(4096)).abs() < 1e-9);
        // 4 KiB at 800 MB/s is ~5 µs.
        assert!((transfer_us(4096) - 5.12).abs() < 0.2);
    }
}
