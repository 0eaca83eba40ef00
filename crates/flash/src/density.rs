//! Cell densities and programming modes.
//!
//! The paper's core lever is the *density ladder*: moving personal storage
//! from TLC to QLC/PLC stores more bits in the same silicon (§2.2, §4.1),
//! at the cost of endurance and raw reliability. This module captures the
//! ladder and the *pseudo-mode* trick (§4.2–4.3) where a physically dense
//! cell is programmed with fewer voltage levels to regain margin.

use serde::{Deserialize, Serialize};

/// Number of bits stored per flash cell.
///
/// The variants follow the industry ladder described in §2.2 of the paper:
/// single-level (SLC) through penta-level (PLC) cells. Each additional bit
/// doubles the number of voltage levels that must fit inside the same
/// threshold-voltage window, which shrinks inter-level margins and hence
/// endurance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CellDensity {
    /// Single-level cell: 1 bit, 2 levels. Legacy/industrial.
    Slc,
    /// Multi-level cell: 2 bits, 4 levels.
    Mlc,
    /// Triple-level cell: 3 bits, 8 levels. The mainstream personal-device
    /// density the paper proposes to move away from.
    Tlc,
    /// Quad-level cell: 4 bits, 16 levels. Nearline / value SSDs.
    Qlc,
    /// Penta-level cell: 5 bits, 32 levels. Emerging nearline density and
    /// the SPARE-partition medium in SOS.
    Plc,
}

impl CellDensity {
    /// All densities, from least to most dense.
    pub const ALL: [CellDensity; 5] = [
        CellDensity::Slc,
        CellDensity::Mlc,
        CellDensity::Tlc,
        CellDensity::Qlc,
        CellDensity::Plc,
    ];

    /// Bits stored per cell.
    pub const fn bits_per_cell(self) -> u32 {
        match self {
            CellDensity::Slc => 1,
            CellDensity::Mlc => 2,
            CellDensity::Tlc => 3,
            CellDensity::Qlc => 4,
            CellDensity::Plc => 5,
        }
    }

    /// Number of distinguishable voltage levels (`2^bits`).
    pub const fn levels(self) -> u32 {
        1 << self.bits_per_cell()
    }

    /// Rated native program/erase cycle (PEC) endurance.
    ///
    /// Values follow the figures cited in the paper: ~100K PEC for
    /// early-generation SLC down to ~1K PEC for QLC (§2.2, ref. 22), with
    /// PLC endurance reduced by a further factor of 2 vs QLC and 6 vs TLC
    /// (§4.1).
    pub const fn rated_endurance(self) -> u32 {
        match self {
            CellDensity::Slc => 100_000,
            CellDensity::Mlc => 10_000,
            CellDensity::Tlc => 3_000,
            CellDensity::Qlc => 1_000,
            CellDensity::Plc => 500,
        }
    }

    /// Human-readable name ("SLC", "TLC", ...).
    pub const fn name(self) -> &'static str {
        match self {
            CellDensity::Slc => "SLC",
            CellDensity::Mlc => "MLC",
            CellDensity::Tlc => "TLC",
            CellDensity::Qlc => "QLC",
            CellDensity::Plc => "PLC",
        }
    }

    /// Density gain of `self` relative to `other`, as a fraction.
    ///
    /// E.g. `Plc.density_gain_over(Tlc)` is `5/3 - 1 ≈ 0.666`, the paper's
    /// "66% improvement" (§4.1).
    pub fn density_gain_over(self, other: CellDensity) -> f64 {
        self.bits_per_cell() as f64 / other.bits_per_cell() as f64 - 1.0
    }
}

impl std::fmt::Display for CellDensity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a block of physical cells is programmed.
///
/// NAND can program a dense cell with fewer levels than it physically
/// supports ("pseudo" modes, e.g. pSLC caches in TLC drives, or the
/// pseudo-QLC SYS partition and pseudo-TLC resuscitation in SOS §4.2–4.3).
/// The physical cell keeps its noise characteristics; the wider level
/// spacing buys margin, endurance and speed at the cost of capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProgramMode {
    /// The density of the physical cell (fixed at manufacture).
    pub physical: CellDensity,
    /// The density at which the cell is actually programmed
    /// (`logical <= physical`).
    pub logical: CellDensity,
}

impl ProgramMode {
    /// Native programming: logical density equals physical density.
    pub const fn native(density: CellDensity) -> Self {
        ProgramMode {
            physical: density,
            logical: density,
        }
    }

    /// Pseudo programming of a `physical` cell at a lower `logical`
    /// density.
    ///
    /// # Panics
    ///
    /// Panics if `logical` is denser than `physical`; a cell cannot store
    /// more levels than it was manufactured for.
    pub fn pseudo(physical: CellDensity, logical: CellDensity) -> Self {
        // sos-lint: allow(panic-path, "documented contract: a cell cannot store more levels than manufactured; mode pairs are fixed at configuration time")
        assert!(
            logical.bits_per_cell() <= physical.bits_per_cell(),
            "pseudo mode cannot exceed physical density ({logical} > {physical})"
        );
        ProgramMode { physical, logical }
    }

    /// Whether this is a reduced-density (pseudo) mode.
    pub fn is_pseudo(self) -> bool {
        self.logical != self.physical
    }

    /// Bits per cell actually stored.
    pub const fn bits_per_cell(self) -> u32 {
        self.logical.bits_per_cell()
    }

    /// Usable pages of a block of `pages_per_block` physical pages
    /// programmed in this mode: a pseudo mode stores fewer bits per cell,
    /// so fewer logical pages fit.
    pub fn usable_pages(self, pages_per_block: u32) -> u32 {
        let logical_bits = pages_per_block as u64 * self.logical.bits_per_cell() as u64;
        let pages = logical_bits
            .checked_div(self.physical.bits_per_cell() as u64)
            .unwrap_or(0);
        u32::try_from(pages).unwrap_or(u32::MAX)
    }

    /// Effective endurance of the mode in program/erase cycles.
    ///
    /// Programming with fewer levels widens inter-level margins, which
    /// tolerates far more wear-induced distribution widening before read
    /// errors exceed correction budgets. We model the boost as a function
    /// of the margin ratio: halving the level count roughly doubles the
    /// spacing, and empirically (pSLC-in-TLC products, FlexFS-style
    /// reuse) each dropped bit multiplies endurance by ~3-4x. We use the
    /// margin-ratio squared, which lands in that range.
    pub fn effective_endurance(self) -> u32 {
        let base = self.physical.rated_endurance() as f64;
        let margin_ratio = (self.physical.levels() - 1) as f64 / (self.logical.levels() - 1) as f64;
        // sos-lint: allow(no-lossy-cast, "f64→u32 saturating cast of a bounded endurance figure")
        (base * margin_ratio * margin_ratio).round() as u32
    }
}

impl std::fmt::Display for ProgramMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_pseudo() {
            write!(f, "pseudo-{} (in {})", self.logical, self.physical)
        } else {
            write!(f, "{}", self.physical)
        }
    }
}

/// The paper's headline split-device arithmetic (§4.2).
///
/// Given a device whose physical cells are split between a PLC SPARE
/// partition and a pseudo-QLC SYS partition (fractions by cell count),
/// returns the average bits per cell. With a 50/50 split this is
/// `(5 + 4) / 2 = 4.5` bits/cell — a 50% density gain over TLC and 12.5%
/// over QLC for the same cell count (the paper rounds the latter to its
/// "10% capacity gain over QLC" claim, which compares capacity at equal
/// material).
pub fn split_device_bits_per_cell(
    spare_fraction: f64,
    spare: ProgramMode,
    sys: ProgramMode,
) -> f64 {
    assert!((0.0..=1.0).contains(&spare_fraction));
    spare_fraction * spare.bits_per_cell() as f64
        + (1.0 - spare_fraction) * sys.bits_per_cell() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_and_levels_follow_the_ladder() {
        assert_eq!(CellDensity::Slc.bits_per_cell(), 1);
        assert_eq!(CellDensity::Plc.bits_per_cell(), 5);
        assert_eq!(CellDensity::Tlc.levels(), 8);
        assert_eq!(CellDensity::Plc.levels(), 32);
    }

    #[test]
    fn endurance_decreases_with_density() {
        let mut prev = u32::MAX;
        for d in CellDensity::ALL {
            assert!(d.rated_endurance() < prev, "{d} endurance out of order");
            prev = d.rated_endurance();
        }
    }

    #[test]
    fn paper_density_gains() {
        // §4.1: "Improving TLC density by 33% (QLC) and 66% (PLC)".
        let qlc_gain = CellDensity::Qlc.density_gain_over(CellDensity::Tlc);
        let plc_gain = CellDensity::Plc.density_gain_over(CellDensity::Tlc);
        assert!((qlc_gain - 1.0 / 3.0).abs() < 1e-9);
        assert!((plc_gain - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn paper_endurance_ratios() {
        // §4.1: PLC endurance ~6-10x below TLC and 2x below QLC.
        let tlc = CellDensity::Tlc.rated_endurance() as f64;
        let qlc = CellDensity::Qlc.rated_endurance() as f64;
        let plc = CellDensity::Plc.rated_endurance() as f64;
        let vs_tlc = tlc / plc;
        let vs_qlc = qlc / plc;
        assert!((6.0..=10.0).contains(&vs_tlc), "TLC/PLC ratio {vs_tlc}");
        assert!((1.5..=2.5).contains(&vs_qlc), "QLC/PLC ratio {vs_qlc}");
    }

    #[test]
    fn split_scheme_is_fifty_percent_denser_than_tlc() {
        // §4.2: 50/50 PLC + pseudo-QLC split => 50% gain over TLC.
        let spare = ProgramMode::native(CellDensity::Plc);
        let sys = ProgramMode::pseudo(CellDensity::Plc, CellDensity::Qlc);
        let avg = split_device_bits_per_cell(0.5, spare, sys);
        assert!((avg - 4.5).abs() < 1e-9);
        let gain_vs_tlc = avg / CellDensity::Tlc.bits_per_cell() as f64 - 1.0;
        assert!((gain_vs_tlc - 0.5).abs() < 1e-9);
    }

    #[test]
    fn pseudo_mode_boosts_endurance() {
        let pqlc = ProgramMode::pseudo(CellDensity::Plc, CellDensity::Qlc);
        let ptlc = ProgramMode::pseudo(CellDensity::Plc, CellDensity::Tlc);
        let native = ProgramMode::native(CellDensity::Plc);
        assert!(pqlc.effective_endurance() > native.effective_endurance());
        assert!(ptlc.effective_endurance() > pqlc.effective_endurance());
        // Margin ratio 31/15 squared is ~4.27x for pseudo-QLC in PLC.
        assert!(pqlc.effective_endurance() >= 2 * native.effective_endurance());
    }

    #[test]
    #[should_panic(expected = "pseudo mode cannot exceed")]
    fn pseudo_denser_than_physical_panics() {
        let _ = ProgramMode::pseudo(CellDensity::Tlc, CellDensity::Plc);
    }

    #[test]
    fn display_formats() {
        assert_eq!(CellDensity::Qlc.to_string(), "QLC");
        let m = ProgramMode::pseudo(CellDensity::Plc, CellDensity::Tlc);
        assert_eq!(m.to_string(), "pseudo-TLC (in PLC)");
        assert_eq!(ProgramMode::native(CellDensity::Slc).to_string(), "SLC");
    }
}
