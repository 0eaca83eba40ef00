//! Embodied-carbon model for flash storage.
//!
//! Calibrated to the literature the paper cites: Tannu & Nair
//! (HotCarbon '22) put flash embodied carbon at ~0.16 kgCO2e per GB for
//! current TLC-class production; most of it is fab energy per wafer, so
//! for a fixed process the carbon of a device scales with the *cell
//! count* (silicon area x layers), not with the bits stored. Storing
//! more bits per cell therefore cuts kgCO2e/GB proportionally — the
//! heart of the paper's §4.1 argument.

use serde::{Deserialize, Serialize};
use sos_flash::{CellDensity, ProgramMode};

/// Reference embodied carbon for TLC-class flash, kgCO2e per GB
/// (Tannu & Nair, HotCarbon '22 — also the constant behind the paper's
/// "0.16 CO2e Kg per 1GB").
pub const KG_CO2E_PER_GB_TLC: f64 = 0.16;

/// World average per-capita CO2 emissions, tonnes/person/year (World
/// Bank figure behind the paper's "28M people" equivalence).
pub const TONNES_CO2_PER_PERSON_YEAR: f64 = 4.4;

/// Embodied-carbon model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmbodiedModel {
    /// kgCO2e per GB at the TLC reference point.
    pub kg_per_gb_tlc: f64,
    /// Reference 3D layer count the calibration corresponds to.
    pub reference_layers: u32,
    /// Efficiency exponent for layer scaling: doubling layers divides
    /// carbon/GB by `2^eff` (eff < 1 because high-aspect etch steps get
    /// costlier with stack height).
    pub layer_efficiency: f64,
}

impl Default for EmbodiedModel {
    fn default() -> Self {
        EmbodiedModel {
            kg_per_gb_tlc: KG_CO2E_PER_GB_TLC,
            reference_layers: 176,
            layer_efficiency: 0.8,
        }
    }
}

impl EmbodiedModel {
    /// kgCO2e per GB of capacity for cells programmed in `mode` on a
    /// process with `layers` 3D layers.
    ///
    /// For a fixed process, carbon per *cell* is constant, so carbon per
    /// GB scales inversely with bits per cell. Pseudo-modes are charged
    /// at the *physical* cell's manufacturing cost spread over the
    /// *logical* (stored) bits — wasting density costs carbon.
    pub fn kg_per_gb(&self, mode: ProgramMode, layers: u32) -> f64 {
        let tlc_bits = CellDensity::Tlc.bits_per_cell() as f64;
        let stored_bits = mode.logical.bits_per_cell() as f64;
        let density_factor = tlc_bits / stored_bits;
        let layer_factor =
            (self.reference_layers as f64 / layers as f64).powf(self.layer_efficiency);
        self.kg_per_gb_tlc * density_factor * layer_factor
    }

    /// Same, at the reference layer count.
    pub fn kg_per_gb_at_reference(&self, mode: ProgramMode) -> f64 {
        self.kg_per_gb(mode, self.reference_layers)
    }

    /// Embodied kgCO2e of a device exporting `capacity_gb` where the
    /// capacity is split across `(fraction_of_capacity, mode)` regions.
    ///
    /// # Panics
    ///
    /// Panics if the fractions do not sum to ~1.
    pub fn device_kg(&self, capacity_gb: f64, regions: &[(f64, ProgramMode)]) -> f64 {
        let total: f64 = regions.iter().map(|(f, _)| f).sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "capacity fractions must sum to 1, got {total}"
        );
        regions
            .iter()
            .map(|&(fraction, mode)| capacity_gb * fraction * self.kg_per_gb_at_reference(mode))
            .sum()
    }
}

/// Carbon comparison of device designs at equal exported capacity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DesignCarbon {
    /// Design label.
    pub name: String,
    /// kgCO2e per GB of exported capacity.
    pub kg_per_gb: f64,
    /// Relative to the TLC baseline (1.0 = same as TLC).
    pub vs_tlc: f64,
}

/// Computes the paper's §4.1/§4.2 comparison table: TLC baseline, QLC,
/// PLC, and the SOS split (PLC SPARE + pseudo-QLC SYS, with
/// `spare_cell_fraction` of the *cells* in the SPARE partition — the
/// paper's 50/50 split is by silicon, giving 4.5 bits/cell average).
pub fn design_comparison(model: &EmbodiedModel, spare_cell_fraction: f64) -> Vec<DesignCarbon> {
    let tlc = model.kg_per_gb_at_reference(ProgramMode::native(CellDensity::Tlc));
    let entry = |name: &str, kg: f64| DesignCarbon {
        name: name.to_string(),
        kg_per_gb: kg,
        vs_tlc: kg / tlc,
    };
    let spare = ProgramMode::native(CellDensity::Plc);
    let sys = ProgramMode::pseudo(CellDensity::Plc, CellDensity::Qlc);
    // Carbon per cell is fixed; averaging bits/cell over the cell split
    // gives the device's kg/GB.
    let avg_bits = sos_flash::density::split_device_bits_per_cell(spare_cell_fraction, spare, sys);
    let sos = model.kg_per_gb_tlc * CellDensity::Tlc.bits_per_cell() as f64 / avg_bits;
    vec![
        entry("TLC baseline", tlc),
        entry(
            "QLC",
            model.kg_per_gb_at_reference(ProgramMode::native(CellDensity::Qlc)),
        ),
        entry(
            "PLC",
            model.kg_per_gb_at_reference(ProgramMode::native(CellDensity::Plc)),
        ),
        entry("SOS split (PLC + pseudo-QLC)", sos),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tlc_reference_is_calibrated() {
        let m = EmbodiedModel::default();
        let kg = m.kg_per_gb_at_reference(ProgramMode::native(CellDensity::Tlc));
        assert!((kg - 0.16).abs() < 1e-12);
    }

    #[test]
    fn denser_cells_embody_less_carbon_per_gb() {
        let m = EmbodiedModel::default();
        let mut prev = f64::INFINITY;
        for d in CellDensity::ALL {
            let kg = m.kg_per_gb_at_reference(ProgramMode::native(d));
            assert!(kg < prev, "{d}");
            prev = kg;
        }
    }

    #[test]
    fn paper_density_carbon_ratios() {
        // §4.1: QLC = 3/4 of TLC carbon, PLC = 3/5.
        let m = EmbodiedModel::default();
        let tlc = m.kg_per_gb_at_reference(ProgramMode::native(CellDensity::Tlc));
        let qlc = m.kg_per_gb_at_reference(ProgramMode::native(CellDensity::Qlc));
        let plc = m.kg_per_gb_at_reference(ProgramMode::native(CellDensity::Plc));
        assert!((qlc / tlc - 0.75).abs() < 1e-9);
        assert!((plc / tlc - 0.60).abs() < 1e-9);
    }

    #[test]
    fn pseudo_mode_carbon_reflects_wasted_density() {
        // Pseudo-QLC in PLC stores 4 bits on 5-bit silicon: carbon per
        // stored GB equals QLC's... no — the cell is PLC-sized but holds
        // QLC bits, so per stored bit it costs what a QLC bit costs on
        // this silicon: TLC_ref * 3/4.
        let m = EmbodiedModel::default();
        let pqlc =
            m.kg_per_gb_at_reference(ProgramMode::pseudo(CellDensity::Plc, CellDensity::Qlc));
        let qlc = m.kg_per_gb_at_reference(ProgramMode::native(CellDensity::Qlc));
        assert!((pqlc - qlc).abs() < 1e-12);
    }

    #[test]
    fn sos_split_cuts_one_third_vs_tlc() {
        // 50/50 split: 4.5 bits/cell average vs TLC 3 -> carbon 2/3.
        let designs = design_comparison(&EmbodiedModel::default(), 0.5);
        let sos = designs.last().unwrap();
        assert!(
            (sos.vs_tlc - 2.0 / 3.0).abs() < 1e-9,
            "SOS vs TLC = {}",
            sos.vs_tlc
        );
        // And ~11% below QLC (paper's "10% capacity gain over QLC").
        let qlc = &designs[1];
        let vs_qlc = sos.kg_per_gb / qlc.kg_per_gb;
        assert!((vs_qlc - 8.0 / 9.0).abs() < 1e-9, "SOS vs QLC = {vs_qlc}");
    }

    #[test]
    fn more_layers_reduce_carbon_sublinearly() {
        let m = EmbodiedModel::default();
        let mode = ProgramMode::native(CellDensity::Tlc);
        let at_176 = m.kg_per_gb(mode, 176);
        let at_352 = m.kg_per_gb(mode, 352);
        assert!(at_352 < at_176);
        // Doubling layers must not halve carbon (efficiency < 1).
        assert!(at_352 > at_176 / 2.0);
    }

    #[test]
    fn device_kg_weights_regions() {
        let m = EmbodiedModel::default();
        let sys = ProgramMode::pseudo(CellDensity::Plc, CellDensity::Qlc);
        let spare = ProgramMode::native(CellDensity::Plc);
        let kg = m.device_kg(512.0, &[(0.5, spare), (0.5, sys)]);
        let manual =
            256.0 * m.kg_per_gb_at_reference(spare) + 256.0 * m.kg_per_gb_at_reference(sys);
        assert!((kg - manual).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "fractions must sum to 1")]
    fn bad_fractions_panic() {
        let m = EmbodiedModel::default();
        let _ = m.device_kg(1.0, &[(0.4, ProgramMode::native(CellDensity::Tlc))]);
    }
}
