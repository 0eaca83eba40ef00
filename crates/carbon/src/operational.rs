//! Operational (use-phase) energy and carbon — versus embodied.
//!
//! §1 of the paper: "production-related emissions effectively account
//! for most of the carbon footprint of modern devices", because the
//! operational phase has already been optimised. This module quantifies
//! that claim for a personal storage device: energy per flash operation,
//! a device-life workload, grid carbon intensity — compared against the
//! embodied carbon of the same device.

use crate::embodied::EmbodiedModel;
use serde::{Deserialize, Serialize};
use sos_flash::timing::latencies;
use sos_flash::ProgramMode;

/// Energy model for flash operations.
///
/// Energy = power × time: NAND dies draw a few tens of milliwatts while
/// busy, so each operation's energy follows from the timing model.
/// Defaults bracket published UFS/eMMC package measurements.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Average power while reading, mW.
    pub read_mw: f64,
    /// Average power while programming, mW.
    pub program_mw: f64,
    /// Average power while erasing, mW.
    pub erase_mw: f64,
    /// Idle/standby power of the storage package, mW (always on).
    pub idle_mw: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            read_mw: 60.0,
            program_mw: 120.0,
            erase_mw: 90.0,
            idle_mw: 1.5,
        }
    }
}

/// Grid carbon intensity, kgCO2e per kWh (world average ~0.44; the
/// East-Asian grids the paper discusses are higher).
pub const GRID_KG_PER_KWH: f64 = 0.44;

impl EnergyModel {
    /// Energy of one operation in µJ (`power(mW) x time(µs) / 1000`).
    fn op_uj(&self, mw: f64, us: f64) -> f64 {
        mw * us / 1000.0
    }

    /// Total operational energy over a device life, in kWh.
    ///
    /// `daily_read_bytes` / `daily_write_bytes` are host traffic;
    /// `write_amplification` scales physical programs (and the
    /// proportional erases); `days` is the device life.
    #[expect(
        clippy::too_many_arguments,
        reason = "one scalar per independent factor of the energy model"
    )]
    pub fn lifetime_kwh(
        &self,
        mode: ProgramMode,
        page_bytes: usize,
        daily_read_bytes: f64,
        daily_write_bytes: f64,
        write_amplification: f64,
        pages_per_block: u32,
        days: f64,
    ) -> f64 {
        let latency = latencies(mode);
        let reads_per_day = daily_read_bytes / page_bytes as f64;
        let programs_per_day = daily_write_bytes / page_bytes as f64 * write_amplification;
        let erases_per_day = programs_per_day / pages_per_block as f64;
        let active_uj_per_day = reads_per_day * self.op_uj(self.read_mw, latency.read_us)
            + programs_per_day * self.op_uj(self.program_mw, latency.program_us)
            + erases_per_day * self.op_uj(self.erase_mw, latency.erase_us);
        let idle_j_per_day = self.idle_mw / 1000.0 * 86_400.0;
        let total_j = (active_uj_per_day / 1e6 + idle_j_per_day) * days;
        total_j / 3.6e6
    }

    /// Operational carbon over the device life, kgCO2e.
    #[expect(
        clippy::too_many_arguments,
        reason = "forwards lifetime_kwh's factors unchanged"
    )]
    pub fn lifetime_kg(
        &self,
        mode: ProgramMode,
        page_bytes: usize,
        daily_read_bytes: f64,
        daily_write_bytes: f64,
        write_amplification: f64,
        pages_per_block: u32,
        days: f64,
    ) -> f64 {
        self.lifetime_kwh(
            mode,
            page_bytes,
            daily_read_bytes,
            daily_write_bytes,
            write_amplification,
            pages_per_block,
            days,
        ) * GRID_KG_PER_KWH
    }
}

/// Embodied-vs-operational comparison for one device design.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LifecycleSplit {
    /// Design label.
    pub name: String,
    /// Embodied carbon, kgCO2e.
    pub embodied_kg: f64,
    /// Operational carbon over the device life, kgCO2e.
    pub operational_kg: f64,
}

impl LifecycleSplit {
    /// Fraction of lifecycle emissions that are embodied.
    pub fn embodied_fraction(&self) -> f64 {
        self.embodied_kg / (self.embodied_kg + self.operational_kg)
    }
}

/// Computes the lifecycle split for a phone-class device.
///
/// `capacity_gb` at `mode`'s effective density; traffic is expressed as
/// drive-writes-per-day fractions of capacity (typical ~0.05 with 6x
/// read amplification, per the workload model).
pub fn phone_lifecycle(
    name: &str,
    capacity_gb: f64,
    mode: ProgramMode,
    dwpd: f64,
    read_multiple: f64,
    days: f64,
) -> LifecycleSplit {
    let embodied = EmbodiedModel::default();
    let energy = EnergyModel::default();
    let capacity_bytes = capacity_gb * 1e9;
    let daily_write = capacity_bytes * dwpd;
    let operational_kg = energy.lifetime_kg(
        mode,
        4096,
        daily_write * read_multiple,
        daily_write,
        2.0, // conservative WA
        64,
        days,
    );
    LifecycleSplit {
        name: name.to_string(),
        embodied_kg: capacity_gb * embodied.kg_per_gb_at_reference(mode),
        operational_kg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_flash::CellDensity;

    fn typical(mode: ProgramMode) -> LifecycleSplit {
        phone_lifecycle("test", 512.0, mode, 0.05, 6.0, 900.0)
    }

    #[test]
    fn embodied_dominates_lifecycle() {
        // §1: production emissions dominate modern devices' footprints.
        let split = typical(ProgramMode::native(CellDensity::Tlc));
        assert!(
            split.embodied_fraction() > 0.8,
            "embodied fraction {} (embodied {} kg, operational {} kg)",
            split.embodied_fraction(),
            split.embodied_kg,
            split.operational_kg
        );
    }

    #[test]
    fn operational_carbon_is_plausible() {
        // A phone's storage uses a watt-scale budget only while busy; over
        // 900 days the energy is a few kWh at most -> a few kg CO2e.
        let split = typical(ProgramMode::native(CellDensity::Tlc));
        assert!(
            split.operational_kg > 0.01 && split.operational_kg < 20.0,
            "operational {} kg",
            split.operational_kg
        );
    }

    #[test]
    fn denser_cells_spend_more_energy_per_write_but_less_embodied() {
        let tlc = typical(ProgramMode::native(CellDensity::Tlc));
        let plc = typical(ProgramMode::native(CellDensity::Plc));
        assert!(
            plc.operational_kg > tlc.operational_kg,
            "PLC programs are slower"
        );
        assert!(plc.embodied_kg < tlc.embodied_kg, "PLC embodies less");
        // The paper's bet: the embodied saving swamps the operational
        // increase.
        let tlc_total = tlc.embodied_kg + tlc.operational_kg;
        let plc_total = plc.embodied_kg + plc.operational_kg;
        assert!(plc_total < tlc_total, "PLC {plc_total} vs TLC {tlc_total}");
    }

    #[test]
    fn energy_scales_with_traffic() {
        let light = phone_lifecycle(
            "light",
            512.0,
            ProgramMode::native(CellDensity::Tlc),
            0.01,
            6.0,
            900.0,
        );
        let heavy = phone_lifecycle(
            "heavy",
            512.0,
            ProgramMode::native(CellDensity::Tlc),
            0.2,
            6.0,
            900.0,
        );
        assert!(heavy.operational_kg > light.operational_kg);
        assert_eq!(heavy.embodied_kg, light.embodied_kg);
    }
}
