//! Device configuration presets.

use crate::density::CellDensity;
use crate::geometry::Geometry;
use crate::timing::TimingModel;
use serde::{Deserialize, Serialize};

/// Configuration for a [`FlashDevice`](crate::device::FlashDevice).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Array shape.
    pub geometry: Geometry,
    /// Physical cell density of the array.
    pub physical_density: CellDensity,
    /// Timing parameters.
    pub timing: TimingModel,
    /// RNG seed for error injection (simulations are reproducible).
    pub seed: u64,
}

impl DeviceConfig {
    /// Minimal device for unit tests: 4 MiB, single channel.
    pub fn tiny(density: CellDensity) -> Self {
        DeviceConfig {
            geometry: Geometry::tiny(),
            physical_density: density,
            timing: TimingModel::default(),
            seed: 0xC0FFEE,
        }
    }

    /// Small simulation device (~64 MiB user data): enough blocks for GC
    /// and wear-leveling behaviour to be representative while keeping
    /// simulations fast.
    pub fn sim_small(density: CellDensity) -> Self {
        DeviceConfig {
            geometry: Geometry {
                channels: 2,
                dies_per_channel: 1,
                planes_per_die: 2,
                blocks_per_plane: 64,
                pages_per_block: 64,
                page_bytes: 4096,
                spare_bytes: 256,
            },
            physical_density: density,
            timing: TimingModel::default(),
            seed: 0xC0FFEE,
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_capacities() {
        let tiny = DeviceConfig::tiny(CellDensity::Tlc);
        assert_eq!(tiny.geometry.raw_bytes(), 4 * 1024 * 1024);
        let small = DeviceConfig::sim_small(CellDensity::Tlc);
        assert_eq!(small.geometry.raw_bytes(), 64 * 1024 * 1024);
    }

    #[test]
    fn with_seed_overrides() {
        let c = DeviceConfig::tiny(CellDensity::Qlc).with_seed(42);
        assert_eq!(c.seed, 42);
    }
}
