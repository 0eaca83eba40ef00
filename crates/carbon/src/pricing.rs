//! Carbon-credit pricing and its effect on flash economics (§3).

use crate::embodied::KG_CO2E_PER_GB_TLC;
use serde::{Deserialize, Serialize};

/// Carbon price assumptions.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CarbonPricing {
    /// Carbon credit price, US$ per tonne CO2e.
    pub usd_per_tonne: f64,
    /// Flash street price, US$ per TB.
    pub flash_usd_per_tb: f64,
    /// Embodied carbon, kgCO2e per GB.
    pub kg_per_gb: f64,
}

impl CarbonPricing {
    /// The paper's §3 data points: EU ETS peak of $111/t, QLC SSDs at
    /// $45/TB (the Intel 670p reference), 0.16 kg/GB.
    pub fn paper_2023() -> Self {
        CarbonPricing {
            usd_per_tonne: 111.0,
            flash_usd_per_tb: 45.0,
            kg_per_gb: KG_CO2E_PER_GB_TLC,
        }
    }

    /// Carbon cost in US$ per TB of flash.
    pub fn carbon_usd_per_tb(&self) -> f64 {
        // kg/GB * 1000 GB/TB / 1000 kg/tonne * $/tonne.
        self.kg_per_gb * self.usd_per_tonne
    }

    /// Carbon cost as a fraction of the flash street price — the
    /// paper's "40% price increase" claim.
    pub fn price_uplift(&self) -> f64 {
        self.carbon_usd_per_tb() / self.flash_usd_per_tb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_forty_percent_uplift() {
        // §3: "the aforementioned EU carbon credits would comprise a 40%
        // price increase (assuming 0.16 CO2e Kg per 1GB)" on $45/TB QLC.
        let pricing = CarbonPricing::paper_2023();
        let uplift = pricing.price_uplift();
        assert!(
            (0.35..=0.45).contains(&uplift),
            "uplift {uplift} (paper says ~40%)"
        );
    }

    #[test]
    fn carbon_usd_per_tb_arithmetic() {
        let pricing = CarbonPricing::paper_2023();
        // 0.16 kg/GB = 160 kg/TB = 0.16 t/TB; at $111/t = $17.76/TB.
        assert!((pricing.carbon_usd_per_tb() - 17.76).abs() < 1e-9);
    }

    #[test]
    fn uplift_scales_with_credit_price() {
        let mut pricing = CarbonPricing::paper_2023();
        let base = pricing.price_uplift();
        pricing.usd_per_tonne *= 2.0;
        assert!((pricing.price_uplift() - 2.0 * base).abs() < 1e-12);
    }
}
