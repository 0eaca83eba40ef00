//! FTL configuration: GC policy, wear leveling, scrubbing, retirement.

use serde::{Deserialize, Serialize};
use sos_ecc::EccScheme;
use sos_flash::{CellDensity, ProgramMode};

/// Garbage-collection victim selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GcPolicy {
    /// Pick the block with the fewest valid pages.
    Greedy,
    /// Cost-benefit (Kawaguchi et al.): maximise `(1-u)/(1+u) * age`,
    /// which prefers colder blocks even at slightly higher utilisation.
    CostBenefit,
}

/// Wear-leveling configuration.
///
/// The paper disables preemptive wear leveling on the SPARE partition
/// because evening out wear "effectively shortens overall block lifetime"
/// (§4.3, citing Jiao et al. HotStorage '22); experiment E10 measures
/// exactly this ablation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WearLevelingConfig {
    /// Trigger when `max_pec - min_pec` exceeds this many cycles; `None`
    /// turns preemptive (static) wear leveling off.
    pub threshold: Option<u32>,
}

impl WearLevelingConfig {
    /// Standard wear leveling for SYS-class data.
    pub fn enabled(threshold: u32) -> Self {
        WearLevelingConfig {
            threshold: Some(threshold),
        }
    }

    /// No preemptive wear leveling (SPARE partition policy).
    pub fn disabled() -> Self {
        WearLevelingConfig { threshold: None }
    }
}

/// Background scrubber configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScrubConfig {
    /// Refresh a block when its estimated RBER exceeds this fraction of
    /// the RBER budget (e.g. `0.5` = refresh at half budget). The same
    /// margin decides retirement: a block that cannot hold fresh data
    /// within it is resuscitated at a lower density, or retired when no
    /// step remains.
    pub refresh_margin: f64,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig {
            refresh_margin: 0.5,
        }
    }
}

/// What to do with blocks that can no longer hold data reliably at their
/// current density (§4.3: "flexibly resuscitate worn-out PLC blocks with
/// reduced density, e.g. pseudo-TLC").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResuscitationPolicy {
    /// Densities to step down through, most preferred first (each must
    /// be less dense than the physical cell). Empty means retire
    /// immediately.
    pub ladder: Vec<CellDensity>,
}

impl ResuscitationPolicy {
    /// Retire immediately; never reprogram at reduced density.
    pub fn retire_only() -> Self {
        ResuscitationPolicy { ladder: Vec::new() }
    }

    /// The SOS SPARE-partition ladder for PLC: pseudo-TLC, then
    /// pseudo-SLC, then retire.
    pub fn plc_default() -> Self {
        ResuscitationPolicy {
            ladder: vec![CellDensity::Tlc, CellDensity::Slc],
        }
    }
}

/// Fraction of usable capacity reserved as over-provisioning.
pub(crate) const OVER_PROVISIONING: f64 = 0.07;
/// Free-block low watermark: GC starts when free blocks drop to this.
pub(crate) const GC_LOW_WATERMARK: usize = 3;
/// Free-block high watermark: GC stops once free blocks reach this.
pub(crate) const GC_HIGH_WATERMARK: usize = 6;
const _: () = assert!(GC_LOW_WATERMARK < GC_HIGH_WATERMARK);

/// Complete FTL configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FtlConfig {
    /// Programming mode for all blocks managed by this FTL.
    pub mode: ProgramMode,
    /// Page ECC scheme.
    pub ecc: EccScheme,
    /// GC victim selection.
    pub gc_policy: GcPolicy,
    /// Wear leveling.
    pub wear_leveling: WearLevelingConfig,
    /// Scrubber thresholds.
    pub scrub: ScrubConfig,
    /// Worn-block handling.
    pub resuscitation: ResuscitationPolicy,
    /// Target per-codeword failure probability used to derive RBER
    /// limits from the ECC scheme.
    pub ecc_failure_target: f64,
}

impl FtlConfig {
    /// A conventional TLC-style configuration: native mode, standard BCH,
    /// wear leveling on, retire-only.
    pub fn conventional(mode: ProgramMode) -> Self {
        FtlConfig {
            mode,
            ecc: EccScheme::Bch { t: 18 },
            gc_policy: GcPolicy::Greedy,
            wear_leveling: WearLevelingConfig::enabled(200),
            scrub: ScrubConfig::default(),
            resuscitation: ResuscitationPolicy::retire_only(),
            ecc_failure_target: 1e-9,
        }
    }

    /// The SOS SPARE-partition configuration: native PLC, approximate
    /// priority-split ECC, no preemptive wear leveling, resuscitation
    /// ladder enabled.
    pub fn sos_spare() -> Self {
        FtlConfig {
            mode: ProgramMode::native(CellDensity::Plc),
            ecc: EccScheme::PrioritySplit {
                t: 18,
                protected_chunks: 1,
            },
            gc_policy: GcPolicy::CostBenefit,
            wear_leveling: WearLevelingConfig::disabled(),
            scrub: ScrubConfig {
                refresh_margin: 0.7,
            },
            resuscitation: ResuscitationPolicy::plc_default(),
            ecc_failure_target: 1e-6,
        }
    }

    /// The SOS SYS-partition configuration: pseudo-QLC over PLC silicon,
    /// strong ECC, wear leveling on, retire-only.
    pub fn sos_sys() -> Self {
        FtlConfig {
            mode: ProgramMode::pseudo(CellDensity::Plc, CellDensity::Qlc),
            ecc: EccScheme::Bch { t: 18 },
            gc_policy: GcPolicy::Greedy,
            wear_leveling: WearLevelingConfig::enabled(200),
            scrub: ScrubConfig::default(),
            resuscitation: ResuscitationPolicy::retire_only(),
            ecc_failure_target: 1e-9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let spare = FtlConfig::sos_spare();
        assert_eq!(spare.wear_leveling.threshold, None);
        assert!(!spare.resuscitation.ladder.is_empty());
        let sys = FtlConfig::sos_sys();
        assert_eq!(sys.wear_leveling.threshold, Some(200));
        assert!(sys.mode.is_pseudo());
        assert_eq!(sys.mode.physical, CellDensity::Plc);
    }
}
