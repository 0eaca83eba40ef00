//! Background scrubbing, block retirement and pseudo-density
//! resuscitation.
//!
//! The scrubber implements §4.3 of the paper: it "preemptively moves data
//! whose quality is dangerously degraded from worn-out blocks", marks
//! worn-out blocks unusable (shrinking exported capacity), and — where
//! permitted — "flexibly resuscitates worn-out PLC blocks with reduced
//! density, e.g. pseudo-TLC".

use crate::ftl::{Ftl, FtlError};
use sos_flash::cell::CellState;
use sos_flash::{CellDensity, ProgramMode};

/// Outcome of one scrub pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Blocks inspected.
    pub checked: u64,
    /// Blocks whose data was refreshed (relocated + erased).
    pub refreshed: u64,
    /// Blocks stepped down to a lower density.
    pub resuscitated: u64,
    /// Blocks retired from service.
    pub retired: u64,
    /// The pass stopped early because no space was left to relocate
    /// into — the host must free data (the paper's §4.5 auto-delete
    /// fallback moment).
    pub aborted_no_space: bool,
}

/// Reference RBER for schemes with no correction capability
/// (approximate storage): the scrubber treats this as the "budget" the
/// refresh margin scales, i.e. the RBER at which quality degradation is
/// considered dangerous (§4.3).
const APPROX_RBER_LIMIT: f64 = 2e-3;

impl Ftl {
    /// RBER budget of the configured ECC scheme: the correction limit for
    /// correcting schemes, or `APPROX_RBER_LIMIT` for
    /// detect-only/unprotected schemes.
    pub fn rber_budget(&self) -> f64 {
        let protected = self
            .codec
            .scheme()
            .protected_rber_limit(self.config.ecc_failure_target);
        if protected > 0.0 {
            protected
        } else {
            APPROX_RBER_LIMIT
        }
    }

    /// One scrub pass over all full blocks with live data.
    ///
    /// For each block, the estimated RBER of its oldest resident data is
    /// compared against the budget:
    ///
    /// * above `refresh_margin x budget` — data is relocated to fresh
    ///   blocks (a *refresh*), and the block returns to the free pool;
    /// * if, in addition, the block cannot even hold *fresh* data within
    ///   the refresh margin (wear-driven, not retention-driven), the
    ///   block is resuscitated at the next density down the ladder, or
    ///   retired when no step remains.
    pub fn scrub(&mut self) -> Result<ScrubReport, FtlError> {
        let mut report = ScrubReport::default();
        let budget = self.rber_budget();
        let refresh_at = self.config.scrub.refresh_margin * budget;
        let total_blocks = self.device.geometry().total_blocks();
        for block in 0..total_blocks {
            let Some(info) = self.blocks.get(block as usize) else {
                continue;
            };
            if info.bad || !info.full {
                continue;
            }
            report.checked += 1;
            let rber_now = self.device.block_rber_estimate(block)?;
            if rber_now <= refresh_at {
                continue;
            }
            // The block needs a refresh. Decide whether it is still
            // viable at its current density: estimate the RBER fresh data
            // would see after a typical retention interval.
            let mode = self.device.block_mode(block)?;
            let pec = self.device.block_pec(block)?;
            let fresh_rber = self.device.cell_model().rber(
                mode,
                CellState {
                    pec: pec + 1,
                    retention_days: 30.0,
                    reads_since_program: 0,
                },
            );
            // Relocation needs destination space; let GC top the pool up
            // first, and stop the pass gracefully if the device is truly
            // full — data then keeps degrading in place until the host
            // frees space (§4.5).
            self.ensure_free_space()?;
            let moved = match self.relocate_valid(block) {
                Ok(moved) => moved,
                Err(FtlError::NoSpace) => {
                    report.aborted_no_space = true;
                    break;
                }
                Err(e) => return Err(e),
            };
            self.stats.refresh_page_moves += moved;
            if fresh_rber <= refresh_at {
                // Retention-driven only: plain refresh.
                self.recycle(block)?;
                self.stats.refreshes += 1;
                report.refreshed += 1;
            } else if self.try_resuscitate(block, refresh_at)? {
                self.stats.blocks_resuscitated += 1;
                report.resuscitated += 1;
            } else {
                self.retire(block)?;
                report.retired += 1;
            }
        }
        self.report_capacity();
        Ok(report)
    }

    /// Attempts to step `block` down the resuscitation ladder to a
    /// density whose fresh-data RBER fits the budget. The block must
    /// already be empty of valid data.
    fn try_resuscitate(&mut self, block: u64, refresh_at: f64) -> Result<bool, FtlError> {
        if self.config.resuscitation.ladder.is_empty() {
            return Ok(false);
        }
        let current = self.device.block_mode(block)?;
        let pec = self.device.block_pec(block)?;
        let physical = current.physical;
        let ladder: Vec<CellDensity> = self
            .config
            .resuscitation
            .ladder
            .clone()
            .into_iter()
            .filter(|d| d.bits_per_cell() < current.logical.bits_per_cell())
            .collect();
        for density in ladder {
            let candidate = ProgramMode::pseudo(physical, density);
            let fresh_rber = self.device.cell_model().rber(
                candidate,
                CellState {
                    pec: pec + 1,
                    retention_days: 30.0,
                    reads_since_program: 0,
                },
            );
            if fresh_rber > refresh_at {
                continue;
            }
            // Erase, then re-mode.
            match self.device.erase(block) {
                Ok(_) => {}
                Err(sos_flash::FlashError::EraseFailed(_)) => {
                    self.handle_block_failure(block);
                    return Ok(true); // handled (as a failure), not retire-again
                }
                Err(e) => return Err(e.into()),
            }
            self.device.set_block_mode(block, candidate)?;
            let usable = candidate.usable_pages(self.device.geometry().pages_per_block);
            if let Some(info) = self.blocks.get_mut(block as usize) {
                info.lpns = vec![None; usable as usize];
                info.valid = 0;
                info.full = false;
            }
            self.free.push_back(block);
            return Ok(true);
        }
        Ok(false)
    }

    /// Retires an (already-relocated) block from service.
    fn retire(&mut self, block: u64) -> Result<(), FtlError> {
        self.device.mark_bad(block)?;
        if let Some(info) = self.blocks.get_mut(block as usize) {
            info.bad = true;
            info.full = false;
            info.lpns.iter_mut().for_each(|slot| *slot = None);
            info.valid = 0;
        }
        self.free.retain(|&b| b != block);
        self.placement.evict_block(block);
        self.stats.blocks_retired += 1;
        Ok(())
    }

    /// Wear summary across all blocks (for experiment harnesses).
    pub fn wear_summary(&self) -> crate::stats::WearSummary {
        let mut summary = crate::stats::WearSummary {
            min_pec: u32::MAX,
            ..Default::default()
        };
        let mut total = 0u64;
        for (index, info) in self.blocks.iter().enumerate() {
            if info.bad {
                summary.bad_blocks += 1;
                continue;
            }
            // Block indices come from iterating our own table, so the
            // lookup cannot fail; skip defensively rather than panic.
            let Ok(pec) = self.device.block_pec(index as u64) else {
                continue;
            };
            summary.min_pec = summary.min_pec.min(pec);
            summary.max_pec = summary.max_pec.max(pec);
            total += pec as u64;
            summary.good_blocks += 1;
        }
        if summary.good_blocks == 0 {
            summary.min_pec = 0;
        } else {
            summary.mean_pec = total as f64 / summary.good_blocks as f64;
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{FtlConfig, ResuscitationPolicy};
    use crate::ftl::{Ftl, FtlEvent};
    use sos_ecc::EccScheme;
    use sos_flash::{CellDensity, DeviceConfig};

    fn plc_ftl(resuscitation: ResuscitationPolicy) -> Ftl {
        let mut config = FtlConfig::sos_spare();
        config.resuscitation = resuscitation;
        // Detect-only keeps the approximate character but simplifies
        // accounting for tests.
        config.ecc = EccScheme::DetectOnly;
        Ftl::new(&DeviceConfig::tiny(CellDensity::Plc), config)
    }

    fn fill_and_age(ftl: &mut Ftl, writes: u64, days: f64) {
        let page = vec![3u8; ftl.page_bytes()];
        let cap = ftl.logical_pages();
        for lpn in 0..cap.min(writes) {
            ftl.write(lpn, &page).unwrap();
        }
        ftl.advance_days(days);
    }

    #[test]
    fn fresh_device_needs_no_scrubbing() {
        let mut ftl = plc_ftl(ResuscitationPolicy::retire_only());
        fill_and_age(&mut ftl, 200, 1.0);
        let report = ftl.scrub().unwrap();
        assert_eq!(report.refreshed, 0);
        assert_eq!(report.retired, 0);
    }

    #[test]
    fn old_data_on_plc_gets_refreshed() {
        // Unworn cells retain for a decade (JEDEC-style), so wear the
        // device moderately first; *then* multi-year retention pushes
        // RBER past the refresh margin. The margin here models a
        // quality-conscious SPARE policy that refreshes early.
        let mut config = FtlConfig::sos_spare();
        config.resuscitation = ResuscitationPolicy::retire_only();
        config.ecc = EccScheme::DetectOnly;
        config.scrub.refresh_margin = 0.2;
        let mut ftl = Ftl::new(&DeviceConfig::tiny(CellDensity::Plc), config);
        let cap = ftl.logical_pages();
        let page = vec![6u8; ftl.page_bytes()];
        for lpn in 0..cap {
            ftl.write(lpn, &page).unwrap();
        }
        let mut x = 77u64;
        for _ in 0..15 * cap {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ftl.write(x % cap, &page).unwrap();
        }
        ftl.advance_days(1095.0);
        let report = ftl.scrub().unwrap();
        assert!(report.checked > 0);
        assert!(
            report.refreshed + report.retired + report.resuscitated > 0,
            "worn, 3-year-old PLC data must trigger scrubbing: {report:?}"
        );
    }

    #[test]
    fn worn_blocks_resuscitate_down_the_ladder() {
        let mut ftl = plc_ftl(ResuscitationPolicy::plc_default());
        // Artificially wear the whole device with overwrite traffic, then
        // age it. Rated PLC endurance on the tiny device is 500 PEC.
        let cap = ftl.logical_pages();
        let page = vec![9u8; ftl.page_bytes()];
        for lpn in 0..cap {
            ftl.write(lpn, &page).unwrap();
        }
        let mut x = 5u64;
        for _ in 0..70 * cap {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ftl.write(x % cap, &page).unwrap();
        }
        ftl.advance_days(365.0);
        let before = ftl.stats().blocks_resuscitated;
        let report = ftl.scrub().unwrap();
        assert_eq!(
            report.resuscitated,
            ftl.stats().blocks_resuscitated - before
        );
        // With 40x overwrite of a ~0.9-utilised tiny PLC device, blocks
        // see hundreds of PEC; combined with a year of retention some
        // must step down or retire.
        assert!(
            report.resuscitated + report.retired > 0,
            "no block stepped down or retired: {report:?}"
        );
    }

    #[test]
    fn resuscitated_blocks_keep_serving_writes() {
        let mut ftl = plc_ftl(ResuscitationPolicy::plc_default());
        let cap = ftl.logical_pages();
        let page = vec![1u8; ftl.page_bytes()];
        for lpn in 0..cap {
            ftl.write(lpn, &page).unwrap();
        }
        let mut x = 17u64;
        for _ in 0..70 * cap {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ftl.write(x % cap, &page).unwrap();
        }
        ftl.advance_days(365.0);
        ftl.scrub().unwrap();
        // The device may now hold less than the live data set (capacity
        // variance); the host reacts by deleting, then keeps writing —
        // resuscitated blocks must serve that traffic.
        for lpn in 0..cap / 4 {
            ftl.trim(lpn).unwrap();
        }
        for lpn in 0..50u64 {
            ftl.write(lpn, &page)
                .unwrap_or_else(|e| panic!("write after trim failed: {e}"));
        }
    }

    #[test]
    fn retire_only_policy_never_resuscitates() {
        let mut ftl = plc_ftl(ResuscitationPolicy::retire_only());
        let cap = ftl.logical_pages();
        let page = vec![2u8; ftl.page_bytes()];
        for lpn in 0..cap {
            ftl.write(lpn, &page).unwrap();
        }
        let mut x = 31u64;
        for _ in 0..70 * cap {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ftl.write(x % cap, &page).unwrap();
        }
        ftl.advance_days(365.0);
        let report = ftl.scrub().unwrap();
        assert_eq!(report.resuscitated, 0);
        assert_eq!(ftl.stats().blocks_resuscitated, 0);
        let _ = report;
    }

    #[test]
    fn capacity_shrinks_when_blocks_retire() {
        let mut ftl = plc_ftl(ResuscitationPolicy::plc_default());
        let before = ftl.sustainable_pages();
        let cap = ftl.logical_pages();
        let page = vec![4u8; ftl.page_bytes()];
        for lpn in 0..cap {
            ftl.write(lpn, &page).unwrap();
        }
        let mut x = 43u64;
        for _ in 0..70 * cap {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ftl.write(x % cap, &page).unwrap();
        }
        ftl.advance_days(730.0);
        let report = ftl.scrub().unwrap();
        if report.resuscitated + report.retired > 0 {
            assert!(
                ftl.sustainable_pages() < before,
                "capacity must shrink after retirement/resuscitation"
            );
            let events = ftl.drain_events();
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, FtlEvent::CapacityShrunk { .. })),
                "host must be told about the shrink"
            );
        }
    }

    #[test]
    fn wear_summary_counts_blocks() {
        let ftl = plc_ftl(ResuscitationPolicy::retire_only());
        let s = ftl.wear_summary();
        assert_eq!(
            s.good_blocks + s.bad_blocks,
            ftl.device().geometry().total_blocks()
        );
        assert_eq!(s.min_pec, 0);
    }

    #[test]
    fn rber_budget_reflects_scheme() {
        let detect = plc_ftl(ResuscitationPolicy::retire_only());
        assert!((detect.rber_budget() - 2e-3).abs() < 1e-12);
        let mut config = FtlConfig::sos_spare();
        config.ecc = EccScheme::Bch { t: 18 };
        let bch = Ftl::new(&DeviceConfig::tiny(CellDensity::Plc), config);
        assert!(bch.rber_budget() > 0.0);
        assert!(bch.rber_budget() != 2e-3);
    }
}
