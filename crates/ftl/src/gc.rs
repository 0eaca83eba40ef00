//! Garbage collection and wear leveling.
//!
//! GC reclaims blocks by relocating their remaining valid pages and
//! erasing them. Victim selection is pluggable ([`GcPolicy`]): greedy
//! (min-valid) or cost-benefit. Static wear leveling — optional, and
//! deliberately *disabled* on the SOS SPARE partition (§4.3) — relocates
//! cold data off under-cycled blocks when the wear spread exceeds a
//! threshold.

use crate::config::{GcPolicy, GC_HIGH_WATERMARK, GC_LOW_WATERMARK};
use crate::ftl::{Ftl, FtlError, Slot};
use crate::placement::PlacementHandle;
use sos_ecc::PageStatus;
use sos_flash::FlashError;

impl Ftl {
    /// Runs GC until the free pool reaches the high watermark (or no
    /// further reclaim is possible), then considers wear leveling.
    pub(crate) fn ensure_free_space(&mut self) -> Result<(), FtlError> {
        if self.free.len() > GC_LOW_WATERMARK {
            return Ok(());
        }
        while self.free.len() < GC_HIGH_WATERMARK {
            if !self.gc_once()? {
                break;
            }
        }
        self.maybe_wear_level()?;
        Ok(())
    }

    /// One GC cycle: pick a victim, relocate its valid pages, recycle it.
    /// Returns `false` when no block is worth collecting.
    pub(crate) fn gc_once(&mut self) -> Result<bool, FtlError> {
        let Some(victim) = self.pick_victim() else {
            return Ok(false);
        };
        let moved = self.relocate_valid(victim)?;
        self.stats.gc_page_moves += moved;
        self.recycle(victim)?;
        self.stats.gc_runs += 1;
        Ok(true)
    }

    /// Selects a GC victim among full blocks with reclaimable space.
    fn pick_victim(&self) -> Option<u64> {
        let now = self.device.now_days();
        let mut best: Option<(u64, f64)> = None;
        for (index, info) in self.blocks.iter().enumerate() {
            if !info.full || info.bad {
                continue;
            }
            let usable = info.lpns.len() as f64;
            if info.valid as f64 >= usable {
                continue; // nothing to reclaim
            }
            let score = match self.config.gc_policy {
                // Greedy: fewest valid pages wins; negate so max = best.
                GcPolicy::Greedy => -(info.valid as f64),
                GcPolicy::CostBenefit => {
                    let u = info.valid as f64 / usable;
                    let age = (now - info.last_write_day).max(0.0);
                    (1.0 - u) / (1.0 + u) * (1.0 + age)
                }
            };
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((index as u64, score));
            }
        }
        best.map(|(b, _)| b)
    }

    /// Relocates every valid page of `block` elsewhere (via the GC
    /// stream). Uncorrectable pages are recorded as lost. Returns the
    /// number of pages moved.
    pub(crate) fn relocate_valid(&mut self, block: u64) -> Result<u64, FtlError> {
        let entries: Vec<(u32, u64)> = self
            .blocks
            .get(block as usize)
            .map(|info| {
                info.lpns
                    .iter()
                    .enumerate()
                    .filter_map(|(page, lpn)| {
                        lpn.and_then(|l| u32::try_from(page).ok().map(|p| (p, l)))
                    })
                    .collect()
            })
            .unwrap_or_default();
        let mut moved = 0u64;
        for (page, lpn) in entries {
            // The mapping may have been superseded by a concurrent host
            // write during this loop; skip stale entries.
            let flat = self.flat_page(block, page);
            if self.l2p.get(lpn as usize) != Some(&Slot::Mapped(flat)) {
                continue;
            }
            let outcome = match self.device.read(flat) {
                Ok(o) => o,
                Err(FlashError::BadBlock(_)) => {
                    self.mark_lost(lpn);
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            if outcome.injected_positions.is_empty() {
                // Copyback fast path: the page came back bit-exact, so it
                // is the framed page as programmed — move it raw without
                // the decode/re-frame round trip (as NAND copyback does,
                // with the simulator's error count standing in for the
                // controller's quick ECC check).
                self.program_raw(lpn, &outcome.data, PlacementHandle::GC)?;
                moved += 1;
                continue;
            }
            let report = self
                .codec
                .decode_with_dirty(&outcome.data, &outcome.injected_positions)?;
            if report.status == PageStatus::Uncorrectable {
                self.mark_lost(lpn);
                continue;
            }
            // Note: for approximate schemes a DegradedDetected page is
            // relocated with its residual errors — degradation accrues,
            // exactly as the paper intends for SPARE data.
            self.program_mapped(lpn, &report.data, PlacementHandle::GC)?;
            moved += 1;
        }
        Ok(moved)
    }

    /// Erases a fully-invalid block and returns it to the free pool.
    pub(crate) fn recycle(&mut self, block: u64) -> Result<(), FtlError> {
        debug_assert_eq!(
            self.blocks.get(block as usize).map_or(0, |info| info.valid),
            0,
            "recycle of live block"
        );
        match self.device.erase(block) {
            Ok(_) => {
                if let Some(info) = self.blocks.get_mut(block as usize) {
                    info.lpns.iter_mut().for_each(|slot| *slot = None);
                    info.valid = 0;
                    info.full = false;
                }
                self.placement.note_erase();
                self.free.push_back(block);
                Ok(())
            }
            Err(FlashError::EraseFailed(_)) | Err(FlashError::BadBlock(_)) => {
                self.handle_block_failure(block);
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Static wear leveling: when the wear spread exceeds the configured
    /// threshold, relocate the coldest block's data so the under-cycled
    /// block rejoins the hot pool.
    pub(crate) fn maybe_wear_level(&mut self) -> Result<(), FtlError> {
        let Some(threshold) = self.config.wear_leveling.threshold else {
            return Ok(());
        };
        let mut min_full: Option<(u64, u32)> = None;
        let mut max_pec = 0u32;
        for (index, info) in self.blocks.iter().enumerate() {
            if info.bad {
                continue;
            }
            let pec = self.device.block_pec(index as u64)?;
            max_pec = max_pec.max(pec);
            if info.full && min_full.is_none_or(|(_, p)| pec < p) {
                min_full = Some((index as u64, pec));
            }
        }
        let Some((cold, cold_pec)) = min_full else {
            return Ok(());
        };
        if max_pec.saturating_sub(cold_pec) <= threshold {
            return Ok(());
        }
        // Directed placement: park the cold data on the most-worn *free*
        // block, so the young block it vacates rejoins the hot pool.
        // Without this the relocation is just churn and the spread keeps
        // growing.
        if self.placement.unit_for(PlacementHandle::GC).is_none() {
            let mut worn_free: Option<(usize, u32)> = None;
            for (position, &block) in self.free.iter().enumerate() {
                let pec = self.device.block_pec(block)?;
                if worn_free.is_none_or(|(_, p)| pec > p) {
                    worn_free = Some((position, pec));
                }
            }
            if let Some(block) = worn_free.and_then(|(position, _)| self.free.remove(position)) {
                self.placement.open_unit(PlacementHandle::GC, block);
            }
        }
        let moved = self.relocate_valid(cold)?;
        self.stats.wear_level_moves += moved;
        self.recycle(cold)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{FtlConfig, GcPolicy, WearLevelingConfig};
    use crate::ftl::Ftl;
    use sos_flash::{CellDensity, DeviceConfig, ProgramMode};

    fn ftl_with(policy: GcPolicy, wl: WearLevelingConfig) -> Ftl {
        let mut config = FtlConfig::conventional(ProgramMode::native(CellDensity::Tlc));
        config.gc_policy = policy;
        config.wear_leveling = wl;
        Ftl::new(&DeviceConfig::tiny(CellDensity::Tlc), config)
    }

    fn hammer(ftl: &mut Ftl, overwrite_factor: u64) {
        let cap = ftl.logical_pages();
        let page = vec![7u8; ftl.page_bytes()];
        for lpn in 0..cap {
            ftl.write(lpn, &page).unwrap();
        }
        let mut x = 99u64;
        for _ in 0..(overwrite_factor * cap) {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            // Skew overwrites into the first quarter (hot region).
            let lpn = x % (cap / 4).max(1);
            ftl.write(lpn, &page).unwrap();
        }
    }

    #[test]
    fn greedy_and_cost_benefit_both_reclaim() {
        for policy in [GcPolicy::Greedy, GcPolicy::CostBenefit] {
            let mut ftl = ftl_with(policy, WearLevelingConfig::disabled());
            hammer(&mut ftl, 3);
            assert!(ftl.stats().gc_runs > 0, "{policy:?} never collected");
            assert!(
                !ftl.audit_snapshot().free.is_empty(),
                "{policy:?} exhausted free pool"
            );
        }
    }

    #[test]
    fn wear_leveling_narrows_pec_spread() {
        let run = |wl: WearLevelingConfig| {
            let mut ftl = ftl_with(GcPolicy::Greedy, wl);
            hammer(&mut ftl, 12);
            let geometry = *ftl.device().geometry();
            let mut min = u32::MAX;
            let mut max = 0;
            for b in 0..geometry.total_blocks() {
                let pec = ftl.device().block_pec(b).unwrap();
                min = min.min(pec);
                max = max.max(pec);
            }
            (max - min, ftl.stats().wear_level_moves)
        };
        let (spread_off, moves_off) = run(WearLevelingConfig::disabled());
        let (spread_on, moves_on) = run(WearLevelingConfig::enabled(8));
        assert_eq!(moves_off, 0);
        assert!(moves_on > 0, "WL never triggered");
        assert!(
            spread_on < spread_off,
            "WL did not narrow spread: on={spread_on} off={spread_off}"
        );
    }

    #[test]
    fn wear_leveling_costs_extra_writes() {
        // The Jiao et al. observation the paper cites (§4.3): leveling
        // wear spends erases/writes that shorten total lifetime.
        let run = |wl: WearLevelingConfig| {
            let mut ftl = ftl_with(GcPolicy::Greedy, wl);
            hammer(&mut ftl, 12);
            ftl.stats().flash_writes
        };
        let without = run(WearLevelingConfig::disabled());
        let with = run(WearLevelingConfig::enabled(8));
        assert!(
            with > without,
            "WL should amplify writes: with={with} without={without}"
        );
    }

    #[test]
    fn gc_preserves_all_live_data() {
        let mut ftl = ftl_with(GcPolicy::Greedy, WearLevelingConfig::disabled());
        let cap = ftl.logical_pages();
        // Distinct contents per LPN, then heavy overwrites of half the
        // space to force relocations of the untouched half.
        let make = |lpn: u64, version: u8| {
            let mut v = vec![version; ftl_page_bytes()];
            v[..8].copy_from_slice(&lpn.to_le_bytes());
            v
        };
        fn ftl_page_bytes() -> usize {
            2048
        }
        for lpn in 0..cap {
            ftl.write(lpn, &make(lpn, 0)).unwrap();
        }
        // Overwrite only even LPNs: every block holds interleaved
        // hot/cold pages, so GC must relocate the cold (odd) ones.
        for round in 1..=4u8 {
            for lpn in (0..cap).step_by(2) {
                ftl.write(lpn, &make(lpn, round)).unwrap();
            }
        }
        // The cold (odd) pages must have survived GC relocations intact.
        for lpn in (1..cap).step_by(2) {
            let got = ftl.read(lpn).unwrap().data;
            assert_eq!(got, make(lpn, 0), "lpn {lpn} corrupted by GC");
        }
        assert!(ftl.stats().gc_page_moves > 0, "expected GC relocations");
    }
}
