//! Stripe parity for the SYS partition.
//!
//! §4.2: SYS blocks "are stored conservatively with additional
//! redundancy (e.g., parity)". On top of per-page BCH, the SYS
//! partition store ([`crate::PartitionStore::with_parity`]) keeps a
//! RAID-5-style XOR parity page per stripe of `width` data LPNs, so a
//! page the BCH cannot recover is rebuilt from its stripe peers. The
//! store owns its [`StripeManager`] and calls it on every object write,
//! free, lost-page read and remount.

use sos_ecc::PageStatus;
use sos_ftl::{Ftl, FtlError, PlacementHandle};
use std::collections::{BTreeMap, BTreeSet};

/// Stripe parity manager over a SYS-partition FTL.
///
/// Data LPN `l` belongs to stripe `l / width`; each stripe has one
/// parity LPN drawn from a reserved range at the top of the logical
/// space. Parity is recomputed on every member write (read-peers +
/// write-parity), which is the simple, always-consistent variant of
/// RAID-5 maintenance. A refresh that finds no free space leaves the
/// stripe *stale*: its parity no longer matches its members, so
/// [`StripeManager::reconstruct`] refuses it until a later refresh
/// succeeds.
#[derive(Debug)]
pub struct StripeManager {
    width: u64,
    /// First LPN of the reserved parity range.
    parity_base: u64,
    /// Member LPNs currently live, per stripe.
    members: BTreeMap<u64, Vec<u64>>,
    /// Stripes whose parity page does not match their members.
    stale: BTreeSet<u64>,
}

impl StripeManager {
    /// Plans stripes of `width` data pages over an FTL whose logical
    /// space is split into `[0, parity_base)` data LPNs and
    /// `[parity_base, ...)` parity LPNs.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: u64, parity_base: u64) -> Self {
        // sos-lint: allow(panic-path, "documented contract: zero stripe width is a configuration bug caught at mount, not a data-dependent condition")
        assert!(width >= 1, "stripe width must be positive");
        StripeManager {
            width,
            parity_base,
            members: BTreeMap::new(),
            stale: BTreeSet::new(),
        }
    }

    /// Replaces stripe membership with the data LPNs referenced by the
    /// surviving object directory (the remount path: membership is RAM
    /// state and does not itself survive a crash).
    pub fn rebuild(&mut self, data_lpns: impl IntoIterator<Item = u64>) {
        self.members.clear();
        self.stale.clear();
        for lpn in data_lpns {
            self.add_member(lpn);
        }
    }

    /// Recomputes and rewrites every live stripe's parity page from its
    /// readable members, then trims the parity page of every stripe
    /// left with no members (all of them lost, or none referenced).
    /// The remount path runs this after crash recovery: a power cut
    /// between a member write and its parity update (the classic RAID-5
    /// write hole) leaves parity stale, and a volatile trim may have
    /// resurrected a parity page for a stripe whose membership changed.
    /// Returns the number of stripes refreshed.
    pub fn scrub_parity(&mut self, ftl: &mut Ftl) -> Result<u64, FtlError> {
        let mut refreshed = 0;
        for (&stripe, members) in &mut self.members {
            write_parity(ftl, self.parity_base + stripe, members, None)?;
            refreshed += 1;
        }
        self.members.retain(|_, members| !members.is_empty());
        self.stale.clear();
        for lpn in self.parity_base..ftl.logical_pages() {
            if ftl.is_mapped(lpn) && !self.members.contains_key(&(lpn - self.parity_base)) {
                ftl.trim(lpn)?;
            }
        }
        Ok(refreshed)
    }

    /// Retries the parity refresh of every stale stripe, stopping at the
    /// first that still finds no free space.
    pub fn refresh_stale(&mut self, ftl: &mut Ftl) -> Result<(), FtlError> {
        while let Some(stripe) = self.stale.first().copied() {
            match self.refresh(ftl, stripe, None) {
                Ok(()) => {}
                Err(FtlError::NoSpace) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Splits a logical page count into `(data_pages, parity_pages)`
    /// for a given stripe width.
    pub fn layout(total_pages: u64, width: u64) -> (u64, u64) {
        // data + ceil(data/width) <= total.
        let data = total_pages * width / (width + 1);
        (data, total_pages - data)
    }

    fn stripe_of(&self, lpn: u64) -> u64 {
        lpn.checked_div(self.width).unwrap_or(0)
    }

    fn parity_lpn(&self, stripe: u64) -> u64 {
        self.parity_base + stripe
    }

    /// Records a member write and refreshes the stripe's parity page.
    /// `page` is the payload just written to `lpn`. On
    /// [`FtlError::NoSpace`] the member stays recorded and the stripe is
    /// left stale; the caller undoes the write with [`Self::on_trim`].
    pub fn on_write(&mut self, ftl: &mut Ftl, lpn: u64, page: &[u8]) -> Result<(), FtlError> {
        let stripe = self.add_member(lpn);
        self.refresh(ftl, stripe, Some((lpn, page)))
    }

    /// Records `lpn` as a member of its stripe; returns the stripe.
    fn add_member(&mut self, lpn: u64) -> u64 {
        debug_assert!(lpn < self.parity_base, "parity range used as data");
        let stripe = self.stripe_of(lpn);
        let members = self.members.entry(stripe).or_default();
        if !members.contains(&lpn) {
            members.push(lpn);
        }
        stripe
    }

    /// Records a member deletion and refreshes parity. Never fails for
    /// lack of space: the member is dropped regardless, and a parity
    /// refresh that finds no free space leaves the stripe stale.
    pub fn on_trim(&mut self, ftl: &mut Ftl, lpn: u64) -> Result<(), FtlError> {
        let stripe = self.stripe_of(lpn);
        let Some(members) = self.members.get_mut(&stripe) else {
            return Ok(());
        };
        members.retain(|&m| m != lpn);
        if members.is_empty() {
            self.members.remove(&stripe);
            self.stale.remove(&stripe);
            let _ = ftl.trim(self.parity_lpn(stripe));
            return Ok(());
        }
        match self.refresh(ftl, stripe, None) {
            Err(FtlError::NoSpace) => Ok(()),
            other => other,
        }
    }

    /// Rewrites `stripe`'s parity page from its members, marking the
    /// stripe stale when the write finds no free space and consistent
    /// once it succeeds.
    fn refresh(
        &mut self,
        ftl: &mut Ftl,
        stripe: u64,
        written: Option<(u64, &[u8])>,
    ) -> Result<(), FtlError> {
        let parity_lpn = self.parity_lpn(stripe);
        let Some(members) = self.members.get_mut(&stripe) else {
            self.stale.remove(&stripe);
            return Ok(());
        };
        match write_parity(ftl, parity_lpn, members, written) {
            Ok(()) => {
                self.stale.remove(&stripe);
                Ok(())
            }
            Err(FtlError::NoSpace) => {
                self.stale.insert(stripe);
                Err(FtlError::NoSpace)
            }
            Err(e) => Err(e),
        }
    }

    /// Attempts to rebuild the payload of a lost member from its stripe
    /// peers and the parity page. Returns `None` when any peer or the
    /// parity itself fails to read or reads uncorrectable, or when the
    /// stripe is stale.
    pub fn reconstruct(&self, ftl: &mut Ftl, lpn: u64) -> Option<Vec<u8>> {
        let stripe = self.stripe_of(lpn);
        let members = self.members.get(&stripe)?;
        if !members.contains(&lpn) || self.stale.contains(&stripe) {
            return None;
        }
        let mut read_clean = |page: u64| {
            ftl.read(page)
                .ok()
                .filter(|result| result.status != PageStatus::Uncorrectable)
                .map(|result| result.data)
        };
        let mut rebuilt = read_clean(self.parity_lpn(stripe))?;
        for &member in members {
            if member != lpn {
                xor_into(&mut rebuilt, &read_clean(member)?);
            }
        }
        Some(rebuilt)
    }
}

/// Recomputes a stripe's parity as the XOR of its `members`, read in
/// order, and writes it to `parity_lpn` on the dedicated parity handle
/// (kept apart from data reclaim units: parity is rewritten far more
/// often). `written` is a member whose payload was just written: it is
/// XORed in directly rather than read back.
///
/// A member whose data is lost (the FTL reports it lost, or its read is
/// uncorrectable) is dropped from `members`: the new parity does not
/// cover it, so [`StripeManager::reconstruct`] must never "rebuild" it
/// from that parity. A member that is not written at all is skipped but
/// kept: an object free trims all its pages before it drops them from
/// their stripes one by one.
fn write_parity(
    ftl: &mut Ftl,
    parity_lpn: u64,
    members: &mut Vec<u64>,
    written: Option<(u64, &[u8])>,
) -> Result<(), FtlError> {
    let mut parity = vec![0u8; ftl.page_bytes()];
    members.retain(|&member| match written {
        Some((lpn, page)) if lpn == member => {
            xor_into(&mut parity, page);
            true
        }
        _ => match ftl.read(member) {
            Ok(result) if result.status != PageStatus::Uncorrectable => {
                xor_into(&mut parity, &result.data);
                true
            }
            Ok(_) | Err(FtlError::DataLost(_)) => false,
            Err(_) => true,
        },
    });
    ftl.write_placed(parity_lpn, &parity, PlacementHandle::PARITY)?;
    Ok(())
}

/// XORs `src` into `dst` byte by byte (over the shorter of the two).
fn xor_into(dst: &mut [u8], src: &[u8]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_flash::{CellDensity, DeviceConfig, FaultAt, FaultKind, FaultPlan, ProgramMode};
    use sos_ftl::FtlConfig;

    fn setup() -> (Ftl, StripeManager) {
        let ftl = Ftl::new(
            &DeviceConfig::tiny(CellDensity::Tlc),
            FtlConfig::conventional(ProgramMode::native(CellDensity::Tlc)),
        );
        let total = ftl.logical_pages();
        let (data, _) = StripeManager::layout(total, 4);
        (ftl, StripeManager::new(4, data))
    }

    fn page(ftl: &Ftl, byte: u8) -> Vec<u8> {
        vec![byte; ftl.page_bytes()]
    }

    #[test]
    fn layout_accounts_for_parity() {
        let (data, parity) = StripeManager::layout(100, 4);
        assert!(data + parity == 100);
        assert!(parity >= data.div_ceil(4));
    }

    /// Distinct payload byte per member of a full 4-wide stripe 0.
    const STRIPE_BYTES: [u8; 4] = [0x11, 0x22, 0x3C, 0xF0];

    fn write_full_stripe(ftl: &mut Ftl, stripes: &mut StripeManager) {
        for (lpn, &byte) in (0u64..).zip(&STRIPE_BYTES) {
            let data = page(ftl, byte);
            ftl.write(lpn, &data).unwrap();
            stripes.on_write(ftl, lpn, &data).unwrap();
        }
    }

    #[test]
    fn reconstructs_a_lost_member() {
        // Lose each member of a full stripe in turn; the others and the
        // parity page rebuild it exactly.
        for (lost, &byte) in (0u64..).zip(&STRIPE_BYTES) {
            let (mut ftl, mut stripes) = setup();
            write_full_stripe(&mut ftl, &mut stripes);
            ftl.trim(lost).unwrap();
            let rebuilt = stripes.reconstruct(&mut ftl, lost);
            assert_eq!(rebuilt, Some(page(&ftl, byte)), "member {lost}");
        }
    }

    #[test]
    fn two_lost_members_are_not_reconstructable() {
        let (mut ftl, mut stripes) = setup();
        write_full_stripe(&mut ftl, &mut stripes);
        ftl.trim(1).unwrap();
        ftl.trim(3).unwrap();
        assert!(stripes.reconstruct(&mut ftl, 1).is_none());
        assert!(stripes.reconstruct(&mut ftl, 3).is_none());
    }

    #[test]
    fn reconstruction_tracks_member_updates() {
        let (mut ftl, mut stripes) = setup();
        let first = page(&ftl, 0xAA);
        ftl.write(0, &first).unwrap();
        stripes.on_write(&mut ftl, 0, &first).unwrap();
        let second = page(&ftl, 0xBB);
        ftl.write(0, &second).unwrap();
        stripes.on_write(&mut ftl, 0, &second).unwrap();
        ftl.trim(0).unwrap();
        let rebuilt = stripes.reconstruct(&mut ftl, 0).expect("reconstructable");
        assert_eq!(rebuilt, second, "parity must reflect the latest write");
    }

    #[test]
    fn trim_removes_member_from_stripe() {
        let (mut ftl, mut stripes) = setup();
        let a = page(&ftl, 1);
        let b = page(&ftl, 2);
        ftl.write(0, &a).unwrap();
        stripes.on_write(&mut ftl, 0, &a).unwrap();
        ftl.write(1, &b).unwrap();
        stripes.on_write(&mut ftl, 1, &b).unwrap();
        ftl.trim(0).unwrap();
        stripes.on_trim(&mut ftl, 0).unwrap();
        // Member 0 no longer reconstructable; member 1 still is.
        assert!(stripes.reconstruct(&mut ftl, 0).is_none());
        ftl.trim(1).unwrap();
        assert_eq!(stripes.reconstruct(&mut ftl, 1).unwrap(), b);
    }

    #[test]
    fn parity_refresh_without_space_leaves_the_stripe_unreconstructable() {
        let (mut ftl, mut stripes) = setup();
        write_full_stripe(&mut ftl, &mut stripes);
        // Every erase from here on retires its block, so GC can no
        // longer win space back: fill the other stripes until the FTL
        // runs out.
        for _ in 0..64 {
            let plan = FaultPlan {
                kind: FaultKind::FailErase,
                at: FaultAt::OpCount(0),
            };
            ftl.arm_fault(plan, 1);
        }
        let filler = page(&ftl, 0x77);
        let span = stripes.parity_base - 4;
        let mut full = false;
        for step in 0..10 * ftl.logical_pages() {
            let lpn = 4 + step % span;
            let written = ftl
                .write(lpn, &filler)
                .and_then(|_| stripes.on_write(&mut ftl, lpn, &filler));
            if written == Err(FtlError::NoSpace) {
                full = true;
                break;
            }
            written.unwrap();
        }
        assert!(full, "the FTL never ran out of space");
        // Dropping member 0 cannot rewrite the parity, which still
        // folds in member 0's data: rebuilding member 1 from it would
        // return 0x11 ^ 0x22 instead of 0x22.
        ftl.trim(0).unwrap();
        stripes.on_trim(&mut ftl, 0).unwrap();
        assert!(stripes.stale.contains(&0));
        ftl.trim(1).unwrap();
        assert!(stripes.reconstruct(&mut ftl, 1).is_none());
    }

    #[test]
    fn unknown_lpn_is_not_reconstructable() {
        let (mut ftl, stripes) = setup();
        assert!(stripes.reconstruct(&mut ftl, 99).is_none());
    }
}
