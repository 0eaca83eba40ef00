//! Stripe parity for the SYS partition.
//!
//! §4.2: SYS blocks "are stored conservatively with additional
//! redundancy (e.g., parity)". On top of per-page BCH, the SYS
//! partition store ([`crate::PartitionStore::with_parity`]) keeps a
//! RAID-5-style XOR parity page per stripe of `width` data LPNs, so a
//! page the BCH cannot recover is rebuilt from its stripe peers. The
//! store owns its [`StripeManager`] and calls it on every object write,
//! free, lost-page read, flush and remount.
//!
//! Parity is written back, as in a controller with a RAM parity buffer:
//! a stripe whose members change keeps its parity in RAM, updated by
//! XOR, and the store programs it once per flush (at day end, at
//! maintenance and before a checkpoint) instead of on every member
//! write and free. That costs about one parity program per stripe per
//! flush, the RAID-5 share of 1/`width`, rather than about two per data
//! page. A power cut loses the RAM parity, so at remount the on-flash
//! parity can be one flush stale: the remount keeps a page rebuilt from
//! it only when the page matches the [`page_checksum`] the object
//! directory recorded when the page was written.

use sos_ecc::PageStatus;
use sos_ftl::{Ftl, FtlError, PlacementHandle};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Write-back stripe parity manager over a SYS-partition FTL.
///
/// Data LPN `l` belongs to stripe `l / width`; each stripe has one
/// parity LPN drawn from a reserved range at the top of the logical
/// space. A stripe is *clean* while its on-flash parity page is the XOR
/// of its members, and *dirty* once a member write or free has moved
/// its parity into RAM: the first change after a flush loads the
/// on-flash page (one read), and each change XORs one member page in or
/// out. [`StripeManager::flush`] programs every dirty stripe's parity;
/// a stripe whose program finds no free space stays dirty, and
/// reconstructable from RAM, until a later flush.
#[derive(Debug)]
pub struct StripeManager {
    width: u64,
    /// First LPN of the reserved parity range.
    parity_base: u64,
    /// Member LPNs currently live, per stripe.
    members: BTreeMap<u64, Vec<u64>>,
    /// Parity of every dirty stripe, held in RAM: the XOR of its
    /// members' pages.
    dirty: BTreeMap<u64, Vec<u8>>,
    /// Parity pages programmed, by flushes and scrubs.
    programmed: u64,
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
            dirty: BTreeMap::new(),
            programmed: 0,
        }
    }

    /// Replaces stripe membership with the data LPNs referenced by the
    /// surviving object directory, and drops every RAM parity (the
    /// remount path: both are RAM state, lost with the power).
    pub fn rebuild(&mut self, data_lpns: impl IntoIterator<Item = u64>) {
        self.members.clear();
        self.dirty.clear();
        for lpn in data_lpns {
            self.members
                .entry(self.stripe_of(lpn))
                .or_default()
                .push(lpn);
        }
    }

    /// Recomputes every live stripe's parity from its readable members
    /// and programs it, then trims the parity page of every stripe left
    /// with no members (all of them lost, or none referenced). A stripe
    /// whose program finds no free space keeps its parity in RAM. The
    /// remount path runs this after crash recovery: RAM parity died with
    /// the power, on-flash parity may be a flush stale, and a volatile
    /// trim may have resurrected a parity page for a stripe whose
    /// membership changed. Returns the number of stripes refreshed.
    pub fn scrub_parity(&mut self, ftl: &mut Ftl) -> Result<u64, FtlError> {
        let mut refreshed = 0;
        for (&stripe, members) in &mut self.members {
            let parity = recompute(ftl, members)?;
            if members.is_empty() {
                continue;
            }
            match ftl.write_placed(self.parity_base + stripe, &parity, PlacementHandle::PARITY) {
                Ok(_) => self.programmed += 1,
                Err(FtlError::NoSpace) => {
                    self.dirty.insert(stripe, parity);
                }
                Err(e) => return Err(e),
            }
            refreshed += 1;
        }
        self.members.retain(|_, members| !members.is_empty());
        for lpn in self.parity_base..ftl.logical_pages() {
            if ftl.is_mapped(lpn) && !self.members.contains_key(&(lpn - self.parity_base)) {
                ftl.trim(lpn)?;
            }
        }
        Ok(refreshed)
    }

    /// Programs the RAM parity of every dirty stripe, in stripe order,
    /// stopping at the first program that finds no free space: that
    /// stripe and the ones after it stay dirty until the next flush.
    pub fn flush(&mut self, ftl: &mut Ftl) -> Result<(), FtlError> {
        while let Some(entry) = self.dirty.first_entry() {
            let parity_lpn = self.parity_base + entry.key();
            match ftl.write_placed(parity_lpn, entry.get(), PlacementHandle::PARITY) {
                Ok(_) => {
                    entry.remove();
                    self.programmed += 1;
                }
                Err(FtlError::NoSpace) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Parity pages programmed so far, by flushes and scrubs (data
    /// pages are not counted).
    pub fn parity_programs(&self) -> u64 {
        self.programmed
    }

    /// The stripes whose parity lives in RAM, in stripe order.
    pub fn dirty_stripes(&self) -> impl Iterator<Item = u64> + '_ {
        self.dirty.keys().copied()
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

    /// Records `page`, just written to the free LPN `lpn`, as a member
    /// of its stripe and XORs it into the stripe's RAM parity. A member
    /// is rewritten only after [`Self::on_free`] has dropped it.
    pub fn on_write(&mut self, ftl: &mut Ftl, lpn: u64, page: &[u8]) -> Result<(), FtlError> {
        debug_assert!(lpn < self.parity_base, "parity range used as data");
        let stripe = self.stripe_of(lpn);
        xor_into(self.dirty_parity(ftl, stripe)?, page);
        let members = self.members.entry(stripe).or_default();
        debug_assert!(!members.contains(&lpn), "member rewritten without a free");
        members.push(lpn);
        Ok(())
    }

    /// Drops `lpn` from its stripe, before the caller trims it: reads
    /// the page and XORs it out of the stripe's RAM parity, or, when it
    /// does not read back clean, recomputes the parity from the
    /// remaining members. The last member's free trims the parity page.
    /// Never fails for lack of space.
    pub fn on_free(&mut self, ftl: &mut Ftl, lpn: u64) -> Result<(), FtlError> {
        let stripe = self.stripe_of(lpn);
        let Some(members) = self.members.get_mut(&stripe) else {
            return Ok(());
        };
        let Some(at) = members.iter().position(|&member| member == lpn) else {
            return Ok(());
        };
        if members.len() == 1 {
            self.members.remove(&stripe);
            self.dirty.remove(&stripe);
            return ftl.trim(self.parity_base + stripe);
        }
        match read_clean(ftl, lpn)? {
            Some(old) => {
                // The parity still covers `lpn` while it loads.
                xor_into(self.dirty_parity(ftl, stripe)?, &old);
                if let Some(members) = self.members.get_mut(&stripe) {
                    members.retain(|&member| member != lpn);
                }
            }
            None => {
                members.remove(at);
                let parity = recompute(ftl, members)?;
                self.dirty.insert(stripe, parity);
            }
        }
        Ok(())
    }

    /// `stripe`'s RAM parity, loaded first if the stripe is clean: from
    /// its on-flash page, or, when that does not read back clean, from
    /// its members. A stripe with no members starts from zeros.
    fn dirty_parity(&mut self, ftl: &mut Ftl, stripe: u64) -> Result<&mut Vec<u8>, FtlError> {
        let vacant = match self.dirty.entry(stripe) {
            Entry::Occupied(entry) => return Ok(entry.into_mut()),
            Entry::Vacant(entry) => entry,
        };
        let parity = match self.members.get_mut(&stripe) {
            Some(members) if !members.is_empty() => {
                match read_clean(ftl, self.parity_base + stripe)? {
                    Some(parity) => parity,
                    None => recompute(ftl, members)?,
                }
            }
            _ => vec![0u8; ftl.page_bytes()],
        };
        Ok(vacant.insert(parity))
    }

    /// Attempts to rebuild the payload of a lost member from its stripe
    /// peers and the stripe's parity, from RAM when the stripe is dirty.
    /// Returns `None` when any peer or the on-flash parity fails to
    /// read or reads uncorrectable, or when `lpn` is not a member.
    pub fn reconstruct(&self, ftl: &mut Ftl, lpn: u64) -> Option<Vec<u8>> {
        let stripe = self.stripe_of(lpn);
        let members = self.members.get(&stripe)?;
        if !members.contains(&lpn) {
            return None;
        }
        let mut rebuilt = match self.dirty.get(&stripe) {
            Some(parity) => parity.clone(),
            None => read_clean(ftl, self.parity_base + stripe).ok()??,
        };
        for &member in members {
            if member != lpn {
                xor_into(&mut rebuilt, &read_clean(ftl, member).ok()??);
            }
        }
        Some(rebuilt)
    }
}

/// Reads `lpn`'s page: `None` when it is unwritten, lost or reads
/// uncorrectable; any other failure (a power loss above all) is
/// returned.
fn read_clean(ftl: &mut Ftl, lpn: u64) -> Result<Option<Vec<u8>>, FtlError> {
    match ftl.read(lpn) {
        Ok(result) if result.status != PageStatus::Uncorrectable => Ok(Some(result.data)),
        Ok(_) | Err(FtlError::NotWritten(_) | FtlError::DataLost(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

/// The XOR of `members`' pages, read in order. A member that does not
/// read back clean is dropped from `members`: the parity does not cover
/// it, so [`StripeManager::reconstruct`] must never "rebuild" it from
/// that parity.
fn recompute(ftl: &mut Ftl, members: &mut Vec<u64>) -> Result<Vec<u8>, FtlError> {
    let mut parity = vec![0u8; ftl.page_bytes()];
    let mut covered = Vec::with_capacity(members.len());
    for &member in members.iter() {
        if let Some(page) = read_clean(ftl, member)? {
            xor_into(&mut parity, &page);
            covered.push(member);
        }
    }
    *members = covered;
    Ok(parity)
}

/// XORs `src` into `dst` byte by byte (over the shorter of the two).
fn xor_into(dst: &mut [u8], src: &[u8]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// A cheap 64-bit checksum of one page, word by word: xxHash64's
/// four-lane accumulation round over the page's little-endian 64-bit
/// words (a partial tail is zero-padded), folded to one word. It runs at
/// memory speed, unlike a byte-table CRC, and any change to a page
/// changes it with overwhelming probability. The object directory keeps
/// it for every SYS page as written, so a remount can tell a page
/// rebuilt from stale parity from the page that was written.
pub fn page_checksum(page: &[u8]) -> u64 {
    const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
    const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    let mut lanes = [
        PRIME_1.wrapping_add(PRIME_2),
        PRIME_2,
        0,
        PRIME_1.wrapping_neg(),
    ];
    let mut absorb = |block: &[u8]| {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().unwrap_or([0; 8]));
            *lane = lane
                .wrapping_add(word.wrapping_mul(PRIME_2))
                .rotate_left(31)
                .wrapping_mul(PRIME_1);
        }
    };
    let mut blocks = page.chunks_exact(32);
    for block in &mut blocks {
        absorb(block);
    }
    if !blocks.remainder().is_empty() {
        let mut padded = [0u8; 32];
        xor_into(&mut padded, blocks.remainder());
        absorb(&padded);
    }
    let [a, b, c, d] = lanes;
    a.rotate_left(1)
        .wrapping_add(b.rotate_left(7))
        .wrapping_add(c.rotate_left(12))
        .wrapping_add(d.rotate_left(18))
        ^ page.len() as u64
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
        // Lose each member of a full stripe in turn, with the parity
        // still in RAM and once it is flushed; the others and the parity
        // rebuild it exactly.
        for flushed in [false, true] {
            for (lost, &byte) in (0u64..).zip(&STRIPE_BYTES) {
                let (mut ftl, mut stripes) = setup();
                write_full_stripe(&mut ftl, &mut stripes);
                if flushed {
                    stripes.flush(&mut ftl).unwrap();
                }
                ftl.trim(lost).unwrap();
                let rebuilt = stripes.reconstruct(&mut ftl, lost);
                assert_eq!(rebuilt, Some(page(&ftl, byte)), "member {lost}");
            }
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
    fn flush_programs_each_dirty_stripe_once() {
        let (mut ftl, mut stripes) = setup();
        write_full_stripe(&mut ftl, &mut stripes);
        let other = page(&ftl, 0x5A);
        ftl.write(4, &other).unwrap();
        stripes.on_write(&mut ftl, 4, &other).unwrap();
        assert_eq!(stripes.dirty_stripes().collect::<Vec<_>>(), vec![0, 1]);
        let programs = ftl.device().stats().programs;
        stripes.flush(&mut ftl).unwrap();
        assert_eq!(stripes.parity_programs(), 2);
        assert_eq!(ftl.device().stats().programs - programs, 2);
        assert_eq!(stripes.dirty_stripes().count(), 0);
        // A flush with nothing dirty programs nothing.
        stripes.flush(&mut ftl).unwrap();
        assert_eq!(stripes.parity_programs(), 2);
        // The flushed parity rebuilds a member from flash.
        ftl.trim(2).unwrap();
        assert_eq!(
            stripes.reconstruct(&mut ftl, 2),
            Some(page(&ftl, STRIPE_BYTES[2]))
        );
    }

    #[test]
    fn reconstruction_tracks_member_updates() {
        // Member 0 is rewritten after a flush: freeing it must XOR its
        // old content out of the parity loaded from flash before the new
        // content goes in.
        let (mut ftl, mut stripes) = setup();
        let first = page(&ftl, 0xAA);
        let peer = page(&ftl, 0x0F);
        for (lpn, data) in [(0, &first), (1, &peer)] {
            ftl.write(lpn, data).unwrap();
            stripes.on_write(&mut ftl, lpn, data).unwrap();
        }
        stripes.flush(&mut ftl).unwrap();
        stripes.on_free(&mut ftl, 0).unwrap();
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
        stripes.on_free(&mut ftl, 0).unwrap();
        ftl.trim(0).unwrap();
        // Member 0 no longer reconstructable; member 1 still is.
        assert!(stripes.reconstruct(&mut ftl, 0).is_none());
        ftl.trim(1).unwrap();
        assert_eq!(stripes.reconstruct(&mut ftl, 1).unwrap(), b);
    }

    #[test]
    fn flush_without_space_keeps_the_stripe_dirty_and_reconstructable() {
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
            stripes.on_free(&mut ftl, lpn).unwrap();
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
        // The flush cannot program stripe 0's parity: it stays in RAM.
        stripes.flush(&mut ftl).unwrap();
        assert_eq!(stripes.dirty_stripes().next(), Some(0));
        // Dropping member 0 takes it out of the RAM parity, so member 1
        // still rebuilds as 0x22, not 0x11 ^ 0x22.
        stripes.on_free(&mut ftl, 0).unwrap();
        ftl.trim(0).unwrap();
        ftl.trim(1).unwrap();
        assert_eq!(
            stripes.reconstruct(&mut ftl, 1),
            Some(page(&ftl, STRIPE_BYTES[1]))
        );
    }

    #[test]
    fn unknown_lpn_is_not_reconstructable() {
        let (mut ftl, stripes) = setup();
        assert!(stripes.reconstruct(&mut ftl, 99).is_none());
    }

    #[test]
    fn page_checksum_sees_any_change() {
        let base: Vec<u8> = (0..2048).map(|i| (i % 241) as u8).collect();
        let sum = page_checksum(&base);
        assert_eq!(sum, page_checksum(&base.clone()));
        // A flipped top bit in two words: a plain word sum would miss it.
        let mut flipped = base.clone();
        flipped[7] ^= 0x80;
        flipped[23] ^= 0x80;
        assert_ne!(page_checksum(&flipped), sum);
        // Two words swapped.
        let mut swapped = base.clone();
        swapped.copy_within(0..8, 2040);
        swapped[..8].copy_from_slice(&base[2040..]);
        assert_ne!(page_checksum(&swapped), sum);
        // Every single-bit error in the first 64 bytes.
        for bit in 0..512 {
            let mut damaged = base.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(page_checksum(&damaged), sum, "bit {bit}");
        }
        // A zero page and a short tail.
        assert_ne!(page_checksum(&[0u8; 2048]), page_checksum(&[0u8; 2040]));
        assert_ne!(page_checksum(&[1, 2, 3]), page_checksum(&[1, 2, 4]));
    }
}
