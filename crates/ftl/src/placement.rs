//! FDP-style placement (§4.3; NVMe Flexible Data Placement,
//! arXiv:2503.11665).
//!
//! FDP has one host directive — a placement handle on each write — and
//! this module keeps that shape:
//!
//! * a [`PlacementHandle`] names where a write should land. Its
//!   constants are the wire map: the byte each one holds is what
//!   per-page OOB metadata and checkpoints store;
//! * the crate-private `StreamPlacement` tracks which reclaim unit (one
//!   erase block in this simulator) each handle appends into, and keeps
//!   the placement-mix counters ([`PlacementStats`]) behind the
//!   per-reclaim-unit write-amp reporting.
//!
//! [`crate::Ftl::write_placed`] is the one placed write.

use std::collections::BTreeMap;

/// A placement handle: where a write should land. FDP's analogue of a
/// stream id, but typed, so call sites name intent (`GC`, `CKPT`,
/// `SPARE_HOT`) instead of magic numbers. Each constant's byte is in
/// every OOB record and checkpoint, so it may never change (pinned by
/// `handles_are_wire_compatible_and_distinct`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlacementHandle(u8);

impl PlacementHandle {
    /// Unhinted host writes (hot SYS data).
    pub const DEFAULT: PlacementHandle = PlacementHandle(0);
    /// Stripe parity pages (`sos-core`'s SYS redundancy).
    pub const PARITY: PlacementHandle = PlacementHandle(1);
    /// Cold SYS data.
    pub const COLD: PlacementHandle = PlacementHandle(2);
    /// Hot SPARE (degradable) data.
    pub const SPARE_HOT: PlacementHandle = PlacementHandle(3);
    /// Cold SPARE (degradable) data.
    pub const SPARE_COLD: PlacementHandle = PlacementHandle(4);
    /// Checkpoint pages (and the remap target for host hints that
    /// collide with the reserved GC byte).
    pub const CKPT: PlacementHandle = PlacementHandle(254);
    /// Internal relocation traffic from garbage collection and refresh.
    pub const GC: PlacementHandle = PlacementHandle(255);

    /// Maps a host-supplied placement hint (a raw wire byte) onto a
    /// handle. The reserved GC byte is remapped to the adjacent internal
    /// handle rather than rejected — hosts pick hints without knowing
    /// the reserved values (pinned by `sos-core`'s
    /// `reserved_stream_hint_is_remapped`).
    pub const fn from_host_hint(hint: u8) -> PlacementHandle {
        if hint == PlacementHandle::GC.0 {
            PlacementHandle::CKPT
        } else {
            PlacementHandle(hint)
        }
    }

    /// The wire encoding written into per-page OOB metadata.
    pub const fn stream(self) -> u8 {
        self.0
    }

    /// Whether this handle is reserved for FTL-internal traffic and
    /// must be rejected on the host write path.
    pub const fn is_reserved(self) -> bool {
        self.0 == PlacementHandle::GC.0
    }
}

/// Placement-mix counters: what the device programmed, bucketed by who
/// asked, plus reclaim-unit lifecycle totals. `pages_per_unit_erase`
/// is the per-reclaim-unit write-amp figure the E11 and flash-cache
/// summaries print.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementStats {
    /// Reclaim units opened.
    pub units_opened: u64,
    /// Reclaim units that filled completely.
    pub units_filled: u64,
    /// Reclaim units erased (blocks reclaimed back to the free pool).
    pub units_erased: u64,
    /// Pages appended via host handles (data the host asked to write).
    pub host_pages: u64,
    /// Pages appended via the internal GC/refresh relocation handle.
    pub reloc_pages: u64,
}

impl PlacementStats {
    /// Pages programmed per reclaim-unit erase — the per-unit
    /// write-amp: how much programming each erase cycle buys.
    pub fn pages_per_unit_erase(&self) -> f64 {
        let programmed = self.host_pages + self.reloc_pages;
        if self.units_erased == 0 {
            programmed as f64
        } else {
            programmed as f64 / self.units_erased as f64
        }
    }

    /// Fraction of appended pages that were host-placed (the rest is
    /// relocation traffic). 1.0 when nothing has been appended.
    pub fn host_fraction(&self) -> f64 {
        let programmed = self.host_pages + self.reloc_pages;
        if programmed == 0 {
            1.0
        } else {
            self.host_pages as f64 / programmed as f64
        }
    }

    /// Adds another FTL's counters into this one (a multi-FTL total).
    pub fn absorb(&mut self, other: &PlacementStats) {
        self.units_opened += other.units_opened;
        self.units_filled += other.units_filled;
        self.units_erased += other.units_erased;
        self.host_pages += other.host_pages;
        self.reloc_pages += other.reloc_pages;
    }
}

/// The placement surface the FTL write path drives: open, append to
/// and close reclaim units per handle, and record unit erases. One
/// handle appends into at most one open unit at a time (the FDP
/// "placement handle references a reclaim unit" rule).
///
/// This is the open-block-per-stream allocator re-expressed as reclaim
/// units. Block selection stays with the FTL (it pops its free list);
/// this tracks which block each handle appends into and the lifecycle
/// telemetry.
#[derive(Debug, Default)]
pub(crate) struct StreamPlacement {
    units: BTreeMap<PlacementHandle, u64>,
    stats: PlacementStats,
}

impl StreamPlacement {
    /// Binds a fresh (erased) block as the open reclaim unit for
    /// `handle`, replacing any previous unit for it.
    pub fn open_unit(&mut self, handle: PlacementHandle, block: u64) {
        self.units.insert(handle, block);
        self.stats.units_opened += 1;
    }

    /// The block backing the open reclaim unit for `handle`, if any.
    pub fn unit_for(&self, handle: PlacementHandle) -> Option<u64> {
        self.units.get(&handle).copied()
    }

    /// Records one page appended through `handle` into its open unit.
    pub fn note_append(&mut self, handle: PlacementHandle) {
        if handle == PlacementHandle::GC {
            self.stats.reloc_pages += 1;
        } else {
            self.stats.host_pages += 1;
        }
    }

    /// Closes the open unit for `handle`. `filled` distinguishes a
    /// unit that ran out of pages from one abandoned early.
    pub fn close_unit(&mut self, handle: PlacementHandle, filled: bool) {
        if self.units.remove(&handle).is_some() && filled {
            self.stats.units_filled += 1;
        }
    }

    /// Closes whatever unit is backed by `block` (block failure or
    /// retirement removes it from service regardless of handle).
    pub fn evict_block(&mut self, block: u64) {
        self.units.retain(|_, open| *open != block);
    }

    /// Records that a reclaim unit was erased.
    pub fn note_erase(&mut self) {
        self.stats.units_erased += 1;
    }

    /// The currently open reclaim units as `(handle, block)`, ordered
    /// by wire byte.
    pub fn open_units(&self) -> impl Iterator<Item = (PlacementHandle, u64)> + '_ {
        self.units.iter().map(|(&handle, &block)| (handle, block))
    }

    /// Cumulative placement-mix counters.
    pub fn stats(&self) -> PlacementStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_wire_compatible_and_distinct() {
        // The wire map: these bytes are in every OOB record and every
        // checkpoint, so they may never change.
        let wire = [
            (PlacementHandle::DEFAULT, 0),
            (PlacementHandle::PARITY, 1),
            (PlacementHandle::COLD, 2),
            (PlacementHandle::SPARE_HOT, 3),
            (PlacementHandle::SPARE_COLD, 4),
            (PlacementHandle::CKPT, 254),
            (PlacementHandle::GC, 255),
            (PlacementHandle::from_host_hint(255), 254),
        ];
        for (handle, byte) in wire {
            assert_eq!(handle.stream(), byte, "{handle:?}");
        }
        let mut data = vec![
            PlacementHandle::DEFAULT,
            PlacementHandle::COLD,
            PlacementHandle::SPARE_HOT,
            PlacementHandle::SPARE_COLD,
        ];
        data.sort_unstable();
        data.dedup();
        assert_eq!(data.len(), 4, "data handles must be distinct");
        for handle in data {
            assert!(!handle.is_reserved(), "{handle:?}");
        }
    }

    #[test]
    fn host_hint_remaps_reserved_stream() {
        assert_eq!(
            PlacementHandle::from_host_hint(PlacementHandle::GC.stream()),
            PlacementHandle::CKPT
        );
        assert_eq!(PlacementHandle::from_host_hint(7).stream(), 7);
    }

    #[test]
    fn unit_lifecycle_counts() {
        let mut backend = StreamPlacement::default();
        let handle = PlacementHandle::DEFAULT;
        backend.open_unit(handle, 3);
        backend.note_append(handle);
        backend.note_append(handle);
        assert_eq!(backend.unit_for(handle), Some(3));
        backend.close_unit(handle, true);
        assert_eq!(backend.unit_for(handle), None);
        backend.note_erase();
        let stats = backend.stats();
        assert_eq!(stats.units_opened, 1);
        assert_eq!(stats.units_filled, 1);
        assert_eq!(stats.units_erased, 1);
        assert_eq!(stats.host_pages, 2);
        assert_eq!(stats.reloc_pages, 0);
        assert!((stats.pages_per_unit_erase() - 2.0).abs() < 1e-12);
        assert!((stats.host_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn evict_closes_without_fill() {
        let mut backend = StreamPlacement::default();
        backend.open_unit(PlacementHandle::GC, 9);
        backend.note_append(PlacementHandle::GC);
        backend.evict_block(9);
        assert_eq!(backend.unit_for(PlacementHandle::GC), None);
        assert_eq!(backend.stats().reloc_pages, 1);
    }

    #[test]
    fn reopening_a_handle_closes_the_previous_unit() {
        let mut backend = StreamPlacement::default();
        backend.open_unit(PlacementHandle::COLD, 1);
        backend.open_unit(PlacementHandle::COLD, 2);
        assert_eq!(backend.unit_for(PlacementHandle::COLD), Some(2));
        assert_eq!(backend.open_units().count(), 1);
    }

    #[test]
    fn stats_absorb_sums_every_field() {
        let a = PlacementStats {
            units_opened: 1,
            units_filled: 2,
            units_erased: 3,
            host_pages: 4,
            reloc_pages: 5,
        };
        let b = PlacementStats {
            units_opened: 10,
            units_filled: 20,
            units_erased: 30,
            host_pages: 40,
            reloc_pages: 50,
        };
        let mut total = PlacementStats::default();
        total.absorb(&a);
        total.absorb(&b);
        assert_eq!(
            total,
            PlacementStats {
                units_opened: 11,
                units_filled: 22,
                units_erased: 33,
                host_pages: 44,
                reloc_pages: 55,
            }
        );
    }
}
