//! FDP-style placement: reclaim units, placement handles, and typed
//! data tags (§4.3; NVMe Flexible Data Placement, arXiv:2503.11665).
//!
//! FDP has one host directive — a placement handle on each write — and
//! this module keeps that shape:
//!
//! * a [`ReclaimUnit`] is the host-visible append unit (one erase block
//!   in this simulator) a handle currently appends into;
//! * a [`PlacementHandle`] names where a write should land; its wire
//!   byte (private constants below) is what per-page OOB metadata and
//!   checkpoints store;
//! * a [`DataTag`] is what hosts actually know about their data — its
//!   class and temperature — and maps deterministically onto a handle;
//! * [`StreamPlacement`] tracks open/close/append on reclaim units and
//!   keeps the placement-mix counters ([`PlacementStats`]) behind the
//!   per-reclaim-unit write-amp reporting.
//!
//! [`crate::Ftl::write_placed`] is the one placed write.

use std::collections::BTreeMap;

// Wire bytes of the placement handles, as stored in per-page OOB
// metadata and checkpoints. Pinned by
// `tag_handles_are_wire_compatible_and_injective`.

/// Unhinted writes (hot SYS data).
const WIRE_DEFAULT: u8 = 0;
/// Stripe parity pages (`sos-core`'s SYS redundancy).
const WIRE_PARITY: u8 = 1;
/// Cold SYS data ([`Temperature::Cold`] SYS tags).
const WIRE_COLD: u8 = 2;
/// Spare-class (degradable) hot data.
const WIRE_SPARE_HOT: u8 = 3;
/// Spare-class (degradable) cold data.
const WIRE_SPARE_COLD: u8 = 4;
/// Checkpoint pages (and the remap target for host hints that collide
/// with the reserved GC byte).
const WIRE_CKPT: u8 = 254;
/// Internal relocation traffic from garbage collection and refresh.
const WIRE_GC: u8 = 255;

/// A placement handle: where a write should land. FDP's analogue of a
/// stream id, but typed, so call sites name intent (`GC`, `CKPT`,
/// `DEFAULT`) instead of magic numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlacementHandle(u8);

impl PlacementHandle {
    /// Handle for unhinted host writes (hot SYS data).
    pub const DEFAULT: PlacementHandle = PlacementHandle(WIRE_DEFAULT);
    /// Handle for stripe parity pages.
    pub const PARITY: PlacementHandle = PlacementHandle(WIRE_PARITY);
    /// Handle for cold SYS data.
    pub const COLD: PlacementHandle = PlacementHandle(WIRE_COLD);
    /// Internal relocation handle for GC and refresh traffic.
    pub const GC: PlacementHandle = PlacementHandle(WIRE_GC);
    /// Internal handle for checkpoint pages.
    pub const CKPT: PlacementHandle = PlacementHandle(WIRE_CKPT);

    /// Maps a host-supplied placement hint (a raw wire byte) onto a
    /// handle. The reserved GC byte is remapped to the adjacent internal
    /// handle rather than rejected — hosts pick hints without knowing
    /// the reserved values (pinned by `sos-core`'s
    /// `reserved_stream_hint_is_remapped`).
    pub const fn from_host_hint(hint: u8) -> PlacementHandle {
        if hint == WIRE_GC {
            PlacementHandle(WIRE_CKPT)
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
        self.0 == WIRE_GC
    }
}

/// Data class: which durability contract the data lives under (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataClass {
    /// Significant data: must never be silently lost.
    Sys,
    /// Degradable data: may decay instead of being rewritten.
    Spare,
}

/// Update temperature: how soon the data is expected to be overwritten
/// or die. Separating temperatures into different reclaim units lets
/// whole units invalidate together, which is the FDP write-amp lever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Temperature {
    /// Frequently overwritten / short-lived.
    Hot,
    /// Rarely overwritten / long-lived.
    Cold,
}

/// What the host knows about a write: class and temperature. This is
/// the typed replacement for magic stream numbers; [`DataTag::handle`]
/// derives the placement handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataTag {
    /// Durability class (SYS vs SPARE).
    pub class: DataClass,
    /// Update temperature.
    pub temp: Temperature,
}

impl DataTag {
    /// A tag for `class` data at `temp`.
    pub const fn new(class: DataClass, temp: Temperature) -> DataTag {
        DataTag { class, temp }
    }

    /// Shorthand for hot SYS data (the legacy default placement).
    pub const fn sys_hot() -> DataTag {
        DataTag::new(DataClass::Sys, Temperature::Hot)
    }

    /// Shorthand for hot SPARE data.
    pub const fn spare_hot() -> DataTag {
        DataTag::new(DataClass::Spare, Temperature::Hot)
    }

    /// Derives the placement handle. The mapping is deterministic and
    /// wire-compatible: hot SYS data lands on the default handle so
    /// devices written before typed tags existed decode unchanged, while
    /// the other class/temperature combinations get their own reclaim
    /// units.
    pub const fn handle(self) -> PlacementHandle {
        let wire = match (self.class, self.temp) {
            (DataClass::Sys, Temperature::Hot) => WIRE_DEFAULT,
            (DataClass::Sys, Temperature::Cold) => WIRE_COLD,
            (DataClass::Spare, Temperature::Hot) => WIRE_SPARE_HOT,
            (DataClass::Spare, Temperature::Cold) => WIRE_SPARE_COLD,
        };
        PlacementHandle(wire)
    }
}

/// The host-visible append unit a placement handle writes into: one
/// erase block in this simulator (real FDP reclaim units span several
/// blocks; here a unit is exactly the FTL's open block for a handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReclaimUnit {
    /// Flat physical block index backing the unit.
    pub block: u64,
    /// The handle currently appending into it.
    pub handle: PlacementHandle,
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
/// this tracks which unit each handle appends into and the lifecycle
/// telemetry.
#[derive(Debug, Default)]
pub struct StreamPlacement {
    units: BTreeMap<u8, ReclaimUnit>,
    stats: PlacementStats,
}

impl StreamPlacement {
    /// An empty backend with no open units.
    pub fn new() -> StreamPlacement {
        StreamPlacement::default()
    }

    /// Binds a fresh (erased) block as the open reclaim unit for
    /// `handle`, closing any previous unit for it first.
    pub fn open_unit(&mut self, handle: PlacementHandle, block: u64) {
        self.close_unit(handle, false);
        self.units
            .insert(handle.stream(), ReclaimUnit { block, handle });
        self.stats.units_opened += 1;
    }

    /// The block backing the open reclaim unit for `handle`, if any.
    pub fn unit_for(&self, handle: PlacementHandle) -> Option<u64> {
        self.units.get(&handle.stream()).map(|unit| unit.block)
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
    pub fn close_unit(&mut self, handle: PlacementHandle, filled: bool) -> Option<ReclaimUnit> {
        let unit = self.units.remove(&handle.stream())?;
        if filled {
            self.stats.units_filled += 1;
        }
        Some(unit)
    }

    /// Closes whatever unit is backed by `block` (block failure or
    /// retirement removes it from service regardless of handle).
    pub fn evict_block(&mut self, block: u64) {
        let handles: Vec<PlacementHandle> = self
            .units
            .values()
            .filter(|unit| unit.block == block)
            .map(|unit| unit.handle)
            .collect();
        for handle in handles {
            self.close_unit(handle, false);
        }
    }

    /// Records that a reclaim unit was erased.
    pub fn note_erase(&mut self) {
        self.stats.units_erased += 1;
    }

    /// The currently open reclaim units, ordered by wire stream id.
    pub fn open_units(&self) -> Vec<ReclaimUnit> {
        let mut units: Vec<ReclaimUnit> = self.units.values().copied().collect();
        units.sort_by_key(|unit| unit.handle.stream());
        units
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
    fn tag_handles_are_wire_compatible_and_injective() {
        let tags = [
            DataTag::new(DataClass::Sys, Temperature::Hot),
            DataTag::new(DataClass::Sys, Temperature::Cold),
            DataTag::new(DataClass::Spare, Temperature::Hot),
            DataTag::new(DataClass::Spare, Temperature::Cold),
        ];
        // The wire map: these bytes are in every OOB record and every
        // checkpoint, so they may never change.
        let wire = [
            (PlacementHandle::DEFAULT, 0),
            (PlacementHandle::PARITY, 1),
            (PlacementHandle::COLD, 2),
            (tags[2].handle(), 3),
            (tags[3].handle(), 4),
            (PlacementHandle::CKPT, 254),
            (PlacementHandle::GC, 255),
            (PlacementHandle::from_host_hint(255), 254),
        ];
        for (handle, byte) in wire {
            assert_eq!(handle.stream(), byte, "{handle:?}");
        }
        assert_eq!(tags[0].handle(), PlacementHandle::DEFAULT);
        assert_eq!(tags[1].handle(), PlacementHandle::COLD);
        let mut handles: Vec<PlacementHandle> = tags.iter().map(|tag| tag.handle()).collect();
        handles.sort_unstable();
        handles.dedup();
        assert_eq!(handles.len(), tags.len(), "tag → handle must be injective");
        for handle in handles {
            assert!(!handle.is_reserved());
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
        let mut backend = StreamPlacement::new();
        let handle = PlacementHandle::DEFAULT;
        backend.open_unit(handle, 3);
        assert_eq!(backend.unit_for(handle), Some(3));
        backend.note_append(handle);
        backend.note_append(handle);
        let unit = backend.close_unit(handle, true).expect("open unit");
        assert_eq!(unit.block, 3);
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
        let mut backend = StreamPlacement::new();
        backend.open_unit(PlacementHandle::GC, 9);
        backend.note_append(PlacementHandle::GC);
        backend.evict_block(9);
        assert_eq!(backend.unit_for(PlacementHandle::GC), None);
        assert_eq!(backend.stats().reloc_pages, 1);
    }

    #[test]
    fn reopening_a_handle_closes_the_previous_unit() {
        let mut backend = StreamPlacement::new();
        backend.open_unit(PlacementHandle::COLD, 1);
        backend.open_unit(PlacementHandle::COLD, 2);
        assert_eq!(backend.unit_for(PlacementHandle::COLD), Some(2));
        assert_eq!(backend.open_units().len(), 1);
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
