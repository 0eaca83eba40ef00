//! Deterministic counters read from the simulator's own statistics
//! (`FtlStats`, `DeviceStats`, `PlacementStats`), and the run digest
//! that hashes every one of them.

use sos_core::{Partition, SosDevice};
use sos_ftl::Ftl;

/// Counter totals over one or more FTLs. Windows are differences of two
/// snapshots; replicas add up.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub host_writes: u64,
    pub flash_writes: u64,
    pub gc_page_moves: u64,
    pub refresh_page_moves: u64,
    pub sys_host_writes: u64,
    pub sys_flash_writes: u64,
    pub spare_host_writes: u64,
    pub spare_flash_writes: u64,
    pub units_erased: u64,
    pub host_pages: u64,
    pub reloc_pages: u64,
    pub corrected_bits: u64,
    pub degraded_reads: u64,
    pub uncorrectable_reads: u64,
    pub pages_programmed: u64,
    pub pages_read: u64,
    pub erases: u64,
    pub bit_errors_injected: u64,
    pub rber_cache_hits: u64,
    pub rber_cache_misses: u64,
}

/// Which SOS partition an FTL serves, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Sys,
    Spare,
    Plain,
}

impl Counts {
    pub fn of_ftl(ftl: &Ftl, role: Role) -> Counts {
        let stats = ftl.stats();
        let device = ftl.device().stats();
        let placement = ftl.placement_stats();
        let (sys, spare) = match role {
            Role::Sys => ((stats.host_writes, stats.flash_writes), (0, 0)),
            Role::Spare => ((0, 0), (stats.host_writes, stats.flash_writes)),
            Role::Plain => ((0, 0), (0, 0)),
        };
        Counts {
            host_writes: stats.host_writes,
            flash_writes: stats.flash_writes,
            gc_page_moves: stats.gc_page_moves,
            refresh_page_moves: stats.refresh_page_moves,
            sys_host_writes: sys.0,
            sys_flash_writes: sys.1,
            spare_host_writes: spare.0,
            spare_flash_writes: spare.1,
            units_erased: placement.units_erased,
            host_pages: placement.host_pages,
            reloc_pages: placement.reloc_pages,
            corrected_bits: stats.corrected_bits,
            degraded_reads: stats.degraded_reads,
            uncorrectable_reads: stats.uncorrectable_reads,
            pages_programmed: device.programs,
            pages_read: device.reads,
            erases: device.erases,
            bit_errors_injected: device.bit_errors_injected,
            rber_cache_hits: device.rber_cache_hits,
            rber_cache_misses: device.rber_cache_misses,
        }
    }

    /// Both partitions of an SOS device.
    pub fn of_device(device: &SosDevice) -> Counts {
        Counts::of_ftl(&device.partition(Partition::Sys).ftl, Role::Sys).plus(&Counts::of_ftl(
            &device.partition(Partition::Spare).ftl,
            Role::Spare,
        ))
    }

    fn zip(&self, other: &Counts, f: impl Fn(u64, u64) -> u64) -> Counts {
        Counts {
            host_writes: f(self.host_writes, other.host_writes),
            flash_writes: f(self.flash_writes, other.flash_writes),
            gc_page_moves: f(self.gc_page_moves, other.gc_page_moves),
            refresh_page_moves: f(self.refresh_page_moves, other.refresh_page_moves),
            sys_host_writes: f(self.sys_host_writes, other.sys_host_writes),
            sys_flash_writes: f(self.sys_flash_writes, other.sys_flash_writes),
            spare_host_writes: f(self.spare_host_writes, other.spare_host_writes),
            spare_flash_writes: f(self.spare_flash_writes, other.spare_flash_writes),
            units_erased: f(self.units_erased, other.units_erased),
            host_pages: f(self.host_pages, other.host_pages),
            reloc_pages: f(self.reloc_pages, other.reloc_pages),
            corrected_bits: f(self.corrected_bits, other.corrected_bits),
            degraded_reads: f(self.degraded_reads, other.degraded_reads),
            uncorrectable_reads: f(self.uncorrectable_reads, other.uncorrectable_reads),
            pages_programmed: f(self.pages_programmed, other.pages_programmed),
            pages_read: f(self.pages_read, other.pages_read),
            erases: f(self.erases, other.erases),
            bit_errors_injected: f(self.bit_errors_injected, other.bit_errors_injected),
            rber_cache_hits: f(self.rber_cache_hits, other.rber_cache_hits),
            rber_cache_misses: f(self.rber_cache_misses, other.rber_cache_misses),
        }
    }

    pub fn plus(&self, other: &Counts) -> Counts {
        self.zip(other, |a, b| a + b)
    }

    pub fn minus(&self, earlier: &Counts) -> Counts {
        self.zip(earlier, u64::saturating_sub)
    }

    /// Flash writes per host write (1 when nothing was written).
    pub fn write_amp(&self) -> f64 {
        ratio(self.flash_writes, self.host_writes, 1.0)
    }

    pub fn sys_write_amp(&self) -> f64 {
        ratio(self.sys_flash_writes, self.sys_host_writes, 1.0)
    }

    pub fn spare_write_amp(&self) -> f64 {
        ratio(self.spare_flash_writes, self.spare_host_writes, 1.0)
    }
}

/// `num / den`, or `empty` when `den` is zero.
pub fn ratio(num: u64, den: u64, empty: f64) -> f64 {
    if den == 0 {
        empty
    } else {
        num as f64 / den as f64
    }
}

/// FNV-1a over the `Debug` rendering of every deterministic counter a
/// run produced. Host timings never enter it, so traced and untraced
/// runs of one seed must agree.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn feed(&mut self, value: &impl std::fmt::Debug) {
        for byte in format!("{value:?}").bytes().chain([0xff]) {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The median of a sample (mean of the middle pair when even); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}
