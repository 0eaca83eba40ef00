//! Device geometry: channels, dies, planes, blocks and pages.
//!
//! Addressing follows the usual NAND hierarchy. Blocks are the erase unit
//! and pages the program/read unit (§2.1 of the paper). All address types
//! are plain value types so they can be freely copied through the FTL.

use serde::{Deserialize, Serialize};

/// Physical shape of a flash device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Geometry {
    /// Independent controller channels.
    pub channels: u32,
    /// Dies (LUNs) per channel.
    pub dies_per_channel: u32,
    /// Planes per die.
    pub planes_per_die: u32,
    /// Blocks per plane.
    pub blocks_per_plane: u32,
    /// Pages per block.
    pub pages_per_block: u32,
    /// User-data bytes per page (at native density).
    pub page_bytes: u32,
    /// Out-of-band (spare) bytes per page, used for ECC and metadata.
    pub spare_bytes: u32,
}

impl Geometry {
    /// A small geometry suitable for unit tests: 64 blocks of 32 pages of
    /// 2 KiB (4 MiB total).
    pub fn tiny() -> Self {
        Geometry {
            channels: 1,
            dies_per_channel: 1,
            planes_per_die: 1,
            blocks_per_plane: 64,
            pages_per_block: 32,
            page_bytes: 2048,
            spare_bytes: 128,
        }
    }

    /// Total number of erase blocks in the device.
    pub fn total_blocks(&self) -> u64 {
        self.channels as u64
            * self.dies_per_channel as u64
            * self.planes_per_die as u64
            * self.blocks_per_plane as u64
    }

    /// Total number of pages in the device.
    pub fn total_pages(&self) -> u64 {
        self.total_blocks() * self.pages_per_block as u64
    }

    /// Raw user-data capacity in bytes at native density.
    pub fn raw_bytes(&self) -> u64 {
        self.total_pages() * self.page_bytes as u64
    }

    /// Converts a flat block index into a structured address.
    ///
    /// Blocks are numbered plane-major: consecutive indices walk blocks
    /// within a plane, then planes, dies and channels.
    pub fn block_addr(&self, index: u64) -> BlockAddr {
        debug_assert!(index < self.total_blocks());
        // Remainders of a u32 divisor always fit u32; the fallbacks are
        // unreachable because the geometry validates its fields nonzero.
        let narrow = |value: u64| u32::try_from(value).unwrap_or(u32::MAX);
        let per_plane = self.blocks_per_plane as u64;
        let per_die = self.planes_per_die as u64;
        let per_channel = self.dies_per_channel as u64;
        let block = narrow(index.checked_rem(per_plane).unwrap_or(0));
        let rest = index.checked_div(per_plane).unwrap_or(0);
        let plane = narrow(rest.checked_rem(per_die).unwrap_or(0));
        let rest = rest.checked_div(per_die).unwrap_or(0);
        let die = narrow(rest.checked_rem(per_channel).unwrap_or(0));
        let channel = narrow(rest.checked_div(per_channel).unwrap_or(0));
        BlockAddr {
            channel,
            die,
            plane,
            block,
        }
    }

    /// Converts a structured block address back into its flat index.
    pub fn block_index(&self, addr: BlockAddr) -> u64 {
        ((addr.channel as u64 * self.dies_per_channel as u64 + addr.die as u64)
            * self.planes_per_die as u64
            + addr.plane as u64)
            * self.blocks_per_plane as u64
            + addr.block as u64
    }

    /// Flat page index for an address.
    pub fn page_index(&self, addr: PageAddr) -> u64 {
        self.block_index(addr.block) * self.pages_per_block as u64 + addr.page as u64
    }

    /// Converts a flat page index into a structured address.
    pub fn page_addr(&self, index: u64) -> PageAddr {
        debug_assert!(index < self.total_pages());
        let per_block = self.pages_per_block as u64;
        let block = self.block_addr(index.checked_div(per_block).unwrap_or(0));
        let page = u32::try_from(index.checked_rem(per_block).unwrap_or(0)).unwrap_or(u32::MAX);
        PageAddr { block, page }
    }

    /// Iterator over all flat block indices.
    pub fn blocks(&self) -> impl Iterator<Item = u64> {
        0..self.total_blocks()
    }
}

/// Address of an erase block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockAddr {
    /// Channel index.
    pub channel: u32,
    /// Die within the channel.
    pub die: u32,
    /// Plane within the die.
    pub plane: u32,
    /// Block within the plane.
    pub block: u32,
}

/// Address of a page (program/read unit) inside a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PageAddr {
    /// The containing erase block.
    pub block: BlockAddr,
    /// Page offset within the block.
    pub page: u32,
}

impl std::fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "c{}/d{}/p{}/b{}",
            self.channel, self.die, self.plane, self.block
        )
    }
}

impl std::fmt::Display for PageAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/pg{}", self.block, self.page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn multi() -> Geometry {
        Geometry {
            channels: 2,
            dies_per_channel: 2,
            planes_per_die: 2,
            blocks_per_plane: 10,
            pages_per_block: 16,
            page_bytes: 4096,
            spare_bytes: 256,
        }
    }

    #[test]
    fn totals() {
        let g = multi();
        assert_eq!(g.total_blocks(), 2 * 2 * 2 * 10);
        assert_eq!(g.total_pages(), 80 * 16);
        assert_eq!(g.raw_bytes(), 80 * 16 * 4096);
    }

    #[test]
    fn block_roundtrip_all() {
        let g = multi();
        for i in g.blocks() {
            let a = g.block_addr(i);
            assert_eq!(g.block_index(a), i, "block {i} did not roundtrip");
            assert!(a.channel < g.channels);
            assert!(a.die < g.dies_per_channel);
            assert!(a.plane < g.planes_per_die);
            assert!(a.block < g.blocks_per_plane);
        }
    }

    #[test]
    fn page_roundtrip_all() {
        let g = Geometry::tiny();
        for i in 0..g.total_pages() {
            let a = g.page_addr(i);
            assert_eq!(g.page_index(a), i);
        }
    }

    #[test]
    fn block_zero_is_origin() {
        let g = multi();
        let a = g.block_addr(0);
        assert_eq!((a.channel, a.die, a.plane, a.block), (0, 0, 0, 0));
    }

    #[test]
    fn consecutive_indices_walk_blocks_first() {
        let g = multi();
        let a0 = g.block_addr(0);
        let a1 = g.block_addr(1);
        assert_eq!(a1.block, a0.block + 1);
        assert_eq!(a1.plane, a0.plane);
    }

    #[test]
    fn display_is_stable() {
        let g = multi();
        let a = g.page_addr(17);
        let s = a.to_string();
        assert!(s.contains("pg"), "{s}");
    }
}
