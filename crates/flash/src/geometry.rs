//! Device geometry: blocks and pages.
//!
//! Blocks are the erase unit and pages the program/read unit (§2.1 of
//! the paper). A page is addressed by one flat index,
//! `block * pages_per_block + page`, from the FTL down to the device,
//! which splits it once for its per-block state. The timing model leaves
//! queueing out, so nothing would read a channel/die/plane hierarchy.

use serde::{Deserialize, Serialize};

/// Physical shape of a flash device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Geometry {
    /// Erase blocks in the device.
    pub blocks: u32,
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
            blocks: 64,
            pages_per_block: 32,
            page_bytes: 2048,
            spare_bytes: 128,
        }
    }

    /// Total number of erase blocks in the device.
    pub fn total_blocks(&self) -> u64 {
        self.blocks as u64
    }

    /// Total number of pages in the device.
    pub fn total_pages(&self) -> u64 {
        self.total_blocks() * self.pages_per_block as u64
    }

    /// Raw user-data capacity in bytes at native density.
    pub fn raw_bytes(&self) -> u64 {
        self.total_pages() * self.page_bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let g = Geometry {
            blocks: 80,
            pages_per_block: 16,
            page_bytes: 4096,
            spare_bytes: 256,
        };
        assert_eq!(g.total_blocks(), 80);
        assert_eq!(g.total_pages(), 80 * 16);
        assert_eq!(g.raw_bytes(), 80 * 16 * 4096);
    }
}
