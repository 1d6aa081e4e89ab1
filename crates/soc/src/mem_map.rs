//! Address interleaving across memory tiles.
//!
//! ESP SoCs can instantiate several memory tiles; the physical address
//! space is block-interleaved across them so aggregate DRAM bandwidth
//! scales with tile count, and DMA request/response plane decoupling
//! "prevent[s] deadlock when multiple accelerators and multiple memory
//! tiles are present" (paper, §II). The map tells every DMA engine which
//! memory tile owns a given physical address and at which tile-local
//! offset.

use esp4ml_noc::Coord;
use serde::{Deserialize, Serialize};

/// The memory-tile interleaving map of an SoC.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemMap {
    /// Memory-tile coordinates, in interleave order.
    coords: Vec<Coord>,
    /// Interleave block size in words.
    interleave_words: u64,
    /// Capacity of each tile's DRAM in words.
    tile_words: u64,
}

impl MemMap {
    /// Default interleave granularity: one 4 KiB page (512 words), so a
    /// page-sized DMA burst stays within one memory tile.
    pub const DEFAULT_INTERLEAVE_WORDS: u64 = 512;

    /// Builds a map over the given memory tiles.
    ///
    /// # Panics
    ///
    /// Panics if `coords` is empty or the interleave size is zero.
    pub fn new(coords: Vec<Coord>, interleave_words: u64, tile_words: u64) -> Self {
        assert!(!coords.is_empty(), "at least one memory tile required");
        assert!(interleave_words > 0, "interleave must be positive");
        MemMap {
            coords,
            interleave_words,
            tile_words,
        }
    }

    /// Memory-tile coordinates, in interleave order.
    pub fn coords(&self) -> &[Coord] {
        &self.coords
    }

    /// Total words of the interleaved address space.
    pub fn total_words(&self) -> u64 {
        self.tile_words * self.coords.len() as u64
    }

    /// The owning memory tile and tile-local word address of `addr`.
    pub fn owner(&self, addr: u64) -> (Coord, u64) {
        let n = self.coords.len() as u64;
        let block = addr / self.interleave_words;
        let offset = addr % self.interleave_words;
        let tile = (block % n) as usize;
        let local_block = block / n;
        (
            self.coords[tile],
            local_block * self.interleave_words + offset,
        )
    }

    /// Splits the physical range `[addr, addr + len)` into per-tile
    /// contiguous chunks `(tile, local_addr, len)`, in address order.
    pub fn split_range(&self, addr: u64, len: u64) -> Vec<(Coord, u64, u64)> {
        let mut out = Vec::new();
        let mut a = addr;
        let mut remaining = len;
        while remaining > 0 {
            let (tile, local) = self.owner(a);
            let in_block = self.interleave_words - (a % self.interleave_words);
            let take = in_block.min(remaining);
            // Merge with the previous chunk when same tile and locally
            // adjacent (always true with a single memory tile).
            if let Some(last) = out.last_mut() {
                let (lt, la, ll): &mut (Coord, u64, u64) = last;
                if *lt == tile && *la + *ll == local {
                    *ll += take;
                    a += take;
                    remaining -= take;
                    continue;
                }
            }
            out.push((tile, local, take));
            a += take;
            remaining -= take;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_tile_is_identity() {
        let m = MemMap::new(vec![Coord::new(1, 0)], 512, 4096);
        assert_eq!(m.owner(0), (Coord::new(1, 0), 0));
        assert_eq!(m.owner(4095), (Coord::new(1, 0), 4095));
        assert_eq!(
            m.split_range(100, 3000),
            vec![(Coord::new(1, 0), 100, 3000)]
        );
        assert_eq!(m.total_words(), 4096);
    }

    #[test]
    fn two_tiles_interleave_blocks() {
        let a = Coord::new(1, 0);
        let b = Coord::new(2, 0);
        let m = MemMap::new(vec![a, b], 4, 64);
        // Blocks: [0..4) -> a local 0, [4..8) -> b local 0, [8..12) -> a local 4...
        assert_eq!(m.owner(0), (a, 0));
        assert_eq!(m.owner(3), (a, 3));
        assert_eq!(m.owner(4), (b, 0));
        assert_eq!(m.owner(8), (a, 4));
        assert_eq!(m.owner(13), (b, 5));
        assert_eq!(m.total_words(), 128);
    }

    #[test]
    fn split_range_crosses_tiles() {
        let a = Coord::new(1, 0);
        let b = Coord::new(2, 0);
        let m = MemMap::new(vec![a, b], 4, 64);
        let chunks = m.split_range(2, 9);
        // words 2..4 (a), 4..8 (b), 8..11 (a local 4..7)
        assert_eq!(chunks, vec![(a, 2, 2), (b, 0, 4), (a, 4, 3)]);
        let covered: u64 = chunks.iter().map(|&(_, _, l)| l).sum();
        assert_eq!(covered, 9);
    }

    #[test]
    fn split_range_merges_within_tile() {
        let a = Coord::new(1, 0);
        let m = MemMap::new(vec![a], 4, 64);
        // A single-tile map must merge all blocks into one chunk.
        assert_eq!(m.split_range(0, 16), vec![(a, 0, 16)]);
    }

    #[test]
    fn owner_roundtrip_unique() {
        // Every address maps to exactly one (tile, local) pair, and
        // distinct addresses never collide.
        let m = MemMap::new(
            vec![Coord::new(0, 0), Coord::new(1, 0), Coord::new(2, 0)],
            8,
            64,
        );
        let mut seen = std::collections::BTreeSet::new();
        for addr in 0..m.total_words() {
            let key = m.owner(addr);
            assert!(seen.insert(key), "collision at {addr}: {key:?}");
            assert!(key.1 < 64, "local address out of tile at {addr}");
        }
    }
}
