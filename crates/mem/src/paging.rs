//! Scatter-gather virtual addressing for accelerator DMA: page table + TLB.

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Errors raised by address translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PagingError {
    /// The virtual address is not mapped.
    Unmapped {
        /// The offending virtual word address.
        vaddr: u64,
    },
    /// A mapping was requested with a zero page count.
    EmptyMapping,
}

impl fmt::Display for PagingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PagingError::Unmapped { vaddr } => {
                write!(f, "virtual address {vaddr:#x} is not mapped")
            }
            PagingError::EmptyMapping => f.write_str("mapping must contain at least one page"),
        }
    }
}

impl Error for PagingError {}

/// A per-accelerator page table.
///
/// ESP accelerators address their data sets through a private virtual
/// address space starting at 0; the ESP driver builds a page table mapping
/// it onto the (possibly scattered) physical pages of the user buffer. The
/// DMA engine walks this table through the socket TLB. In the common
/// `esp_alloc` case the physical pages are contiguous, but the table is
/// still exercised so that translation overhead is modelled.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageTable {
    /// Page size in words (power of two).
    page_words: u64,
    /// Physical base address of each virtual page, in order.
    pages: Vec<u64>,
}

impl PageTable {
    /// Page size used by the ESP driver: 4 KiB = 512 words of 64 bits.
    pub const DEFAULT_PAGE_WORDS: u64 = 512;

    /// Builds a table mapping virtual page `i` to `pages[i]`.
    ///
    /// # Errors
    ///
    /// [`PagingError::EmptyMapping`] if `pages` is empty.
    ///
    /// # Panics
    ///
    /// Panics if `page_words` is not a power of two.
    pub fn new(page_words: u64, pages: Vec<u64>) -> Result<Self, PagingError> {
        assert!(
            page_words.is_power_of_two(),
            "page size must be a power of two"
        );
        if pages.is_empty() {
            return Err(PagingError::EmptyMapping);
        }
        Ok(PageTable { page_words, pages })
    }

    /// Builds a table for a physically contiguous buffer starting at
    /// `phys_base` spanning `len` words (the `esp_alloc` fast path).
    ///
    /// # Errors
    ///
    /// [`PagingError::EmptyMapping`] if `len == 0`.
    pub fn contiguous(phys_base: u64, len: u64, page_words: u64) -> Result<Self, PagingError> {
        if len == 0 {
            return Err(PagingError::EmptyMapping);
        }
        let n_pages = len.div_ceil(page_words);
        let pages = (0..n_pages).map(|i| phys_base + i * page_words).collect();
        PageTable::new(page_words, pages)
    }

    /// Page size in words.
    pub fn page_words(&self) -> u64 {
        self.page_words
    }

    /// Number of mapped pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Translates a virtual word address.
    ///
    /// # Errors
    ///
    /// [`PagingError::Unmapped`] past the end of the table.
    pub fn translate(&self, vaddr: u64) -> Result<u64, PagingError> {
        let vpage = (vaddr / self.page_words) as usize;
        let offset = vaddr % self.page_words;
        match self.pages.get(vpage) {
            Some(&pbase) => Ok(pbase + offset),
            None => Err(PagingError::Unmapped { vaddr }),
        }
    }

    /// Splits the virtual range `[vaddr, vaddr + len)` into
    /// physically-contiguous chunks `(paddr, words)`, as the DMA engine does
    /// when issuing NoC transactions.
    ///
    /// # Errors
    ///
    /// [`PagingError::Unmapped`] if any part of the range is unmapped.
    pub fn translate_range(&self, vaddr: u64, len: u64) -> Result<Vec<(u64, u64)>, PagingError> {
        let mut chunks: Vec<(u64, u64)> = Vec::new();
        let mut v = vaddr;
        let mut remaining = len;
        while remaining > 0 {
            let paddr = self.translate(v)?;
            let in_page = self.page_words - (v % self.page_words);
            let take = in_page.min(remaining);
            // Merge with the previous chunk when physically adjacent.
            if let Some(last) = chunks.last_mut() {
                if last.0 + last.1 == paddr {
                    last.1 += take;
                    v += take;
                    remaining -= take;
                    continue;
                }
            }
            chunks.push((paddr, take));
            v += take;
            remaining -= take;
        }
        Ok(chunks)
    }
}

/// Hit/miss counters for a TLB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbStats {
    /// Translations served from the TLB.
    pub hits: u64,
    /// Translations requiring a page-table walk.
    pub misses: u64,
}

impl TlbStats {
    /// Hit rate in `[0, 1]`; 0 when no accesses occurred.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The small fully-associative TLB inside an ESP accelerator socket.
///
/// ESP pre-loads the TLB with the page table of the configured buffer when
/// the accelerator starts, so steady-state DMA never misses; the model
/// nevertheless implements LRU refill so that the miss path (and its
/// latency) exists, as ESP4ML's p2p modifications touched exactly this
/// logic.
///
/// The whole TLB is machine state: a snapshot clones it, entries in LRU
/// order included (the replacement victim depends on that order).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tlb {
    capacity: usize,
    /// (vpage, pbase) in LRU order — most recent at the back.
    entries: Vec<(u64, u64)>,
    miss_penalty: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with `capacity` entries and the given miss penalty in
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, miss_penalty: u64) -> Self {
        assert!(capacity > 0, "TLB needs at least one entry");
        Tlb {
            capacity,
            entries: Vec::with_capacity(capacity),
            miss_penalty,
            stats: TlbStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Flushes all entries (accelerator reconfiguration).
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Translates `vaddr` through the TLB backed by `table`. Returns the
    /// physical address and the translation latency in cycles (0 on a hit).
    ///
    /// # Errors
    ///
    /// Propagates [`PagingError::Unmapped`] from the page-table walk.
    pub fn translate(&mut self, table: &PageTable, vaddr: u64) -> Result<(u64, u64), PagingError> {
        let vpage = vaddr / table.page_words();
        let offset = vaddr % table.page_words();
        if let Some(pos) = self.entries.iter().position(|&(v, _)| v == vpage) {
            let (_, pbase) = self.entries.remove(pos);
            self.entries.push((vpage, pbase)); // refresh LRU
            self.stats.hits += 1;
            return Ok((pbase + offset, 0));
        }
        self.stats.misses += 1;
        let pbase = table.translate(vpage * table.page_words())?;
        if self.entries.len() == self.capacity {
            self.entries.remove(0); // evict LRU
        }
        self.entries.push((vpage, pbase));
        Ok((pbase + offset, self.miss_penalty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PageTable {
        // 3 pages of 8 words mapped to scattered physical pages.
        PageTable::new(8, vec![100, 300, 200]).unwrap()
    }

    #[test]
    fn translate_within_pages() {
        let t = table();
        assert_eq!(t.translate(0).unwrap(), 100);
        assert_eq!(t.translate(7).unwrap(), 107);
        assert_eq!(t.translate(8).unwrap(), 300);
        assert_eq!(t.translate(23).unwrap(), 207);
    }

    #[test]
    fn translate_unmapped_fails() {
        let t = table();
        assert_eq!(t.translate(24), Err(PagingError::Unmapped { vaddr: 24 }));
    }

    #[test]
    fn contiguous_mapping() {
        let t = PageTable::contiguous(0x1000, 20, 8).unwrap();
        assert_eq!(t.page_count(), 3);
        assert_eq!(t.translate(0).unwrap(), 0x1000);
        assert_eq!(t.translate(19).unwrap(), 0x1013);
    }

    #[test]
    fn empty_mappings_rejected() {
        assert_eq!(PageTable::new(8, vec![]), Err(PagingError::EmptyMapping));
        assert!(PageTable::contiguous(0, 0, 8).is_err());
    }

    #[test]
    fn range_splits_at_page_boundaries() {
        let t = table();
        // [4, 20): words 4..8 in page0, 8..16 page1, 16..20 page2.
        let chunks = t.translate_range(4, 16).unwrap();
        assert_eq!(chunks, vec![(104, 4), (300, 8), (200, 4)]);
    }

    #[test]
    fn range_merges_contiguous_pages() {
        let t = PageTable::contiguous(0x1000, 32, 8).unwrap();
        let chunks = t.translate_range(0, 32).unwrap();
        assert_eq!(chunks, vec![(0x1000, 32)]);
    }

    #[test]
    fn range_unmapped_fails() {
        let t = table();
        assert!(t.translate_range(20, 8).is_err());
    }

    #[test]
    fn tlb_hits_after_first_access() {
        let t = table();
        let mut tlb = Tlb::new(4, 20);
        let (p1, l1) = tlb.translate(&t, 3).unwrap();
        assert_eq!((p1, l1), (103, 20)); // cold miss
        let (p2, l2) = tlb.translate(&t, 5).unwrap();
        assert_eq!((p2, l2), (105, 0)); // same page: hit
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn tlb_evicts_lru() {
        let t = PageTable::new(8, vec![0, 100, 200, 300]).unwrap();
        let mut tlb = Tlb::new(2, 10);
        tlb.translate(&t, 0).unwrap(); // page 0 (miss)
        tlb.translate(&t, 8).unwrap(); // page 1 (miss)
        tlb.translate(&t, 0).unwrap(); // page 0 (hit, refresh)
        tlb.translate(&t, 16).unwrap(); // page 2 (miss, evicts page 1)
        let (_, lat) = tlb.translate(&t, 8).unwrap(); // page 1 again: miss
        assert_eq!(lat, 10);
        assert_eq!(tlb.stats().misses, 4);
        assert_eq!(tlb.stats().hits, 1);
    }

    #[test]
    fn tlb_flush_forgets() {
        let t = table();
        let mut tlb = Tlb::new(4, 5);
        tlb.translate(&t, 0).unwrap();
        tlb.flush();
        let (_, lat) = tlb.translate(&t, 0).unwrap();
        assert_eq!(lat, 5);
    }

    #[test]
    fn hit_rate() {
        let s = TlbStats { hits: 3, misses: 1 };
        assert_eq!(s.hit_rate(), 0.75);
        assert_eq!(TlbStats::default().hit_rate(), 0.0);
    }
}
