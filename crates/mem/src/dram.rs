//! Off-chip DRAM model with burst timing and access accounting.

use serde::{Deserialize, Serialize};

/// Configuration of the DRAM behind a memory tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Capacity in 64-bit words.
    pub size_words: u64,
    /// Cycles from request to first word of a burst (row activation +
    /// controller overhead, in NoC clock cycles at the SoC frequency).
    pub first_word_latency: u64,
    /// Cycles per subsequent word of an open burst.
    pub per_word_latency: u64,
    /// Number of independent banks (bursts to different banks pipeline).
    pub banks: u32,
}

impl Default for DramConfig {
    fn default() -> Self {
        // 256 MiB of 64-bit words; latencies expressed in 78 MHz SoC
        // cycles, matching the FPGA prototype's MIG-attached DDR4 (~200 ns
        // first access ≈ 16 cycles at 78 MHz, then one word per cycle).
        DramConfig {
            size_words: 32 * 1024 * 1024,
            first_word_latency: 16,
            per_word_latency: 1,
            banks: 4,
        }
    }
}

/// Access counters for one DRAM device.
///
/// `word_reads + word_writes` is the "DRAM accesses" metric of the paper's
/// Fig. 8: the number of words that crossed the off-chip memory boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramStats {
    /// Words read from DRAM.
    pub word_reads: u64,
    /// Words written to DRAM.
    pub word_writes: u64,
    /// Number of read bursts.
    pub read_bursts: u64,
    /// Number of write bursts.
    pub write_bursts: u64,
    /// Total cycles spent servicing bursts (occupancy, not wall-clock).
    pub busy_cycles: u64,
}

impl DramStats {
    /// Total words moved across the DRAM pins.
    pub fn total_accesses(&self) -> u64 {
        self.word_reads + self.word_writes
    }
}

/// Serializable image of a [`Dram`]: stats plus the written contents as
/// sparse nonzero spans. The default DRAM is 32 M words, almost all of
/// them zero, so a dense image would be prohibitive both to build and to
/// serialize; spans keep snapshot cost proportional to the words the run
/// actually touched.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramState {
    /// Access counters at capture time.
    pub stats: DramStats,
    /// Dirty-window low watermark (lowest word address ever written).
    pub dirty_lo: u64,
    /// Dirty-window high watermark (one past the highest written word).
    pub dirty_hi: u64,
    /// Nonzero content spans: `(start word address, contiguous words)`.
    pub spans: Vec<(u64, Vec<u64>)>,
}

/// A word-addressable DRAM with burst accounting.
///
/// Storage is dense (`Vec<u64>`), so construction cost is proportional to
/// capacity; the default 256 MiB model allocates once and reuses pages
/// lazily via the OS. Writes maintain a dirty window (`[dirty_lo,
/// dirty_hi)`) so snapshot and restore only touch the region a run has
/// actually written, never the full capacity.
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    words: Vec<u64>,
    stats: DramStats,
    /// Lowest word address ever written (`u64::MAX` when clean).
    dirty_lo: u64,
    /// One past the highest word address ever written (0 when clean).
    dirty_hi: u64,
}

impl Dram {
    /// Creates a zero-initialized DRAM.
    pub fn new(config: DramConfig) -> Self {
        Dram {
            words: vec![0; config.size_words as usize],
            config,
            stats: DramStats::default(),
            dirty_lo: u64::MAX,
            dirty_hi: 0,
        }
    }

    /// Widens the dirty window to cover `[addr, addr + len)`.
    #[inline]
    fn mark_dirty(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.dirty_lo = self.dirty_lo.min(addr);
        self.dirty_hi = self.dirty_hi.max(addr + len);
    }

    /// Captures stats and contents as a sparse [`DramState`]. Cost is
    /// proportional to the dirty window, not the DRAM capacity.
    pub fn state(&self) -> DramState {
        let mut spans: Vec<(u64, Vec<u64>)> = Vec::new();
        let (lo, hi) = (self.dirty_lo, self.dirty_hi);
        if lo < hi {
            let mut open: Option<(u64, Vec<u64>)> = None;
            for addr in lo..hi {
                let w = self.words[addr as usize];
                if w != 0 {
                    open.get_or_insert_with(|| (addr, Vec::new())).1.push(w);
                } else if let Some(span) = open.take() {
                    spans.push(span);
                }
            }
            if let Some(span) = open.take() {
                spans.push(span);
            }
        }
        DramState {
            stats: self.stats,
            dirty_lo: self.dirty_lo,
            dirty_hi: self.dirty_hi,
            spans,
        }
    }

    /// Restores stats and contents captured by [`Dram::state`]: the
    /// current dirty window is zero-filled, the snapshot's spans are
    /// re-applied and the watermarks are reset to the snapshot's. Cost
    /// is proportional to the wider of the two dirty windows.
    ///
    /// # Panics
    ///
    /// Panics when a span falls outside this DRAM's capacity (i.e. the
    /// state was captured from a larger device).
    pub fn restore_state(&mut self, state: &DramState) {
        if self.dirty_lo < self.dirty_hi {
            let (lo, hi) = (self.dirty_lo as usize, self.dirty_hi as usize);
            self.words[lo..hi].fill(0);
        }
        for (addr, data) in &state.spans {
            let end = addr + data.len() as u64;
            assert!(
                end <= self.config.size_words,
                "DRAM restore span [{addr}, {end}) out of bounds"
            );
            self.words[*addr as usize..end as usize].copy_from_slice(data);
        }
        self.stats = state.stats;
        self.dirty_lo = state.dirty_lo;
        self.dirty_hi = state.dirty_hi;
    }

    /// The configuration this device was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Access counters.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Capacity in words.
    pub fn size_words(&self) -> u64 {
        self.config.size_words
    }

    /// Cycles needed to service a burst of `len` words.
    pub fn burst_latency(&self, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        self.config.first_word_latency + self.config.per_word_latency * len
    }

    /// Reads `len` words starting at `addr`, counting the accesses.
    ///
    /// # Panics
    ///
    /// Panics if the burst runs past the end of memory — physical addresses
    /// handed to the memory tile are produced by the page table, so an
    /// overrun is a simulator bug, not a recoverable condition.
    pub fn read_burst(&mut self, addr: u64, len: u64) -> Vec<u64> {
        let (a, l) = (addr as usize, len as usize);
        assert!(
            addr + len <= self.config.size_words,
            "DRAM read burst [{addr}, {}) out of bounds",
            addr + len
        );
        self.stats.word_reads += len;
        self.stats.read_bursts += 1;
        self.stats.busy_cycles += self.burst_latency(len);
        self.words[a..a + l].to_vec()
    }

    /// Writes `data` starting at `addr`, counting the accesses.
    ///
    /// # Panics
    ///
    /// Panics if the burst runs past the end of memory (see
    /// [`Dram::read_burst`]).
    pub fn write_burst(&mut self, addr: u64, data: &[u64]) {
        let len = data.len() as u64;
        assert!(
            addr + len <= self.config.size_words,
            "DRAM write burst [{addr}, {}) out of bounds",
            addr + len
        );
        self.stats.word_writes += len;
        self.stats.write_bursts += 1;
        self.stats.busy_cycles += self.burst_latency(len);
        self.mark_dirty(addr, len);
        self.words[addr as usize..(addr + len) as usize].copy_from_slice(data);
    }

    /// Reads a single word *without* counting it as a DRAM access. Used by
    /// debug/validation paths (the testbench checking results) that would
    /// not exist in hardware.
    pub fn peek(&self, addr: u64) -> u64 {
        self.words[addr as usize]
    }

    /// Writes a single word without accounting (testbench initialization).
    pub fn poke(&mut self, addr: u64, value: u64) {
        self.mark_dirty(addr, 1);
        self.words[addr as usize] = value;
    }

    /// Records `words` read from DRAM without moving data — used by cache
    /// front-ends that perform the functional transfer separately but must
    /// account the off-chip fill traffic.
    pub fn stats_note_read(&mut self, words: u64) {
        self.stats.word_reads += words;
        self.stats.read_bursts += 1;
    }

    /// Records `words` written to DRAM without moving data (cache
    /// writeback accounting).
    pub fn stats_note_write(&mut self, words: u64) {
        self.stats.word_writes += words;
        self.stats.write_bursts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dram {
        Dram::new(DramConfig {
            size_words: 1024,
            first_word_latency: 10,
            per_word_latency: 1,
            banks: 2,
        })
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut d = small();
        d.write_burst(100, &[5, 6, 7, 8]);
        assert_eq!(d.read_burst(100, 4), vec![5, 6, 7, 8]);
    }

    #[test]
    fn stats_count_words_and_bursts() {
        let mut d = small();
        d.write_burst(0, &[1, 2]);
        d.read_burst(0, 2);
        d.read_burst(0, 1);
        let s = d.stats();
        assert_eq!(s.word_writes, 2);
        assert_eq!(s.word_reads, 3);
        assert_eq!(s.write_bursts, 1);
        assert_eq!(s.read_bursts, 2);
        assert_eq!(s.total_accesses(), 5);
    }

    #[test]
    fn burst_latency_model() {
        let d = small();
        assert_eq!(d.burst_latency(0), 0);
        assert_eq!(d.burst_latency(1), 11);
        assert_eq!(d.burst_latency(64), 74);
    }

    #[test]
    fn peek_poke_do_not_count() {
        let mut d = small();
        d.poke(5, 99);
        assert_eq!(d.peek(5), 99);
        assert_eq!(d.stats().total_accesses(), 0);
    }

    #[test]
    fn state_captures_sparse_spans() {
        let mut d = small();
        d.write_burst(10, &[1, 2, 0, 0, 3]);
        d.poke(500, 7);
        let s = d.state();
        assert_eq!(
            s.spans,
            vec![(10, vec![1, 2]), (14, vec![3]), (500, vec![7])]
        );
        assert_eq!((s.dirty_lo, s.dirty_hi), (10, 501));

        // Diverge, then restore: contents and stats return exactly.
        d.write_burst(600, &[9; 8]);
        d.poke(11, 42);
        d.restore_state(&s);
        assert_eq!(d.state(), s);
        assert_eq!(d.peek(11), 2);
        assert_eq!(d.peek(600), 0);
        assert_eq!(d.stats(), &s.stats);
    }

    #[test]
    fn restore_on_clean_dram_reinstates_contents() {
        let mut a = small();
        a.write_burst(0, &[5, 0, 6]);
        let s = a.state();
        let mut b = small();
        b.restore_state(&s);
        assert_eq!(b.read_burst(0, 3), vec![5, 0, 6]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_out_of_bounds_panics() {
        let mut d = small();
        d.read_burst(1020, 8);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_out_of_bounds_panics() {
        let mut d = small();
        d.write_burst(1023, &[1, 2]);
    }
}
