//! A last-level cache (LLC) model for LLC-coherent accelerator DMA.
//!
//! ESP memory tiles can host a partition of a last-level cache so that
//! accelerator DMA is *LLC-coherent*: bursts that hit in the LLC never
//! touch DRAM. The paper's related work (Giri et al., IEEE Micro 2018)
//! identifies this as "normally the most efficient accelerator
//! cache-coherence model for non-trivial workloads with regular memory
//! access pattern" — the model ESP4ML's p2p communication is measured
//! against. This module provides the set-associative write-back cache and
//! the [`CachedDram`] wrapper the memory tile uses.

use crate::{Dram, DramConfig, DramState, DramStats};
use serde::{Deserialize, Serialize};

/// Configuration of an LLC partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in 64-bit words.
    pub size_words: u64,
    /// Line size in words.
    pub line_words: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Cycles to serve one line on a hit.
    pub hit_cycles: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        // 2 MiB, 16-word (128-byte) lines, 8-way: an ESP LLC partition.
        CacheConfig {
            size_words: 256 * 1024,
            line_words: 16,
            ways: 8,
            hit_cycles: 4,
        }
    }
}

/// Hit/miss counters of a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Line accesses served from the cache.
    pub hits: u64,
    /// Line accesses requiring a DRAM fill.
    pub misses: u64,
    /// Dirty lines written back to DRAM on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One way of a set: tag, valid and dirty bits, and the LRU stamp (the
/// cache clock at last touch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// The outcome of one line access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// Dirty line address evicted to make room, if any.
    pub writeback: Option<u64>,
}

/// A set-associative write-back, write-allocate cache (tag array only —
/// the data lives in the backing DRAM, which this model uses as the
/// functional store while the cache filters the *accounted* traffic).
///
/// The tag array and LRU clock are timing state: a snapshot clones the
/// whole cache, so a restored run sees the same hit/miss sequence as an
/// uninterrupted one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Llc {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    clock: u64,
    stats: CacheStats,
}

impl Llc {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics unless sizes are positive, the line count divides evenly
    /// into sets, and the set count is a power of two.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.line_words > 0 && config.ways > 0);
        let lines = config.size_words / config.line_words;
        assert!(lines >= config.ways as u64, "cache smaller than one set");
        let n_sets = lines / config.ways as u64;
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        Llc {
            config,
            sets: (0..n_sets)
                .map(|_| vec![Line::default(); config.ways as usize])
                .collect(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Accesses the line containing `addr`; `is_write` marks it dirty.
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheAccess {
        self.clock += 1;
        let line_addr = addr / self.config.line_words;
        let n_sets = self.sets.len() as u64;
        let set_idx = (line_addr % n_sets) as usize;
        let tag = line_addr / n_sets;
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.clock;
            line.dirty |= is_write;
            self.stats.hits += 1;
            return CacheAccess {
                hit: true,
                writeback: None,
            };
        }
        self.stats.misses += 1;
        // Choose victim: invalid first, else LRU.
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru + 1 } else { 0 })
            .expect("non-empty set");
        let mut writeback = None;
        if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
            let victim_line = victim.tag * n_sets + set_idx as u64;
            writeback = Some(victim_line * self.config.line_words);
        }
        *victim = Line {
            tag,
            valid: true,
            dirty: is_write,
            lru: self.clock,
        };
        CacheAccess {
            hit: false,
            writeback,
        }
    }
}

/// Serializable state of a [`CachedDram`]: the sparse DRAM image plus
/// the LLC when a cache is configured.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachedDramState {
    /// The backing DRAM image.
    pub dram: DramState,
    /// The LLC, when one is present.
    pub llc: Option<Llc>,
}

/// DRAM optionally fronted by an LLC partition: the storage stack of a
/// memory tile. Burst methods return `(data, latency_cycles)`; the DRAM
/// access counters reflect only the traffic that actually crossed the
/// off-chip boundary (misses and writebacks) when an LLC is present.
#[derive(Debug, Clone)]
pub struct CachedDram {
    dram: Dram,
    llc: Option<Llc>,
}

impl CachedDram {
    /// Plain DRAM, no cache (non-coherent DMA).
    pub fn new(config: DramConfig) -> Self {
        CachedDram {
            dram: Dram::new(config),
            llc: None,
        }
    }

    /// DRAM behind an LLC partition (LLC-coherent DMA).
    pub fn with_llc(config: DramConfig, cache: CacheConfig) -> Self {
        CachedDram {
            dram: Dram::new(config),
            llc: Some(Llc::new(cache)),
        }
    }

    /// DRAM counters (off-chip traffic only).
    pub fn dram_stats(&self) -> &DramStats {
        self.dram.stats()
    }

    /// LLC counters, when an LLC is configured.
    pub fn llc_stats(&self) -> Option<&CacheStats> {
        self.llc.as_ref().map(Llc::stats)
    }

    /// Capacity in words.
    pub fn size_words(&self) -> u64 {
        self.dram.size_words()
    }

    /// Unaccounted word read (testbench).
    pub fn peek(&self, addr: u64) -> u64 {
        self.dram.peek(addr)
    }

    /// Unaccounted word write (testbench).
    pub fn poke(&mut self, addr: u64, value: u64) {
        self.dram.poke(addr, value);
    }

    /// Reads a burst, returning the data and the service latency.
    pub fn read_burst(&mut self, addr: u64, len: u64) -> (Vec<u64>, u64) {
        match &mut self.llc {
            None => {
                let latency = self.dram.burst_latency(len);
                (self.dram.read_burst(addr, len), latency)
            }
            Some(_) => {
                let latency = self.filter_through_llc(addr, len, false);
                let data = (addr..addr + len).map(|a| self.dram.peek(a)).collect();
                (data, latency)
            }
        }
    }

    /// Writes a burst, returning the service latency.
    pub fn write_burst(&mut self, addr: u64, data: &[u64]) -> u64 {
        match &mut self.llc {
            None => {
                let latency = self.dram.burst_latency(data.len() as u64);
                self.dram.write_burst(addr, data);
                latency
            }
            Some(_) => {
                let latency = self.filter_through_llc(addr, data.len() as u64, true);
                for (i, &w) in data.iter().enumerate() {
                    self.dram.poke(addr + i as u64, w);
                }
                latency
            }
        }
    }

    /// Captures the full storage-stack state (sparse DRAM image plus a
    /// clone of the LLC, when present) for a snapshot.
    pub fn state(&self) -> CachedDramState {
        CachedDramState {
            dram: self.dram.state(),
            llc: self.llc.clone(),
        }
    }

    /// Restores state captured by [`CachedDram::state`].
    ///
    /// # Panics
    ///
    /// Panics when the LLC presence or geometry disagrees with this
    /// stack — the cache configuration is structural, so a snapshot
    /// from a differently-configured memory tile is a caller bug.
    pub fn restore_state(&mut self, state: &CachedDramState) {
        assert_eq!(
            self.llc.as_ref().map(Llc::config),
            state.llc.as_ref().map(Llc::config),
            "LLC geometry mismatch on restore"
        );
        self.dram.restore_state(&state.dram);
        self.llc.clone_from(&state.llc);
    }

    /// Runs the line-level accounting for a burst; returns its latency.
    fn filter_through_llc(&mut self, addr: u64, len: u64, is_write: bool) -> u64 {
        let llc = self.llc.as_mut().expect("llc present");
        let line_words = llc.config().line_words;
        let hit_cycles = llc.config().hit_cycles;
        let first_line = addr / line_words;
        let last_line = (addr + len.max(1) - 1) / line_words;
        let mut latency = 0;
        for line in first_line..=last_line {
            let access = llc.access(line * line_words, is_write);
            if access.hit {
                latency += hit_cycles;
            } else {
                // Write-allocate: a miss fills the line from DRAM whether
                // the access is a read or a write (dirty data leaves the
                // chip only via writebacks below).
                latency += self.dram.burst_latency(line_words);
                self.dram.stats_note_read(line_words);
            }
            if access.writeback.is_some() {
                latency += self.dram.burst_latency(line_words);
                self.dram.stats_note_write(line_words);
            }
        }
        latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> CacheConfig {
        CacheConfig {
            size_words: 64,
            line_words: 4,
            ways: 2,
            hit_cycles: 2,
        }
    }

    #[test]
    fn repeated_access_hits() {
        let mut llc = Llc::new(small_cache());
        assert!(!llc.access(0, false).hit);
        assert!(llc.access(0, false).hit);
        assert!(llc.access(3, false).hit); // same line
        assert!(!llc.access(4, false).hit); // next line
        assert_eq!(llc.stats().hits, 2);
        assert_eq!(llc.stats().misses, 2);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let cfg = small_cache(); // 16 lines, 2-way, 8 sets
        let mut llc = Llc::new(cfg);
        // Three lines mapping to the same set (stride = sets * line = 32).
        llc.access(0, true);
        llc.access(32, false);
        let third = llc.access(64, false);
        assert!(!third.hit);
        assert_eq!(third.writeback, Some(0)); // the dirty LRU line
        assert_eq!(llc.stats().writebacks, 1);
    }

    #[test]
    fn cached_dram_filters_off_chip_traffic() {
        let dram_cfg = DramConfig {
            size_words: 4096,
            first_word_latency: 10,
            per_word_latency: 1,
            banks: 1,
        };
        let mut plain = CachedDram::new(dram_cfg);
        let mut cached = CachedDram::with_llc(
            dram_cfg,
            CacheConfig {
                size_words: 1024,
                line_words: 16,
                ways: 4,
                hit_cycles: 2,
            },
        );
        for dev in [&mut plain, &mut cached] {
            dev.write_burst(0, &[7; 64]);
            let _ = dev.read_burst(0, 64);
            let _ = dev.read_burst(0, 64);
        }
        // Plain DRAM: every word crosses the boundary.
        assert_eq!(plain.dram_stats().total_accesses(), 64 * 3);
        // Cached: the write allocates 4 lines (fills), both reads hit.
        assert_eq!(cached.dram_stats().word_writes, 0);
        assert_eq!(cached.dram_stats().word_reads, 64);
        assert!(cached.llc_stats().expect("llc").hit_rate() > 0.6);
    }

    #[test]
    fn cached_reads_return_correct_data() {
        let mut cached = CachedDram::with_llc(DramConfig::default(), CacheConfig::default());
        cached.write_burst(100, &[1, 2, 3, 4]);
        let (data, _) = cached.read_burst(100, 4);
        assert_eq!(data, vec![1, 2, 3, 4]);
        // And peeks see the same (write-through functional store).
        assert_eq!(cached.peek(102), 3);
    }

    #[test]
    fn hit_latency_below_miss_latency() {
        let mut cached = CachedDram::with_llc(
            DramConfig {
                size_words: 4096,
                first_word_latency: 16,
                per_word_latency: 1,
                banks: 1,
            },
            small_cache(),
        );
        let (_, cold) = cached.read_burst(0, 4);
        let (_, warm) = cached.read_burst(0, 4);
        assert!(warm < cold, "warm {warm} !< cold {cold}");
        assert_eq!(warm, 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        Llc::new(CacheConfig {
            size_words: 48,
            line_words: 4,
            ways: 2,
            hit_cycles: 1,
        });
    }
}
