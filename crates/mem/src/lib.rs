//! Memory-system substrates for the ESP4ML reproduction.
//!
//! ESP accelerators move long bursts of data between their on-chip private
//! local memories (PLMs) and off-chip DRAM via DMA, with virtual addressing
//! provided by a per-accelerator page table and a TLB inside the tile
//! socket. This crate models the memory components outside the
//! accelerator (the socket in `esp4ml-soc` holds its PLM as its receive and
//! output buffers):
//!
//! * [`Dram`] — the off-chip main memory behind a memory tile, with a burst
//!   timing model and the per-access counters that produce the paper's
//!   Fig. 8 (DRAM accesses with and without p2p communication).
//! * [`ContigAlloc`] — the contiguous-buffer allocator backing the
//!   `esp_alloc` runtime call.
//! * [`PageTable`] and [`Tlb`] — scatter-gather virtual addressing for
//!   accelerator DMA.
//!
//! # Example
//!
//! ```
//! use esp4ml_mem::{Dram, DramConfig};
//!
//! let mut dram = Dram::new(DramConfig::default());
//! dram.write_burst(0x100, &[1, 2, 3]);
//! assert_eq!(dram.read_burst(0x100, 3), vec![1, 2, 3]);
//! assert_eq!(dram.stats().word_writes, 3);
//! assert_eq!(dram.stats().word_reads, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod cache;
mod dram;
mod paging;

pub use alloc::{AllocError, ContigAlloc, ContigHandle};
pub use cache::{CacheAccess, CacheConfig, CacheStats, CachedDram, CachedDramState, Llc};
pub use dram::{Dram, DramConfig, DramState, DramStats};
pub use paging::{PageTable, PagingError, Tlb, TlbStats};
