//! The ESP tile-based SoC architecture, as extended by ESP4ML.
//!
//! An ESP SoC is a grid of tiles — processor, memory, accelerator,
//! auxiliary — connected by a six-plane 2D-mesh NoC (provided by
//! [`esp4ml_noc`]). Each accelerator sits behind a *socket* that implements
//! platform services: a DMA engine with TLB-backed virtual addressing,
//! memory-mapped configuration registers, and interrupt delivery. ESP4ML
//! adds two registers to every accelerator (`LOCATION_REG`, `P2P_REG`) and
//! a **point-to-point platform service** that remaps DMA transactions into
//! receiver-initiated tile-to-tile transfers without adding any NoC
//! resources.
//!
//! This crate provides the cycle-level model of all of it:
//!
//! * [`AcceleratorKernel`] — the behavioural COMPUTE stage an accelerator
//!   plugs into the wrapper (Fig. 4 of the paper): NN engines compiled by
//!   `esp4ml-hls4ml`, vision kernels from `esp4ml-vision`, or test stubs.
//! * [`AccelTile`] — the wrapper FSM: LOAD (DMA or p2p) → COMPUTE → STORE
//!   (DMA or p2p), with PLM buffers, TLB, packing of 16-bit values into
//!   64-bit NoC words, and the consumption-assumption-preserving on-demand
//!   p2p protocol.
//! * [`MemTile`] — the memory tile: DMA request service over DRAM.
//! * [`ProcTile`] — the processor tile: issues register writes, collects
//!   interrupts (the hardware side of the Linux runtime).
//! * [`Soc`] / [`SocBuilder`] — floorplan configuration (the `.esp_config`
//!   GUI analog) and the cycle simulator binding tiles to the NoC.
//!
//! # Example
//!
//! ```
//! use esp4ml_soc::{SocBuilder, ScaleKernel, AccelConfig, regs};
//! use esp4ml_noc::Coord;
//!
//! # fn main() -> Result<(), esp4ml_soc::SocError> {
//! let mut soc = SocBuilder::new(2, 2)
//!     .processor(Coord::new(0, 0))
//!     .memory(Coord::new(1, 0))
//!     .accelerator(Coord::new(0, 1), Box::new(ScaleKernel::new("double", 8, 2)))
//!     .build()?;
//! // Write the input frame into DRAM and configure + start the accelerator.
//! let accel = Coord::new(0, 1);
//! let values: Vec<u64> = (1..=8).collect();
//! soc.dram_write_values(0, &values, 16)?; // packed 4 per word
//! soc.map_contiguous(accel, 0, 1024)?;
//! soc.configure_accel(accel, &AccelConfig::dma_to_dma(0, 512, 1))?;
//! soc.start_accel(accel)?;
//! assert!(soc.run_until_idle(100_000).is_idle());
//! assert_eq!(soc.take_irqs(), vec![accel]);
//! // The output buffer starts at word 512.
//! assert_eq!(soc.dram_read_values(512, 2, 16)?, vec![2, 4]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accel_tile;
pub mod emit;
mod error;
mod kernel;
mod mem_map;
mod mem_tile;
mod proc_tile;
pub mod regs;
mod sanitize;
mod soc;
mod stats;

pub use accel_tile::{AccelConfig, AccelState, AccelTile, AccelTileState, SOCKET_TLB_REACH_WORDS};
pub use error::SocError;
pub use kernel::{words_for, AcceleratorKernel, CacheCount, KernelMemo, NnKernel, ScaleKernel};
pub use mem_map::MemMap;
pub use mem_tile::{MemTile, MemTileState};
pub use proc_tile::ProcTile;
pub use regs::P2pConfig;
pub use sanitize::{BlockedTile, DeadlockDiagnosis};
pub use soc::{EngineCounters, RunOutcome, Soc, SocBuilder, SocEngine, SocSnapshot, TileKind};
pub use stats::{AccelStats, SocStats};

// Diagnostic vocabulary of the sanitizer, re-exported so `Soc` users can
// consume its verdicts without naming the check crate.
pub use esp4ml_check::{Diagnostic, Report, Severity};
