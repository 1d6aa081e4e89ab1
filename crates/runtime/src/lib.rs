//! The ESP4ML embedded software runtime (the Linux layer of the paper).
//!
//! The paper's runtime system (§V) hides memory allocation, accelerator
//! invocation and synchronization behind a small API: the application
//! calls `esp_alloc` for a contiguous buffer, describes its computation as
//! a *dataflow* of accelerator invocations (each using DMA or p2p
//! communication), and calls `esp_run`. The runtime spawns one thread per
//! running accelerator; p2p-connected accelerators are synchronized by the
//! hardware, DMA-connected ones by pthread primitives.
//!
//! This crate reproduces that layer on top of the [`esp4ml_soc`]
//! simulator:
//!
//! * [`DeviceRegistry`] — the driver-probe step: every accelerator is
//!   discovered, its `LOCATION_REG` read, and the name→coordinates mapping
//!   recorded in a global list protected by a lock (the paper's
//!   spinlock-protected linked list). Applications name devices; they
//!   never see coordinates, so the dataflow is floorplan-independent.
//! * [`Dataflow`] — the user-level pipeline description (the `dflow1.h`
//!   analog): stages of device instances, with an [`ExecMode`] choosing
//!   serial execution (`Base`), a software pipeline (`Pipe`), or a p2p
//!   hardware pipeline (`P2p`).
//! * [`EspRuntime`] — `esp_alloc` / `esp_run` / `esp_cleanup`, driving the
//!   simulated SoC cycle-by-cycle while playing the role of the threads
//!   scheduled on the Ariane core.
//!
//! # Example
//!
//! ```
//! use esp4ml_noc::Coord;
//! use esp4ml_soc::{SocBuilder, ScaleKernel};
//! use esp4ml_runtime::{Dataflow, EspRuntime, ExecMode, RunSpec};
//!
//! # fn main() -> Result<(), esp4ml_runtime::RuntimeError> {
//! let soc = SocBuilder::new(2, 2)
//!     .processor(Coord::new(0, 0))
//!     .memory(Coord::new(1, 0))
//!     .accelerator(Coord::new(0, 1), Box::new(ScaleKernel::new("x2", 8, 2)))
//!     .accelerator(Coord::new(1, 1), Box::new(ScaleKernel::new("x5", 8, 5)))
//!     .build()?;
//! let mut rt = EspRuntime::new(soc)?;
//! let dataflow = Dataflow::linear(&[&["x2"], &["x5"]]);
//! let frames = 4;
//! let buf = rt.prepare(&dataflow, frames)?;
//! for f in 0..frames {
//!     let vals: Vec<u64> = (0..8).map(|i| i + f).collect();
//!     rt.write_frame(&buf, f, &vals)?;
//! }
//! let metrics = rt.run(&RunSpec::new(&dataflow).mode(ExecMode::P2p), &buf)?;
//! assert_eq!(metrics.frames, frames);
//! assert_eq!(rt.read_frame(&buf, 0)?, vec![0, 10, 20, 30, 40, 50, 60, 70]);
//! rt.esp_cleanup();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
mod dataflow;
mod error;
mod metrics;
mod registry;
mod runtime;

pub use dataflow::{Dataflow, ExecMode, InstanceIo, StageSpec};
pub use error::RuntimeError;
pub use metrics::RunMetrics;
pub use registry::{DeviceInfo, DeviceRegistry};
pub use runtime::{
    AppBuffers, EspRuntime, RecoveryPolicy, RunSpec, RuntimeSnapshot, DEFAULT_WATCHDOG_CYCLES,
};
