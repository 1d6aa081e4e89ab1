//! # ESP4ML: platform-based design of SoCs for embedded machine learning
//!
//! A full reproduction, in simulation, of the ESP4ML system-level design
//! flow (Giri, Chiu, Di Guglielmo, Mantovani, Carloni — DATE 2020): an
//! open-source flow that builds and programs SoC architectures hosting
//! *reconfigurable pipelines* of machine-learning and computer-vision
//! accelerators, connected by efficient point-to-point (p2p)
//! communication over a multi-plane network-on-chip.
//!
//! The flow mirrors Fig. 3 of the paper end-to-end:
//!
//! 1. **Train** an ML model with the Keras-analog [`esp4ml_nn`] crate
//!    (MLP classifier, denoising autoencoder) on the synthetic SVHN-like
//!    dataset from [`esp4ml_vision`].
//! 2. **Compile** it with the HLS4ML-analog [`esp4ml_hls4ml`] crate:
//!    16-bit fixed-point quantization, reuse-factor parallelization, HLS
//!    latency/resource estimation.
//! 3. **Integrate** the generated accelerators — plus SystemC-style
//!    vision kernels — into an ESP SoC instance ([`esp4ml_soc`]): tile
//!    floorplan, sockets with DMA/TLB, `LOCATION_REG`/`P2P_REG`, and the
//!    receiver-initiated p2p platform service.
//! 4. **Run** embedded applications through the Linux-analog runtime
//!    ([`esp4ml_runtime`]): `esp_alloc`, a user-specified dataflow, and
//!    `esp_run` in serial, pipelined, or p2p mode.
//!
//! The [`apps`] module instantiates the paper's two SoCs and four
//! case-study applications (Fig. 6); [`experiments`] regenerates every
//! table and figure of the evaluation (Table I, Fig. 7, Fig. 8).
//!
//! # Quickstart
//!
//! ```
//! use esp4ml::apps::{CaseApp, TrainedModels};
//! use esp4ml::experiments::{AppRun, RunOptions};
//! use esp4ml_runtime::ExecMode;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Untrained weights keep the doctest fast; see `TrainedModels::train`.
//! let models = TrainedModels::untrained();
//! let app = CaseApp::DenoiserClassifier;
//! // Default options: the event-driven engine, unobserved, no sanitizer
//! // and no faults; see `RunOptions` for the others.
//! let run = AppRun::execute(&app, &models, 4, ExecMode::P2p, RunOptions::default())?;
//! assert_eq!(run.metrics.frames, 4);
//! assert!(run.metrics.frames_per_second() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod check;
pub mod deploy;
pub mod experiments;
pub mod faults;
pub mod flow;
pub mod observe;
pub mod soc_config;

pub use apps::{CaseApp, TrainedModels};
pub use faults::{lint_fault_plan, CampaignReport};
pub use flow::Esp4mlFlow;
pub use observe::{ProfileReport, TraceSession};

// Re-export the substrate crates under one roof, as the public surface of
// the reproduction.
pub use esp4ml_baseline as baseline;
pub use esp4ml_fault as fault;
pub use esp4ml_hls as hls;
pub use esp4ml_hls4ml as hls4ml;
pub use esp4ml_mem as mem;
pub use esp4ml_nn as nn;
pub use esp4ml_noc as noc;
pub use esp4ml_runtime as runtime;
pub use esp4ml_soc as soc;
pub use esp4ml_trace as trace;
pub use esp4ml_vision as vision;
