//! Shared helpers for the benchmark harness binaries.
//!
//! Each binary regenerates one artifact of the paper's evaluation:
//!
//! | Binary     | Artifact |
//! |------------|----------|
//! | `table1`   | Table I — utilization, power, frames/s vs i7/Jetson |
//! | `fig7`     | Fig. 7 — frames/J for base/pipe/p2p vs baselines |
//! | `fig8`     | Fig. 8 — DRAM accesses with/without p2p |
//! | `training` | §VI accuracy targets (92 % classifier, 3.1 % denoiser) |
//! | `espprof`  | profile-vs-simulator consistency verdict |
//! | `espspan`  | span attribution / critical-path agreement verdict |
//! | `espfault` | seeded fault-campaign absorption verdict |
//! | `espcheck` | static SoC/dataflow lint verdict |
//!
//! All of them are thin clients of the same two shared layers:
//!
//! - [`cli`]: one table-driven command-line parser. Every binary
//!   declares which of the common flags it accepts
//!   ([`cli::HarnessSpec`]) and gets identical `--help` text, error
//!   messages and validation for the flags it shares with its siblings.
//! - [`request`]: the unified typed request API. The parsed options
//!   become a [`request::RunRequest`] — the union of the historical
//!   `--engine/--jobs/--trace/--profile/--spans/--sanitize/--faults`
//!   surfaces plus a `schema_version` — and [`request::execute`] is
//!   the single entry point that validates, admission-lints
//!   (espcheck runs before a single cycle is simulated) and runs it.
//!   The `espserve` job server speaks the same request type over
//!   HTTP, so a CLI run and a server job are the same bytes end to
//!   end.
//!
//! [`observe`] maps a response's observability artifacts back onto the
//! `--trace/--profile/--spans` output files, [`parallel`] fans a grid
//! out over worker threads, and [`chart`] renders the Fig. 7 bars.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod cli;
pub mod observe;
pub mod parallel;
pub mod request;

pub use cli::{CliError, HarnessArgs, HarnessSpec};
pub use request::{
    execute, execute_with_progress, CollectingSink, Progress, ProgressSink, RunRequest,
    RunResponse, WorkloadKind,
};
