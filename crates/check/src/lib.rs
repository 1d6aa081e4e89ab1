//! Typed diagnostics and design-rule checking for the ESP4ML flow.
//!
//! ESP4ML is a *design flow*: SoC floorplans and p2p dataflow pipelines
//! are composed from reusable parts and must be correct by construction
//! before they reach silicon. The ESP GUI enforces its design rules at
//! composition time; this crate is the analog for the reproduction — a
//! shared diagnostic data model (stable error codes, severities,
//! locations, fix hints) plus the pure analyses behind the `espcheck`
//! static linter and the runtime invariant sanitizer.
//!
//! The crate sits at the bottom of the dependency stack on purpose: the
//! NoC, SoC, runtime and application layers all *emit* [`Diagnostic`]s,
//! so none of them can be a dependency of this one. Everything here is
//! plain data and pure functions.
//!
//! * [`Diagnostic`] / [`Severity`] / [`Report`] — the data model.
//! * [`codes`] — the stable error-code registry (`E0101`, …).
//! * [`cdg`] — channel-dependency-graph deadlock analysis for wormhole
//!   routes, single-tenant and union (multi-tenant) alike.
//! * [`bw`] — static NoC bandwidth-feasibility math: per-link
//!   utilization from composed tenant demands and the per-tenant
//!   worst-case slowdown bound.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bw;
pub mod cdg;
pub mod codes;
mod diag;

pub use diag::{Diagnostic, Report, Severity};
