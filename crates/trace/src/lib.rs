//! Cycle-level observability for the ESP4ML simulator.
//!
//! The simulator's legacy stats (`SocStats`, `NocStats`, `RunMetrics`)
//! are end-of-run aggregates: they say *how much* happened but never
//! *when*. This crate adds the missing timeline layer, mirroring the
//! per-tile performance monitors of the real ESP platform:
//!
//! - [`TraceEvent`] / [`TimedEvent`]: typed events (accelerator phase
//!   changes, DMA bursts, p2p transfers, NoC inject/eject, TLB misses,
//!   ioctls, frame completions) stamped with the simulated cycle and
//!   source tile coordinate.
//! - [`Tracer`]: a cheaply cloneable handle distributed into every
//!   simulator component. Disabled tracing is a single `Option`
//!   branch — no allocation, no locking, no event construction
//!   (event payloads are built inside a closure that only runs when
//!   enabled).
//! - [`TraceSink`] / [`RingBufferSink`]: bounded event storage that
//!   drops the oldest events under pressure rather than growing.
//! - [`CounterRegistry`] / [`CounterSnapshot`]: named monotonic
//!   counters and gauges behind one snapshot API, subsuming the
//!   ad-hoc stats structs.
//! - [`perfetto`]: Chrome `trace_event` JSON export (open the file at
//!   ui.perfetto.dev) with one track per tile and one per NoC plane.
//! - [`CounterSeries`]: a time-series of counter snapshots taken
//!   every N cycles.
//! - [`profile`]: online bottleneck analysis — per-frame latency
//!   [`Histogram`]s, per-tile time-in-state utilization, and a
//!   critical-path report, built by a [`ProfileCollector`] that
//!   consumes the event stream as it is produced.
//! - [`span`]: causal frame-level span trees — every frame's
//!   end-to-end latency is attributed cycle-exactly to compute, DMA,
//!   NoC, queueing, and retry spans, with a [`CriticalPath`] report
//!   that provably agrees with the profiler's bottleneck selection.
//! - [`schema`]: the versioned `schema_version` envelope wrapped
//!   around every machine-readable JSON artifact the workspace emits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collector;
mod counters;
mod event;
mod metrics;
pub mod perfetto;
pub mod profile;
pub mod schema;
mod sink;
pub mod span;
mod timeseries;
mod tracer;

pub use collector::Collector;
pub use counters::{prometheus_name, write_prometheus_family, CounterRegistry, CounterSnapshot};
pub use event::{DmaKind, TileCoord, TimedEvent, TraceEvent};
pub use metrics::frames_per_second;
pub use profile::{Histogram, ProfileCollector, RunProfile};
pub use sink::{RingBufferSink, TraceSink};
pub use span::{CriticalPath, FrameSpans, SpanCollector, SpanKind, SpanReport};
pub use timeseries::{CounterSeries, SampleRow};
pub use tracer::Tracer;
