//! The event-driven scheduling contract shared by every simulated
//! component (tiles, mesh).
//!
//! The naive engine calls `tick()` on every component every cycle. Most of
//! those ticks are *boring*: a DRAM burst counting down its latency, a
//! DVFS-divided datapath burning compute cycles, an accelerator spinning
//! on data that has not arrived. Every component therefore follows one
//! three-method convention, as inherent methods the SoC driver calls
//! directly (the mesh calls its own `wake` and `advance` inside
//! `Mesh::run_alone`):
//!
//! - `tick` advances the component by one cycle (tiles tick against the
//!   mesh) and returns nothing;
//! - `wake(now)` reports, without ticking, the first cycle at which the
//!   component may change externally observable state: `now` (or
//!   earlier) when it is active, a later cycle when it counts down an
//!   internal latency, and [`NEVER`] when it waits only on input (the
//!   mesh reads `now` from its own clock). The event engine jumps the
//!   global clock to the earliest wake directly;
//! - `advance(delta)` bulk-applies the skipped boring cycles (the
//!   processor tile has no per-cycle state, so it needs none).
//!
//! The contract that keeps fast-forward cycle-exact with the naive engine:
//!
//! 1. `wake(now)` must be conservative: if the component might do
//!    externally observable work (inject/eject a packet, change FSM phase,
//!    emit a trace event) at cycle `c`, then `wake(now) <= c`. A stale
//!    wake (`< now`) means the same as `now`: tick.
//! 2. `advance(delta)` must leave the component in exactly the state that
//!    `delta` consecutive boring ticks would have — including statistics
//!    counters — provided `now + delta` does not run past the reported
//!    wake cycle (the event engine guarantees this).
//! 3. A component whose wake is [`NEVER`] may still accumulate wait-state
//!    counters in `advance`; it only promises not to touch the fabric on
//!    its own.
//! 4. A tile whose wake is after `now` and that has no delivered packet
//!    in its ejection queues is inert, whatever the mesh is doing: its
//!    tick touches no mesh state (it ejects nothing and injects nothing),
//!    so the mesh may run alone while the tile catches up later through
//!    `advance`. This is what lets the driver hand every boring span to
//!    `Mesh::run_alone`, which ticks the mesh through traffic, jumps a
//!    lone worm stream in closed form to the tick before its next tail
//!    ejects, and jumps it over idle stretches, applying its own
//!    `wake`/`advance`. Every jump ends with the mesh's state
//!    materialised, exactly as the same ticks would leave it.

/// The wake of a component that waits only on input (a packet arrival,
/// a register write): it has no self-driven future work.
pub const NEVER: u64 = u64::MAX;
