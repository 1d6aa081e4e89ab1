//! The event-driven scheduling contract shared by every simulated
//! component (tiles, mesh).
//!
//! The naive engine calls `tick()` on every component every cycle. Most of
//! those ticks are *boring*: a DRAM burst counting down its latency, a
//! DVFS-divided datapath burning compute cycles, an accelerator spinning
//! on data that has not arrived. Every component therefore follows one
//! three-method convention, as inherent methods the SoC driver calls
//! directly (the mesh calls its own `progress` and `advance` inside
//! `Mesh::run_alone`):
//!
//! - `tick` advances the component by one cycle (tiles tick against the
//!   mesh) and returns nothing;
//! - `progress(now)` reports, without ticking, when the next
//!   *interesting* tick is — the earliest future cycle at which the
//!   component can possibly change externally observable state — so the
//!   driver can jump the global clock there directly (the mesh reads
//!   `now` from its own clock);
//! - `advance(delta)` bulk-applies the skipped boring cycles (the
//!   processor tile has no per-cycle state, so it needs none).
//!
//! The contract that keeps fast-forward cycle-exact with the naive engine:
//!
//! 1. `progress(now)` must be conservative: if the component might do
//!    externally observable work (inject/eject a packet, change FSM phase,
//!    emit a trace event) at cycle `c`, then `next_wake(now) <= Some(c)`.
//! 2. `advance(delta)` must leave the component in exactly the state that
//!    `delta` consecutive boring ticks would have — including statistics
//!    counters — provided `delta` does not run past the reported wake
//!    cycle (the driver guarantees this).
//! 3. A `Quiescent` component may still accumulate wait-state counters in
//!    `advance`; it only promises not to touch the fabric on its own.
//! 4. A tile that is not `Active` and has no delivered packet in its
//!    ejection queues is inert, whatever the mesh is doing: its tick
//!    touches no mesh state (it ejects nothing and injects nothing), so
//!    the mesh may run alone while the tile catches up later through
//!    `advance`. This is what lets the driver hand every boring span to
//!    `Mesh::run_alone`, which ticks the mesh through traffic, jumps a
//!    lone worm stream in closed form to the tick before its next tail
//!    ejects, and jumps it over idle stretches, applying its own
//!    `progress`/`advance`. Every jump ends with the mesh's state
//!    materialised, exactly as the same ticks would leave it.

/// What a component did (or can do) at a given cycle, plus a hint about
/// when it next needs to be ticked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// The component did (or may do) externally observable work this
    /// cycle; tick it again next cycle.
    Active,
    /// The component is counting down an internal latency and cannot do
    /// observable work before `until` (absolute cycle).
    Blocked {
        /// First cycle at which the component can change observable state.
        until: u64,
    },
    /// The component has no self-driven future work: it will only act in
    /// response to external input (a packet arrival, a register write).
    Quiescent,
}

impl Progress {
    /// The earliest future cycle at which the component needs a tick, or
    /// `None` when it is quiescent. `now` is the current cycle.
    pub fn next_wake(&self, now: u64) -> Option<u64> {
        match *self {
            Progress::Active => Some(now),
            Progress::Blocked { until } => Some(until.max(now)),
            Progress::Quiescent => None,
        }
    }

    /// Combines two progress reports: the earlier wake-up wins.
    pub fn merge(self, other: Progress) -> Progress {
        match (self, other) {
            (Progress::Active, _) | (_, Progress::Active) => Progress::Active,
            (Progress::Blocked { until: a }, Progress::Blocked { until: b }) => {
                Progress::Blocked { until: a.min(b) }
            }
            (b @ Progress::Blocked { .. }, Progress::Quiescent) => b,
            (Progress::Quiescent, b @ Progress::Blocked { .. }) => b,
            (Progress::Quiescent, Progress::Quiescent) => Progress::Quiescent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_wake_by_variant() {
        assert_eq!(Progress::Active.next_wake(10), Some(10));
        assert_eq!(Progress::Blocked { until: 42 }.next_wake(10), Some(42));
        // A stale block never schedules in the past.
        assert_eq!(Progress::Blocked { until: 5 }.next_wake(10), Some(10));
        assert_eq!(Progress::Quiescent.next_wake(10), None);
    }

    #[test]
    fn merge_takes_earliest() {
        let a = Progress::Blocked { until: 20 };
        let b = Progress::Blocked { until: 30 };
        assert_eq!(a.merge(b), Progress::Blocked { until: 20 });
        assert_eq!(a.merge(Progress::Quiescent), a);
        assert_eq!(Progress::Quiescent.merge(b), b);
        assert_eq!(a.merge(Progress::Active), Progress::Active);
        assert_eq!(
            Progress::Quiescent.merge(Progress::Quiescent),
            Progress::Quiescent
        );
    }
}
