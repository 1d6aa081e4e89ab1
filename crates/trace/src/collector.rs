//! The one online run collector behind
//! [`ProfileCollector`](crate::ProfileCollector) and
//! [`SpanCollector`](crate::SpanCollector).
//!
//! A collector opens a run at each `RunStart` marker (closing the
//! previous one at the marker's cycle), feeds every later event into the
//! open run's accumulator, and folds the accumulator into its report
//! when the run closes. What the accumulator keeps and reports is the
//! only thing that differs between profiles and spans.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::event::{TimedEvent, TraceEvent};
use crate::sink::{Observer, RingBufferSink, TeeSink, TraceSink};
use crate::tracer::Tracer;

/// Pipeline stage groups: stage name plus member instance names, in
/// pipeline order.
pub(crate) type StageGroups = Vec<(String, Vec<String>)>;

pub(crate) mod sealed {
    use super::StageGroups;
    use crate::event::TimedEvent;

    /// Per-run state of one collector kind. Sealed: only this crate's
    /// accumulators implement it.
    pub trait Accumulator: std::fmt::Debug + Send + 'static {
        /// What a closed run yields.
        type Report: Clone + std::fmt::Debug + Send;

        /// Opens a run labelled `label` at `start_cycle`.
        fn open(label: String, start_cycle: u64, groups: StageGroups) -> Self;

        /// Folds one event of the open run into the state.
        fn observe(&mut self, ev: &TimedEvent);

        /// Closes the run at `end_cycle`.
        fn close(self, end_cycle: u64) -> Self::Report;
    }
}

use sealed::Accumulator;

#[derive(Debug)]
pub(crate) struct CollectorState<A: Accumulator> {
    pending_groups: Option<StageGroups>,
    pub(crate) current: Option<A>,
    finished: Vec<A::Report>,
}

impl<A: Accumulator> Observer for CollectorState<A> {
    fn observe(&mut self, ev: &TimedEvent) {
        if let TraceEvent::RunStart { label } = &ev.event {
            if let Some(open) = self.current.take() {
                self.finished.push(open.close(ev.cycle));
            }
            let groups = self.pending_groups.take().unwrap_or_default();
            self.current = Some(A::open(label.clone(), ev.cycle, groups));
            return;
        }
        if let Some(run) = self.current.as_mut() {
            run.observe(ev);
        }
    }
}

/// Shared handle onto one collector's online state.
///
/// Clone it freely: all clones observe into the same state. Typical
/// wiring is [`Collector::sink`] inside a tracer's sink chain, or
/// [`Collector::ring_buffer_tracer`] for standalone use.
#[derive(Debug)]
pub struct Collector<A: Accumulator> {
    state: Arc<Mutex<CollectorState<A>>>,
}

impl<A: Accumulator> Collector<A> {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Collector {
            state: Arc::new(Mutex::new(CollectorState {
                pending_groups: None,
                current: None,
                finished: Vec::new(),
            })),
        }
    }

    /// Declares the pipeline stage groups (stage name plus member
    /// instance names, in pipeline order) for the *next* run started.
    /// Without groups every instance counts as its own stage.
    pub fn set_stage_groups(&self, groups: Vec<(String, Vec<String>)>) {
        self.lock().pending_groups = Some(groups);
    }

    /// Feeds one event into the collector.
    pub fn observe(&self, ev: &TimedEvent) {
        self.lock().observe(ev);
    }

    /// Replays a drained event stream (e.g. from a sink) in order.
    pub fn observe_all(&self, events: &[TimedEvent]) {
        let mut state = self.lock();
        for ev in events {
            state.observe(ev);
        }
    }

    /// Closes the open run at `end_cycle`, returning its report (also
    /// retained for [`Collector::take_reports`]). `None` when no run is
    /// open.
    pub fn close_run(&self, end_cycle: u64) -> Option<A::Report> {
        let mut state = self.lock();
        let report = state.current.take()?.close(end_cycle);
        state.finished.push(report.clone());
        Some(report)
    }

    /// Removes and returns all closed run reports in completion order.
    pub fn take_reports(&self) -> Vec<A::Report> {
        std::mem::take(&mut self.lock().finished)
    }

    /// Wraps `inner` so every recorded event is observed and forwarded.
    pub fn sink(&self, inner: Box<dyn TraceSink>) -> Box<dyn TraceSink> {
        TeeSink::boxed(&self.state, inner)
    }

    /// Builds an enabled [`Tracer`] whose sink collects online and
    /// buffers events in a default-capacity [`RingBufferSink`].
    pub fn ring_buffer_tracer(&self) -> Tracer {
        Tracer::with_sink(self.sink(Box::<RingBufferSink>::default()))
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, CollectorState<A>> {
        self.state.lock().expect("collector state poisoned")
    }
}

impl<A: Accumulator> Clone for Collector<A> {
    fn clone(&self) -> Self {
        Collector {
            state: Arc::clone(&self.state),
        }
    }
}

impl<A: Accumulator> Default for Collector<A> {
    fn default() -> Self {
        Self::new()
    }
}
