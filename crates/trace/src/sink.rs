//! Event storage behind the [`Tracer`](crate::Tracer) handle.

use crate::event::TimedEvent;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Destination for recorded events.
///
/// Implementations must be cheap per `record` call — the tracer holds
/// the sink behind a mutex and records from the simulator hot loop
/// (only when tracing is enabled).
pub trait TraceSink: Send {
    /// Stores one event.
    fn record(&mut self, event: TimedEvent);

    /// Number of events currently held.
    fn len(&self) -> usize;

    /// True when no events are held.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded due to capacity pressure.
    fn dropped(&self) -> u64;

    /// Discarded events that the span assembler needed (phase changes,
    /// frame completions, run starts, recovery events). Counted
    /// separately from [`TraceSink::dropped`] so span reports can flag
    /// themselves as partial. Defaults to 0 for sinks that never drop.
    fn dropped_spans(&self) -> u64 {
        0
    }

    /// Removes and returns all held events in chronological order.
    fn drain(&mut self) -> Vec<TimedEvent>;
}

/// Online collector state fed by a [`TeeSink`].
pub(crate) trait Observer: Send {
    /// Folds one event into the state.
    fn observe(&mut self, event: &TimedEvent);
}

/// A sink adapter that observes each event into shared collector state
/// before forwarding it to an inner sink, so the profile and span
/// collectors share one event stream with event storage (and with each
/// other).
pub(crate) struct TeeSink<S> {
    state: Arc<Mutex<S>>,
    inner: Box<dyn TraceSink>,
}

impl<S: Observer + 'static> TeeSink<S> {
    /// Boxes a tee of `state` in front of `inner`.
    pub(crate) fn boxed(state: &Arc<Mutex<S>>, inner: Box<dyn TraceSink>) -> Box<dyn TraceSink> {
        Box::new(TeeSink {
            state: Arc::clone(state),
            inner,
        })
    }
}

impl<S: Observer> TraceSink for TeeSink<S> {
    fn record(&mut self, event: TimedEvent) {
        self.state
            .lock()
            .expect("collector state poisoned")
            .observe(&event);
        self.inner.record(event);
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dropped(&self) -> u64 {
        self.inner.dropped()
    }

    fn dropped_spans(&self) -> u64 {
        self.inner.dropped_spans()
    }

    fn drain(&mut self) -> Vec<TimedEvent> {
        self.inner.drain()
    }
}

/// Whether a discarded event would have fed the span assembler.
pub(crate) fn is_span_event(event: &TimedEvent) -> bool {
    matches!(
        event.event.kind(),
        "accel_phase_change" | "frame_complete" | "run_start" | "retry_scheduled" | "failed_over"
    )
}

/// Bounded FIFO sink: keeps the most recent `capacity` events and
/// counts (rather than grows on) overflow.
#[derive(Debug)]
pub struct RingBufferSink {
    buf: VecDeque<TimedEvent>,
    capacity: usize,
    dropped: u64,
    dropped_spans: u64,
}

impl RingBufferSink {
    /// Default capacity: generous enough to hold every event of a full
    /// `fig7` experiment sweep.
    pub const DEFAULT_CAPACITY: usize = 1 << 21;

    /// Creates a sink bounded at `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
            dropped_spans: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl Default for RingBufferSink {
    fn default() -> Self {
        RingBufferSink::new(Self::DEFAULT_CAPACITY)
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, event: TimedEvent) {
        if self.buf.len() == self.capacity {
            if let Some(evicted) = self.buf.pop_front() {
                if is_span_event(&evicted) {
                    self.dropped_spans += 1;
                }
            }
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }

    fn drain(&mut self) -> Vec<TimedEvent> {
        self.buf.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TileCoord, TraceEvent};

    fn ev(cycle: u64) -> TimedEvent {
        TimedEvent {
            cycle,
            source: TileCoord::new(0, 0),
            event: TraceEvent::NocPacketInject {
                plane: 0,
                frame: None,
            },
        }
    }

    #[test]
    fn bounded_drops_oldest() {
        let mut sink = RingBufferSink::new(3);
        for c in 0..5 {
            sink.record(ev(c));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        let cycles: Vec<u64> = sink.drain().into_iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
        assert!(sink.is_empty());
    }

    #[test]
    fn span_relevant_drops_are_counted_separately() {
        let mut sink = RingBufferSink::new(2);
        sink.record(TimedEvent {
            cycle: 0,
            source: TileCoord::new(0, 0),
            event: TraceEvent::FrameComplete {
                accel: "nv0".into(),
                frame: 0,
            },
        });
        for c in 1..4 {
            sink.record(ev(c));
        }
        // The frame completion and one packet event were evicted; only
        // the former counts against the span assembler.
        assert_eq!(sink.dropped(), 2);
        assert_eq!(sink.dropped_spans(), 1);
    }

    #[test]
    fn capacity_floor_is_one() {
        let sink = RingBufferSink::new(0);
        assert_eq!(sink.capacity(), 1);
    }
}
