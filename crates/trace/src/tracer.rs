//! The cloneable tracer handle distributed into simulator components.

use crate::event::{TileCoord, TimedEvent, TraceEvent};
use crate::sink::{RingBufferSink, TraceSink};
use std::sync::{Arc, Mutex};

/// Handle for emitting trace events.
///
/// Cloning is cheap (an `Option<Arc>`), so every tile, the mesh, and
/// the runtime hold their own copy. The default handle is *disabled*
/// (the only off state; a recording tracer cannot be paused):
/// [`Tracer::emit`] then costs exactly one branch — the event closure
/// is never invoked, so no payload is built and nothing allocates.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Mutex<Box<dyn TraceSink>>>>);

impl Tracer {
    /// A no-op tracer (the default for every simulator component).
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// A tracer recording into a [`RingBufferSink`] of default capacity.
    pub fn ring_buffer() -> Self {
        Self::with_sink(Box::<RingBufferSink>::default())
    }

    /// A tracer recording into a [`RingBufferSink`] bounded at
    /// `capacity` events.
    pub fn ring_buffer_with_capacity(capacity: usize) -> Self {
        Self::with_sink(Box::new(RingBufferSink::new(capacity)))
    }

    /// A tracer recording into an arbitrary sink.
    pub fn with_sink(sink: Box<dyn TraceSink>) -> Self {
        Tracer(Some(Arc::new(Mutex::new(sink))))
    }

    /// True when events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records the event produced by `build`, stamped with `cycle` and
    /// `source`. `build` runs only when the tracer is enabled, keeping
    /// the disabled fast path free of any payload construction.
    #[inline]
    pub fn emit(&self, cycle: u64, source: TileCoord, build: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.0 {
            let event = TimedEvent {
                cycle,
                source,
                event: build(),
            };
            if let Ok(mut sink) = sink.lock() {
                sink.record(event);
            }
        }
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        match &self.0 {
            Some(sink) => sink.lock().map(|s| s.len()).unwrap_or(0),
            None => 0,
        }
    }

    /// True when no events are buffered (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded by the sink under capacity pressure.
    pub fn dropped(&self) -> u64 {
        match &self.0 {
            Some(sink) => sink.lock().map(|s| s.dropped()).unwrap_or(0),
            None => 0,
        }
    }

    /// Discarded events the span assembler needed, counted separately
    /// from [`Tracer::dropped`].
    pub fn dropped_spans(&self) -> u64 {
        match &self.0 {
            Some(sink) => sink.lock().map(|s| s.dropped_spans()).unwrap_or(0),
            None => 0,
        }
    }

    /// Removes and returns all buffered events in chronological order.
    pub fn drain(&self) -> Vec<TimedEvent> {
        match &self.0 {
            Some(sink) => sink.lock().map(|mut s| s.drain()).unwrap_or_default(),
            None => Vec::new(),
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("buffered", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_builds_payload() {
        let tracer = Tracer::disabled();
        let mut built = false;
        tracer.emit(1, TileCoord::new(0, 0), || {
            built = true;
            TraceEvent::NocPacketInject {
                plane: 0,
                frame: None,
            }
        });
        assert!(!built, "payload closure ran on a disabled tracer");
        assert!(tracer.is_empty());
        assert!(!tracer.is_enabled());
    }

    #[test]
    fn enabled_records_and_drains() {
        let tracer = Tracer::ring_buffer_with_capacity(16);
        for c in 0..4 {
            tracer.emit(c, TileCoord::new(1, 2), || TraceEvent::TlbMiss {
                penalty: 9,
            });
        }
        assert_eq!(tracer.len(), 4);
        let events = tracer.drain();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].source, TileCoord::new(1, 2));
        assert!(tracer.is_empty());
    }

    #[test]
    fn clones_share_the_sink() {
        let a = Tracer::ring_buffer_with_capacity(8);
        let b = a.clone();
        b.emit(5, TileCoord::new(0, 1), || TraceEvent::NocPacketInject {
            plane: 2,
            frame: None,
        });
        assert_eq!(a.len(), 1);
    }
}
