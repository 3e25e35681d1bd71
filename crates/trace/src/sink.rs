//! Trace sinks: where instrumentation points deliver their events.
//!
//! The simulator layers hold a [`SinkSlot`] — an optional shared handle to
//! a [`TraceSink`]. Detached (the default) an emission is a single `None`
//! check, which is how the "zero cost when disabled" guarantee is kept;
//! attached, events go through an uncontended mutex (one sink per sweep
//! worker) into the sink.
//!
//! The standard sink is the [`RingRecorder`]: a bounded flight recorder
//! that keeps the most recent events and counts what it dropped, so a
//! pathological run cannot exhaust memory while the interesting tail (the
//! part near the anomaly being debugged) is preserved.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::event::TraceEvent;

/// A sink for trace events.
///
/// `Send` so that an instrumented controller/system stays `Send` and can
/// run inside the bench harness's sweep workers (same reasoning as
/// `sam_dram::observe::CommandObserver`).
pub trait TraceSink: Send {
    /// Called once per emitted event, in emission (issue) order.
    fn record(&mut self, ev: TraceEvent);
}

/// Shared handle to an attached sink.
pub type SharedSink = Arc<Mutex<dyn TraceSink>>;

/// Storage for an optional attached trace sink.
///
/// Cloning shares the sink (clones are pre-warmed system forks, and a
/// shared sink keeps the whole stream visible), mirroring
/// `sam_dram::observe::ObserverSlot` — but compiled unconditionally: the
/// detached cost is one branch, cheap enough to not warrant a feature gate.
#[derive(Clone, Default)]
pub struct SinkSlot {
    sink: Option<SharedSink>,
}

impl std::fmt::Debug for SinkSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SinkSlot")
            .field("attached", &self.sink.is_some())
            .finish()
    }
}

impl SinkSlot {
    /// Attaches `sink`, replacing any previous one.
    pub fn attach(&mut self, sink: SharedSink) {
        self.sink = Some(sink);
    }

    /// Whether a sink is attached. Instrumentation points with any setup
    /// cost (string/arg computation) should check this first.
    #[inline]
    pub fn is_attached(&self) -> bool {
        self.sink.is_some()
    }

    /// Delivers `ev` to the attached sink, if any. Only the `None` check
    /// is inlined into the caller; the lock and record sit out of line.
    #[inline]
    pub fn emit(&self, ev: TraceEvent) {
        if let Some(sink) = &self.sink {
            record(sink, ev);
        }
    }
}

#[cold]
#[inline(never)]
fn record(sink: &SharedSink, ev: TraceEvent) {
    sink.lock().expect("trace sink lock poisoned").record(ev);
}

/// A bounded flight recorder: keeps the most recent `capacity` events,
/// dropping the oldest (and counting drops) when full.
#[derive(Debug)]
pub struct RingRecorder {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingRecorder {
    /// A recorder holding at most `capacity` events (clamped to >= 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of events held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the recorder, returning the held events (oldest first) and
    /// the drop count.
    pub fn into_events(self) -> (Vec<TraceEvent>, u64) {
        (self.events.into_iter().collect(), self.dropped)
    }
}

impl TraceSink for RingRecorder {
    fn record(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{track, Category};
    use crate::Cycle;

    fn ev(at: Cycle, name: &'static str) -> TraceEvent {
        TraceEvent::instant(track::CTRL, Category::Ctrl, name, at, at * 2)
    }

    #[test]
    fn detached_slot_is_inert() {
        let slot = SinkSlot::default();
        assert!(!slot.is_attached());
        slot.emit(ev(1, "x")); // must not panic
        assert!(format!("{slot:?}").contains("attached: false"));
    }

    #[test]
    fn attached_slot_delivers_and_clones_share() {
        let ring = Arc::new(Mutex::new(RingRecorder::new(8)));
        let mut slot = SinkSlot::default();
        slot.attach(ring.clone());
        let clone = slot.clone();
        slot.emit(ev(1, "a"));
        clone.emit(ev(2, "b"));
        assert_eq!(ring.lock().unwrap().len(), 2);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = RingRecorder::new(3);
        for i in 0..5 {
            r.record(ev(i, "e"));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let (events, dropped) = r.into_events();
        assert_eq!(dropped, 2);
        assert_eq!(events.iter().map(|e| e.at).collect::<Vec<_>>(), [2, 3, 4]);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = RingRecorder::new(0);
        r.record(ev(1, "a"));
        r.record(ev(2, "b"));
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn empty_ring_serializes() {
        let r = RingRecorder::new(4);
        assert!(r.is_empty());
    }

    #[test]
    fn sink_slot_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SinkSlot>();
        assert_send::<RingRecorder>();
    }
}
