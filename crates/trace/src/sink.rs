//! The run's trace recorder and the slot the simulator layers hold it in.
//!
//! One [`RunRecorder`] per traced run holds both time-resolved views: the
//! bounded event ring ([`RingRecorder`]) and the epoch statistics
//! ([`EpochRecorder`]). The simulator layers hold a [`SinkSlot`] — an
//! optional shared handle to that recorder. Detached (the default) an
//! emission is a single `None` check, which is how the "zero cost when
//! disabled" guarantee is kept; attached, events and epoch samples go
//! through an uncontended mutex (one recorder per sweep worker).
//!
//! The ring is a bounded flight recorder that keeps the most recent events
//! and counts what it dropped, so a pathological run cannot exhaust memory
//! while the interesting tail (the part near the anomaly being debugged)
//! is preserved.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::chrome::RunTrace;
use crate::epoch::EpochRecorder;
use crate::event::TraceEvent;
use crate::Cycle;

/// Everything one traced run records: its event ring and its epoch rows.
///
/// `Send` so that an instrumented controller/system stays `Send` and can
/// run inside the bench harness's sweep workers.
#[derive(Debug)]
pub struct RunRecorder {
    /// Events, most recent last.
    pub ring: RingRecorder,
    /// Completion-time counter samples folded into epochs.
    pub epochs: EpochRecorder,
}

/// Shared handle to an attached recorder.
pub type SharedRecorder = Arc<Mutex<RunRecorder>>;

impl RunRecorder {
    /// A recorder keeping at most `ring_capacity` events, with
    /// `epoch_len`-cycle epochs.
    pub fn new(ring_capacity: usize, epoch_len: Cycle) -> Self {
        Self {
            ring: RingRecorder::new(ring_capacity),
            epochs: EpochRecorder::new(epoch_len),
        }
    }

    /// [`Self::new`] behind a fresh shared handle, ready to attach.
    pub fn shared(ring_capacity: usize, epoch_len: Cycle) -> SharedRecorder {
        Arc::new(Mutex::new(Self::new(ring_capacity, epoch_len)))
    }

    /// The recorded run under `label`, ready for the Chrome exporter.
    pub fn into_trace(self, label: &str) -> RunTrace {
        let epoch_len = self.epochs.epoch_len();
        let (events, dropped) = self.ring.into_events();
        RunTrace {
            label: label.to_string(),
            events,
            dropped,
            epoch_len,
            epochs: self.epochs.into_rows(),
        }
    }
}

/// Storage for an optional attached recorder.
///
/// Cloning shares the recorder (clones are pre-warmed system forks, and a
/// shared recorder keeps the whole stream visible), mirroring
/// `sam_dram::observe::ObserverSlot`.
#[derive(Clone, Default)]
pub struct SinkSlot {
    recorder: Option<SharedRecorder>,
}

impl std::fmt::Debug for SinkSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SinkSlot")
            .field("attached", &self.recorder.is_some())
            .finish()
    }
}

impl SinkSlot {
    /// Attaches `recorder`, replacing any previous one.
    pub fn attach(&mut self, recorder: SharedRecorder) {
        self.recorder = Some(recorder);
    }

    /// Whether a recorder is attached. Instrumentation points with any
    /// setup cost (string/arg computation) should check this first.
    #[inline]
    pub fn is_attached(&self) -> bool {
        self.recorder.is_some()
    }

    /// Appends `ev` to the attached recorder's ring, if any. Only the
    /// `None` check is inlined into the caller; the lock and record sit
    /// out of line.
    #[inline]
    pub fn emit(&self, ev: TraceEvent) {
        if let Some(recorder) = &self.recorder {
            record(recorder, ev);
        }
    }

    /// Runs `f` on the attached recorder, if any (epoch sampling).
    #[inline]
    pub fn with(&self, f: impl FnOnce(&mut RunRecorder)) {
        if let Some(recorder) = &self.recorder {
            f(&mut recorder.lock().expect("trace recorder lock poisoned"));
        }
    }
}

#[cold]
#[inline(never)]
fn record(recorder: &SharedRecorder, ev: TraceEvent) {
    recorder
        .lock()
        .expect("trace recorder lock poisoned")
        .ring
        .record(ev);
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

    /// Appends `ev`, dropping the oldest event when the ring is full.
    pub fn record(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::EpochCounters;
    use crate::event::{track, Category};

    fn ev(at: Cycle, name: &'static str) -> TraceEvent {
        TraceEvent::instant(track::CTRL, Category::Ctrl, name, at, at * 2)
    }

    #[test]
    fn detached_slot_is_inert() {
        let slot = SinkSlot::default();
        assert!(!slot.is_attached());
        slot.emit(ev(1, "x")); // must not panic
        slot.with(|_| panic!("no recorder is attached"));
        assert!(format!("{slot:?}").contains("attached: false"));
    }

    #[test]
    fn attached_slot_delivers_and_clones_share() {
        let rec = RunRecorder::shared(8, 100);
        let mut slot = SinkSlot::default();
        slot.attach(rec.clone());
        let clone = slot.clone();
        slot.emit(ev(1, "a"));
        clone.emit(ev(2, "b"));
        clone.with(|r| r.epochs.observe_mlp(3));
        assert_eq!(rec.lock().unwrap().ring.len(), 2);
    }

    #[test]
    fn recorder_converts_to_run_trace() {
        let mut rec = RunRecorder::new(1, 10);
        rec.ring.record(ev(1, "a"));
        rec.ring.record(ev(2, "b"));
        let totals = EpochCounters {
            reads: 1,
            ..Default::default()
        };
        rec.epochs.tick(5, totals, 0, 0);
        rec.epochs.finish(25, totals);
        let trace = rec.into_trace("run");
        assert_eq!(trace.label, "run");
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.dropped, 1);
        assert_eq!(trace.epoch_len, 10);
        assert_eq!(trace.epochs.len(), 1);
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
        assert_send::<RunRecorder>();
    }
}
