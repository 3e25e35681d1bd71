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
//! part near the anomaly being debugged) is preserved. It also offers a
//! compact binary serialization for storing raw rings outside JSON.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::event::{Category, EventKind, TraceEvent};
use crate::Cycle;

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

/// Magic header of the binary ring serialization.
const BINARY_MAGIC: &[u8; 8] = b"SAMTRC01";
/// Bytes per serialized event record.
const RECORD_BYTES: usize = 8 + 8 + 4 + 1 + 1 + 2 + 8;

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

    /// Serializes the ring into the compact binary form: a magic header, a
    /// name table, then fixed-size little-endian records referencing it.
    pub fn to_binary(&self) -> Vec<u8> {
        let mut names: Vec<&'static str> = Vec::new();
        let mut index_of = std::collections::BTreeMap::new();
        for ev in &self.events {
            index_of.entry(ev.name).or_insert_with(|| {
                names.push(ev.name);
                (names.len() - 1) as u16
            });
        }
        let table = names.join("\n");
        let mut out = Vec::with_capacity(8 + 4 + table.len() + self.events.len() * RECORD_BYTES);
        out.extend_from_slice(BINARY_MAGIC);
        out.extend_from_slice(&(table.len() as u32).to_le_bytes());
        out.extend_from_slice(table.as_bytes());
        for ev in &self.events {
            out.extend_from_slice(&ev.at.to_le_bytes());
            out.extend_from_slice(&ev.dur.to_le_bytes());
            out.extend_from_slice(&ev.track.to_le_bytes());
            out.push(match ev.cat {
                Category::Ctrl => 0,
                Category::Dram => 1,
                Category::Cache => 2,
            });
            out.push(match ev.kind {
                EventKind::Begin => 0,
                EventKind::End => 1,
                EventKind::Complete => 2,
                EventKind::Instant => 3,
                EventKind::Counter => 4,
            });
            out.extend_from_slice(&index_of[ev.name].to_le_bytes());
            out.extend_from_slice(&ev.arg.to_le_bytes());
        }
        out
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

/// A [`TraceEvent`] decoded from the binary form: names come back as owned
/// strings (the static-name interning cannot survive serialization).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedEvent {
    /// Event timestamp in memory cycles.
    pub at: Cycle,
    /// Duration (Complete events only).
    pub dur: Cycle,
    /// Track id.
    pub track: u32,
    /// Emitting layer.
    pub cat: Category,
    /// Event name.
    pub name: String,
    /// Event shape.
    pub kind: EventKind,
    /// Payload.
    pub arg: u64,
}

/// Decodes a binary ring produced by [`RingRecorder::to_binary`].
///
/// # Errors
///
/// Returns a description of the first structural problem: bad magic,
/// truncated name table or records, or out-of-range tags.
pub fn decode_binary(bytes: &[u8]) -> Result<Vec<DecodedEvent>, String> {
    if bytes.len() < 12 || &bytes[..8] != BINARY_MAGIC {
        return Err("missing SAMTRC01 magic header".into());
    }
    let table_len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let records_at = 12 + table_len;
    if bytes.len() < records_at {
        return Err("truncated name table".into());
    }
    let table = std::str::from_utf8(&bytes[12..records_at])
        .map_err(|e| format!("name table is not UTF-8: {e}"))?;
    let names: Vec<&str> = if table.is_empty() {
        Vec::new()
    } else {
        table.split('\n').collect()
    };
    let body = &bytes[records_at..];
    if !body.len().is_multiple_of(RECORD_BYTES) {
        return Err(format!(
            "record section is {} bytes, not a multiple of {RECORD_BYTES}",
            body.len()
        ));
    }
    let mut out = Vec::with_capacity(body.len() / RECORD_BYTES);
    for rec in body.chunks_exact(RECORD_BYTES) {
        let at = u64::from_le_bytes(rec[0..8].try_into().expect("8 bytes"));
        let dur = u64::from_le_bytes(rec[8..16].try_into().expect("8 bytes"));
        let track = u32::from_le_bytes(rec[16..20].try_into().expect("4 bytes"));
        let cat = match rec[20] {
            0 => Category::Ctrl,
            1 => Category::Dram,
            2 => Category::Cache,
            t => return Err(format!("unknown category tag {t}")),
        };
        let kind = match rec[21] {
            0 => EventKind::Begin,
            1 => EventKind::End,
            2 => EventKind::Complete,
            3 => EventKind::Instant,
            4 => EventKind::Counter,
            t => return Err(format!("unknown kind tag {t}")),
        };
        let name_idx = u16::from_le_bytes(rec[22..24].try_into().expect("2 bytes")) as usize;
        let name = names
            .get(name_idx)
            .ok_or_else(|| format!("name index {name_idx} out of range"))?
            .to_string();
        let arg = u64::from_le_bytes(rec[24..32].try_into().expect("8 bytes"));
        out.push(DecodedEvent {
            at,
            dur,
            track,
            cat,
            name,
            kind,
            arg,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::track;

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
    fn binary_round_trip() {
        let mut r = RingRecorder::new(16);
        r.record(TraceEvent::begin(
            track::CTRL,
            Category::Ctrl,
            "write-drain",
            10,
        ));
        r.record(TraceEvent::complete(
            track::bank(0, 1, 2),
            Category::Dram,
            "ACT",
            11,
            17,
            99,
        ));
        r.record(TraceEvent::end(
            track::CTRL,
            Category::Ctrl,
            "write-drain",
            40,
        ));
        r.record(TraceEvent::counter(
            track::READQ,
            Category::Ctrl,
            "readq",
            41,
            7,
        ));
        r.record(TraceEvent::instant(
            track::CACHE,
            Category::Cache,
            "miss",
            42,
            0xF00,
        ));
        let bytes = r.to_binary();
        let decoded = decode_binary(&bytes).expect("round trip");
        assert_eq!(decoded.len(), 5);
        assert_eq!(decoded[0].name, "write-drain");
        assert_eq!(decoded[0].kind, EventKind::Begin);
        assert_eq!(decoded[1].dur, 17);
        assert_eq!(decoded[1].track, track::bank(0, 1, 2));
        assert_eq!(decoded[1].cat, Category::Dram);
        assert_eq!(decoded[3].arg, 7);
        assert_eq!(decoded[4].name, "miss");
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(decode_binary(b"short").is_err());
        assert!(decode_binary(b"WRONGMAG\0\0\0\0").is_err());
        let mut bytes = RingRecorder::new(4).to_binary();
        bytes.push(0); // stray byte: not a whole record
        assert!(decode_binary(&bytes).is_err());
    }

    #[test]
    fn empty_ring_serializes() {
        let r = RingRecorder::new(4);
        assert!(r.is_empty());
        let decoded = decode_binary(&r.to_binary()).expect("empty ok");
        assert!(decoded.is_empty());
    }

    #[test]
    fn sink_slot_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SinkSlot>();
        assert_send::<RingRecorder>();
    }
}
