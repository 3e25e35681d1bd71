//! The trace event model: fixed-size, `Copy` records cheap enough to emit
//! from the simulator's hot paths and store in a bounded ring.
//!
//! The shapes mirror the Chrome `trace_event` phases the exporter targets:
//! strictly-alternating state windows (write drain) use [`EventKind::Begin`]
//! / [`EventKind::End`] pairs; activity that overlaps freely (request
//! service, per-bank commands, refresh) uses self-contained
//! [`EventKind::Complete`] events carrying their own duration; point
//! occurrences (starvation-cap firings, cache misses) are
//! [`EventKind::Instant`]; and gauge samples (queue depths) are
//! [`EventKind::Counter`].
//!
//! Timestamps are memory-clock cycles. The FR-FCFS scheduler back-dates
//! commands to request arrival times, so events reach a sink in *issue*
//! order, not cycle order — consumers (the Chrome exporter) re-sort by
//! timestamp before interpreting nesting.

use crate::Cycle;

/// Which simulator layer emitted an event (the Chrome `cat` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Memory-controller scheduling (queues, drains, request service).
    Ctrl,
    /// Device-level commands (per-bank ACT/PRE/RD/WR lanes, MRS, refresh).
    Dram,
    /// Cache hierarchy (misses, fills, sector promotions).
    Cache,
}

impl Category {
    /// The category label used in exported traces.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Ctrl => "ctrl",
            Category::Dram => "dram",
            Category::Cache => "cache",
        }
    }
}

/// The shape of a [`TraceEvent`] (maps onto Chrome `trace_event` phases).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Opens a state window on a track (Chrome phase `B`).
    Begin,
    /// Closes the most recent open window on the track (Chrome phase `E`).
    End,
    /// A self-contained span with an explicit duration (Chrome phase `X`);
    /// spans on one track may overlap freely.
    Complete,
    /// A point occurrence (Chrome phase `i`).
    Instant,
    /// A gauge sample; the value rides in [`TraceEvent::arg`] (Chrome
    /// phase `C`).
    Counter,
}

/// One traced occurrence. `Copy` and fixed-size by design: emission is a
/// struct store plus ring push, with no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event timestamp in memory-clock cycles.
    pub at: Cycle,
    /// Duration in cycles ([`EventKind::Complete`] only; 0 otherwise).
    pub dur: Cycle,
    /// Track (Chrome `tid`) the event renders on; see [`track`].
    pub track: u32,
    /// Emitting layer.
    pub cat: Category,
    /// Event name (static: instrumentation points name their events).
    pub name: &'static str,
    /// Event shape.
    pub kind: EventKind,
    /// Payload: request id, address, row/column, or counter value.
    pub arg: u64,
}

impl TraceEvent {
    /// A [`EventKind::Begin`] window opener.
    pub fn begin(track: u32, cat: Category, name: &'static str, at: Cycle) -> Self {
        Self {
            at,
            dur: 0,
            track,
            cat,
            name,
            kind: EventKind::Begin,
            arg: 0,
        }
    }

    /// A [`EventKind::End`] window closer.
    pub fn end(track: u32, cat: Category, name: &'static str, at: Cycle) -> Self {
        Self {
            at,
            dur: 0,
            track,
            cat,
            name,
            kind: EventKind::End,
            arg: 0,
        }
    }

    /// A self-contained [`EventKind::Complete`] span.
    pub fn complete(
        track: u32,
        cat: Category,
        name: &'static str,
        at: Cycle,
        dur: Cycle,
        arg: u64,
    ) -> Self {
        Self {
            at,
            dur,
            track,
            cat,
            name,
            kind: EventKind::Complete,
            arg,
        }
    }

    /// A point [`EventKind::Instant`].
    pub fn instant(track: u32, cat: Category, name: &'static str, at: Cycle, arg: u64) -> Self {
        Self {
            at,
            dur: 0,
            track,
            cat,
            name,
            kind: EventKind::Instant,
            arg,
        }
    }

    /// A [`EventKind::Counter`] gauge sample of `value`.
    pub fn counter(track: u32, cat: Category, name: &'static str, at: Cycle, value: u64) -> Self {
        Self {
            at,
            dur: 0,
            track,
            cat,
            name,
            kind: EventKind::Counter,
            arg: value,
        }
    }
}

/// Track (Chrome `tid`) assignment: one lane per logical timeline.
///
/// Fixed small ids for the controller-level lanes, then one lane per rank
/// (refresh/MRS windows) and one per bank (ACT/PRE/RD/WR activity). The
/// encoding is stable so exported traces from different runs line up.
pub mod track {
    /// Controller state windows (write drain) and scheduling instants.
    pub const CTRL: u32 = 0;
    /// Read-queue depth counter lane.
    pub const READQ: u32 = 1;
    /// Write-queue depth counter lane.
    pub const WRITEQ: u32 = 2;
    /// Per-request service spans.
    pub const REQUESTS: u32 = 3;
    /// Cache hierarchy instants.
    pub const CACHE: u32 = 4;
    /// First rank lane; rank `r` renders on `RANK0 + r`.
    pub const RANK0: u32 = 8;
    /// First bank lane; see [`bank`].
    pub const BANK0: u32 = 32;
    /// First per-core provenance lane; see [`core()`]. Sits above the bank
    /// block (DDR4 server geometry tops out at `BANK0 + 63`), leaving room
    /// for denser bank geometries without moving the core lanes.
    pub const CORE0: u32 = 256;

    /// The lane for rank `rank` (refresh windows, MRS mode switches).
    pub fn rank(rank: usize) -> u32 {
        RANK0 + rank as u32
    }

    /// The lane for bank (`rank`, `bank_group`, `bank`). Uses the DDR4
    /// server geometry bound (4 bank groups x 4 banks per rank).
    pub fn bank(rank: usize, bank_group: usize, bank: usize) -> u32 {
        BANK0 + (rank as u32) * 16 + (bank_group as u32) * 4 + bank as u32
    }

    /// The provenance lane for `core`: one timeline per issuing core,
    /// carrying per-kind request-service spans.
    pub fn core(core: u8) -> u32 {
        CORE0 + core as u32
    }

    /// Human-readable lane name (the Chrome `thread_name` metadata).
    pub fn name(track: u32) -> String {
        match track {
            CTRL => "controller".into(),
            READQ => "read-queue".into(),
            WRITEQ => "write-queue".into(),
            REQUESTS => "requests".into(),
            CACHE => "cache".into(),
            t if (RANK0..BANK0).contains(&t) => format!("rank{}", t - RANK0),
            t if (BANK0..CORE0).contains(&t) => {
                let b = t - BANK0;
                format!("r{}bg{}b{}", b / 16, (b % 16) / 4, b % 4)
            }
            t if t >= CORE0 => format!("core{}", t - CORE0),
            t => format!("track{t}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fill_fields() {
        let b = TraceEvent::begin(track::CTRL, Category::Ctrl, "write-drain", 10);
        assert_eq!(b.kind, EventKind::Begin);
        assert_eq!(b.at, 10);
        let x = TraceEvent::complete(track::REQUESTS, Category::Ctrl, "read", 5, 20, 42);
        assert_eq!(x.dur, 20);
        assert_eq!(x.arg, 42);
        let c = TraceEvent::counter(track::READQ, Category::Ctrl, "readq", 7, 3);
        assert_eq!(c.arg, 3);
    }

    #[test]
    fn track_encoding_is_injective_over_server_geometry() {
        let mut seen = std::collections::BTreeSet::new();
        for r in 0..2 {
            assert!(seen.insert(track::rank(r)));
            for bg in 0..4 {
                for b in 0..4 {
                    assert!(seen.insert(track::bank(r, bg, b)));
                }
            }
        }
        for core in 0..=u8::MAX {
            assert!(seen.insert(track::core(core)), "core lane {core} collides");
        }
        for fixed in [
            track::CTRL,
            track::READQ,
            track::WRITEQ,
            track::REQUESTS,
            track::CACHE,
        ] {
            assert!(seen.insert(fixed), "fixed lane {fixed} collides");
        }
    }

    #[test]
    fn track_names_decode() {
        assert_eq!(track::name(track::CTRL), "controller");
        assert_eq!(track::name(track::rank(1)), "rank1");
        assert_eq!(track::name(track::bank(1, 2, 3)), "r1bg2b3");
        assert_eq!(track::name(track::core(0)), "core0");
        assert_eq!(track::name(track::core(3)), "core3");
    }

    #[test]
    fn categories_have_labels() {
        assert_eq!(Category::Ctrl.as_str(), "ctrl");
        assert_eq!(Category::Dram.as_str(), "dram");
        assert_eq!(Category::Cache.as_str(), "cache");
    }
}
