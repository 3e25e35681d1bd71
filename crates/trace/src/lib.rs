//! Cycle-resolved tracing and epoch statistics for the SAM simulator.
//!
//! End-of-run aggregates (the `results/<bin>.json` metrics) say *how much*
//! happened; debugging a wrong speedup needs to know *when*. This crate
//! provides the two time-resolved views the rest of the workspace feeds:
//!
//! 1. **Event tracing** ([`event`], [`sink`], [`chrome`]): instrumentation
//!    points in the controller, device, and cache hierarchy emit
//!    [`event::TraceEvent`]s into an attached [`sink::TraceSink`]. The
//!    [`sink::RingRecorder`] keeps the most recent events in a bounded
//!    flight-recorder ring, and
//!    [`chrome::chrome_trace`] exports recorded runs as Chrome
//!    `trace_event` JSON viewable in Perfetto or `chrome://tracing`.
//! 2. **Epoch statistics** ([`epoch`]): monotonic counters sampled at
//!    completion times are folded into fixed-length epochs whose per-epoch
//!    deltas sum *exactly* to the end-of-run totals, giving row-hit rate,
//!    queue depth, bus utilization, and MLP over time.
//!
//! Hooks are plain `Option<Arc<Mutex<..>>>` slots: detached (the default)
//! they cost one pointer compare per instrumentation point, so production
//! runs are unaffected — fig12 output is byte-identical with tracing off.
//!
//! The crate deliberately depends only on `sam-util` (for the hand-rolled
//! JSON writer), so every simulator layer can feed it without cycles.

#![warn(missing_docs)]

pub mod chrome;
pub mod epoch;
pub mod event;
pub mod sink;

/// Memory-clock cycle count (mirrors `sam_dram::Cycle`; redeclared here so
/// this crate stays dependency-light).
pub type Cycle = u64;

pub use chrome::{chrome_trace, lint_chrome_trace, RunTrace, TraceSummary};
pub use epoch::{EpochCounters, EpochRecorder, EpochRow, SharedEpochs};
pub use event::{Category, EventKind, TraceEvent};
pub use sink::{RingRecorder, SharedSink, SinkSlot, TraceSink};
