//! Cycle-resolved tracing and epoch statistics for the SAM simulator.
//!
//! End-of-run aggregates (the `results/<bin>.json` metrics) say *how much*
//! happened; debugging a wrong speedup needs to know *when*. This crate
//! provides the two time-resolved views the rest of the workspace feeds:
//!
//! 1. **Event tracing** ([`event`], [`sink`], [`chrome`]): instrumentation
//!    points in the controller and cache hierarchy emit
//!    [`event::TraceEvent`]s into the run's [`sink::RunRecorder`], whose
//!    bounded flight-recorder ring keeps the most recent events. The
//!    controller also draws every DRAM command it issues on a per-bank
//!    lane. [`chrome::chrome_trace`] exports recorded runs as Chrome
//!    `trace_event` JSON viewable in Perfetto or `chrome://tracing`.
//! 2. **Epoch statistics** ([`epoch`]): monotonic counters sampled at
//!    completion times are folded into fixed-length epochs whose per-epoch
//!    deltas sum *exactly* to the end-of-run totals, giving row-hit rate,
//!    queue depth, bus utilization, and MLP over time.
//!
//! One recorder per run holds both views, and every layer reaches it
//! through the same hook: an `Option<Arc<Mutex<..>>>` [`sink::SinkSlot`].
//! Detached (the default) it costs one pointer compare per
//! instrumentation point, so production runs are unaffected — fig12
//! output is byte-identical with tracing off.
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
pub use epoch::{EpochCounters, EpochRecorder, EpochRow};
pub use event::{Category, EventKind, TraceEvent};
pub use sink::{RingRecorder, RunRecorder, SharedRecorder, SinkSlot};
