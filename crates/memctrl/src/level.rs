//! The composable memory-level interface (DESIGN.md §16).
//!
//! A [`MemLevel`] is one stage of a memory hierarchy as seen from above:
//! it admits tagged requests, delivers completions, exposes the idle
//! jump (`advance_to`, DESIGN.md §13), and passes observability
//! attachments through to whatever devices it drives. The flat FR-FCFS
//! [`Controller`] is the base implementation; composite topologies (the
//! DRAM-cache front end in [`crate::hybrid`]) implement the same trait
//! by delegating to inner levels, so the system engine drives every
//! topology through one surface.
//!
//! ## Idle-jump contract
//!
//! The engine is decision-driven: it calls `schedule_one`, and each
//! controller catches up due refreshes lazily before serving a request.
//! The only time-based work a level owns is rank refresh, tracked once
//! per rank in the controller's `next_refresh` deadline. `advance_to`
//! walks those deadlines in order up to a target cycle, servicing each
//! at its original due cycle; composite levels forward it to every
//! inner level and keep no deadlines of their own. Skipping
//! `advance_to` changes only *when* refreshes are issued, never which
//! commands are issued or at what cycles.
//!
//! ## Reporting contract
//!
//! A level hands over its counters once, at the end of a run:
//! [`MemLevel::report`] returns one [`LevelReport`] holding the
//! aggregate [`ControllerStats`], the per-(core, kind) lanes, the device
//! command counts, the CPU-facing bus's busy cycles, the read and write
//! latency histograms and, on a DRAM-cache front end, its
//! [`HybridSummary`]. A composite level sums its inner levels' counters
//! with their `accumulate` methods and reports its own external
//! latencies; the engine builds its run result from the report alone.
//!
//! ## Observability contract
//!
//! Attachments are forwarded, never duplicated: the run's trace recorder
//! (events, bank lanes and epochs) goes to the level's *front*
//! (CPU-facing) controller so event streams keep one clock domain, while
//! command observers (the verification layer's tap) are per-device
//! — [`MemLevel::attach_observer`] taps the front device and
//! [`MemLevel::attach_backing_observer`] taps the backing device of a
//! composite level (a no-op on flat levels, which have none).

use sam_dram::device::DeviceStats;
use sam_dram::Cycle;
use sam_util::hist::Histogram;

use crate::controller::{Controller, ControllerStats, CoreLanes, QueueFull};
use crate::hybrid::HybridSummary;
use crate::request::{Completion, MemRequest};

/// A level's end-of-run counters, in one record (see
/// [`MemLevel::report`]).
#[derive(Debug, Clone)]
pub struct LevelReport {
    /// Aggregate controller counters, summed over inner levels.
    pub ctrl: ControllerStats,
    /// Per-(core, kind) lanes, merged over inner levels; they add up to
    /// `ctrl` but for its `refreshes`.
    pub per_core: CoreLanes,
    /// Device command counts, summed over inner levels' devices.
    pub device: DeviceStats,
    /// Busy cycles on the CPU-facing data bus.
    pub bus_busy: Cycle,
    /// End-to-end latency of completed reads, as seen from above.
    pub read_latency: Histogram,
    /// End-to-end latency of completed writes, as seen from above.
    pub write_latency: Histogram,
    /// Hybrid-topology counters, when the level is a DRAM-cache front
    /// end ([`crate::hybrid::DramCacheController`]); `None` on flat
    /// levels.
    pub hybrid: Option<HybridSummary>,
}

/// One composable stage of the memory hierarchy (see the module docs).
///
/// `Send` is a supertrait so a boxed level can ride the bench harness's
/// sweep workers, same as the concrete controller always has.
pub trait MemLevel: Send {
    /// Whether a request of the given direction would be admitted now.
    fn can_accept(&self, is_write: bool) -> bool;

    /// Admits `req` at `arrival` (memory cycles).
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the level's admission queue for this direction
    /// is at capacity; the caller retries after a completion frees space.
    fn enqueue(&mut self, req: MemRequest, arrival: Cycle) -> Result<(), QueueFull>;

    /// Schedules and fully executes work until one *externally visible*
    /// completion is produced, or `None` when no queued work remains.
    fn schedule_one(&mut self, now: Cycle) -> Option<Completion>;

    /// The level's internal clock (last command issue time).
    fn clock(&self) -> Cycle;

    /// Number of admitted-but-unfinished requests (including any a
    /// composite level holds internally).
    fn queued(&self) -> usize;

    /// Jumps the level's notion of time to `target`, servicing stored
    /// deadlines (refresh) at their original due cycles on the way.
    fn advance_to(&mut self, target: Cycle);

    /// Everything the level counted over the run, handed over once at
    /// its end (inner levels' counters summed).
    fn report(&self) -> LevelReport;

    /// Attaches the run's trace recorder to the front (CPU-facing)
    /// controller.
    fn attach_trace(&mut self, recorder: sam_trace::SharedRecorder);

    /// Flushes the final partial epoch at end of run.
    fn finish_epochs(&mut self, now: Cycle);

    /// Attaches a command observer to the front device.
    fn attach_observer(&mut self, observer: sam_dram::observe::SharedObserver);

    /// Attaches a command observer to the backing device of a composite
    /// level. Flat levels have no backing device and ignore the call.
    fn attach_backing_observer(&mut self, observer: sam_dram::observe::SharedObserver) {
        let _ = observer;
    }
}

impl MemLevel for Controller {
    fn can_accept(&self, is_write: bool) -> bool {
        Controller::can_accept(self, is_write)
    }

    fn enqueue(&mut self, req: MemRequest, arrival: Cycle) -> Result<(), QueueFull> {
        Controller::enqueue(self, req, arrival)
    }

    fn schedule_one(&mut self, now: Cycle) -> Option<Completion> {
        Controller::schedule_one(self, now)
    }

    fn clock(&self) -> Cycle {
        Controller::clock(self)
    }

    fn queued(&self) -> usize {
        Controller::queued(self)
    }

    fn advance_to(&mut self, target: Cycle) {
        Controller::advance_to(self, target);
    }

    fn report(&self) -> LevelReport {
        LevelReport {
            ctrl: *self.stats(),
            per_core: self.per_core().clone(),
            device: *self.device_stats(),
            bus_busy: self.device().channel().busy_cycles,
            read_latency: self.read_latency_histogram().clone(),
            write_latency: self.write_latency_histogram().clone(),
            hybrid: None,
        }
    }

    fn attach_trace(&mut self, recorder: sam_trace::SharedRecorder) {
        Controller::attach_trace(self, recorder);
    }

    fn finish_epochs(&mut self, now: Cycle) {
        Controller::finish_epochs(self, now);
    }

    fn attach_observer(&mut self, observer: sam_dram::observe::SharedObserver) {
        Controller::attach_observer(self, observer);
    }
}
