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

    /// Aggregate controller counters (summed over inner levels).
    fn stats(&self) -> ControllerStats;

    /// Per-(core, kind) lanes, telescoping to [`Self::stats`] (merged
    /// over inner levels; refreshes stay aggregate-only).
    fn per_core(&self) -> CoreLanes;

    /// Device command counts (summed over inner levels' devices).
    fn device_stats(&self) -> DeviceStats;

    /// Busy cycles on the CPU-facing data bus.
    fn bus_busy(&self) -> Cycle;

    /// End-to-end request-latency histogram as seen from above this level.
    fn latency_histogram(&self) -> &Histogram;

    /// Read-only slice of [`Self::latency_histogram`].
    fn read_latency_histogram(&self) -> &Histogram;

    /// Write-only slice of [`Self::latency_histogram`].
    fn write_latency_histogram(&self) -> &Histogram;

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

    /// Hybrid-topology counters, when this level is a DRAM-cache front
    /// end ([`crate::hybrid::DramCacheController`]); `None` on flat
    /// levels.
    fn hybrid_summary(&self) -> Option<HybridSummary> {
        None
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

    fn stats(&self) -> ControllerStats {
        *Controller::stats(self)
    }

    fn per_core(&self) -> CoreLanes {
        Controller::per_core(self).clone()
    }

    fn device_stats(&self) -> DeviceStats {
        *Controller::device_stats(self)
    }

    fn bus_busy(&self) -> Cycle {
        self.device().channel().busy_cycles
    }

    fn latency_histogram(&self) -> &Histogram {
        Controller::latency_histogram(self)
    }

    fn read_latency_histogram(&self) -> &Histogram {
        Controller::read_latency_histogram(self)
    }

    fn write_latency_histogram(&self) -> &Histogram {
        Controller::write_latency_histogram(self)
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
