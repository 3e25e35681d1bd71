//! The FR-FCFS open-page memory controller (Table 2).
//!
//! Scheduling model: among all queued requests, the controller estimates the
//! earliest cycle each could perform its column access (row hits need no
//! PRE/ACT and thus sort first — the "first-ready" half of FR-FCFS), breaking
//! ties by arrival order ("FCFS"). The chosen request's command sequence
//! (optional MRS mode switch, PRE on conflict, ACT, then RD/WR) is issued at
//! the earliest legal cycles against the device's timing state machines.
//!
//! Pure first-ready ordering can starve: an unbroken stream of row-hit
//! arrivals to an open row keeps outrunning an older request that needs a
//! PRE/ACT. The scheduler therefore carries a starvation cap
//! ([`ControllerConfig::starvation_cap`]): once the oldest queued request
//! has waited longer than the cap, it is scheduled next unconditionally,
//! bounding worst-case queueing delay at the cost of one row switch.
//!
//! Writes collect in a 32-entry write queue and drain in batches between the
//! high and low watermarks, as in real controllers; reads otherwise have
//! priority. Refresh is issued per rank every tREFI.

use sam_dram::command::Command;
use sam_dram::device::{DeviceConfig, DeviceStats, MemoryDevice};
use sam_dram::{Cycle, DeviceError};

use crate::mapping::{AddressMapper, Location};
use crate::request::{Completion, MemRequest, Provenance, ReqKind};
use crate::sched;
use sam_trace::event::track;
use sam_trace::{Category, EpochCounters, SharedRecorder, SinkSlot, TraceEvent};
use sam_util::hist::Histogram;

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Device geometry and timing.
    pub device: DeviceConfig,
    /// Write queue capacity (Table 2: 32).
    pub write_queue_capacity: usize,
    /// Start draining writes at this occupancy.
    pub write_high_watermark: usize,
    /// Stop draining at this occupancy.
    pub write_low_watermark: usize,
    /// Read queue capacity.
    pub read_queue_capacity: usize,
    /// FR-FCFS starvation cap in memory cycles: once the oldest queued
    /// request has waited longer than this, it wins the next scheduling
    /// decision regardless of row-buffer state. Prevents an unbroken
    /// stream of younger row hits from starving an older row miss.
    pub starvation_cap: Cycle,
    /// Use the naive whole-queue scan ([`sched::select_reference`])
    /// instead of the queue's persistent group index
    /// ([`sched::GroupQueue::select`]) for every scheduling decision.
    /// A differential-testing knob, not a policy change: the two
    /// implementations are exact equivalents, and the `sam-stress`
    /// matrix replays streams through both to prove it.
    pub reference_scheduler: bool,
}

impl ControllerConfig {
    /// Table 2 defaults over the given device.
    pub fn with_device(device: DeviceConfig) -> Self {
        Self {
            device,
            write_queue_capacity: 32,
            write_high_watermark: 28,
            write_low_watermark: 8,
            read_queue_capacity: 96,
            starvation_cap: 4096,
            reference_scheduler: false,
        }
    }

    /// Whether periodic refresh is issued: DRAM yes, RRAM (no tREFI) no.
    pub fn refresh_enabled(&self) -> bool {
        self.device.timing.needs_refresh()
    }

    /// Checks the write-drain hysteresis rule `lo < hi <= write queue
    /// depth`.
    ///
    /// # Errors
    ///
    /// Returns a description of the broken constraint.
    pub fn check_watermarks(&self) -> Result<(), String> {
        let (hi, lo) = (self.write_high_watermark, self.write_low_watermark);
        let depth = self.write_queue_capacity;
        if lo >= hi || hi > depth {
            return Err(format!("lo={lo} hi={hi} (need lo < hi <= {depth})"));
        }
        Ok(())
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self::with_device(DeviceConfig::ddr4_server())
    }
}

/// Overrides of the three scheduler knobs an experiment varies: the
/// starvation cap and the write-drain watermark pair (the
/// `--starvation-cap`, `--drain-hi` and `--drain-lo` flags). `None` keeps
/// the controller's default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedOverrides {
    /// Starvation cap in memory cycles (`Some(0)` forces pure FCFS).
    pub starvation_cap: Option<Cycle>,
    /// Write-drain high watermark.
    pub drain_hi: Option<usize>,
    /// Write-drain low watermark.
    pub drain_lo: Option<usize>,
}

impl SchedOverrides {
    /// `cfg` with every given override applied. The result may break the
    /// watermark rule; see [`ControllerConfig::check_watermarks`].
    pub fn apply(self, cfg: ControllerConfig) -> ControllerConfig {
        ControllerConfig {
            starvation_cap: self.starvation_cap.unwrap_or(cfg.starvation_cap),
            write_high_watermark: self.drain_hi.unwrap_or(cfg.write_high_watermark),
            write_low_watermark: self.drain_lo.unwrap_or(cfg.write_low_watermark),
            ..cfg
        }
    }
}

/// Why an `enqueue` was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueueFull {
    /// Whether it was the write queue (else the read queue).
    pub write_queue: bool,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} queue full",
            if self.write_queue { "write" } else { "read" }
        )
    }
}

impl std::error::Error for QueueFull {}

/// Row-buffer outcome counters and latency accounting.
///
/// The one record the controller counts into: the aggregate and every
/// per-(core, kind) lane of [`CoreLanes`] are values of this type. A
/// lane's `refreshes` stays 0, because refresh is rank-level background
/// work that no request owns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Column accesses that hit the open row.
    pub row_hits: u64,
    /// Column accesses to a closed bank.
    pub row_misses: u64,
    /// Column accesses that required closing another row first.
    pub row_conflicts: u64,
    /// Completed reads (regular + stride).
    pub reads_done: u64,
    /// Completed writes (regular + stride).
    pub writes_done: u64,
    /// Sum over completions of (finish - arrival), for average latency.
    pub total_latency: u64,
    /// Refreshes issued.
    pub refreshes: u64,
    /// Scheduling decisions forced by the starvation cap: the oldest queued
    /// request had waited longer than [`ControllerConfig::starvation_cap`]
    /// and was served regardless of row-buffer state.
    pub starvation_forced: u64,
}

impl ControllerStats {
    /// Average request latency in cycles, if anything completed.
    pub fn avg_latency(&self) -> Option<f64> {
        let n = self.reads_done + self.writes_done;
        (n > 0).then(|| self.total_latency as f64 / n as f64)
    }

    /// Row-hit rate over all column accesses.
    pub fn row_hit_rate(&self) -> Option<f64> {
        let n = self.row_hits + self.row_misses + self.row_conflicts;
        (n > 0).then(|| self.row_hits as f64 / n as f64)
    }

    /// Adds `other` field-wise.
    pub fn accumulate(&mut self, other: &ControllerStats) {
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
        self.reads_done += other.reads_done;
        self.writes_done += other.writes_done;
        self.total_latency += other.total_latency;
        self.refreshes += other.refreshes;
        self.starvation_forced += other.starvation_forced;
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == ControllerStats::default()
    }
}

/// Per-core × per-kind [`ControllerStats`] lanes. The controller applies
/// every per-request count to the aggregate and to the request's lane
/// through one function, so summing every lane reproduces the aggregate
/// exactly, but for `refreshes`, which no request owns and every lane
/// leaves at 0. The lane table grows on demand to the highest core id
/// observed, so untagged streams cost one 5-lane row for core 0 and
/// nothing else.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreLanes {
    lanes: Vec<[ControllerStats; ReqKind::COUNT]>,
}

impl CoreLanes {
    fn lane_mut(&mut self, prov: Provenance) -> &mut ControllerStats {
        let core = prov.core as usize;
        if core >= self.lanes.len() {
            self.lanes
                .resize(core + 1, [ControllerStats::default(); ReqKind::COUNT]);
        }
        &mut self.lanes[core][prov.kind.index()]
    }

    /// Adds `other` lane-wise, growing to its core count.
    pub(crate) fn accumulate(&mut self, other: &CoreLanes) {
        if other.lanes.len() > self.lanes.len() {
            self.lanes.resize(
                other.lanes.len(),
                [ControllerStats::default(); ReqKind::COUNT],
            );
        }
        for (row, theirs) in self.lanes.iter_mut().zip(&other.lanes) {
            for (lane, their) in row.iter_mut().zip(theirs) {
                lane.accumulate(their);
            }
        }
    }

    /// Number of core rows (highest observed core id + 1; 0 when idle).
    pub fn cores(&self) -> usize {
        self.lanes.len()
    }

    /// The lane for (`core`, `kind`); all-zero for cores never observed.
    pub fn lane(&self, core: u8, kind: ReqKind) -> ControllerStats {
        self.lanes
            .get(core as usize)
            .map_or_else(ControllerStats::default, |row| row[kind.index()])
    }

    /// Sum of all kinds for one core.
    pub fn core_total(&self, core: u8) -> ControllerStats {
        let mut total = ControllerStats::default();
        if let Some(row) = self.lanes.get(core as usize) {
            for lane in row {
                total.accumulate(lane);
            }
        }
        total
    }

    /// Sum over every (core, kind) lane: the aggregate
    /// [`ControllerStats`] with `refreshes` at 0.
    pub fn total(&self) -> ControllerStats {
        let mut total = ControllerStats::default();
        for row in &self.lanes {
            for lane in row {
                total.accumulate(lane);
            }
        }
        total
    }
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    req: MemRequest,
    loc: Location,
    arrival: Cycle,
}

impl Pending {
    /// What the scheduling policy may see of this request.
    fn view(&self) -> sched::SchedView {
        sched::SchedView {
            arrival: self.arrival,
            loc: self.loc,
            mode: self.req.required_mode(),
        }
    }
}

/// The memory controller: queues, FR-FCFS scheduler, refresh state, and the
/// owned [`MemoryDevice`].
#[derive(Debug, Clone)]
pub struct Controller {
    cfg: ControllerConfig,
    device: MemoryDevice,
    mapper: AddressMapper,
    readq: sched::GroupQueue<Pending>,
    writeq: sched::GroupQueue<Pending>,
    draining_writes: bool,
    next_refresh: Vec<Cycle>,
    clock: Cycle,
    stats: ControllerStats,
    lanes: CoreLanes,
    read_latency_hist: Histogram,
    write_latency_hist: Histogram,
    trace: SinkSlot,
}

impl Controller {
    /// Creates an idle controller.
    pub fn new(cfg: ControllerConfig) -> Self {
        let device = MemoryDevice::new(cfg.device);
        let mapper = AddressMapper::new(&cfg.device);
        let refi = cfg.device.timing.refi;
        let next_refresh: Vec<Cycle> = (0..cfg.device.ranks)
            .map(|r| {
                if cfg.refresh_enabled() {
                    refi + (r as u64 * refi / cfg.device.ranks as u64)
                } else {
                    u64::MAX
                }
            })
            .collect();
        Self {
            cfg,
            device,
            mapper,
            readq: sched::GroupQueue::new(),
            writeq: sched::GroupQueue::new(),
            draining_writes: false,
            next_refresh,
            clock: 0,
            stats: ControllerStats::default(),
            lanes: CoreLanes::default(),
            read_latency_hist: Histogram::new(),
            write_latency_hist: Histogram::new(),
            trace: SinkSlot::default(),
        }
    }

    /// Latency histogram (arrival to last data beat) over completed
    /// reads only.
    pub fn read_latency_histogram(&self) -> &Histogram {
        &self.read_latency_hist
    }

    /// Latency histogram over completed writes only.
    pub fn write_latency_histogram(&self) -> &Histogram {
        &self.write_latency_hist
    }

    /// Controller statistics.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Per-core × per-kind stat lanes (telescope to [`Self::stats`]).
    pub fn per_core(&self) -> &CoreLanes {
        &self.lanes
    }

    /// Device command counters (input of the power model).
    pub fn device_stats(&self) -> &DeviceStats {
        self.device.stats()
    }

    /// The owned device (e.g. for bus-utilization stats).
    pub fn device(&self) -> &MemoryDevice {
        &self.device
    }

    /// Attaches a command observer to the underlying device; every accepted
    /// command is reported to it (see [`sam_dram::observe`]).
    pub fn attach_observer(&mut self, observer: sam_dram::observe::SharedObserver) {
        self.device.attach_observer(observer);
    }

    /// Attaches the run's trace recorder. Scheduling decisions (enqueues,
    /// write-drain windows, starvation firings, refresh windows,
    /// per-request service spans) and every accepted DRAM command (on its
    /// bank lane) are recorded as [`TraceEvent`]s, and cumulative counters
    /// are sampled at every completion into the recorder's epoch rows.
    /// Purely observational: the schedule is identical with or without a
    /// recorder.
    pub fn attach_trace(&mut self, recorder: SharedRecorder) {
        self.trace.attach(recorder);
    }

    /// Whether a trace recorder is attached.
    pub fn trace_attached(&self) -> bool {
        self.trace.is_attached()
    }

    /// Closes the final (partial) epoch at `now`. Call once at end of run;
    /// harmless when no recorder is attached.
    pub fn finish_epochs(&mut self, now: Cycle) {
        self.trace.with(|rec| {
            rec.epochs
                .finish(now.max(self.clock), self.epoch_snapshot());
        });
    }

    /// Cumulative counter snapshot across controller, device, and data bus.
    fn epoch_snapshot(&self) -> EpochCounters {
        let s = &self.stats;
        let d = self.device.stats();
        EpochCounters {
            reads: s.reads_done,
            writes: s.writes_done,
            row_hits: s.row_hits,
            row_misses: s.row_misses,
            row_conflicts: s.row_conflicts,
            refreshes: s.refreshes,
            starved: s.starvation_forced,
            latency: s.total_latency,
            acts: d.acts,
            pres: d.pres,
            mode_switches: d.mode_switches,
            bus_busy: self.device.channel().busy_cycles,
        }
    }

    /// Samples cumulative counters into the recorder's epochs at `now`.
    pub(super) fn note_epoch(&self, now: Cycle) {
        self.trace.with(|rec| {
            rec.epochs.tick(
                now,
                self.epoch_snapshot(),
                self.readq.len() as u64,
                self.writeq.len() as u64,
            );
        });
    }

    /// The address mapper in use.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Internal scheduler clock (last command issue time).
    pub fn clock(&self) -> Cycle {
        self.clock
    }

    /// Number of queued requests (reads + writes).
    pub fn queued(&self) -> usize {
        self.readq.len() + self.writeq.len()
    }

    /// The active configuration (after any CLI overrides).
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }
}

mod drain;
mod queues;
mod refresh;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::StrideSpec;
    use sam_dram::timing::TimingParams;
    use sam_trace::RunRecorder;
    use std::sync::Arc;

    /// The events `rec` holds, once the controller that wrote them is gone.
    fn events_of(rec: SharedRecorder) -> Vec<TraceEvent> {
        Arc::try_unwrap(rec)
            .expect("sole owner")
            .into_inner()
            .unwrap()
            .ring
            .into_events()
            .0
    }

    fn ctrl() -> Controller {
        Controller::new(ControllerConfig::default())
    }

    fn t() -> TimingParams {
        TimingParams::ddr4_2400()
    }

    #[test]
    fn single_read_latency_is_rcd_plus_cl_plus_burst() {
        let mut c = ctrl();
        c.enqueue(MemRequest::read(1, 0), 0).unwrap();
        let done = c.drain(0);
        assert_eq!(done.len(), 1);
        let t = t();
        assert_eq!(done[0].finish, t.rcd + t.cl + t.burst);
        assert!(!done[0].row_hit);
        assert_eq!(c.stats().row_misses, 1);
    }

    #[test]
    fn same_row_requests_hit() {
        let mut c = ctrl();
        c.enqueue(MemRequest::read(1, 0), 0).unwrap();
        c.enqueue(MemRequest::read(2, 64), 0).unwrap();
        c.enqueue(MemRequest::read(3, 128), 0).unwrap();
        let done = c.drain(0);
        assert_eq!(done.len(), 3);
        assert_eq!(c.stats().row_hits, 2);
        assert_eq!(c.stats().row_misses, 1);
        // Streaming reads pipeline at tCCD_L (same bank group): gaps of
        // ccd_l between column commands.
        let t = t();
        assert_eq!(done[1].issue - done[0].issue, t.ccd_l);
    }

    #[test]
    fn frfcfs_prefers_row_hit_over_older_conflict() {
        let mut c = ctrl();
        // First open row 0 (addr 0)..
        c.enqueue(MemRequest::read(1, 0), 0).unwrap();
        let _ = c.schedule_one(0).unwrap();
        // ..then queue an older conflicting request (row 1 of the same
        // physical bank: +256KB moves to row 1, and the +8KB bank-field
        // increment cancels the XOR permutation) and a newer row hit.
        let conflict_addr = 256 * 1024 + 8 * 1024;
        c.enqueue(MemRequest::read(2, conflict_addr), 1).unwrap();
        c.enqueue(MemRequest::read(3, 64), 2).unwrap();
        let first = c.schedule_one(0).unwrap();
        assert_eq!(first.id, 3, "row hit scheduled before older conflict");
        assert!(first.row_hit);
        let second = c.schedule_one(0).unwrap();
        assert_eq!(second.id, 2);
        assert_eq!(c.stats().row_conflicts, 1);
    }

    /// The fixed starvation bug: an unbroken stream of younger row hits
    /// used to outrank an older row-conflict read forever. With the cap,
    /// the old request is forced once its wait exceeds the threshold.
    #[test]
    fn starvation_cap_forces_oldest_row_miss() {
        let run = |cap: u64| -> Option<u64> {
            let cfg = ControllerConfig {
                starvation_cap: cap,
                ..Default::default()
            };
            let mut c = Controller::new(cfg);
            // Open row 0 of bank 0.
            c.enqueue(MemRequest::read(1, 0), 0).unwrap();
            let first = c.schedule_one(0).unwrap();
            // An old request that conflicts with the open row (row 1 of the
            // same physical bank, as in frfcfs_prefers_row_hit_over_older_conflict).
            let conflict_addr = 256 * 1024 + 8 * 1024;
            c.enqueue(MemRequest::read(2, conflict_addr), 1).unwrap();
            // Unbroken row-hit stream: keep exactly one younger hit queued.
            let mut now = first.finish;
            for i in 0u64..200 {
                let col = 1 + (i % 120);
                c.enqueue(MemRequest::read(1000 + i, col * 64), now)
                    .unwrap();
                let done = c.schedule_one(now).unwrap();
                now = now.max(done.finish);
                if done.id == 2 {
                    return Some(now);
                }
            }
            None
        };
        // Without a cap the conflict request starves for the whole stream.
        assert_eq!(run(u64::MAX), None, "row hits starve the conflict forever");
        // With the cap it is served shortly after its wait crosses the cap.
        let served_at = run(500).expect("starvation cap must force the old request");
        assert!(
            served_at < 1200,
            "forced request served far too late: {served_at}"
        );
    }

    /// Watermark hysteresis: a drain that starts at the high watermark must
    /// continue down to the low watermark (not stop as soon as it dips
    /// below high), and reads regain priority afterwards.
    #[test]
    fn write_drain_hysteresis_runs_high_to_low_watermark() {
        let mut c = ctrl(); // high = 28, low = 8 (Table 2 defaults)
        for i in 0..28 {
            c.enqueue(MemRequest::write(i, i * 64), 0).unwrap();
        }
        c.enqueue(MemRequest::read(100, 0x100000), 0).unwrap();
        let mut writes_before_read = 0;
        loop {
            let done = c.schedule_one(0).expect("requests queued");
            if done.id == 100 {
                break;
            }
            writes_before_read += 1;
            assert!(writes_before_read <= 20, "drain overshot the low watermark");
        }
        assert_eq!(
            writes_before_read, 20,
            "drain must continue from high (28) to low (8) watermark"
        );
        // The remaining 8 writes complete once the read queue is empty.
        assert_eq!(c.drain(0).len(), 8);
        assert_eq!(c.stats().writes_done, 28);
        assert_eq!(c.stats().reads_done, 1);
    }

    #[test]
    fn read_and_write_latency_histograms_are_split() {
        let mut c = ctrl();
        c.enqueue(MemRequest::read(1, 0), 0).unwrap();
        c.enqueue(MemRequest::read(2, 64), 0).unwrap();
        c.enqueue(MemRequest::write(3, 128), 0).unwrap();
        let _ = c.drain(0);
        assert_eq!(c.read_latency_histogram().count(), 2);
        assert_eq!(c.write_latency_histogram().count(), 1);
        let s = c.stats();
        assert_eq!(c.read_latency_histogram().count(), s.reads_done);
        assert_eq!(c.write_latency_histogram().count(), s.writes_done);
    }

    /// The sweep runner builds controllers inside worker threads; the run
    /// path must stay `Send` (observer hooks use `Arc<Mutex<..>>`).
    #[test]
    fn controller_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Controller>();
    }

    #[test]
    fn write_queue_capacity_enforced() {
        let mut c = ctrl();
        for i in 0..32 {
            c.enqueue(MemRequest::write(i, i * 64), 0).unwrap();
        }
        assert_eq!(
            c.enqueue(MemRequest::write(99, 0), 0),
            Err(QueueFull { write_queue: true })
        );
        assert!(c.can_accept(false));
        assert!(!c.can_accept(true));
    }

    #[test]
    fn reads_prioritized_until_write_watermark() {
        let mut c = ctrl();
        // 10 writes (below high watermark) + 1 read: read goes first.
        for i in 0..10 {
            c.enqueue(MemRequest::write(i, i * 64), 0).unwrap();
        }
        c.enqueue(MemRequest::read(100, 0x100000), 0).unwrap();
        let first = c.schedule_one(0).unwrap();
        assert_eq!(first.id, 100);
    }

    #[test]
    fn write_drain_kicks_in_at_high_watermark() {
        let mut c = ctrl();
        for i in 0..28 {
            c.enqueue(MemRequest::write(i, i * 64), 0).unwrap();
        }
        c.enqueue(MemRequest::read(100, 0x100000), 0).unwrap();
        let first = c.schedule_one(0).unwrap();
        assert_ne!(first.id, 100, "writes drain once above the high watermark");
    }

    #[test]
    fn stride_request_switches_mode_once() {
        let mut c = ctrl();
        let spec = StrideSpec::ssc();
        c.enqueue(MemRequest::stride_read(1, 0, spec), 0).unwrap();
        c.enqueue(MemRequest::stride_read(2, 4 * 64, spec), 0)
            .unwrap();
        let done = c.drain(0);
        assert_eq!(done.len(), 2);
        assert_eq!(c.device_stats().stride_reads, 2);
        assert_eq!(
            c.device_stats().mode_switches,
            1,
            "second request reuses the mode"
        );
    }

    #[test]
    fn mode_switch_costs_trtr() {
        let mut c = ctrl();
        let t = t();
        c.enqueue(MemRequest::stride_read(1, 0, StrideSpec::ssc()), 0)
            .unwrap();
        let done = c.drain(0);
        // MRS at 0, ACT at 0 (parallel on C/A in our model), column waits
        // for both tRCD and the mode-ready time; with tRCD > tRTR the RCD
        // dominates, so finish matches a regular read here.
        assert_eq!(done[0].finish, t.rcd.max(t.rtr) + t.cl + t.burst);
        // Switching back for a regular read pays tRTR again.
        c.enqueue(MemRequest::read(2, 64), done[0].finish).unwrap();
        let d2 = c.drain(done[0].finish);
        assert_eq!(c.device_stats().mode_switches, 2);
        assert!(d2[0].row_hit);
    }

    #[test]
    fn refresh_happens_every_trefi() {
        let mut c = ctrl();
        let t = t();
        // Schedule a read far past several refresh intervals.
        c.enqueue(MemRequest::read(1, 0), 4 * t.refi).unwrap();
        let _ = c.drain(4 * t.refi);
        assert!(
            c.stats().refreshes >= 4,
            "refreshes {} < 4",
            c.stats().refreshes
        );
    }

    #[test]
    fn rram_controller_skips_refresh() {
        let cfg = ControllerConfig::with_device(DeviceConfig::rram_server());
        assert!(!cfg.refresh_enabled());
        let mut c = Controller::new(cfg);
        c.enqueue(MemRequest::read(1, 0), 10_000_000).unwrap();
        let _ = c.drain(10_000_000);
        assert_eq!(c.stats().refreshes, 0);
    }

    #[test]
    fn stats_average_latency() {
        let mut c = ctrl();
        c.enqueue(MemRequest::read(1, 0), 0).unwrap();
        c.enqueue(MemRequest::read(2, 64), 0).unwrap();
        let done = c.drain(0);
        let expect: u64 = done.iter().map(|d| d.finish).sum();
        assert_eq!(c.stats().total_latency, expect);
        assert!(c.stats().avg_latency().unwrap() > 0.0);
        assert_eq!(c.stats().row_hit_rate().unwrap(), 0.5);
    }

    /// A starvation-cap firing must be counted, and the traced schedule
    /// must equal the untraced one (hooks are observational).
    #[test]
    fn starvation_firings_are_counted_and_traced() {
        let run = |trace: bool| -> (Vec<u64>, u64, Vec<sam_trace::TraceEvent>) {
            let cfg = ControllerConfig {
                starvation_cap: 500,
                ..Default::default()
            };
            let mut c = Controller::new(cfg);
            let rec = RunRecorder::shared(4096, 1_000);
            if trace {
                c.attach_trace(rec.clone());
                assert!(c.trace_attached());
            }
            c.enqueue(MemRequest::read(1, 0), 0).unwrap();
            let first = c.schedule_one(0).unwrap();
            let conflict_addr = 256 * 1024 + 8 * 1024;
            c.enqueue(MemRequest::read(2, conflict_addr), 1).unwrap();
            let mut order = Vec::new();
            let mut now = first.finish;
            for i in 0u64..50 {
                let col = 1 + (i % 120);
                c.enqueue(MemRequest::read(1000 + i, col * 64), now)
                    .unwrap();
                let done = c.schedule_one(now).unwrap();
                order.push(done.id);
                now = now.max(done.finish);
            }
            let starved = c.stats().starvation_forced;
            drop(c);
            (order, starved, events_of(rec))
        };
        let (traced_order, starved, events) = run(true);
        let (plain_order, plain_starved, plain_events) = run(false);
        assert_eq!(traced_order, plain_order, "tracing must not alter schedule");
        assert_eq!(starved, plain_starved);
        assert!(starved >= 1, "cap at 500 must fire in this stream");
        assert!(plain_events.is_empty());
        let fired = events.iter().filter(|e| e.name == "starved").count() as u64;
        assert_eq!(fired, starved, "one instant per counted firing");
        assert!(events.iter().any(|e| e.name == "enq-read"));
        assert!(events.iter().any(|e| e.name == "read"));
    }

    /// Write-drain windows trace as balanced begin/end pairs in occurrence
    /// order (the exporter closes a final dangling begin, but a finished
    /// drain must close itself).
    #[test]
    fn write_drain_windows_trace_balanced() {
        let mut c = ctrl();
        let rec = RunRecorder::shared(4096, 1_000);
        c.attach_trace(rec.clone());
        for i in 0..28 {
            c.enqueue(MemRequest::write(i, i * 64), 0).unwrap();
        }
        c.enqueue(MemRequest::read(100, 0x100000), 0).unwrap();
        let _ = c.drain(0);
        drop(c);
        let events = events_of(rec);
        let drains: Vec<_> = events.iter().filter(|e| e.name == "write-drain").collect();
        assert_eq!(drains.len(), 2, "one drain window: begin + end");
        assert_eq!(drains[0].kind, sam_trace::EventKind::Begin);
        assert_eq!(drains[1].kind, sam_trace::EventKind::End);
        let refs: Vec<_> = events.iter().filter(|e| e.name == "REF").collect();
        for r in &refs {
            assert!(r.track >= sam_trace::event::track::RANK0);
        }
    }

    /// Epoch rows telescope: summed deltas equal the end-of-run snapshot.
    #[test]
    fn epoch_rows_sum_to_final_stats() {
        let mut c = ctrl();
        let recorder = RunRecorder::shared(16, 200);
        c.attach_trace(recorder.clone());
        for i in 0..40 {
            c.enqueue(MemRequest::read(i, i * 256), 0).unwrap();
        }
        for i in 0..24 {
            c.enqueue(MemRequest::write(100 + i, 0x40000 + i * 64), 0)
                .unwrap();
        }
        let done = c.drain(0);
        assert_eq!(done.len(), 64);
        let end = done.iter().map(|d| d.finish).max().unwrap();
        c.finish_epochs(end);
        let rec = &recorder.lock().unwrap().epochs;
        let sum = rec.sum();
        assert!(rec.rows().len() > 1, "run spans several 200-cycle epochs");
        assert_eq!(sum.reads, c.stats().reads_done);
        assert_eq!(sum.writes, c.stats().writes_done);
        assert_eq!(sum.row_hits, c.stats().row_hits);
        assert_eq!(sum.latency, c.stats().total_latency);
        assert_eq!(sum.acts, c.device_stats().acts);
        assert_eq!(sum.bus_busy, c.device().channel().busy_cycles);
    }

    #[test]
    fn bank_parallelism_overlaps_activates() {
        let mut c = ctrl();
        let t = t();
        // Two reads to different banks: the second should not wait for the
        // first's full row cycle, only tRRD + bus serialization.
        c.enqueue(MemRequest::read(1, 0), 0).unwrap();
        c.enqueue(MemRequest::read(2, 8192), 0).unwrap(); // next bank
        let done = c.drain(0);
        let gap = done[1].finish - done[0].finish;
        assert!(
            gap <= t.ccd_s.max(t.burst) + t.rrd_s,
            "banks overlap, gap {gap}"
        );
    }

    /// Jump-safety of the refresh catch-up (the ISSUE's headline bug
    /// class): a read issued many tREFI after the last activity must see
    /// every intervening refresh issued at its *original* due cycle, not
    /// a collapsed burst at the read's arrival.
    #[test]
    fn refresh_catch_up_lands_on_original_due_cycles() {
        let mut c = ctrl();
        let rec = RunRecorder::shared(1 << 14, 1_000);
        c.attach_trace(rec.clone());
        let cfg = *c.config();
        let refi = cfg.device.timing.refi;
        let arrival = 10 * refi + 123;
        c.enqueue(MemRequest::read(1, 0), arrival).unwrap();
        let done = c.drain(arrival);
        assert_eq!(done.len(), 1);
        drop(c);
        let events = events_of(rec);
        // Reconstruct the expected deadline ladder per rank and compare
        // with the observed REF issue cycles, in order.
        for rank in 0..cfg.device.ranks {
            let observed: Vec<Cycle> = events
                .iter()
                .filter(|e| e.name == "REF" && e.arg == rank as u64)
                .map(|e| e.at)
                .collect();
            let mut expected = Vec::new();
            let mut due = refi + (rank as u64 * refi / cfg.device.ranks as u64);
            while due <= arrival {
                expected.push(due);
                due += refi;
            }
            assert_eq!(
                observed, expected,
                "rank {rank}: refreshes must issue at their original tREFI \
                 deadlines, never collapsed at the catch-up cycle"
            );
        }
    }

    /// The same long-idle read, reached two ways: ticking `advance_to`
    /// through every cycle of the gap, or jumping straight to the
    /// arrival and letting `execute` catch up lazily. Completion cycles,
    /// stats, and latency histograms must be identical (satellite: the
    /// event-driven path sees the same refresh penalty as a ticked run).
    #[test]
    fn read_after_long_idle_sees_same_refresh_penalty_ticked_or_jumped() {
        let t = t();
        let arrival = 4 * t.refi + 77;

        let mut ticked = ctrl();
        for now in 0..=arrival {
            ticked.advance_to(now);
        }
        ticked.enqueue(MemRequest::read(1, 0x40), arrival).unwrap();
        let a = ticked.drain(arrival);

        let mut jumped = ctrl();
        jumped.enqueue(MemRequest::read(1, 0x40), arrival).unwrap();
        let b = jumped.drain(arrival);

        assert_eq!(a, b, "completions must match cycle-for-cycle");
        assert_eq!(ticked.stats(), jumped.stats());
        // Count the staggered per-rank deadlines that fall inside the gap:
        // every one of them must have been serviced on both paths.
        let ranks = ticked.config().device.ranks;
        let mut ladder = 0u64;
        for rank in 0..ranks {
            let mut due = t.refi + (rank as u64 * t.refi / ranks as u64);
            while due <= arrival {
                ladder += 1;
                due += t.refi;
            }
        }
        assert!(ladder >= 4, "gap must span several deadlines, got {ladder}");
        assert!(
            ticked.stats().refreshes >= ladder,
            "the gap spans {ladder} refreshes, saw {}",
            ticked.stats().refreshes
        );
        assert_eq!(
            ticked.read_latency_histogram(),
            jumped.read_latency_histogram()
        );
        assert_eq!(
            ticked.write_latency_histogram(),
            jumped.write_latency_histogram()
        );
        assert_eq!(ticked.read_latency_histogram().count(), 1);
    }

    /// `advance_to` issues REFs in deadline order, interleaving the
    /// ranks' staggered tREFI ladders, and lands every one on the cycle
    /// the lazy catch-up inside `execute` would have used.
    #[test]
    fn advance_to_issues_refreshes_in_deadline_order() {
        let refs = |c: Controller, rec: SharedRecorder| {
            drop(c);
            events_of(rec)
                .into_iter()
                .filter(|e| e.name == "REF")
                .map(|e| (e.at, e.arg))
                .collect::<Vec<(Cycle, u64)>>()
        };
        let target = 5 * t().refi + 77;

        let mut walked = ctrl();
        assert_eq!(walked.config().device.ranks, 2);
        let rec = RunRecorder::shared(1 << 12, 1_000);
        walked.attach_trace(rec.clone());
        walked.advance_to(target);
        let walked = refs(walked, rec);
        assert!(
            walked.windows(2).all(|w| w[0].0 <= w[1].0),
            "REFs must issue in non-decreasing cycle order: {walked:?}"
        );
        // Rank 0 falls due at k·tREFI (k = 1..=5), rank 1 half a tREFI
        // later (k = 1..=4 inside the target): the ladders alternate.
        let ranks: Vec<u64> = walked.iter().map(|&(_, r)| r).collect();
        assert_eq!(ranks, [0, 1, 0, 1, 0, 1, 0, 1, 0], "{walked:?}");

        let mut lazy = ctrl();
        let rec = RunRecorder::shared(1 << 12, 1_000);
        lazy.attach_trace(rec.clone());
        lazy.enqueue(MemRequest::read(1, 0x40), target).unwrap();
        assert_eq!(lazy.drain(target).len(), 1);
        let mut lazy = refs(lazy, rec);
        lazy.sort_unstable();
        assert_eq!(walked, lazy, "same REF cycles as the lazy catch-up");
    }

    #[test]
    fn rram_controller_has_no_refresh_wakes() {
        let cfg = ControllerConfig::with_device(DeviceConfig::rram_server());
        assert!(!cfg.refresh_enabled());
        let mut c = Controller::new(cfg);
        c.advance_to(u64::MAX);
        assert_eq!(c.stats().refreshes, 0);
    }

    /// `oldest_pending_age` reads the oldest group representative of each
    /// queue's index; it must agree with a brute-force scan of both
    /// queues over a mixed workload (reads, writes, strides, duplicate and
    /// out-of-order arrivals), at every step of its drain.
    #[test]
    fn oldest_pending_age_matches_a_brute_force_scan() {
        let brute = |c: &Controller, now: Cycle| {
            c.readq
                .arrivals()
                .chain(c.writeq.arrivals())
                .min()
                .map(|a| now.saturating_sub(a))
        };
        let mut c = ctrl();
        assert_eq!(c.oldest_pending_age(0), None);
        for i in 0..60u64 {
            let addr = (i % 5) * 256 * 1024 + (i % 3) * 64;
            let req = match i % 3 {
                0 => MemRequest::write(i, addr),
                1 => MemRequest::stride_read(i, addr, StrideSpec::ssc()),
                _ => MemRequest::read(i, addr),
            };
            c.enqueue(req, (i * 37) % 41).unwrap();
            assert_eq!(c.oldest_pending_age(150), brute(&c, 150));
        }
        let mut now = 150;
        while let Some(done) = c.schedule_one(now) {
            now = now.max(done.finish);
            assert_eq!(c.oldest_pending_age(now), brute(&c, now));
            c.audit_queues().unwrap();
        }
        assert_eq!(c.oldest_pending_age(now), None);
    }

    /// The reference scan and the indexed select must be indistinguishable
    /// end-to-end, not just per decision: same completions, stats, and
    /// lanes over a mixed read/write/stride workload.
    #[test]
    fn reference_scheduler_is_observationally_identical() {
        let mut mixed = Vec::new();
        for i in 0..48u64 {
            let addr = (i % 7) * 8192 + (i % 3) * 64;
            let req = match i % 4 {
                0 => MemRequest::read(i, addr),
                1 => MemRequest::write(i, addr + 0x40000),
                2 => MemRequest::stride_read(
                    i,
                    addr,
                    StrideSpec {
                        gather: 8,
                        mode: sam_dram::moderegs::IoMode::Sx4((i % 4) as u8),
                    },
                ),
                _ => MemRequest::read(i, addr + 0x100),
            };
            mixed.push((req, i * 3));
        }
        let run = |reference: bool| {
            let cfg = ControllerConfig {
                reference_scheduler: reference,
                ..ControllerConfig::default()
            };
            let mut c = Controller::new(cfg);
            for (req, arrival) in &mixed {
                c.enqueue(*req, *arrival).unwrap();
            }
            let done = c.drain(0);
            (done, *c.stats(), c.per_core().clone())
        };
        let (done_t, stats_t, lanes_t) = run(false);
        let (done_r, stats_r, lanes_r) = run(true);
        assert_eq!(done_t, done_r);
        assert_eq!(stats_t, stats_r);
        assert_eq!(lanes_t, lanes_r);
    }

    /// Each of the eight `Some`/`None` combinations sets exactly the
    /// fields it names and leaves every other field at the base value.
    #[test]
    fn sched_overrides_set_exactly_the_given_fields() {
        let base = ControllerConfig::with_device(sam_dram::device::DeviceConfig::rram_server());
        for mask in 0..8u8 {
            let o = SchedOverrides {
                starvation_cap: (mask & 1 != 0).then_some(7),
                drain_hi: (mask & 2 != 0).then_some(20),
                drain_lo: (mask & 4 != 0).then_some(3),
            };
            let want = ControllerConfig {
                starvation_cap: if mask & 1 != 0 { 7 } else { 4096 },
                write_high_watermark: if mask & 2 != 0 { 20 } else { 28 },
                write_low_watermark: if mask & 4 != 0 { 3 } else { 8 },
                ..base
            };
            assert_eq!(o.apply(base), want, "mask {mask:03b}");
        }
        assert_eq!(SchedOverrides::default().apply(base), base);
    }
}
