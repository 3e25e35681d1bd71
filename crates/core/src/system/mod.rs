//! The full-system simulator: bounded-MLP cores driving design-lowered
//! memory traffic through the sector-cache hierarchy, FR-FCFS controller,
//! and cycle-level device model.
//!
//! ## Core model
//!
//! The paper's workloads are memory-bound scans, so cores are modelled as
//! in-order issue engines with out-of-order completion: a core charges a
//! small issue cost per 16B touch and per explicit `Compute` op, never
//! architecturally waits for load data, and is throttled only by its
//! miss-level parallelism window (`mlp` outstanding misses). This
//! reproduces exactly the properties the evaluation depends on — request
//! counts, access patterns, achievable overlap — without an ISA pipeline
//! (see DESIGN.md §1).
//!
//! ## Lowering
//!
//! A 16B touch that misses the hierarchy becomes:
//!
//! * a **stride burst** when the design supports striding, the op is a
//!   field access, and the table is row-stored — filling the same field
//!   unit of all K gathered records (one burst, K sectors); or
//! * a **regular line fill** (64B burst) otherwise.
//!
//! Embedded-ECC designs (GS-DRAM-ecc) pay extra ECC bursts; RC-NVM-bit pays
//! extra sub-field column bursts; SAM designs pay MRS mode switches (tRTR)
//! whenever the rank flips between regular and stride modes — all emerging
//! from the request stream, not hard-coded factors.

//! ## Module layout
//!
//! The simulator is decomposed by concern, with [`System`] as a thin
//! orchestrator over an internal `Engine`:
//!
//! * [`core_engine`](self) — bounded-MLP core stepping (op expansion,
//!   sector touches, the MLP sliding window);
//! * [`lowering`](self) — design lowering of missing touches into tagged
//!   memory requests (stride / narrow / line fills, prefetch, ECC extras);
//! * [`datapath`](self) — writeback issue (a merge decision, then the
//!   request emission), stride write-combining, and the overflow backlog,
//!   which the end-of-run drain keeps one writeback deep;
//! * [`completion`](self) — completion handling, fill installation, and
//!   MLP-slot retirement.
//!
//! Every request the engine issues carries a
//! [`Provenance`](sam_memctrl::request::Provenance) tag (issuing core +
//! lowering path). The tag is payload-only — the scheduler never reads it —
//! so attribution cannot perturb timing; the controller folds it into
//! per-core statistics lanes surfaced here as [`RunResult::per_core`].

mod completion;
mod core_engine;
mod datapath;
mod lowering;

use std::collections::VecDeque;

use sam_util::fxhash::{FxHashMap, FxHashSet};

use sam_cache::hierarchy::{Hierarchy, HierarchyConfig};
use sam_cache::set_assoc::CacheStats;
use sam_dram::device::DeviceStats;
use sam_dram::Cycle;
use sam_memctrl::controller::{
    Controller, ControllerConfig, ControllerStats, CoreLanes, SchedOverrides,
};
use sam_memctrl::hybrid::{DramCacheController, HybridConfig, HybridSummary};
use sam_memctrl::level::MemLevel;
use sam_memctrl::request::MemRequest;

use crate::design::{Design, Granularity};
use crate::layout::{Placement, SectorRun, Store, TableSpec};
use crate::ops::Trace;

use completion::FillRecord;
pub use core_engine::{expand_op, SectorTouch};
use core_engine::{CoreState, Step};

/// CPU clock in MHz (Table 2: 4 GHz).
pub const CPU_MHZ: u64 = 4000;

/// Memory command clock in MHz (DDR4-2400: 1200 MHz).
const MEM_MHZ: u64 = 1200;

/// CPU cycles to memory cycles, rounded down. Exact in u64 while the
/// product fits, widening to u128 only when it overflows.
fn cpu_to_mem(cpu: u64) -> Cycle {
    match cpu.checked_mul(MEM_MHZ) {
        Some(p) => p / CPU_MHZ,
        None => (cpu as u128 * MEM_MHZ as u128 / CPU_MHZ as u128) as Cycle,
    }
}

/// Memory cycles to CPU cycles, rounded up; same u64-first arithmetic as
/// [`cpu_to_mem`].
fn mem_to_cpu(mem: Cycle) -> u64 {
    match mem.checked_mul(CPU_MHZ) {
        Some(p) => p.div_ceil(MEM_MHZ),
        None => (mem as u128 * CPU_MHZ as u128).div_ceil(MEM_MHZ as u128) as u64,
    }
}

/// System-level configuration: the knobs an experiment varies.
///
/// A parameter that every experiment runs at one value is a constant
/// next to the code that reads it instead: the clocks ([`CPU_MHZ`]), the
/// core's issue and hit costs (`core_engine`) and the embedded-ECC burst
/// periods (`lowering`, `datapath`). The core count is the number of
/// traces a run is given, which the plan sets (`PlanConfig::cores`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Outstanding misses allowed per core (MLP window; the ablation
    /// sweeps it).
    pub mlp: usize,
    /// Cache hierarchy geometry. Always [`HierarchyConfig::table2`]; it
    /// stays a field because the host benchmark's cache replay builds its
    /// hierarchy from it.
    pub hierarchy: HierarchyConfig,
    /// Strided granularity (Section 4.4; the evaluation defaults to 4-bit,
    /// Figure 14(b) sweeps it).
    pub granularity: Granularity,
    /// Next-line stream prefetch degree for regular line fills (0 = off,
    /// the Table 2 configuration; the ablation harness sweeps it).
    pub prefetch_degree: u32,
    /// Scheduler overrides (`--starvation-cap`, `--drain-hi`,
    /// `--drain-lo`), applied over the design's controller defaults.
    pub sched: SchedOverrides,
    /// Dump per-core progress counters to stderr at the end of a run (the
    /// `--debug-cores` CLI flag). Stderr only, so enabling it never touches
    /// the byte-compared stdout/JSON outputs.
    pub debug_cores: bool,
    /// Hybrid-memory topology: when set, a DDR4 DRAM cache fronts the
    /// design's device as backing store
    /// ([`DramCacheController`]); `None` (the default,
    /// and every pinned golden) drives the design's device directly.
    pub hybrid: Option<HybridConfig>,
}

impl Default for SystemConfig {
    /// Table 2 defaults.
    fn default() -> Self {
        Self {
            mlp: 16,
            hierarchy: HierarchyConfig::table2(),
            granularity: Granularity::Bits4,
            prefetch_degree: 0,
            sched: SchedOverrides::default(),
            debug_cores: false,
            hybrid: None,
        }
    }
}

/// Everything a run produces; the harness derives speedups, power, and
/// energy from these counters.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// End-to-end memory-clock cycles.
    pub cycles: Cycle,
    /// Controller-side stats (row hits, latency).
    pub ctrl: ControllerStats,
    /// Device command counts (power-model input).
    pub device: DeviceStats,
    /// L1 / L2 / LLC statistics.
    pub cache: (CacheStats, CacheStats, CacheStats),
    /// Stride bursts issued (any design).
    pub stride_bursts: u64,
    /// Regular 64B line bursts issued (fills).
    pub line_bursts: u64,
    /// Extra ECC bursts (embedded-ECC designs only).
    pub ecc_bursts: u64,
    /// Writeback bursts issued.
    pub writeback_bursts: u64,
    /// Busy cycles on the data bus.
    pub bus_busy: Cycle,
    /// Mean read latency, memory cycles (0.0 when no reads completed).
    pub read_latency_mean: f64,
    /// p99 read-latency upper bound (power-of-two bucket).
    pub read_latency_p99: Cycle,
    /// Mean write latency, memory cycles (0.0 when no writes completed).
    pub write_latency_mean: f64,
    /// p99 write-latency upper bound (power-of-two bucket).
    pub write_latency_p99: Cycle,
    /// Per-(core, kind) controller statistics lanes, telescoping exactly to
    /// the aggregate [`Self::ctrl`] counters (refreshes excluded — they are
    /// rank-level background work with no owning request).
    pub per_core: CoreLanes,
    /// DRAM-cache counters when the run used a hybrid topology
    /// ([`SystemConfig::hybrid`]); `None` on flat hierarchies.
    pub hybrid: Option<HybridSummary>,
}

impl RunResult {
    /// Data-bus utilization in [0, 1].
    pub fn bus_utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.bus_busy as f64 / self.cycles as f64
        }
    }
}

/// Cache touches between calls of an attached
/// [`Instrumentation::cache_probe`].
const CACHE_PROBE_PERIOD: u64 = 4096;

/// Hooks for the external verification layer (the `sam-check` crate).
///
/// A default-constructed value is fully inert; [`System::run`] uses one
/// internally.
#[derive(Default)]
pub struct Instrumentation<'a> {
    /// Sink for every DRAM command the CPU-facing device accepts, in
    /// issue order.
    pub observer: Option<sam_dram::observe::SharedObserver>,
    /// Sink for commands on the *backing* device of a hybrid topology
    /// ([`SystemConfig::hybrid`]); ignored on flat hierarchies, which
    /// have no backing device.
    pub backing_observer: Option<sam_dram::observe::SharedObserver>,
    /// Called with the cache hierarchy every 4096 touches (and once at
    /// the end of the run), e.g. to check model invariants.
    pub cache_probe: Option<&'a mut (dyn FnMut(&Hierarchy) + 'a)>,
    /// The run's trace recorder: controller, cache and per-bank DRAM
    /// events in its ring; controller/device counters sampled into its
    /// epoch rows, plus an end-of-round MLP gauge. Purely observational —
    /// attaching one never changes the simulation.
    pub trace: Option<sam_trace::SharedRecorder>,
}

impl std::fmt::Debug for Instrumentation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instrumentation")
            .field("observer", &self.observer.is_some())
            .field("backing_observer", &self.backing_observer.is_some())
            .field("cache_probe", &self.cache_probe.is_some())
            .field("trace", &self.trace.is_some())
            .finish()
    }
}

/// A configured system ready to run traces.
#[derive(Debug, Clone)]
pub struct System {
    cfg: SystemConfig,
    design: Design,
    store: Store,
}

impl System {
    /// Creates a system for `design` with tables organized as `store`.
    pub fn new(cfg: SystemConfig, design: Design, store: Store) -> Self {
        Self { cfg, design, store }
    }

    /// The design under test.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Runs `traces`, one per core, against `tables`.
    ///
    /// # Panics
    ///
    /// Panics if there are more than 256 traces or if an op references a
    /// missing table.
    pub fn run(&self, tables: &[TableSpec], traces: &[Trace]) -> RunResult {
        let mut instr = Instrumentation::default();
        self.run_instrumented(tables, traces, &mut instr)
    }

    /// Like [`Self::run`], with verification hooks attached (see
    /// [`Instrumentation`]).
    ///
    /// # Panics
    ///
    /// As [`Self::run`].
    pub fn run_instrumented(
        &self,
        tables: &[TableSpec],
        traces: &[Trace],
        instr: &mut Instrumentation<'_>,
    ) -> RunResult {
        let placements: Vec<Placement> = tables
            .iter()
            .map(|t| Placement::new(*t, self.store, &self.design, self.cfg.granularity))
            .collect();
        let mut engine = Engine::new(&self.cfg, &self.design, placements, traces);
        if let Some(rec) = &instr.trace {
            engine.ctrl.attach_trace(rec.clone());
            engine.hierarchy.attach_trace(rec.clone());
            engine.trace.attach(rec.clone());
        }
        if let Some(obs) = &instr.observer {
            engine.ctrl.attach_observer(obs.clone());
        }
        if let Some(obs) = &instr.backing_observer {
            engine.ctrl.attach_backing_observer(obs.clone());
        }
        engine.probe = match &mut instr.cache_probe {
            Some(p) => Some(&mut **p),
            None => None,
        };
        engine.run()
    }
}

struct Engine<'t> {
    cfg: &'t SystemConfig,
    design: &'t Design,
    placements: Vec<Placement>,
    hierarchy: Hierarchy,
    /// The memory hierarchy below the caches, driven exclusively through
    /// the composable level interface (DESIGN.md §16): the flat FR-FCFS
    /// [`Controller`] by default, the hybrid [`DramCacheController`] when
    /// [`SystemConfig::hybrid`] is set.
    ctrl: Box<dyn MemLevel>,
    cores: Vec<CoreState<'t>>,
    /// In-flight requests whose completion has work to do (install a fill,
    /// retire an MLP slot, release a stride-writeback merge key), by id.
    /// Fire-and-forget bursts (plain writebacks, embedded-ECC and RC-NVM-bit
    /// sub-field bursts) have no record.
    fills: FxHashMap<u64, FillRecord>,
    /// Pending keys of the sector fills in flight (MSHR merge), from
    /// [`Placement::pending_key`]: a stride burst holds one per sector
    /// offset of its gather block, which all K of its lines share; a narrow
    /// fill holds its one sector.
    pending_sectors: FxHashSet<u64>,
    /// Lines with a whole-line fill or prefetch in flight (MSHR merge).
    pending_lines: FxHashSet<u64>,
    /// Sectors written while their fill was in flight: marked dirty once
    /// the fill installs (write-allocate completion).
    pending_dirty: FxHashSet<u64>,
    /// Outstanding stride-writeback merge keys.
    wb_merge: FxHashSet<u64>,
    /// Per table, one byte per gather block ([`Placement::gather_blocks`];
    /// none for ungrouped tables): the unit + 1 of the last stride burst
    /// that filled the block, 0 before any did. A dirty eviction rebuilds
    /// that burst's address and lane with [`Placement::block_burst`] to be
    /// written back as a stride burst.
    block_to_burst: Vec<Vec<u8>>,
    /// Reused buffer for the writebacks a fill displaces.
    wb_buffer: Vec<sam_cache::hierarchy::Writeback>,
    /// Writebacks that did not fit the write queue yet (with their stride
    /// merge key, if any — the key stays held while backlogged). The final
    /// drain builds a writeback's requests only once this is empty, so it
    /// never holds more than `1 + ECC_WRITE_EXTRA` of them then.
    wb_backlog: VecDeque<(MemRequest, Cycle, Option<u64>)>,
    next_id: u64,
    ecc_stride_count: u32,
    ecc_seq_count: u32,
    extra_burst_count: u32,
    /// Per-core last sequentially missed line (stream detector).
    last_miss_line: Vec<u64>,
    stride_bursts: u64,
    line_bursts: u64,
    ecc_bursts: u64,
    writeback_bursts: u64,
    last_finish: Cycle,
    /// Invariant probe over the cache hierarchy (verification layer).
    probe: Option<&'t mut (dyn FnMut(&Hierarchy) + 't)>,
    probe_ticks: u64,
    /// Trace recorder shared with the controller; the engine contributes
    /// the epochs' MLP gauge (outstanding misses across cores).
    trace: sam_trace::SinkSlot,
    /// Per core, whether its next step can make progress (all start
    /// runnable). A stalled core's flag clears and is set again only by a
    /// wake publisher matching its registered [`core_engine::Blocker`] —
    /// the event-driven core loop (DESIGN.md §13).
    runnable: Vec<bool>,
}

impl<'t> Engine<'t> {
    fn new(
        cfg: &'t SystemConfig,
        design: &'t Design,
        placements: Vec<Placement>,
        traces: &'t [Trace],
    ) -> Self {
        let ctrl_cfg = cfg
            .sched
            .apply(ControllerConfig::with_device(design.device_config()));
        // The hierarchy's 1.4 MB of LLC sets is the run's largest
        // allocation. Made first, it reuses the heap hole the previous
        // run's array left. Made after the hybrid level's tag array, whose
        // size follows the block size, it could find that hole split and
        // grow the heap (DESIGN.md §13, "Allocation order"). The small
        // per-table burst records go before it for the same reason.
        let block_to_burst = placements
            .iter()
            .map(|p| vec![0; p.gather_blocks()])
            .collect();
        let hierarchy = Hierarchy::new(cfg.hierarchy);
        let ctrl: Box<dyn MemLevel> = match cfg.hybrid {
            Some(hybrid) => Box::new(DramCacheController::new(ctrl_cfg, hybrid)),
            None => Box::new(Controller::new(ctrl_cfg)),
        };
        // Provenance stores the issuing core in a u8; the Table 2 system
        // has 4 cores, so this only guards pathological configurations.
        assert!(
            traces.len() <= u8::MAX as usize + 1,
            "provenance tags support at most 256 cores"
        );
        Self {
            cfg,
            design,
            placements,
            hierarchy,
            ctrl,
            cores: traces.iter().map(|t| CoreState::new(t)).collect(),
            fills: FxHashMap::default(),
            pending_sectors: FxHashSet::default(),
            pending_lines: FxHashSet::default(),
            pending_dirty: FxHashSet::default(),
            wb_merge: FxHashSet::default(),
            block_to_burst,
            wb_buffer: Vec::new(),
            wb_backlog: VecDeque::new(),
            next_id: 0,
            ecc_stride_count: 0,
            ecc_seq_count: 0,
            extra_burst_count: 0,
            last_miss_line: vec![u64::MAX; traces.len()],
            stride_bursts: 0,
            line_bursts: 0,
            ecc_bursts: 0,
            writeback_bursts: 0,
            last_finish: 0,
            probe: None,
            probe_ticks: 0,
            trace: sam_trace::SinkSlot::default(),
            runnable: vec![true; traces.len()],
        }
    }

    /// Wakes every core whose blocked touch addresses a sector of `run`
    /// (published when a sector fill is issued or installs): one scan for
    /// all of a stride burst's sectors.
    fn wake_covering_run(&mut self, run: SectorRun) {
        for ci in 0..self.cores.len() {
            if let Some(b) = self.cores[ci].blocked {
                if run.contains(b.sector) {
                    self.runnable[ci] = true;
                }
            }
        }
    }

    /// Wakes every core blocked inside cache line `line` (published when a
    /// whole-line fill is issued or installs: any sector of it now hits).
    fn wake_covering_line(&mut self, line: u64) {
        for ci in 0..self.cores.len() {
            if let Some(b) = self.cores[ci].blocked {
                if b.line == line {
                    self.runnable[ci] = true;
                }
            }
        }
    }

    /// Wakes every core stalled on controller queue capacity (published
    /// after each scheduling decision: it freed one queue slot).
    fn wake_queue_blocked(&mut self) {
        for ci in 0..self.cores.len() {
            if let Some(b) = self.cores[ci].blocked {
                if b.queue_full {
                    self.runnable[ci] = true;
                }
            }
        }
    }

    /// Runs the periodic cache-invariant probe if one is attached.
    fn probe_tick(&mut self) {
        if let Some(p) = &mut self.probe {
            self.probe_ticks += 1;
            if self.probe_ticks.is_multiple_of(CACHE_PROBE_PERIOD) {
                p(&self.hierarchy);
            }
        }
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn run(mut self) -> RunResult {
        loop {
            // Let every runnable core run as far as it can. Pass order is
            // the ticked loop's round-robin: a wake for an index at or
            // below the cursor joins the next pass, one above joins this
            // pass — so the sequence of *effectful* steps (and with it the
            // controller enqueue order) is identical to stepping every
            // core every pass; only the no-op retries are skipped.
            loop {
                let mut any = false;
                for ci in 0..self.cores.len() {
                    if std::mem::take(&mut self.runnable[ci])
                        && self.step_core(ci) == Step::Progress
                    {
                        any = true;
                    }
                }
                if !any {
                    break;
                }
            }
            self.trace.with(|rec| {
                let outstanding = self.cores.iter().map(|c| c.outstanding as u64).sum();
                rec.epochs.observe_mlp(outstanding);
            });
            self.flush_backlog();
            let all_done = self.cores.iter().all(|c| c.done);
            if all_done && self.ctrl.queued() == 0 && self.wb_backlog.is_empty() {
                break;
            }
            let now = self.ctrl.clock();
            // Refresh catch-up stays *lazy* here on purpose: `execute`
            // services due deadlines (at their original cycles) after the
            // FR-FCFS winner is chosen, and eagerly applying them first
            // would let the selection estimates observe post-refresh bank
            // state and pick different winners. `Controller::advance_to`
            // is the idle-jump primitive for callers with no pending
            // decision (the stress driver's arrival gaps).
            match self.ctrl.schedule_one(now) {
                Some(c) => {
                    self.handle_completion(c);
                    // The decision drained one queue slot.
                    self.wake_queue_blocked();
                }
                None => {
                    if self.wb_backlog.is_empty() {
                        // A composite level (the DRAM-cache hybrid) may
                        // consume several non-terminal inner completions
                        // inside one call and return `None` only once fully
                        // idle — so an idle controller here can simply mean
                        // this call drained the run's tail, even though the
                        // break above saw `queued() > 0` before the call.
                        // Queue capacity also freed up: wake admission-
                        // stalled cores, then fail only if nothing is
                        // runnable while work remains.
                        self.wake_queue_blocked();
                        let finished = self.cores.iter().all(|c| c.done) && self.ctrl.queued() == 0;
                        if !finished && !self.runnable.contains(&true) {
                            for (ci, c) in self.cores.iter().enumerate() {
                                eprintln!(
                                    "deadlock: core {ci} done={} op={}/{} outstanding={} \
                                     blocked={:?}",
                                    c.done,
                                    c.op_idx,
                                    c.trace.len(),
                                    c.outstanding,
                                    c.blocked
                                );
                            }
                            for (id, rec) in &self.fills {
                                eprintln!(
                                    "deadlock: unretired fill id={id} core={} kind={:?}",
                                    rec.core, rec.kind
                                );
                            }
                            panic!(
                                "cores stalled with empty queues: simulator deadlock \
                                 (controller clock {}, queued {})",
                                self.ctrl.clock(),
                                self.ctrl.queued()
                            );
                        }
                    }
                    // Backlogged writebacks against a full queue cannot
                    // happen with an empty queue; flush will succeed next
                    // round.
                }
            }
        }
        // Final dirty data leaves the LLC. Nothing is in flight, so every
        // merge is decided here: a flush writeback merges exactly when an
        // earlier one claimed its burst key. The survivors' requests are
        // built only once the backlog is empty, all at this arrival cycle,
        // so ids, enqueue order and every completion match issuing them
        // all at once, while the backlog stays one writeback deep
        // (DESIGN.md §13, "Bounded writeback drain"). A claim is as large
        // as a `Writeback`, so the survivors reuse the flush's allocation.
        let mut survivors = self
            .hierarchy
            .flush_dirty()
            .into_iter()
            .filter_map(|wb| self.claim_writeback(&wb))
            .collect::<Vec<_>>()
            .into_iter();
        let when = self.last_finish;
        loop {
            let stalled = (self.wb_backlog.len(), self.next_id);
            self.flush_backlog();
            while self.wb_backlog.is_empty() {
                let Some(wb) = survivors.next() else { break };
                self.emit_writeback(wb, when);
            }
            debug_assert!(
                self.wb_backlog.len() <= 1 + datapath::ECC_WRITE_EXTRA as usize,
                "writeback backlog holds {} requests, more than one writeback's",
                self.wb_backlog.len()
            );
            match self.ctrl.schedule_one(self.ctrl.clock()) {
                Some(c) => self.handle_completion(c),
                None if self.wb_backlog.is_empty() => break,
                // An idle controller with a non-empty backlog must mean this
                // round moved a request into the controller or built new
                // ones (and the next schedule_one will complete something).
                // If neither happened, the drain can never finish — fail
                // loudly like the main loop instead of busy-spinning forever.
                None => assert!(
                    (self.wb_backlog.len(), self.next_id) != stalled,
                    "writeback backlog stalled against an idle controller: simulator deadlock"
                ),
            }
        }
        // Every fill installed and every merge released: nothing leaks past
        // the drain.
        debug_assert!(
            self.pending_sectors.is_empty()
                && self.pending_lines.is_empty()
                && self.pending_dirty.is_empty()
                && self.fills.is_empty()
                && self.wb_merge.is_empty(),
            "MSHR state left after the drain: {} sectors, {} lines, {} dirty, {} fills, {} merges",
            self.pending_sectors.len(),
            self.pending_lines.len(),
            self.pending_dirty.len(),
            self.fills.len(),
            self.wb_merge.len()
        );

        let core_mem = self
            .cores
            .iter()
            .map(|c| cpu_to_mem(c.time_cpu))
            .max()
            .unwrap_or(0);
        let cycles = core_mem.max(self.last_finish).max(1);
        self.ctrl.finish_epochs(cycles);
        if self.cfg.debug_cores {
            let times: Vec<Cycle> = self.cores.iter().map(|c| cpu_to_mem(c.time_cpu)).collect();
            eprintln!(
                "[debug] core_mem_times={times:?} last_finish={} issued={:?}",
                self.last_finish,
                self.cores.iter().map(|c| c.issued).collect::<Vec<_>>()
            );
        }
        if let Some(p) = &mut self.probe {
            p(&self.hierarchy);
        }
        let (l1, l2, llc) = self.hierarchy.stats();
        let report = self.ctrl.report();
        RunResult {
            cycles,
            ctrl: report.ctrl,
            device: report.device,
            cache: (*l1, *l2, *llc),
            stride_bursts: self.stride_bursts,
            line_bursts: self.line_bursts,
            ecc_bursts: self.ecc_bursts,
            writeback_bursts: self.writeback_bursts,
            bus_busy: report.bus_busy,
            read_latency_mean: report.read_latency.mean().unwrap_or(0.0),
            read_latency_p99: report.read_latency.percentile(0.99),
            write_latency_mean: report.write_latency.mean().unwrap_or(0.0),
            write_latency_p99: report.write_latency.percentile(0.99),
            per_core: report.per_core,
            hybrid: report.hybrid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::{commodity, gs_dram, gs_dram_ecc, sam_en, sam_io, sam_sub};
    use crate::ops::{partition_records, TraceOp};

    fn scan_trace(records: u64, fields: Vec<u16>, cores: usize) -> Vec<Trace> {
        partition_records(0..records, cores, |r, t| {
            t.push(TraceOp::read_fields(r, fields.clone()));
            t.push(TraceOp::compute(4));
        })
    }

    fn whole_trace(records: u64, cores: usize) -> Vec<Trace> {
        partition_records(0..records, cores, |r, t| {
            t.push(TraceOp::read_whole(r));
            t.push(TraceOp::compute(4));
        })
    }

    fn table() -> TableSpec {
        TableSpec::ta(0, 4096)
    }

    #[test]
    fn empty_trace_returns_minimal_result() {
        let sys = System::new(SystemConfig::default(), commodity(), Store::Row);
        let r = sys.run(&[table()], &[vec![]]);
        assert_eq!(r.cycles, 1);
        assert_eq!(r.line_bursts, 0);
    }

    #[test]
    fn field_scan_issues_one_line_per_record_on_commodity() {
        let sys = System::new(SystemConfig::default(), commodity(), Store::Row);
        let traces = scan_trace(4096, vec![9], 4);
        let r = sys.run(&[table()], &traces);
        // 1KB records: each record's field 9 is in a distinct line.
        assert_eq!(r.line_bursts, 4096);
        assert_eq!(r.stride_bursts, 0);
        assert!(r.cycles > 4096, "at least a burst per record");
    }

    #[test]
    fn sam_en_scan_uses_8x_fewer_bursts() {
        let sys = System::new(SystemConfig::default(), sam_en(), Store::Row);
        let traces = scan_trace(4096, vec![9], 4);
        let r = sys.run(&[table()], &traces);
        // 4-bit granularity gathers 8 records per burst.
        assert_eq!(r.stride_bursts, 4096 / 8);
        assert_eq!(r.line_bursts, 0);
    }

    #[test]
    fn sam_en_beats_commodity_on_field_scans() {
        let traces = scan_trace(4096, vec![9], 4);
        let base =
            System::new(SystemConfig::default(), commodity(), Store::Row).run(&[table()], &traces);
        let sam =
            System::new(SystemConfig::default(), sam_en(), Store::Row).run(&[table()], &traces);
        let speedup = base.cycles as f64 / sam.cycles as f64;
        assert!(speedup > 2.0, "speedup {speedup:.2} too low");
    }

    #[test]
    fn whole_record_scans_do_not_regress_much_on_sam_io() {
        let traces = whole_trace(1024, 4);
        let base =
            System::new(SystemConfig::default(), commodity(), Store::Row).run(&[table()], &traces);
        let io =
            System::new(SystemConfig::default(), sam_io(), Store::Row).run(&[table()], &traces);
        let ratio = io.cycles as f64 / base.cycles as f64;
        assert!(ratio < 1.1, "SAM-IO Qs overhead {ratio:.3} must stay small");
    }

    #[test]
    fn whole_record_scans_regress_on_sam_sub() {
        let traces = whole_trace(1024, 4);
        let base =
            System::new(SystemConfig::default(), commodity(), Store::Row).run(&[table()], &traces);
        let sub =
            System::new(SystemConfig::default(), sam_sub(), Store::Row).run(&[table()], &traces);
        let ratio = sub.cycles as f64 / base.cycles as f64;
        assert!(
            ratio > 1.1,
            "vertical alignment must cost something, got {ratio:.3}"
        );
    }

    /// At 4-bit granularity fields 2 and 3 share a 16 B sector, so the
    /// burst that gathers field 2 installs field 3 too: reading field 3
    /// after field 2 costs no burst, while field 4 needs its own
    /// (DESIGN.md §4, "Sector install unit").
    #[test]
    fn bits4_sector_neighbours_ride_one_stride_burst() {
        let sys = System::new(SystemConfig::default(), sam_en(), Store::Row);
        let scan = |fields: &[u16]| {
            let traces = partition_records(0..4096, 4, |r, t| {
                for &f in fields {
                    t.push(TraceOp::read_fields(r, vec![f]));
                }
            });
            sys.run(&[table()], &traces).stride_bursts
        };
        assert_eq!(scan(&[2]), 4096 / 8);
        assert_eq!(scan(&[2, 3]), scan(&[2]));
        assert_eq!(scan(&[2, 4]), 2 * scan(&[2]));
    }

    #[test]
    fn gs_dram_ecc_pays_extra_bursts() {
        let traces = scan_trace(4096, vec![9], 4);
        let gs =
            System::new(SystemConfig::default(), gs_dram(), Store::Row).run(&[table()], &traces);
        let gse = System::new(SystemConfig::default(), gs_dram_ecc(), Store::Row)
            .run(&[table()], &traces);
        assert_eq!(gs.ecc_bursts, 0);
        assert!(gse.ecc_bursts > 0);
        assert!(gse.cycles > gs.cycles);
    }

    #[test]
    fn mode_switches_counted_for_sam_only() {
        let traces = scan_trace(1024, vec![9], 4);
        let sam =
            System::new(SystemConfig::default(), sam_en(), Store::Row).run(&[table()], &traces);
        let gs =
            System::new(SystemConfig::default(), gs_dram(), Store::Row).run(&[table()], &traces);
        assert!(sam.device.mode_switches >= 1);
        assert_eq!(gs.device.mode_switches, 0);
    }

    #[test]
    fn column_store_is_fast_for_scans() {
        let traces = scan_trace(4096, vec![9], 4);
        let row =
            System::new(SystemConfig::default(), commodity(), Store::Row).run(&[table()], &traces);
        let col = System::new(SystemConfig::default(), commodity(), Store::Column)
            .run(&[table()], &traces);
        assert!(
            col.cycles * 3 < row.cycles,
            "column store should win scans big"
        );
    }

    #[test]
    fn writes_produce_writeback_bursts() {
        let sys = System::new(SystemConfig::default(), commodity(), Store::Row);
        let traces = partition_records(0..2048, 4, |r, t| {
            t.push(TraceOp::write_fields(r, vec![3]));
        });
        let r = sys.run(&[table()], &traces);
        assert!(r.writeback_bursts > 0, "dirty lines must be written back");
    }

    #[test]
    fn stride_writeback_merging_limits_write_bursts() {
        let sys = System::new(SystemConfig::default(), sam_en(), Store::Row);
        let traces = partition_records(0..2048, 4, |r, t| {
            t.push(TraceOp::write_fields(r, vec![3]));
        });
        let r = sys.run(&[table()], &traces);
        // 2048 records / 8 per group = 256 groups, each filled by one
        // stride read. The 2048 dirty lines fit the LLC, so every
        // writeback leaves in the final flush, whose merge decisions are
        // all taken before any burst completes: a group's 8 dirty lines
        // share one stride write.
        assert_eq!(r.stride_bursts, 2048 / 8);
        assert_eq!(
            r.writeback_bursts, r.stride_bursts,
            "writeback bursts not combined per stride burst"
        );
    }

    #[test]
    fn gs_dram_ecc_write_flood_drains_in_closed_form() {
        // 32 whole 1 KB records dirty 512 lines, 16x the write queue. They
        // fit the LLC, so all of them leave in the final flush, whose
        // drain's debug assertion holds the backlog to one writeback.
        let cfg = SystemConfig::default();
        let design = gs_dram_ecc();
        let write_queue =
            ControllerConfig::with_device(design.device_config()).write_queue_capacity;
        let sys = System::new(cfg, design, Store::Row);
        let records = 32;
        let traces = partition_records(0..records, 4, |r, t| {
            t.push(TraceOp::write_whole(r));
        });
        let r = sys.run(&[table()], &traces);
        let lines = records * 1024 / 64;
        assert!(lines >= 10 * write_queue as u64);
        // Write-allocate fills every line; each leaves fully dirty as one
        // regular write with its ECC read-modify-write extras, and every
        // `ECC_SEQ_PERIOD`-th fill reads an ECC word.
        assert_eq!(r.line_bursts, lines);
        assert_eq!(r.writeback_bursts, lines);
        assert_eq!(
            r.ecc_bursts,
            lines * datapath::ECC_WRITE_EXTRA as u64 + lines / lowering::ECC_SEQ_PERIOD as u64
        );
    }

    #[test]
    fn result_utilization_in_range() {
        let sys = System::new(SystemConfig::default(), commodity(), Store::Row);
        let traces = scan_trace(512, vec![0], 2);
        let r = sys.run(&[table()], &traces);
        let u = r.bus_utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u}");
    }

    #[test]
    fn dgms_uses_narrow_bursts_for_sparse_fields() {
        use crate::designs::dgms;
        let sys = System::new(SystemConfig::default(), dgms(), Store::Row);
        let traces = scan_trace(2048, vec![9], 4);
        let r = sys.run(&[table()], &traces);
        // One narrow burst per record (no gathering), quarter bus each.
        assert_eq!(r.line_bursts, 2048);
        assert_eq!(r.stride_bursts, 0);
        assert_eq!(r.bus_busy, 2048, "narrow bursts carry quarter bandwidth");
    }

    #[test]
    fn dgms_does_not_beat_baseline_on_strided_scans() {
        // The Section 1 claim: strided data share a word offset, hence a
        // sub-rank, so sub-ranking cannot overlap them.
        use crate::designs::dgms;
        let traces = scan_trace(4096, vec![9], 4);
        let base =
            System::new(SystemConfig::default(), commodity(), Store::Row).run(&[table()], &traces);
        let sub = System::new(SystemConfig::default(), dgms(), Store::Row).run(&[table()], &traces);
        let ratio = base.cycles as f64 / sub.cycles as f64;
        assert!(
            ratio < 1.15,
            "sub-ranking must not fix strided scans: {ratio:.2}"
        );
    }

    #[test]
    fn latency_stats_populated() {
        let sys = System::new(SystemConfig::default(), commodity(), Store::Row);
        let traces = scan_trace(512, vec![0], 2);
        let r = sys.run(&[table()], &traces);
        // Read-side statistics are populated for a read-only scan; the
        // write-side ones stay empty.
        assert!(r.ctrl.reads_done > 0);
        assert_eq!(r.ctrl.writes_done, 0);
        assert!(r.read_latency_mean > 0.0);
        assert!(r.read_latency_p99 > 0);
        assert_eq!(r.write_latency_mean, 0.0);
        assert_eq!(r.write_latency_p99, 0);
    }

    /// The bench sweep runner executes whole simulations on worker
    /// threads; the system (controller, device, caches, observer slot)
    /// must be `Send`.
    #[test]
    fn system_and_result_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<System>();
        assert_send::<RunResult>();
    }

    #[test]
    fn prefetch_never_changes_traffic_correctness() {
        // Prefetching may add fills but never drops any: the same sectors
        // end up resident and the run completes.
        let cfg = SystemConfig {
            prefetch_degree: 4,
            ..Default::default()
        };
        let sys = System::new(cfg, commodity(), Store::Row);
        let traces = whole_trace(256, 2);
        let r = sys.run(&[table()], &traces);
        assert!(r.line_bursts >= 256 * 16, "at least the demand fills");
    }

    /// A write that MSHR-merges into an in-flight prefetch dirties the
    /// line once the prefetch installs: every written line is written
    /// back exactly once, whatever the prefetch degree.
    #[test]
    fn writes_merged_into_a_prefetch_are_written_back() {
        // 8 records of 128 8-byte fields: 128 whole lines written.
        let traces = vec![(0..8).map(TraceOp::write_whole).collect::<Vec<_>>()];
        for prefetch_degree in [0, 2, 4] {
            let cfg = SystemConfig {
                prefetch_degree,
                ..Default::default()
            };
            let r = System::new(cfg, commodity(), Store::Row).run(&[TableSpec::ta(0, 64)], &traces);
            assert_eq!(
                r.writeback_bursts, 128,
                "prefetch degree {prefetch_degree}: every written line is written back once"
            );
        }
    }

    /// Tracing and epoch recording are observational: a traced run returns
    /// exactly the untraced RunResult, while producing events and epoch
    /// rows whose sums match the end-of-run counters.
    #[test]
    fn traced_run_matches_untraced_run() {
        let sys = System::new(SystemConfig::default(), sam_en(), Store::Row);
        let tables = [table()];
        let traces = scan_trace(1024, vec![9], 4);
        let plain = sys.run(&tables, &traces);

        let recorder = sam_trace::RunRecorder::shared(1 << 16, 5_000);
        let mut instr = Instrumentation {
            trace: Some(recorder.clone()),
            ..Default::default()
        };
        let traced = sys.run_instrumented(&tables, &traces, &mut instr);
        assert_eq!(traced, plain, "tracing must not perturb the simulation");

        let recorder = recorder.lock().unwrap();
        let ring = &recorder.ring;
        assert!(!ring.is_empty(), "an active run must produce events");
        assert!(
            ring.events().any(|e| e.name == "miss"),
            "cache misses must be traced"
        );
        assert!(
            ring.events().any(|e| e.name == "SRD"),
            "stride reads must appear on bank lanes"
        );
        let epochs = &recorder.epochs;
        let sum = epochs.sum();
        assert_eq!(sum.reads, traced.ctrl.reads_done);
        assert_eq!(sum.writes, traced.ctrl.writes_done);
        assert_eq!(sum.latency, traced.ctrl.total_latency);
        assert_eq!(sum.bus_busy, traced.bus_busy);
        assert!(
            epochs.rows().iter().any(|r| r.mlp_peak > 0),
            "MLP gauge must observe outstanding misses"
        );
    }

    /// The starvation-cap override chain: CLI/system config wins over the
    /// design preference; both reach the controller.
    #[test]
    fn starvation_cap_override_reaches_controller() {
        let traces = scan_trace(1024, vec![9], 4);
        let tables = [table()];
        let base =
            System::new(SystemConfig::default(), commodity(), Store::Row).run(&tables, &traces);
        // A zero cap forces pure FCFS: every decision with any queued
        // request older than `now` fires the guard.
        let cfg = SystemConfig {
            sched: SchedOverrides {
                starvation_cap: Some(0),
                ..SchedOverrides::default()
            },
            ..Default::default()
        };
        let fcfs = System::new(cfg, commodity(), Store::Row).run(&tables, &traces);
        assert_eq!(
            base.ctrl.starvation_forced, 0,
            "default cap never fires here"
        );
        assert!(
            fcfs.ctrl.starvation_forced > 0,
            "zero cap must force FCFS decisions"
        );
    }

    /// The tentpole invariant at system level: per-(core, kind) lanes are
    /// populated by a multicore run and telescope exactly to the aggregate
    /// controller counters, with demand fills attributed per core and
    /// writebacks attributed to the core whose line is evicted.
    #[test]
    fn per_core_lanes_populate_and_telescope() {
        use sam_memctrl::request::ReqKind;
        let sys = System::new(SystemConfig::default(), sam_en(), Store::Row);
        let traces = partition_records(0..2048, 4, |r, t| {
            t.push(TraceOp::write_fields(r, vec![3]));
            t.push(TraceOp::read_fields(r, vec![9]));
        });
        let r = sys.run(&[TableSpec::ta(0, 4096)], &traces);
        assert_eq!(
            ControllerStats {
                refreshes: r.ctrl.refreshes,
                ..r.per_core.total()
            },
            r.ctrl
        );
        for core in 0..r.per_core.cores() as u8 {
            for kind in ReqKind::ALL {
                assert_eq!(
                    r.per_core.lane(core, kind).refreshes,
                    0,
                    "no lane owns a refresh"
                );
            }
        }
        // All four cores issued demand traffic...
        let active = (0..4)
            .filter(|&c| r.per_core.lane(c, ReqKind::Demand).reads_done > 0)
            .count();
        assert_eq!(active, 4, "every core's demand fills must be attributed");
        // ...and writebacks are spread across owners, not lumped on core 0.
        let wb_owners = (0..4)
            .filter(|&c| r.per_core.lane(c, ReqKind::Writeback).writes_done > 0)
            .count();
        assert!(
            wb_owners >= 2,
            "writebacks must follow their owning cores, got {wb_owners} owners"
        );
        assert!(r.writeback_bursts > 0, "the workload must write back");
    }
}
