//! Bounded-MLP core stepping: op expansion into 16B sector touches, the
//! cache-hierarchy front end, and the sliding MLP window (see the module
//! doc on [`super`] for the overall decomposition).

use sam_cache::hierarchy::{AccessKind, HitLevel};

use crate::layout::Placement;
use crate::ops::TraceOp;

use super::{cpu_to_mem, Engine};

/// CPU cycles charged per 16B touch (issue bandwidth).
const TOUCH_COST_CPU: u64 = 1;

/// Extra CPU cycles for an L2 hit.
const L2_EXTRA_CPU: u64 = 2;

/// Extra CPU cycles for an LLC hit, and for discovering a miss.
const LLC_EXTRA_CPU: u64 = 4;

/// One 16B sector an op touches, as the core issues it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectorTouch {
    /// Cache address of the sector (16B aligned).
    pub cache_sector: u64,
    /// Index into the run's table list.
    pub table: u8,
    /// Record index.
    pub record: u64,
    /// The first field of the op that lands in this sector.
    pub field: u16,
    /// Store (true) or load (false).
    pub write: bool,
    /// Field access (stride-eligible) vs whole-record access.
    pub field_access: bool,
}

/// Expands one memory op into its 16B sector touches, replacing the
/// contents of `out`: one touch per distinct sector, in field order, each
/// carrying the first field that lands in it. `Compute` ops touch nothing.
///
/// The dedup is exact for any field order and O(1) per field while sector
/// addresses ascend, which they do in field order under every placement:
/// a sector above the running maximum is new, one equal to it is a
/// duplicate, and only a descending address scans the touches so far.
///
/// # Panics
///
/// Panics if the op names a missing table or exceeds its geometry.
pub fn expand_op(placements: &[Placement], op: &TraceOp, out: &mut Vec<SectorTouch>) {
    out.clear();
    let (table, record, write, field_access) = match *op {
        TraceOp::Compute(_) => return,
        TraceOp::Fields {
            table,
            record,
            write,
            ..
        } => (table, record, write, true),
        TraceOp::Whole {
            table,
            record,
            write,
        } => (table, record, write, false),
    };
    let p = &placements[table as usize];
    let mut max = None;
    let mut push = |field: u32| {
        let sector = p.field_addr(record, field) & !15;
        if Some(sector) > max {
            max = Some(sector);
        } else if Some(sector) == max || out.iter().any(|t| t.cache_sector == sector) {
            return;
        }
        out.push(SectorTouch {
            cache_sector: sector,
            table,
            record,
            field: field as u16,
            write,
            field_access,
        });
    };
    match op {
        TraceOp::Fields { fields, .. } => {
            for &f in fields.iter() {
                push(u32::from(f));
            }
            // Access-path choice (the sload/sstore decision is made by
            // software, Section 5.1.2): when an op touches half the
            // record or more, a row access moves less data than
            // per-field stride gathers — fall back to line fills.
            if out.len() as u64 * 16 * 2 > p.spec().record_bytes() {
                for t in out.iter_mut() {
                    t.field_access = false;
                }
            }
        }
        // Touch every field; sector dedup collapses neighbours that share
        // a 16B sector (adjacent fields in row stores).
        _ => (0..p.spec().fields).for_each(push),
    }
}

/// What a stalled core is waiting on, registered at stall time so wake
/// publishers (completions, covering fills, queue drains) can re-arm the
/// core in O(1) instead of the engine re-stepping every core every round.
///
/// A stalled retry can only make progress when one of these fires:
/// the blocked line/sector is installed into the hierarchy, a covering
/// fill enters the MSHR pending sets, the core's own MLP slot retires, or
/// (for `queue_full`) the controller read queue drains an entry. Each of
/// those is a discrete event with a publisher; anything else cannot change
/// the retry's outcome, which is what makes skipping the retries exact.
#[derive(Debug, Clone, Copy)]
pub(super) struct Blocker {
    /// The 16B sector the blocked touch addresses.
    pub(super) sector: u64,
    /// Its containing cache line.
    pub(super) line: u64,
    /// Stalled on controller queue capacity (vs the MLP window).
    pub(super) queue_full: bool,
}

#[derive(Debug)]
pub(super) struct CoreState<'t> {
    pub(super) trace: &'t [TraceOp],
    pub(super) op_idx: usize,
    pub(super) sector_idx: usize,
    pub(super) sectors: Vec<SectorTouch>,
    pub(super) time_cpu: u64,
    pub(super) outstanding: usize,
    pub(super) issued: u64,
    /// CPU-cycle times at which completed fills freed their MLP slots
    /// (min-heap): issuing beyond the window consumes the earliest one.
    pub(super) freed: std::collections::BinaryHeap<std::cmp::Reverse<u64>>,
    pub(super) done: bool,
    /// Set while stalled: the wake condition that can unblock this core.
    pub(super) blocked: Option<Blocker>,
}

impl<'t> CoreState<'t> {
    pub(super) fn new(trace: &'t [TraceOp]) -> Self {
        Self {
            trace,
            op_idx: 0,
            sector_idx: 0,
            sectors: Vec::new(),
            time_cpu: 0,
            outstanding: 0,
            issued: 0,
            freed: std::collections::BinaryHeap::new(),
            done: trace.is_empty(),
            blocked: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Step {
    Progress,
    Stalled,
    Done,
}

impl<'t> Engine<'t> {
    /// Advances one core as far as it can go; returns how it stopped.
    pub(super) fn step_core(&mut self, ci: usize) -> Step {
        if self.cores[ci].done {
            return Step::Done;
        }
        // Any previously registered blocker is stale the moment the core
        // runs again; a stall below re-registers the current one.
        self.cores[ci].blocked = None;
        let mut progressed = false;
        loop {
            // Need a fresh op expansion?
            if self.cores[ci].sector_idx >= self.cores[ci].sectors.len() {
                let c = &self.cores[ci];
                let (trace, op_idx) = (c.trace, c.op_idx);
                match trace.get(op_idx) {
                    None => {
                        self.cores[ci].done = true;
                        return Step::Done;
                    }
                    Some(TraceOp::Compute(cycles)) => {
                        self.cores[ci].time_cpu += *cycles as u64;
                        self.cores[ci].op_idx += 1;
                        self.cores[ci].sector_idx = 0;
                        self.cores[ci].sectors.clear();
                        progressed = true;
                        continue;
                    }
                    Some(op) => {
                        expand_op(&self.placements, op, &mut self.cores[ci].sectors);
                        let c = &mut self.cores[ci];
                        c.sector_idx = 0;
                        c.op_idx += 1;
                        if c.sectors.is_empty() {
                            progressed = true;
                            continue;
                        }
                    }
                }
            }
            let touch = self.cores[ci].sectors[self.cores[ci].sector_idx];
            match self.touch(ci, touch) {
                Step::Progress => {
                    self.cores[ci].sector_idx += 1;
                    progressed = true;
                }
                Step::Stalled => {
                    return if progressed {
                        Step::Progress
                    } else {
                        Step::Stalled
                    };
                }
                Step::Done => unreachable!("touch never reports Done"),
            }
        }
    }

    /// Performs one 16B touch; `Stalled` means MLP or queue pressure.
    fn touch(&mut self, ci: usize, t: SectorTouch) -> Step {
        self.probe_tick();
        self.cores[ci].time_cpu += TOUCH_COST_CPU;
        let kind = if t.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        if self.hierarchy.trace_attached() {
            self.hierarchy
                .set_trace_clock(cpu_to_mem(self.cores[ci].time_cpu));
        }
        let result = self.hierarchy.access(t.cache_sector, kind);
        match result.level {
            HitLevel::L1 => Step::Progress,
            HitLevel::L2 => {
                self.cores[ci].time_cpu += L2_EXTRA_CPU;
                Step::Progress
            }
            HitLevel::Llc => {
                self.cores[ci].time_cpu += LLC_EXTRA_CPU;
                Step::Progress
            }
            HitLevel::Memory => {
                self.cores[ci].time_cpu += LLC_EXTRA_CPU;
                let line = t.cache_sector & !63;
                // MSHR merge: a fill in flight already covers this touch.
                let key = self.placements[t.table as usize].pending_key(t.cache_sector);
                if self.pending_sectors.contains(&key) || self.pending_lines.contains(&line) {
                    if t.write {
                        self.pending_dirty.insert(t.cache_sector);
                    }
                    return Step::Progress;
                }
                if self.cores[ci].outstanding >= self.cfg.mlp {
                    // Undo the speculative miss-discovery charge: the touch
                    // will be retried once a slot frees up.
                    self.cores[ci].time_cpu -= LLC_EXTRA_CPU + TOUCH_COST_CPU;
                    self.cores[ci].blocked = Some(Blocker {
                        sector: t.cache_sector,
                        line,
                        queue_full: false,
                    });
                    return Step::Stalled;
                }
                match self.issue_fill(ci, t) {
                    true => {
                        if t.write {
                            self.pending_dirty.insert(t.cache_sector);
                        }
                        Step::Progress
                    }
                    false => {
                        self.cores[ci].time_cpu -= LLC_EXTRA_CPU + TOUCH_COST_CPU;
                        self.cores[ci].blocked = Some(Blocker {
                            sector: t.cache_sector,
                            line,
                            queue_full: true,
                        });
                        Step::Stalled
                    }
                }
            }
        }
    }

    /// Charges the core for occupying an MLP slot: beyond the first window,
    /// each issue consumes the earliest freed slot, advancing core time to
    /// that completion (the sliding-window model of out-of-order misses).
    pub(super) fn consume_slot(&mut self, ci: usize) {
        let mlp = self.cfg.mlp as u64;
        let c = &mut self.cores[ci];
        c.issued += 1;
        if c.issued > mlp {
            let std::cmp::Reverse(t) = c.freed.pop().expect("a slot must free before reuse");
            c.time_cpu = c.time_cpu.max(t);
        }
    }
}
