//! Completion handling: installing finished fills into the hierarchy,
//! releasing MSHR/merge bookkeeping, issuing the writebacks evictions
//! cause, and retiring MLP slots back to the issuing core.

use sam_dram::Cycle;

use crate::layout::SectorRun;

/// How many data beats before burst completion the critical word reaches
/// the core on critical-word-first layouts (Table 1: horizontal layouts
/// deliver the requested word first; the paper estimates the cost of
/// giving this up at <1% for the designs that do). A DDR4 64B burst is 8
/// beats over 4 command cycles; the requested 16B word is on the bus ~3
/// command cycles before the burst's last beat.
pub(super) const CWF_EARLY_BEATS: Cycle = 3;

#[derive(Debug, Clone, Copy)]
pub(super) enum FillKind {
    /// Regular line fill: install the whole line at `cache_line`.
    Line { cache_line: u64 },
    /// Stride (or narrow) fill of table `table`: install the run's
    /// sectors and release the pending keys
    /// ([`crate::layout::Placement::pending_key`]) of its first line,
    /// which stand for all of them.
    Sectors { sectors: SectorRun, table: u8 },
    /// Stride writeback with a merge key to release.
    StrideWb { key: u64 },
    /// A prefetched line fill: installs on completion but is not tied to a
    /// core's MLP window.
    Prefetch { cache_line: u64 },
}

#[derive(Debug, Clone, Copy)]
pub(super) struct FillRecord {
    pub(super) core: usize,
    pub(super) kind: FillKind,
}

use super::{mem_to_cpu, Engine};

impl<'t> Engine<'t> {
    pub(super) fn handle_completion(&mut self, c: sam_memctrl::request::Completion) {
        self.last_finish = self.last_finish.max(c.finish);
        if self.hierarchy.trace_attached() {
            self.hierarchy.set_trace_clock(c.finish);
        }
        let Some(record) = self.fills.remove(&c.id) else {
            return;
        };
        match record.kind {
            FillKind::Line { cache_line } | FillKind::Prefetch { cache_line } => {
                self.pending_lines.remove(&cache_line);
                let mut wbs = std::mem::take(&mut self.wb_buffer);
                self.hierarchy
                    .fill_line_into(cache_line, record.core as u8, &mut wbs);
                for s in 0..4u64 {
                    let sector = cache_line + 16 * s;
                    if self.take_pending_dirty(sector) {
                        self.hierarchy.mark_dirty(sector);
                    }
                }
                self.issue_writebacks(wbs, c.finish);
                // The whole line is now resident: any core blocked on one
                // of its sectors hits on retry.
                self.wake_covering_line(cache_line);
                // A prefetch holds no slot of the core's MLP window.
                if matches!(record.kind, FillKind::Line { .. }) {
                    self.retire(record.core, c.finish);
                }
            }
            FillKind::Sectors { sectors, table } => {
                let p = &self.placements[table as usize];
                for s in sectors.head().iter() {
                    self.pending_sectors.remove(&p.pending_key(s));
                }
                let mut wbs = std::mem::take(&mut self.wb_buffer);
                for s in sectors.iter() {
                    self.hierarchy
                        .fill_sector_into(s, record.core as u8, &mut wbs);
                    if self.take_pending_dirty(s) {
                        self.hierarchy.mark_dirty(s);
                    }
                }
                self.issue_writebacks(wbs, c.finish);
                // A sector fill installs exactly the run's 16B sectors;
                // other sectors of the same lines stay invalid, so the
                // wake covers the run, not its lines.
                self.wake_covering_run(sectors);
                self.retire(record.core, c.finish);
            }
            FillKind::StrideWb { key } => {
                self.wb_merge.remove(&key);
            }
        }
    }

    /// Whether `sector` was written while its fill was in flight, clearing
    /// the mark. Read-only runs never mark one, so an empty set answers
    /// without a probe.
    fn take_pending_dirty(&mut self, sector: u64) -> bool {
        !self.pending_dirty.is_empty() && self.pending_dirty.remove(&sector)
    }

    /// Issues the writebacks a fill displaced, in order, each claimed and
    /// emitted at once, then hands the emptied buffer back for the next
    /// fill.
    fn issue_writebacks(&mut self, mut wbs: Vec<sam_cache::hierarchy::Writeback>, when: Cycle) {
        for wb in wbs.drain(..) {
            if let Some(claimed) = self.claim_writeback(&wb) {
                self.emit_writeback(claimed, when);
            }
        }
        self.wb_buffer = wbs;
    }

    fn retire(&mut self, core: usize, finish: Cycle) {
        // Critical-word-first layouts hand the requested word to the core
        // before the burst completes (see [`CWF_EARLY_BEATS`]).
        let visible = if self.design.critical_word_first {
            finish.saturating_sub(CWF_EARLY_BEATS)
        } else {
            finish
        };
        let c = &mut self.cores[core];
        debug_assert!(c.outstanding > 0);
        c.outstanding -= 1;
        c.freed.push(std::cmp::Reverse(mem_to_cpu(visible)));
        // The MLP window has a free slot again: the publisher that wakes a
        // window-stalled core.
        self.runnable[core] = true;
    }
}
