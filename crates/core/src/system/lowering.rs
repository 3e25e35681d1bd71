//! Design lowering: turning a missing 16B touch into tagged memory
//! requests — stride gathers, narrow sub-ranked bursts, regular line
//! fills, next-line prefetches, and embedded-ECC extras.
//!
//! Every request built here carries a [`Provenance`] naming the issuing
//! core and the lowering path, so the controller's per-core lanes and the
//! per-core trace lanes attribute each burst without the scheduler ever
//! reading the tag.

use sam_dram::moderegs::IoMode;
use sam_dram::Cycle;
use sam_memctrl::request::{MemRequest, Provenance, ReqKind, StrideSpec};

use crate::design::EccScheme;
use crate::layout::SectorRun;

use super::completion::{FillKind, FillRecord};
use super::{cpu_to_mem, Engine, SectorTouch};

/// Embedded ECC: one extra ECC read per this many stride bursts (gathered
/// lines come from scattered rows, defeating ECC locality).
const ECC_STRIDE_PERIOD: u32 = 2;

/// Embedded ECC: one extra ECC read per this many sequential line fills.
pub(super) const ECC_SEQ_PERIOD: u32 = 8;

impl<'t> Engine<'t> {
    /// Builds and enqueues the memory request(s) for a missing touch.
    /// Returns `false` when the controller queue is full.
    pub(super) fn issue_fill(&mut self, ci: usize, t: SectorTouch) -> bool {
        let arrival = cpu_to_mem(self.cores[ci].time_cpu);
        let p = &self.placements[t.table as usize];
        let stride = if t.field_access {
            p.stride_burst(t.record, t.field as u32)
        } else {
            None
        };
        match stride {
            Some(fill) => {
                let id = self.fresh_id();
                let caps = self.design.stride.expect("stride fill implies caps");
                let req = if caps.needs_mode_switch {
                    MemRequest::stride_read(
                        id,
                        fill.burst_addr,
                        StrideSpec {
                            gather: self.cfg.granularity.gather(),
                            mode: IoMode::Sx4(fill.lane),
                        },
                    )
                } else {
                    // GS-DRAM / RC-NVM widen the command interface instead of
                    // switching modes: schedule as a plain burst.
                    MemRequest::read(id, fill.burst_addr)
                }
                .with_provenance(Provenance::demand(ci as u8));
                if self.ctrl.enqueue(req, arrival).is_err() {
                    return false;
                }
                self.stride_bursts += 1;
                let table = t.table as usize;
                let block = self.placements[table].gather_block_index(fill.sectors.first_line());
                self.block_to_burst[table][block] = fill.unit + 1;
                self.book_sector_fill(ci, id, t.table, fill.sectors);
                // RC-NVM-bit gathers bit-level sub-fields: an extra column
                // burst every `extra_burst_period` stride bursts.
                if caps.extra_burst_period > 0 {
                    self.extra_burst_count += 1;
                    if self.extra_burst_count >= caps.extra_burst_period {
                        self.extra_burst_count = 0;
                        let id = self.fresh_id();
                        let extra = MemRequest::read(id, fill.burst_addr + 64)
                            .with_provenance(Provenance::new(ci as u8, ReqKind::Traffic));
                        self.stride_bursts += 1;
                        if self.ctrl.enqueue(extra, arrival).is_err() {
                            self.wb_backlog.push_back((extra, arrival, None));
                        }
                    }
                }
                // Embedded ECC cannot co-fetch codes for scattered rows.
                if self.design.ecc == EccScheme::Embedded {
                    self.ecc_stride_count += 1;
                    if self.ecc_stride_count >= ECC_STRIDE_PERIOD {
                        self.ecc_stride_count = 0;
                        self.issue_ecc_burst(ci, fill.burst_addr, arrival, false);
                    }
                }
                true
            }
            None if self.design.sub_ranked && t.field_access => {
                // DGMS-style narrow access: fetch only the touched 16B
                // sector over one channel sub-lane. Strided scans keep
                // hitting the same word offset — the same sub-lane — so
                // they serialize (the Section 1 motivation), while random
                // accesses across offsets overlap four-wide.
                let id = self.fresh_id();
                let dram_line = self.dram_line(t);
                let sector_in_line = t.cache_sector & 63;
                let req = MemRequest::narrow_read(id, dram_line + sector_in_line)
                    .with_provenance(Provenance::demand(ci as u8));
                if self.ctrl.enqueue(req, arrival).is_err() {
                    return false;
                }
                self.line_bursts += 1;
                self.book_sector_fill(ci, id, t.table, SectorRun::single(t.cache_sector));
                true
            }
            None => {
                let id = self.fresh_id();
                let cache_line = t.cache_sector & !63;
                let dram_addr = self.dram_line(t);
                let req =
                    MemRequest::read(id, dram_addr).with_provenance(Provenance::demand(ci as u8));
                if self.ctrl.enqueue(req, arrival).is_err() {
                    return false;
                }
                self.line_bursts += 1;
                self.pending_lines.insert(cache_line);
                self.wake_covering_line(cache_line);
                self.fills.insert(
                    id,
                    FillRecord {
                        core: ci,
                        kind: FillKind::Line { cache_line },
                    },
                );
                self.cores[ci].outstanding += 1;
                self.consume_slot(ci);
                // Next-line stream prefetch: a sequential miss pattern pulls
                // the following lines without occupying the core's window.
                if self.cfg.prefetch_degree > 0 {
                    let sequential = self.last_miss_line[ci].wrapping_add(64) == cache_line;
                    self.last_miss_line[ci] = cache_line;
                    if sequential {
                        for d in 1..=self.cfg.prefetch_degree as u64 {
                            let next = cache_line + d * 64;
                            if self.pending_lines.contains(&next) {
                                continue;
                            }
                            let pid = self.fresh_id();
                            let preq = MemRequest::read(pid, dram_addr + d * 64)
                                .with_provenance(Provenance::new(ci as u8, ReqKind::Prefetch));
                            if self.ctrl.enqueue(preq, arrival).is_ok() {
                                self.line_bursts += 1;
                                self.pending_lines.insert(next);
                                self.wake_covering_line(next);
                                self.fills.insert(
                                    pid,
                                    FillRecord {
                                        core: ci,
                                        kind: FillKind::Prefetch { cache_line: next },
                                    },
                                );
                            }
                        }
                    }
                }
                if self.design.ecc == EccScheme::Embedded {
                    self.ecc_seq_count += 1;
                    if self.ecc_seq_count >= ECC_SEQ_PERIOD {
                        self.ecc_seq_count = 0;
                        self.issue_ecc_burst(ci, dram_addr, arrival, false);
                    }
                }
                true
            }
        }
    }

    /// Books an enqueued sector fill of `table`: one pending key per
    /// sector offset (a stride run's other lines share its first line's
    /// keys), one wake for cores blocked on any of its sectors (they now
    /// MSHR-merge instead of missing), its fill record and an MLP slot.
    fn book_sector_fill(&mut self, ci: usize, id: u64, table: u8, sectors: SectorRun) {
        let p = &self.placements[table as usize];
        for s in sectors.head().iter() {
            self.pending_sectors.insert(p.pending_key(s));
        }
        self.wake_covering_run(sectors);
        self.fills.insert(
            id,
            FillRecord {
                core: ci,
                kind: FillKind::Sectors { sectors, table },
            },
        );
        self.cores[ci].outstanding += 1;
        self.consume_slot(ci);
    }

    /// DRAM-schedule address of the line holding a touch, for a regular
    /// (non-stride) access.
    fn dram_line(&self, t: SectorTouch) -> u64 {
        self.placements[t.table as usize].dram_addr_for(t.record, t.field as u32) & !63
    }

    /// Fire-and-forget embedded-ECC burst near `data_addr`, attributed to
    /// the core whose data access made it necessary.
    pub(super) fn issue_ecc_burst(
        &mut self,
        core: usize,
        data_addr: u64,
        arrival: Cycle,
        write: bool,
    ) {
        let id = self.fresh_id();
        // ECC words live in the top eighth of the same row (in-page).
        let row = data_addr & !8191;
        let ecc_addr = row + 7 * 1024 + ((data_addr >> 9) & 0x3C0);
        let req = if write {
            MemRequest::write(id, ecc_addr)
        } else {
            MemRequest::read(id, ecc_addr)
        }
        .with_provenance(Provenance::new(core as u8, ReqKind::EccExtra));
        self.ecc_bursts += 1;
        if self.ctrl.enqueue(req, arrival).is_err() {
            self.wb_backlog.push_back((req, arrival, None));
        }
    }
}
