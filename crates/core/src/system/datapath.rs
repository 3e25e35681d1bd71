//! Writeback datapath: dirty-eviction lowering (stride write-combining vs
//! regular write bursts) and the overflow backlog that absorbs writebacks
//! the controller queue cannot take yet.
//!
//! Victims arrive from the cache hierarchy carrying the core that
//! installed the line ([`sam_cache::set_assoc::Victim::owner`]); that
//! owner becomes the [`Provenance`] of the writeback burst, so write
//! traffic is charged to the core whose data is evicted rather than
//! blanket-attributed to core 0.

use sam_dram::moderegs::IoMode;
use sam_dram::Cycle;
use sam_memctrl::request::{MemRequest, Provenance, ReqKind, StrideSpec};

use crate::design::EccScheme;

use super::completion::{FillKind, FillRecord};
use super::Engine;

impl<'t> Engine<'t> {
    /// Enqueues a writeback; dirty partial lines use stride writes (sstore)
    /// with write-combining on the burst address.
    pub(super) fn issue_writeback(&mut self, wb: sam_cache::hierarchy::Writeback, when: Cycle) {
        let line = wb.line_addr;
        let prov = Provenance::new(wb.owner, ReqKind::Writeback);
        let full_line = wb.sectors.all_valid() && wb.sectors.all_dirty();
        let stride_info = if full_line {
            None
        } else {
            self.placements
                .iter()
                .find_map(|p| p.gather_block(line))
                .and_then(|block| self.block_to_burst.get(&block).copied())
        };
        match stride_info {
            Some((burst_addr, lane)) => {
                if self.wb_merge.contains(&burst_addr) {
                    return; // combined with a pending stride writeback
                }
                let id = self.fresh_id();
                let caps = self
                    .design
                    .stride
                    .expect("stride fills recorded imply caps");
                let req = if caps.needs_mode_switch {
                    MemRequest::stride_write(
                        id,
                        burst_addr,
                        StrideSpec {
                            gather: self.cfg.granularity.gather(),
                            mode: IoMode::Sx4(lane),
                        },
                    )
                } else {
                    MemRequest::write(id, burst_addr)
                }
                .with_provenance(prov);
                // The key is held from now until the burst completes, even
                // while it waits in the backlog: later group-mates merge.
                self.wb_merge.insert(burst_addr);
                self.writeback_bursts += 1;
                if self.ctrl.enqueue(req, when).is_ok() {
                    self.fills.insert(
                        id,
                        FillRecord {
                            core: wb.owner as usize,
                            kind: FillKind::StrideWb { key: burst_addr },
                        },
                    );
                } else {
                    self.wb_backlog.push_back((req, when, Some(burst_addr)));
                }
            }
            None => {
                let table = self.placements.iter().find(|p| {
                    let spec = p.spec();
                    line >= spec.base && line < spec.base + 4 * spec.data_bytes()
                });
                let dram_addr = table.map_or(line, |p| p.dram_addr_regular(line));
                let id = self.fresh_id();
                let req = MemRequest::write(id, dram_addr).with_provenance(prov);
                self.writeback_bursts += 1;
                // Fire-and-forget: its completion releases nothing, so it
                // leaves no fill record.
                if self.ctrl.enqueue(req, when).is_err() {
                    self.wb_backlog.push_back((req, when, None));
                }
                if self.design.ecc == EccScheme::Embedded {
                    for _ in 0..self.cfg.ecc_write_extra {
                        self.issue_ecc_burst(wb.owner as usize, dram_addr, when, true);
                    }
                }
            }
        }
    }

    pub(super) fn flush_backlog(&mut self) {
        while let Some(&(req, when, key)) = self.wb_backlog.front() {
            if self.ctrl.enqueue(req, when).is_err() {
                break;
            }
            self.wb_backlog.pop_front();
            // Only a stride writeback has a merge key to release on
            // completion. Backlogged requests already carry their
            // provenance; the fill record reuses it so attribution survives
            // the detour.
            if let Some(key) = key {
                self.fills.insert(
                    req.id,
                    FillRecord {
                        core: req.prov.core as usize,
                        kind: FillKind::StrideWb { key },
                    },
                );
            }
        }
    }
}
