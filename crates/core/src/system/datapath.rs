//! Writeback datapath: dirty-eviction lowering (stride write-combining vs
//! regular write bursts) and the overflow backlog that absorbs writebacks
//! the controller queue cannot take yet.
//!
//! A writeback is issued in two steps. The merge decision
//! ([`Engine::claim_writeback`]) picks its route and drops a stride
//! writeback whose burst key an earlier pending stride writeback holds;
//! the emission ([`Engine::emit_writeback`]) mints the survivor's ids and
//! enqueues its write and embedded-ECC extras, parking in the backlog
//! whatever does not fit. Evictions during the run take both steps back
//! to back. The end-of-run flush takes every merge decision at once and
//! emits each survivor only once the backlog is empty, so the backlog
//! never holds more than one writeback's `1 + ECC_WRITE_EXTRA` requests
//! (DESIGN.md §13, "Bounded writeback drain").
//!
//! Victims arrive from the cache hierarchy carrying the core that
//! installed the line ([`sam_cache::set_assoc::Victim::owner`]); that
//! owner becomes the [`Provenance`] of the writeback burst, so write
//! traffic is charged to the core whose data is evicted rather than
//! blanket-attributed to core 0.

use sam_cache::hierarchy::Writeback;
use sam_dram::moderegs::IoMode;
use sam_dram::Cycle;
use sam_memctrl::request::{MemRequest, Provenance, ReqKind, StrideSpec};

use crate::design::EccScheme;

use super::completion::{FillKind, FillRecord};
use super::Engine;

/// Embedded ECC: extra bursts (read-modify-write of ECC words) per write
/// burst (Section 3.3.1: one write transfer can update five ECC words).
pub(super) const ECC_WRITE_EXTRA: u32 = 4;

/// A writeback that claimed its burst, with everything its emission
/// needs (16 bytes, the size of a [`Writeback`]): the stride burst
/// address and lane on SAM's stride route, else the dirty line's address.
#[derive(Debug, Clone, Copy)]
pub(super) struct ClaimedWb {
    addr: u64,
    owner: u8,
    lane: Option<u8>,
}

// The end-of-run flush collects its claims into the allocation of the
// `Writeback`s they came from, which needs equal sizes.
const _: () = assert!(std::mem::size_of::<ClaimedWb>() == std::mem::size_of::<Writeback>());

impl<'t> Engine<'t> {
    /// The merge decision. Dirty partial lines use stride writes (sstore)
    /// through the burst their gather block was filled by; whole dirty
    /// lines, and lines of no gather block, use a regular write. A stride
    /// writeback claims its burst key, and holds it until the burst
    /// completes, even while it waits in the backlog; a later one on a held
    /// key is combined with it (`None`).
    pub(super) fn claim_writeback(&mut self, wb: &Writeback) -> Option<ClaimedWb> {
        let full_line = wb.sectors.all_valid() && wb.sectors.all_dirty();
        let stride = if full_line {
            None
        } else {
            self.placements
                .iter()
                .zip(&self.block_to_burst)
                .find_map(|(p, units)| p.gather_block(wb.line_addr).map(|b| (p, units, b)))
                .and_then(|(p, units, block)| {
                    let unit = units[p.gather_block_index(block)].checked_sub(1)?;
                    Some(p.block_burst(block, unit))
                })
        };
        match stride {
            Some((burst_addr, lane)) => self.wb_merge.insert(burst_addr).then_some(ClaimedWb {
                addr: burst_addr,
                owner: wb.owner,
                lane: Some(lane),
            }),
            None => Some(ClaimedWb {
                addr: wb.line_addr,
                owner: wb.owner,
                lane: None,
            }),
        }
    }

    /// Builds and enqueues the requests of a writeback that claimed its
    /// burst: the write (a stride write on SAM's stride route) and, on
    /// embedded-ECC designs, the ECC read-modify-write extras of a regular
    /// write. Whatever the controller cannot take yet is backlogged.
    pub(super) fn emit_writeback(&mut self, wb: ClaimedWb, when: Cycle) {
        let prov = Provenance::new(wb.owner, ReqKind::Writeback);
        self.writeback_bursts += 1;
        match wb.lane {
            Some(lane) => {
                let id = self.fresh_id();
                let caps = self
                    .design
                    .stride
                    .expect("stride fills recorded imply caps");
                let req = if caps.needs_mode_switch {
                    MemRequest::stride_write(
                        id,
                        wb.addr,
                        StrideSpec {
                            gather: self.cfg.granularity.gather(),
                            mode: IoMode::Sx4(lane),
                        },
                    )
                } else {
                    MemRequest::write(id, wb.addr)
                }
                .with_provenance(prov);
                if self.ctrl.enqueue(req, when).is_ok() {
                    self.fills.insert(
                        id,
                        FillRecord {
                            core: wb.owner as usize,
                            kind: FillKind::StrideWb { key: wb.addr },
                        },
                    );
                } else {
                    self.wb_backlog.push_back((req, when, Some(wb.addr)));
                }
            }
            None => {
                let line = wb.addr;
                let table = self.placements.iter().find(|p| {
                    let spec = p.spec();
                    line >= spec.base && line < spec.base + 4 * spec.data_bytes()
                });
                let dram_addr = table.map_or(line, |p| p.dram_addr_regular(line));
                let id = self.fresh_id();
                let req = MemRequest::write(id, dram_addr).with_provenance(prov);
                // Fire-and-forget: its completion releases nothing, so it
                // leaves no fill record.
                if self.ctrl.enqueue(req, when).is_err() {
                    self.wb_backlog.push_back((req, when, None));
                }
                if self.design.ecc == EccScheme::Embedded {
                    for _ in 0..ECC_WRITE_EXTRA {
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
