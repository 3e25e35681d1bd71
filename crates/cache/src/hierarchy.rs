//! The three-level cache hierarchy of Table 2, with sector fills.
//!
//! L1 32KB / L2 256KB / LLC 8MB, all 8-way with 64B lines. Lines are
//! sectored (Section 5.1.1): a regular memory fill validates all four 16B
//! sectors, a stride fill validates a single sector in each gathered line.
//! Writes are write-back/write-allocate; dirty data migrates down on
//! eviction and only LLC evictions reach memory (returned to the caller as
//! [`Writeback`]s so the simulator can issue the corresponding regular or
//! stride write bursts).

use crate::sector::{split_sector, SectorState};
use crate::set_assoc::{CacheStats, Probe, SetAssocCache};

pub use crate::set_assoc::Victim as Writeback;

/// Which level satisfied an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HitLevel {
    /// First-level cache.
    L1,
    /// Second-level cache.
    L2,
    /// Last-level cache.
    Llc,
    /// Not cached: memory must be accessed.
    Memory,
}

/// Read or write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store (write-allocate: on miss, fill then re-access).
    Write,
}

/// Result of a hierarchy access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessResult {
    /// Level that satisfied the access ([`HitLevel::Memory`] on full miss).
    pub level: HitLevel,
    /// Lookup latency in CPU cycles up to (and including) the hit level;
    /// for misses, the latency spent discovering the miss.
    pub latency: u64,
    /// Whether the line was present but the *sector* invalid somewhere on
    /// the path (a sector miss still requires a memory fetch, but only of
    /// 16B — it is SAM's stride fill granularity at work).
    pub sector_miss: bool,
}

impl AccessResult {
    /// Whether the caller must fetch from memory before retrying.
    pub fn memory_fill_needed(&self) -> bool {
        self.level == HitLevel::Memory
    }
}

/// Hierarchy geometry and lookup latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 capacity in bytes.
    pub l1_bytes: u64,
    /// L2 capacity in bytes.
    pub l2_bytes: u64,
    /// LLC capacity in bytes.
    pub llc_bytes: u64,
    /// Associativity at every level (Table 2: 8); 1–8 (one tag row per
    /// set).
    pub ways: usize,
    /// L1 hit latency (CPU cycles).
    pub l1_latency: u64,
    /// L2 hit latency.
    pub l2_latency: u64,
    /// LLC hit latency.
    pub llc_latency: u64,
}

impl HierarchyConfig {
    /// Table 2's configuration.
    pub fn table2() -> Self {
        Self {
            l1_bytes: 32 * 1024,
            l2_bytes: 256 * 1024,
            llc_bytes: 8 * 1024 * 1024,
            ways: 8,
            l1_latency: 4,
            l2_latency: 12,
            llc_latency: 38,
        }
    }

    /// A tiny hierarchy for fast unit tests.
    pub fn tiny() -> Self {
        Self {
            l1_bytes: 1024,
            l2_bytes: 4096,
            llc_bytes: 16 * 1024,
            ways: 2,
            l1_latency: 4,
            l2_latency: 12,
            llc_latency: 38,
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::table2()
    }
}

/// The assembled L1/L2/LLC sector-cache hierarchy.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1: SetAssocCache,
    l2: SetAssocCache,
    llc: SetAssocCache,
    /// Optional trace recorder (miss/fill/promote instants). The hierarchy
    /// has no clock of its own, so the driving engine supplies timestamps
    /// via [`Self::set_trace_clock`].
    trace: sam_trace::SinkSlot,
    trace_now: u64,
}

impl Hierarchy {
    /// Creates an empty hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Self {
        Self {
            cfg,
            l1: SetAssocCache::new(cfg.l1_bytes, cfg.ways),
            l2: SetAssocCache::new(cfg.l2_bytes, cfg.ways),
            llc: SetAssocCache::new(cfg.llc_bytes, cfg.ways),
            trace: sam_trace::SinkSlot::default(),
            trace_now: 0,
        }
    }

    /// Attaches the run's trace recorder; miss/fill/sector-promote
    /// instants are emitted on the cache lane from now on.
    pub fn attach_trace(&mut self, recorder: sam_trace::SharedRecorder) {
        self.trace.attach(recorder);
    }

    /// Whether a trace recorder is attached (drivers skip clock upkeep
    /// otherwise).
    pub fn trace_attached(&self) -> bool {
        self.trace.is_attached()
    }

    /// Sets the memory-cycle timestamp stamped on subsequent trace events.
    pub fn set_trace_clock(&mut self, now: u64) {
        self.trace_now = now;
    }

    #[inline]
    fn trace_instant(&self, name: &'static str, addr: u64) {
        self.trace.emit(sam_trace::TraceEvent::instant(
            sam_trace::event::track::CACHE,
            sam_trace::Category::Cache,
            name,
            self.trace_now,
            addr,
        ));
    }

    /// Per-level statistics: (L1, L2, LLC).
    pub fn stats(&self) -> (&CacheStats, &CacheStats, &CacheStats) {
        (self.l1.stats(), self.l2.stats(), self.llc.stats())
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Read-only view of the L1 (for external invariant checking).
    pub fn l1(&self) -> &SetAssocCache {
        &self.l1
    }

    /// Read-only view of the L2.
    pub fn l2(&self) -> &SetAssocCache {
        &self.l2
    }

    /// Read-only view of the LLC.
    pub fn llc(&self) -> &SetAssocCache {
        &self.llc
    }

    /// Accesses the 16B sector containing `addr`.
    ///
    /// On a hit below L1, the sector is promoted into the upper levels.
    /// On a miss (line or sector), nothing is filled — the caller fetches
    /// from memory and then calls [`Self::fill_line`] or
    /// [`Self::fill_sector`]; a subsequent access will hit.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessResult {
        let (line, sector) = split_sector(addr);
        let write = kind == AccessKind::Write;
        let mut sector_miss = false;

        match self.l1.access(line, sector, write) {
            Probe::Hit => {
                return AccessResult {
                    level: HitLevel::L1,
                    latency: self.cfg.l1_latency,
                    sector_miss,
                }
            }
            Probe::SectorMiss => sector_miss = true,
            Probe::LineMiss => {}
        }
        match self.l2.access(line, sector, false) {
            Probe::Hit => {
                self.promote_to_l1(line, sector, write);
                return AccessResult {
                    level: HitLevel::L2,
                    latency: self.cfg.l2_latency,
                    sector_miss,
                };
            }
            Probe::SectorMiss => sector_miss = true,
            Probe::LineMiss => {}
        }
        match self.llc.access(line, sector, false) {
            Probe::Hit => {
                self.promote_to_l2(line, sector);
                self.promote_to_l1(line, sector, write);
                AccessResult {
                    level: HitLevel::Llc,
                    latency: self.cfg.llc_latency,
                    sector_miss,
                }
            }
            Probe::SectorMiss => {
                sector_miss = true;
                self.trace_instant("miss", addr);
                AccessResult {
                    level: HitLevel::Memory,
                    latency: self.cfg.llc_latency,
                    sector_miss,
                }
            }
            Probe::LineMiss => {
                self.trace_instant("miss", addr);
                AccessResult {
                    level: HitLevel::Memory,
                    latency: self.cfg.llc_latency,
                    sector_miss,
                }
            }
        }
    }

    fn promote_to_l1(&mut self, line: u64, sector: usize, write: bool) {
        self.trace_instant("promote-l1", line + 16 * sector as u64);
        // Promotion keeps the line's attribution from the level that hit.
        let owner = self.l2.owner_of(line).unwrap_or(0);
        if let Some(victim) = self.l1.fill_owned(line, SectorState::single(sector), owner) {
            if victim.needs_writeback() {
                self.l2
                    .fill_owned(victim.line_addr, victim.sectors, victim.owner);
            }
        }
        if write {
            // Sector now valid in L1; mark it dirty.
            let _ = self.l1.access(line, sector, true);
        }
    }

    fn promote_to_l2(&mut self, line: u64, sector: usize) {
        self.trace_instant("promote-l2", line + 16 * sector as u64);
        let owner = self.llc.owner_of(line).unwrap_or(0);
        if let Some(victim) = self.l2.fill_owned(line, SectorState::single(sector), owner) {
            if victim.needs_writeback() {
                self.llc
                    .fill_owned(victim.line_addr, victim.sectors, victim.owner);
            }
        }
    }

    /// Marks the sector containing `addr` dirty (completes a write-allocate
    /// once the fill has been installed). Dirtiness is owned by the highest
    /// level holding the sector — it migrates down on eviction.
    /// Returns `true` if some level held the sector.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let (line, sector) = split_sector(addr);
        self.l1.mark_dirty(line, sector)
            || self.l2.mark_dirty(line, sector)
            || self.llc.mark_dirty(line, sector)
    }

    /// Installs a full line (a regular 64B memory fill) at every level.
    /// Returns memory writebacks caused by LLC evictions.
    ///
    /// Attribution-neutral: the line is owned by core 0. Multicore drivers
    /// use [`Self::fill_line_owned`].
    pub fn fill_line(&mut self, addr: u64) -> Vec<Writeback> {
        self.fill_line_owned(addr, 0)
    }

    /// [`Self::fill_line`] with the line attributed to `owner`; victims
    /// displaced anywhere along the spill path keep their own installer, so
    /// the returned writebacks carry the core whose data is evicted.
    pub fn fill_line_owned(&mut self, addr: u64, owner: u8) -> Vec<Writeback> {
        let mut writebacks = Vec::new();
        self.fill_line_into(addr, owner, &mut writebacks);
        writebacks
    }

    /// [`Self::fill_line_owned`], appending the writebacks to `out` so a
    /// driver can reuse one buffer across fills.
    pub fn fill_line_into(&mut self, addr: u64, owner: u8, out: &mut Vec<Writeback>) {
        self.trace_instant("fill-line", addr);
        self.fill(addr, SectorState::full(), owner, out);
    }

    /// Installs a single 16B sector (a stride fill) at every level.
    /// Returns memory writebacks caused by LLC evictions.
    ///
    /// Attribution-neutral: the line is owned by core 0. Multicore drivers
    /// use [`Self::fill_sector_owned`].
    pub fn fill_sector(&mut self, addr: u64) -> Vec<Writeback> {
        self.fill_sector_owned(addr, 0)
    }

    /// [`Self::fill_sector`] with the filled line attributed to `owner`.
    pub fn fill_sector_owned(&mut self, addr: u64, owner: u8) -> Vec<Writeback> {
        let mut writebacks = Vec::new();
        self.fill_sector_into(addr, owner, &mut writebacks);
        writebacks
    }

    /// [`Self::fill_sector_owned`], appending the writebacks to `out`.
    pub fn fill_sector_into(&mut self, addr: u64, owner: u8, out: &mut Vec<Writeback>) {
        self.trace_instant("fill-sector", addr);
        let (_, sector) = split_sector(addr);
        self.fill(addr, SectorState::single(sector), owner, out);
    }

    fn fill(&mut self, addr: u64, state: SectorState, owner: u8, writebacks: &mut Vec<Writeback>) {
        let (line, _) = split_sector(addr);
        if let Some(v) = self.llc.fill_owned(line, state, owner) {
            if v.needs_writeback() {
                writebacks.push(v);
            }
        }
        if let Some(v) = self.l2.fill_owned(line, state, owner) {
            if v.needs_writeback() {
                if let Some(v2) = self.llc.fill_owned(v.line_addr, v.sectors, v.owner) {
                    if v2.needs_writeback() {
                        writebacks.push(v2);
                    }
                }
            }
        }
        if let Some(v) = self.l1.fill_owned(line, state, owner) {
            if v.needs_writeback() {
                if let Some(v2) = self.l2.fill_owned(v.line_addr, v.sectors, v.owner) {
                    if v2.needs_writeback() {
                        if let Some(v3) = self.llc.fill_owned(v2.line_addr, v2.sectors, v2.owner) {
                            if v3.needs_writeback() {
                                writebacks.push(v3);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Flushes every dirty line out of the hierarchy, returning the
    /// writebacks (used at the end of a workload to account for write
    /// traffic symmetrically across designs). Dirty data migrates L1 -> L2
    /// -> LLC first; any dirty line displaced along the way is surfaced too.
    pub fn flush_dirty(&mut self) -> Vec<Writeback> {
        let mut writebacks = Vec::new();
        for v in self.l1.drain_dirty() {
            if let Some(ev) = self.l2.fill_owned(v.line_addr, v.sectors, v.owner) {
                if ev.needs_writeback() {
                    if let Some(ev2) = self.llc.fill_owned(ev.line_addr, ev.sectors, ev.owner) {
                        if ev2.needs_writeback() {
                            writebacks.push(ev2);
                        }
                    }
                }
            }
        }
        for v in self.l2.drain_dirty() {
            if let Some(ev) = self.llc.fill_owned(v.line_addr, v.sectors, v.owner) {
                if ev.needs_writeback() {
                    writebacks.push(ev);
                }
            }
        }
        writebacks.extend(self.llc.drain_dirty());
        writebacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Hierarchy {
        Hierarchy::new(HierarchyConfig::tiny())
    }

    #[test]
    fn cold_miss_then_fill_then_l1_hit() {
        let mut h = h();
        let r = h.access(0x1000, AccessKind::Read);
        assert_eq!(r.level, HitLevel::Memory);
        assert!(r.memory_fill_needed());
        h.fill_line(0x1000);
        let r2 = h.access(0x1000, AccessKind::Read);
        assert_eq!(r2.level, HitLevel::L1);
        assert_eq!(r2.latency, 4);
    }

    #[test]
    fn sector_fill_hits_only_that_sector() {
        let mut h = h();
        h.fill_sector(0x1010); // sector 1 of line 0x1000
        let hit = h.access(0x1010, AccessKind::Read);
        assert_eq!(hit.level, HitLevel::L1);
        let miss = h.access(0x1020, AccessKind::Read);
        assert_eq!(miss.level, HitLevel::Memory);
        assert!(miss.sector_miss, "line present, sector invalid");
    }

    #[test]
    fn promotion_from_llc() {
        let mut h = h();
        h.fill_line(0x2000);
        // Evict from L1 (set stride 512B) and L2 (set stride 2KB) with
        // conflicting fills that land in *different* LLC sets (LLC set
        // stride 8KB), so the line survives only in the LLC.
        for i in 1..=4u64 {
            h.fill_line(0x2000 + i * 2048);
        }
        // The original line should still be in LLC; access promotes it.
        let r = h.access(0x2000, AccessKind::Read);
        assert!(r.level <= HitLevel::Llc, "found at {:?}", r.level);
        let r2 = h.access(0x2000, AccessKind::Read);
        assert_eq!(r2.level, HitLevel::L1, "promoted after first touch");
    }

    #[test]
    fn write_marks_dirty_and_evicts_to_memory() {
        let mut h = h();
        h.fill_line(0x3000);
        let w = h.access(0x3000, AccessKind::Write);
        assert_eq!(w.level, HitLevel::L1);
        // Flush everything dirty out of the LLC: but the dirty bit lives in
        // L1; streaming evictions carry it down. Force it by conflicting
        // fills through all levels.
        let mut wbs = Vec::new();
        for i in 1..200u64 {
            wbs.extend(h.fill_line(0x3000 + i * 1024));
        }
        wbs.extend(h.flush_dirty());
        assert!(
            wbs.iter().any(|w| w.line_addr == 0x3000),
            "dirty line eventually written back; got {} wbs",
            wbs.len()
        );
    }

    #[test]
    fn write_miss_reports_memory() {
        let mut h = h();
        let r = h.access(0x4000, AccessKind::Write);
        assert_eq!(r.level, HitLevel::Memory);
        h.fill_line(0x4000);
        let r2 = h.access(0x4000, AccessKind::Write);
        assert_eq!(r2.level, HitLevel::L1);
    }

    #[test]
    fn writebacks_carry_the_installing_core() {
        let mut h = h();
        h.fill_line_owned(0x3000, 2);
        let w = h.access(0x3000, AccessKind::Write);
        assert_eq!(w.level, HitLevel::L1);
        let mut wbs = Vec::new();
        for i in 1..200u64 {
            wbs.extend(h.fill_line_owned(0x3000 + i * 1024, 7));
        }
        wbs.extend(h.flush_dirty());
        let wb = wbs
            .iter()
            .find(|w| w.line_addr == 0x3000)
            .expect("dirty line written back");
        assert_eq!(wb.owner, 2, "attribution survives the spill path");
        // The neutral wrappers keep everything on core 0.
        let mut h0 = Hierarchy::new(HierarchyConfig::tiny());
        h0.fill_line(0x4000);
        h0.access(0x4000, AccessKind::Write);
        for wb in h0.flush_dirty() {
            assert_eq!(wb.owner, 0);
        }
    }

    #[test]
    fn read_only_run_flushes_nothing() {
        let mut h = h();
        for i in 0..64u64 {
            let addr = i * 1040;
            if h.access(addr, AccessKind::Read).level == HitLevel::Memory {
                h.fill_sector(addr);
            }
            h.fill_line(addr + 0x10_0000);
        }
        assert!(h.flush_dirty().is_empty());
    }

    #[test]
    fn writes_through_each_dirtying_path_are_flushed() {
        let mut h = h();
        // Write hit in L1.
        h.fill_line(0x1000);
        h.access(0x1000, AccessKind::Write);
        // Write-allocate completion: fill, then mark_dirty.
        h.fill_sector(0x2010);
        assert!(h.mark_dirty(0x2010));
        // A dirty L1 victim spilled into L2 by a conflicting fill.
        h.fill_line(0x3000);
        h.access(0x3000, AccessKind::Write);
        for i in 1..=2u64 {
            h.fill_line(0x3000 + i * 512);
        }
        let mut lines: Vec<u64> = h.flush_dirty().iter().map(|w| w.line_addr).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![0x1000, 0x2000, 0x3000]);
        assert!(h.flush_dirty().is_empty(), "a flush cleans every level");
    }

    #[test]
    fn stats_reflect_levels() {
        let mut h = h();
        h.fill_line(0);
        h.access(0, AccessKind::Read); // L1 hit: lower levels not probed
        h.access(0x9000, AccessKind::Read); // cold miss probes all levels
        let (l1, l2, llc) = h.stats();
        assert_eq!(l1.hits, 1);
        assert_eq!(l1.line_misses, 1);
        assert_eq!(l2.line_misses, 1);
        assert_eq!(llc.line_misses, 1);
    }
}
