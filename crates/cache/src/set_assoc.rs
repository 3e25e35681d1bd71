//! LRU set-associative cache core with per-line sector state.

use crate::sector::SectorState;
use crate::LINE_BYTES;

/// A victim evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Victim {
    /// Line address of the evicted line.
    pub line_addr: u64,
    /// Sector state at eviction (dirty sectors must be written back).
    pub sectors: SectorState,
    /// Core that installed the line (see [`SetAssocCache::fill_owned`]);
    /// rides along so an eventual writeback can be attributed.
    pub owner: u8,
}

impl Victim {
    /// Whether this victim requires a writeback.
    pub fn needs_writeback(&self) -> bool {
        self.sectors.any_dirty()
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    sectors: SectorState,
    /// Monotonic LRU stamp; larger = more recent.
    stamp: u64,
    valid: bool,
    /// Core that installed the line (merging fills keep the installer).
    owner: u8,
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that found the line with the sector valid.
    pub hits: u64,
    /// Accesses where the line was present but the sector invalid
    /// (sector misses — unique to sector caches).
    pub sector_misses: u64,
    /// Accesses where the line was absent.
    pub line_misses: u64,
    /// Evictions that required a writeback.
    pub writebacks: u64,
}

impl CacheStats {
    /// All accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.sector_misses + self.line_misses
    }

    /// Hit rate, if any accesses happened.
    pub fn hit_rate(&self) -> Option<f64> {
        let n = self.accesses();
        (n > 0).then(|| self.hits as f64 / n as f64)
    }
}

/// Result of probing a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Probe {
    /// Line present, requested sector valid.
    Hit,
    /// Line present, requested sector invalid.
    SectorMiss,
    /// Line absent.
    LineMiss,
}

/// A read-only snapshot of one resident cache line, as enumerated by
/// [`SetAssocCache::lines`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineView {
    /// Set index the line resides in.
    pub set: usize,
    /// Way index within the set.
    pub way: usize,
    /// Reconstructed byte address of the line.
    pub line_addr: u64,
    /// Stored tag.
    pub tag: u64,
    /// Per-sector valid/dirty state.
    pub sectors: SectorState,
    /// Core that installed the line.
    pub owner: u8,
}

/// One level of set-associative, write-back, write-allocate sector cache.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    data: Vec<Way>,
    tick: u64,
    stats: CacheStats,
    /// Set on every path that can create a dirty sector (a write access,
    /// [`Self::mark_dirty`], a fill carrying dirty bits) and cleared by
    /// [`Self::drain_dirty`]: while clear, the end-of-run flush skips its
    /// scan of the whole array.
    may_hold_dirty: bool,
}

impl SetAssocCache {
    /// Creates a cache of `capacity_bytes` with `ways`-way associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not an exact power-of-two set count.
    pub fn new(capacity_bytes: u64, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        let lines = capacity_bytes / LINE_BYTES;
        assert!(
            lines.is_multiple_of(ways as u64),
            "capacity must divide into ways"
        );
        let sets = (lines / ways as u64) as usize;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        Self {
            sets,
            ways,
            data: vec![
                Way {
                    tag: 0,
                    sectors: SectorState::empty(),
                    stamp: 0,
                    valid: false,
                    owner: 0
                };
                sets * ways
            ],
            tick: 0,
            stats: CacheStats::default(),
            may_hold_dirty: false,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn index(&self, line_addr: u64) -> (usize, u64) {
        let line = line_addr / LINE_BYTES;
        let set = (line as usize) & (self.sets - 1);
        let tag = line >> self.sets.trailing_zeros();
        (set, tag)
    }

    fn ways_of(&mut self, set: usize) -> &mut [Way] {
        &mut self.data[set * self.ways..(set + 1) * self.ways]
    }

    /// Probes (and on a hit, touches LRU + optional dirty) the sector at
    /// `line_addr`/`sector`. `write` marks the sector dirty on hit.
    pub fn access(&mut self, line_addr: u64, sector: usize, write: bool) -> Probe {
        self.tick += 1;
        self.may_hold_dirty |= write;
        let tick = self.tick;
        let (set, tag) = self.index(line_addr);
        for way in self.ways_of(set) {
            if way.valid && way.tag == tag {
                if way.sectors.is_valid(sector) {
                    way.stamp = tick;
                    if write {
                        way.sectors.mark_dirty(sector);
                    }
                    self.stats.hits += 1;
                    return Probe::Hit;
                }
                self.stats.sector_misses += 1;
                return Probe::SectorMiss;
            }
        }
        self.stats.line_misses += 1;
        Probe::LineMiss
    }

    /// Read-only probe without statistics or LRU side effects.
    pub fn peek(&self, line_addr: u64, sector: usize) -> Probe {
        let (set, tag) = self.index(line_addr);
        for way in &self.data[set * self.ways..(set + 1) * self.ways] {
            if way.valid && way.tag == tag {
                return if way.sectors.is_valid(sector) {
                    Probe::Hit
                } else {
                    Probe::SectorMiss
                };
            }
        }
        Probe::LineMiss
    }

    /// Fills sectors into the line (allocating it if absent), returning an
    /// evicted victim if allocation displaced a valid line. `sectors` is the
    /// post-fill valid mask contribution: [`SectorState::full`] for a
    /// regular fill, [`SectorState::single`] for a stride fill.
    ///
    /// Attribution-neutral form of [`Self::fill_owned`]: the line is owned
    /// by core 0 (the single-stream default).
    pub fn fill(&mut self, line_addr: u64, fill: SectorState) -> Option<Victim> {
        self.fill_owned(line_addr, fill, 0)
    }

    /// [`Self::fill`], recording `owner` as the installing core. Merging
    /// into a resident line keeps the original installer — ownership is a
    /// per-line attribute, not per-sector — so victims (and thus eventual
    /// writebacks) are attributed to whichever core allocated the line.
    pub fn fill_owned(&mut self, line_addr: u64, fill: SectorState, owner: u8) -> Option<Victim> {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.index(line_addr);
        let sets_bits = self.sets.trailing_zeros();
        let set_u64 = set as u64;
        self.may_hold_dirty |= fill.any_dirty();
        // Already present: merge valid and dirty bits.
        for way in self.ways_of(set) {
            if way.valid && way.tag == tag {
                way.sectors.merge(fill);
                way.stamp = tick;
                return None;
            }
        }
        // Allocate: pick an invalid way or the LRU way.
        let ways = self.ways_of(set);
        let victim_idx = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| if w.valid { w.stamp + 1 } else { 0 })
            .map(|(i, _)| i)
            .expect("ways is non-empty");
        let old = ways[victim_idx];
        ways[victim_idx] = Way {
            tag,
            sectors: fill,
            stamp: tick,
            valid: true,
            owner,
        };
        if old.valid {
            let victim = Victim {
                line_addr: ((old.tag << sets_bits) | set_u64) * LINE_BYTES,
                sectors: old.sectors,
                owner: old.owner,
            };
            if victim.needs_writeback() {
                self.stats.writebacks += 1;
            }
            Some(victim)
        } else {
            None
        }
    }

    /// Owner of the line containing `line_addr`, if resident. Read-only;
    /// used by the hierarchy to preserve attribution across promotions.
    pub fn owner_of(&self, line_addr: u64) -> Option<u8> {
        let (set, tag) = self.index(line_addr);
        self.data[set * self.ways..(set + 1) * self.ways]
            .iter()
            .find(|w| w.valid && w.tag == tag)
            .map(|w| w.owner)
    }

    /// Marks `sector` of `line_addr` dirty without touching statistics or
    /// LRU order (used to complete a write-allocate after its fill arrives).
    /// Returns `false` if the line or sector is not present/valid.
    pub fn mark_dirty(&mut self, line_addr: u64, sector: usize) -> bool {
        self.may_hold_dirty = true;
        let (set, tag) = self.index(line_addr);
        for way in self.ways_of(set) {
            if way.valid && way.tag == tag && way.sectors.is_valid(sector) {
                way.sectors.mark_dirty(sector);
                return true;
            }
        }
        false
    }

    /// Emits a [`Victim`] for every dirty line and clears their dirty bits
    /// (lines stay valid). Used to flush residual write traffic at the end
    /// of a workload.
    pub fn drain_dirty(&mut self) -> Vec<Victim> {
        let mut out = Vec::new();
        if !std::mem::take(&mut self.may_hold_dirty) {
            return out;
        }
        let sets_bits = self.sets.trailing_zeros();
        let ways = self.ways;
        for (i, way) in self.data.iter_mut().enumerate() {
            if way.valid && way.sectors.any_dirty() {
                let set = (i / ways) as u64;
                out.push(Victim {
                    line_addr: ((way.tag << sets_bits) | set) * LINE_BYTES,
                    sectors: way.sectors,
                    owner: way.owner,
                });
                way.sectors = way.sectors.cleaned();
                self.stats.writebacks += 1;
            }
        }
        out
    }

    /// Enumerates the valid lines currently resident, for external invariant
    /// checking (see the `sam-check` crate). Read-only; no LRU side effects.
    pub fn lines(&self) -> impl Iterator<Item = LineView> + '_ {
        let sets_bits = self.sets.trailing_zeros();
        let ways = self.ways;
        self.data
            .iter()
            .enumerate()
            .filter(|(_, w)| w.valid)
            .map(move |(i, w)| {
                let set = i / ways;
                LineView {
                    set,
                    way: i % ways,
                    line_addr: ((w.tag << sets_bits) | set as u64) * LINE_BYTES,
                    tag: w.tag,
                    sectors: w.sectors,
                    owner: w.owner,
                }
            })
    }

    /// Invalidates a line if present, returning its state (for inclusive-
    /// hierarchy back-invalidation).
    pub fn invalidate(&mut self, line_addr: u64) -> Option<SectorState> {
        let (set, tag) = self.index(line_addr);
        for way in self.ways_of(set) {
            if way.valid && way.tag == tag {
                way.valid = false;
                return Some(way.sectors);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 4 sets x 2 ways x 64B = 512B.
        SetAssocCache::new(512, 2)
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.sets(), 4);
        assert_eq!(c.ways(), 2);
    }

    #[test]
    fn miss_fill_hit() {
        let mut c = small();
        assert_eq!(c.access(0x1000, 0, false), Probe::LineMiss);
        assert!(c.fill(0x1000, SectorState::full()).is_none());
        assert_eq!(c.access(0x1000, 3, false), Probe::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().line_misses, 1);
    }

    #[test]
    fn sector_miss_when_line_present_but_sector_invalid() {
        let mut c = small();
        c.fill(0x2000, SectorState::single(1));
        assert_eq!(c.access(0x2000, 1, false), Probe::Hit);
        assert_eq!(c.access(0x2000, 2, false), Probe::SectorMiss);
        assert_eq!(c.stats().sector_misses, 1);
    }

    #[test]
    fn fill_merges_sectors() {
        let mut c = small();
        c.fill(0x2000, SectorState::single(0));
        c.fill(0x2000, SectorState::single(2));
        assert_eq!(c.access(0x2000, 0, false), Probe::Hit);
        assert_eq!(c.access(0x2000, 2, false), Probe::Hit);
        assert_eq!(c.access(0x2000, 1, false), Probe::SectorMiss);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 holds lines 0, 256 (4 sets * 64 = line stride 256 per set).
        c.fill(0, SectorState::full());
        c.fill(256, SectorState::full());
        // Touch line 0 so 256 is LRU.
        c.access(0, 0, false);
        let victim = c.fill(512, SectorState::full()).expect("eviction");
        assert_eq!(victim.line_addr, 256);
        assert!(!victim.needs_writeback());
    }

    #[test]
    fn dirty_eviction_flags_writeback() {
        let mut c = small();
        c.fill(0, SectorState::full());
        c.access(0, 1, true); // dirty sector 1
        c.fill(256, SectorState::full());
        let victim = c.fill(512, SectorState::full()).expect("eviction");
        assert_eq!(victim.line_addr, 0);
        assert!(victim.needs_writeback());
        assert_eq!(victim.sectors.dirty_sectors(), vec![1]);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.fill(0x40, SectorState::full());
        assert!(c.invalidate(0x40).is_some());
        assert_eq!(c.access(0x40, 0, false), Probe::LineMiss);
        assert!(c.invalidate(0x40).is_none());
    }

    #[test]
    fn peek_has_no_side_effects() {
        let mut c = small();
        c.fill(0x40, SectorState::full());
        let before = *c.stats();
        assert_eq!(c.peek(0x40, 0), Probe::Hit);
        assert_eq!(c.peek(0x80, 0), Probe::LineMiss);
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn victim_address_reconstruction() {
        let mut c = small();
        let addr = 0x1234u64 & !(LINE_BYTES - 1); // 0x1200 | 0x30 -> line 0x1200+0x30? keep aligned
        c.fill(addr, SectorState::full());
        // Force eviction by filling two more lines in the same set.
        let stride = 4 * LINE_BYTES; // set stride
        c.fill(addr + stride, SectorState::full());
        let v = c.fill(addr + 2 * stride, SectorState::full()).unwrap();
        assert_eq!(v.line_addr, addr);
    }

    #[test]
    fn read_only_use_flushes_nothing() {
        let mut c = small();
        for i in 0..16u64 {
            c.access(i * 64, 0, false);
            c.fill(i * 64, SectorState::full());
            c.access(i * 64, 1, false);
        }
        assert!(c.drain_dirty().is_empty());
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn every_dirtying_path_is_still_flushed() {
        // A write hit.
        let mut c = small();
        c.fill(0x40, SectorState::full());
        c.access(0x40, 2, true);
        assert_eq!(c.drain_dirty().len(), 1);
        assert!(c.drain_dirty().is_empty(), "a drain cleans every line");
        // mark_dirty.
        let mut c = small();
        c.fill(0x80, SectorState::single(1));
        assert!(c.mark_dirty(0x80, 1));
        assert_eq!(c.drain_dirty()[0].sectors.dirty_sectors(), vec![1]);
        // A fill that allocates with dirty bits (a victim moving down).
        let mut dirty = SectorState::full();
        dirty.mark_dirty(3);
        let mut c = small();
        c.fill(0xC0, dirty);
        assert_eq!(c.drain_dirty()[0].line_addr, 0xC0);
        // A fill that merges dirty bits into a resident clean line.
        let mut c = small();
        c.fill(0x100, SectorState::full());
        c.drain_dirty();
        c.fill(0x100, dirty);
        assert_eq!(c.drain_dirty()[0].line_addr, 0x100);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        SetAssocCache::new(192, 1);
    }

    #[test]
    fn owner_sticks_to_the_installer_and_rides_victims() {
        let mut c = small();
        c.fill_owned(0, SectorState::single(0), 2);
        assert_eq!(c.owner_of(0), Some(2));
        // Merging more sectors (even from another core) keeps the installer.
        c.fill_owned(0, SectorState::single(1), 3);
        assert_eq!(c.owner_of(0), Some(2));
        c.access(0, 0, true); // dirty so the eviction needs a writeback
        c.fill_owned(256, SectorState::full(), 1);
        let v = c.fill_owned(512, SectorState::full(), 1).expect("eviction");
        assert_eq!((v.line_addr, v.owner), (0, 2));
        // drain_dirty victims carry the owner too.
        let mut c2 = small();
        c2.fill_owned(64, SectorState::full(), 5);
        c2.access(64, 2, true);
        let drained = c2.drain_dirty();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].owner, 5);
        // The attribution-neutral wrapper defaults to core 0.
        let mut c3 = small();
        c3.fill(128, SectorState::full());
        assert_eq!(c3.owner_of(128), Some(0));
        assert_eq!(c3.owner_of(0x9000), None);
    }
}
