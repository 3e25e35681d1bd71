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

/// Most ways a set holds: one set's tags fill one 64-byte host line.
const MAX_WAYS: usize = 8;

/// The recency word of a set no way has been touched in: way `i` at
/// position `i`. [`Set::order`] stores the word XOR this, so an all-zero
/// set is the empty set.
const IDENTITY: u32 = 0x7654_3210;

/// One set, laid out by field so a probe scans only the tag row and reads
/// the rest on a match or an allocation. 88 bytes and 8-aligned: a
/// 64-byte alignment was no faster and raised the peak RSS.
#[derive(Debug, Clone, Copy)]
struct Set {
    /// Tag + 1 per way; 0 marks an invalid way. Ways at or beyond the
    /// cache's associativity stay 0, so a probe may scan the whole row.
    tags: [u64; MAX_WAYS],
    /// The recency word XOR [`IDENTITY`]: nibble `i` of the word names
    /// the way at recency position `i` (0 = most recent). Only touches
    /// reorder it, and only ways below the associativity are touched, so
    /// those ways always hold the positions below it.
    order: u32,
    sectors: [SectorState; MAX_WAYS],
    /// Core that installed each line (merging fills keep the installer).
    owners: [u8; MAX_WAYS],
}

impl Set {
    /// All ways invalid; all-zero, so an array of them is a zero fill.
    const EMPTY: Self = Self {
        tags: [0; MAX_WAYS],
        order: 0,
        sectors: [SectorState::empty(); MAX_WAYS],
        owners: [0; MAX_WAYS],
    };

    /// The way holding stored tag `key`, if resident.
    fn find(&self, key: u64) -> Option<usize> {
        self.tags.iter().position(|&t| t == key)
    }

    /// The recency word.
    fn recency(&self) -> u32 {
        self.order ^ IDENTITY
    }

    /// Moves `way` to recency position 0; the ways ahead of it each move
    /// back one position and the rest keep theirs.
    fn touch(&mut self, way: usize) {
        let order = self.recency();
        // The position of `way`: the one zero nibble of `order ^ way…way`,
        // found with the carry trick for zero nibbles (the lowest flag is
        // exact).
        let x = order ^ (way as u32 * 0x1111_1111);
        let flags = x.wrapping_sub(0x1111_1111) & !x & 0x8888_8888;
        let through = u32::MAX >> (28 - (flags.trailing_zeros() - 3));
        let moved = (order & !through) | ((order << 4) & through) | way as u32;
        self.order = moved ^ IDENTITY;
    }

    /// The way an allocation replaces among the first `ways`: the first
    /// invalid way, else the least recent. A way turns valid only by a
    /// fill, which touches it, so with every way valid the recency word
    /// orders them all by their last touch.
    fn victim_way(&self, ways: usize) -> usize {
        self.tags[..ways]
            .iter()
            .position(|&t| t == 0)
            .unwrap_or_else(|| (self.recency() >> (4 * (ways - 1)) & 0xF) as usize)
    }
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

/// Byte address of the line stored in set `set` under stored tag `key`.
fn line_at(set_bits: u32, set: usize, key: u64) -> u64 {
    (((key - 1) << set_bits) | set as u64) * LINE_BYTES
}

/// One level of set-associative, write-back, write-allocate sector cache.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    ways: usize,
    data: Vec<Set>,
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
    /// Panics if `ways` is not in `1..=8` (one set's tags fill one 64-byte
    /// host line) or the geometry is not an exact power-of-two set count.
    pub fn new(capacity_bytes: u64, ways: usize) -> Self {
        assert!(
            (1..=MAX_WAYS).contains(&ways),
            "associativity {ways} must be in 1..={MAX_WAYS}"
        );
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
            ways,
            data: vec![Set::EMPTY; sets],
            stats: CacheStats::default(),
            may_hold_dirty: false,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.data.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The set `line_addr` maps to and its stored tag (tag + 1).
    fn index(&self, line_addr: u64) -> (usize, u64) {
        let line = line_addr / LINE_BYTES;
        let set = (line as usize) & (self.data.len() - 1);
        let tag = line >> self.set_bits();
        (set, tag + 1)
    }

    fn set_bits(&self) -> u32 {
        self.data.len().trailing_zeros()
    }

    /// Probes (and on a hit, touches LRU + optional dirty) the sector at
    /// `line_addr`/`sector`. `write` marks the sector dirty on hit.
    pub fn access(&mut self, line_addr: u64, sector: usize, write: bool) -> Probe {
        self.may_hold_dirty |= write;
        let (set, key) = self.index(line_addr);
        let set = &mut self.data[set];
        let Some(w) = set.find(key) else {
            self.stats.line_misses += 1;
            return Probe::LineMiss;
        };
        if !set.sectors[w].is_valid(sector) {
            self.stats.sector_misses += 1;
            return Probe::SectorMiss;
        }
        set.touch(w);
        if write {
            set.sectors[w].mark_dirty(sector);
        }
        self.stats.hits += 1;
        Probe::Hit
    }

    /// Read-only probe without statistics or LRU side effects.
    pub fn peek(&self, line_addr: u64, sector: usize) -> Probe {
        let (set, key) = self.index(line_addr);
        let set = &self.data[set];
        match set.find(key) {
            None => Probe::LineMiss,
            Some(w) if set.sectors[w].is_valid(sector) => Probe::Hit,
            Some(_) => Probe::SectorMiss,
        }
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
        self.may_hold_dirty |= fill.any_dirty();
        let (index, key) = self.index(line_addr);
        let ways = self.ways;
        let set = &mut self.data[index];
        // Already present: merge valid and dirty bits.
        if let Some(w) = set.find(key) {
            set.sectors[w].merge(fill);
            set.touch(w);
            return None;
        }
        // Allocate: pick an invalid way or the LRU way.
        let w = set.victim_way(ways);
        let (old_key, old_sectors, old_owner) = (set.tags[w], set.sectors[w], set.owners[w]);
        set.tags[w] = key;
        set.touch(w);
        set.sectors[w] = fill;
        set.owners[w] = owner;
        if old_key == 0 {
            return None;
        }
        let victim = Victim {
            line_addr: line_at(self.set_bits(), index, old_key),
            sectors: old_sectors,
            owner: old_owner,
        };
        if victim.needs_writeback() {
            self.stats.writebacks += 1;
        }
        Some(victim)
    }

    /// Owner of the line containing `line_addr`, if resident. Read-only;
    /// used by the hierarchy to preserve attribution across promotions.
    pub fn owner_of(&self, line_addr: u64) -> Option<u8> {
        let (set, key) = self.index(line_addr);
        let set = &self.data[set];
        set.find(key).map(|w| set.owners[w])
    }

    /// Marks `sector` of `line_addr` dirty without touching statistics or
    /// LRU order (used to complete a write-allocate after its fill arrives).
    /// Returns `false` if the line or sector is not present/valid.
    pub fn mark_dirty(&mut self, line_addr: u64, sector: usize) -> bool {
        self.may_hold_dirty = true;
        let (set, key) = self.index(line_addr);
        let set = &mut self.data[set];
        match set.find(key) {
            Some(w) if set.sectors[w].is_valid(sector) => {
                set.sectors[w].mark_dirty(sector);
                true
            }
            _ => false,
        }
    }

    /// Emits a [`Victim`] for every dirty line and clears their dirty bits
    /// (lines stay valid). Used to flush residual write traffic at the end
    /// of a workload.
    pub fn drain_dirty(&mut self) -> Vec<Victim> {
        let mut out = Vec::new();
        if !std::mem::take(&mut self.may_hold_dirty) {
            return out;
        }
        let set_bits = self.set_bits();
        for (index, set) in self.data.iter_mut().enumerate() {
            for w in 0..self.ways {
                if set.tags[w] != 0 && set.sectors[w].any_dirty() {
                    out.push(Victim {
                        line_addr: line_at(set_bits, index, set.tags[w]),
                        sectors: set.sectors[w],
                        owner: set.owners[w],
                    });
                    set.sectors[w] = set.sectors[w].cleaned();
                    self.stats.writebacks += 1;
                }
            }
        }
        out
    }

    /// Enumerates the valid lines currently resident, for external invariant
    /// checking (see the `sam-check` crate). Read-only; no LRU side effects.
    pub fn lines(&self) -> impl Iterator<Item = LineView> + '_ {
        let set_bits = self.set_bits();
        self.data.iter().enumerate().flat_map(move |(index, set)| {
            (0..self.ways)
                .filter(|&w| set.tags[w] != 0)
                .map(move |w| LineView {
                    set: index,
                    way: w,
                    line_addr: line_at(set_bits, index, set.tags[w]),
                    tag: set.tags[w] - 1,
                    sectors: set.sectors[w],
                    owner: set.owners[w],
                })
        })
    }

    /// Invalidates a line if present, returning its state. The way keeps
    /// its recency position until a fill reuses it. No hierarchy path
    /// calls this: it exists for tests that need a hole in a full set.
    pub fn invalidate(&mut self, line_addr: u64) -> Option<SectorState> {
        let (set, key) = self.index(line_addr);
        let set = &mut self.data[set];
        let w = set.find(key)?;
        set.tags[w] = 0;
        Some(set.sectors[w])
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
    #[should_panic(expected = "associativity 9 must be in 1..=8")]
    fn more_ways_than_one_tag_row_panics() {
        SetAssocCache::new(9 * LINE_BYTES, 9);
    }

    #[test]
    fn a_set_record_is_88_bytes_and_8_aligned() {
        assert_eq!(std::mem::size_of::<Set>(), 88);
        assert_eq!(std::mem::align_of::<Set>(), 8);
    }

    #[test]
    fn the_empty_set_orders_ways_by_index() {
        let set = Set::EMPTY;
        for ways in 1..=MAX_WAYS {
            assert_eq!(set.victim_way(ways), 0, "first invalid way");
        }
        let mut full = Set::EMPTY;
        full.tags = [1; MAX_WAYS];
        for ways in 1..=MAX_WAYS {
            assert_eq!(full.victim_way(ways), ways - 1, "untouched: last way");
        }
    }

    /// Every order of the 8 ways, as most-recent-first lists.
    fn all_orders() -> Vec<Vec<usize>> {
        let mut orders = vec![vec![]];
        for _ in 0..MAX_WAYS {
            let mut longer = Vec::new();
            for order in &orders {
                for w in (0..MAX_WAYS).filter(|w| !order.contains(w)) {
                    longer.push([order.as_slice(), &[w]].concat());
                }
            }
            orders = longer;
        }
        orders
    }

    fn word_of(order: &[usize]) -> u32 {
        order
            .iter()
            .enumerate()
            .map(|(i, &w)| (w as u32) << (4 * i))
            .sum()
    }

    #[test]
    fn touch_moves_the_way_to_the_front_of_every_order() {
        let orders = all_orders();
        assert_eq!(orders.len(), 40320);
        for order in &orders {
            for way in 0..MAX_WAYS {
                let mut set = Set::EMPTY;
                set.order = word_of(order) ^ IDENTITY;
                set.touch(way);
                let mut expected = order.clone();
                expected.retain(|&w| w != way);
                expected.insert(0, way);
                assert_eq!(
                    set.recency(),
                    word_of(&expected),
                    "touch {way} in {order:?}"
                );
            }
        }
    }

    #[test]
    fn recency_word_matches_a_reference_lru_list() {
        // One set per cache; `lru` holds the resident lines and their
        // sector state, most recent first. Lines come from a window of
        // 2 x ways + 1 so fills evict, and invalidations punch holes that
        // the next allocation must take before evicting.
        for ways in [1usize, 2, 4, 8] {
            let mut c = SetAssocCache::new(ways as u64 * LINE_BYTES, ways);
            let mut lru: Vec<(u64, SectorState)> = Vec::new();
            let mut rng = sam_util::rng::SplitMix64::new(ways as u64);
            let (mut hits, mut sector_misses, mut evictions) = (0, 0, 0);
            for step in 0..20_000 {
                let line = rng.next_below(2 * ways as u64 + 1) * LINE_BYTES;
                let sector = rng.next_below(4) as usize;
                let pos = lru.iter().position(|&(l, _)| l == line);
                match rng.next_below(8) {
                    0..=3 => {
                        let write = rng.next_below(4) == 0;
                        let expected = match pos {
                            None => Probe::LineMiss,
                            Some(p) if !lru[p].1.is_valid(sector) => Probe::SectorMiss,
                            Some(p) => {
                                let (l, mut state) = lru.remove(p);
                                if write {
                                    state.mark_dirty(sector);
                                }
                                lru.insert(0, (l, state));
                                Probe::Hit
                            }
                        };
                        hits += usize::from(expected == Probe::Hit);
                        sector_misses += usize::from(expected == Probe::SectorMiss);
                        assert_eq!(c.access(line, sector, write), expected, "step {step}");
                    }
                    4..=6 => {
                        let fill = if rng.next_below(2) == 0 {
                            SectorState::full()
                        } else {
                            SectorState::single(sector)
                        };
                        let expected = match pos {
                            Some(p) => {
                                let (l, mut state) = lru.remove(p);
                                state.merge(fill);
                                lru.insert(0, (l, state));
                                None
                            }
                            None => {
                                let evicted = (lru.len() == ways).then(|| lru.pop().unwrap());
                                lru.insert(0, (line, fill));
                                evicted
                            }
                        };
                        evictions += usize::from(expected.is_some());
                        let victim = c.fill(line, fill).map(|v| (v.line_addr, v.sectors));
                        assert_eq!(victim, expected, "step {step}");
                    }
                    _ => {
                        let expected = pos.map(|p| lru.remove(p).1);
                        assert_eq!(c.invalidate(line), expected, "step {step}");
                    }
                }
                let mut resident: Vec<_> = c.lines().map(|v| (v.line_addr, v.sectors)).collect();
                let mut reference = lru.clone();
                resident.sort_by_key(|&(l, _)| l);
                reference.sort_by_key(|&(l, _)| l);
                assert_eq!(resident, reference, "step {step}");
            }
            assert!(
                hits > 1000 && sector_misses > 100 && evictions > 1000,
                "{ways} ways: {hits} hits, {sector_misses} sector misses, {evictions} evictions"
            );
        }
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
