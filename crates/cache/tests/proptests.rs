//! Property-based tests of the sector cache against two reference models:
//! a plain map of line -> sector state with unbounded capacity (the cache
//! may evict, but it must never *invent* contents: every hit the cache
//! reports must be a line/sector the reference has seen filled), and the
//! former one-struct-per-way `SetAssocCache`, which the packed per-set
//! record must match call for call.

use proptest::prelude::*;
use std::collections::BTreeMap;

use sam_cache::hierarchy::{AccessKind, Hierarchy, HierarchyConfig};
use sam_cache::sector::{split_sector, SectorState};
use sam_cache::set_assoc::{CacheStats, LineView, Probe, SetAssocCache, Victim};
use sam_cache::LINE_BYTES;

/// The `SetAssocCache` that stored one 24-byte `Way` per line (a `u64`
/// tag, a `u64` stamp, a valid flag), kept as the differential reference.
mod way_cache {
    use super::*;

    #[derive(Debug, Clone, Copy)]
    struct Way {
        tag: u64,
        sectors: SectorState,
        stamp: u64,
        valid: bool,
        owner: u8,
    }

    pub struct WayCache {
        sets: usize,
        ways: usize,
        data: Vec<Way>,
        tick: u64,
        stats: CacheStats,
    }

    impl WayCache {
        pub fn new(capacity_bytes: u64, ways: usize) -> Self {
            let sets = (capacity_bytes / LINE_BYTES) as usize / ways;
            let empty = Way {
                tag: 0,
                sectors: SectorState::empty(),
                stamp: 0,
                valid: false,
                owner: 0,
            };
            Self {
                sets,
                ways,
                data: vec![empty; sets * ways],
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        pub fn stats(&self) -> &CacheStats {
            &self.stats
        }

        fn index(&self, line_addr: u64) -> (usize, u64) {
            let line = line_addr / LINE_BYTES;
            let set = (line as usize) & (self.sets - 1);
            (set, line >> self.sets.trailing_zeros())
        }

        fn ways_of(&mut self, set: usize) -> &mut [Way] {
            &mut self.data[set * self.ways..(set + 1) * self.ways]
        }

        fn find(&self, line_addr: u64) -> Option<&Way> {
            let (set, tag) = self.index(line_addr);
            self.data[set * self.ways..(set + 1) * self.ways]
                .iter()
                .find(|w| w.valid && w.tag == tag)
        }

        pub fn access(&mut self, line_addr: u64, sector: usize, write: bool) -> Probe {
            self.tick += 1;
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

        pub fn peek(&self, line_addr: u64, sector: usize) -> Probe {
            match self.find(line_addr) {
                None => Probe::LineMiss,
                Some(w) if w.sectors.is_valid(sector) => Probe::Hit,
                Some(_) => Probe::SectorMiss,
            }
        }

        pub fn fill_owned(
            &mut self,
            line_addr: u64,
            fill: SectorState,
            owner: u8,
        ) -> Option<Victim> {
            self.tick += 1;
            let tick = self.tick;
            let (set, tag) = self.index(line_addr);
            let sets_bits = self.sets.trailing_zeros();
            for way in self.ways_of(set) {
                if way.valid && way.tag == tag {
                    way.sectors.merge(fill);
                    way.stamp = tick;
                    return None;
                }
            }
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
            if !old.valid {
                return None;
            }
            let victim = Victim {
                line_addr: ((old.tag << sets_bits) | set as u64) * LINE_BYTES,
                sectors: old.sectors,
                owner: old.owner,
            };
            if victim.needs_writeback() {
                self.stats.writebacks += 1;
            }
            Some(victim)
        }

        pub fn owner_of(&self, line_addr: u64) -> Option<u8> {
            self.find(line_addr).map(|w| w.owner)
        }

        pub fn mark_dirty(&mut self, line_addr: u64, sector: usize) -> bool {
            let (set, tag) = self.index(line_addr);
            for way in self.ways_of(set) {
                if way.valid && way.tag == tag && way.sectors.is_valid(sector) {
                    way.sectors.mark_dirty(sector);
                    return true;
                }
            }
            false
        }

        pub fn drain_dirty(&mut self) -> Vec<Victim> {
            let sets_bits = self.sets.trailing_zeros();
            let ways = self.ways;
            let mut out = Vec::new();
            for (i, way) in self.data.iter_mut().enumerate() {
                if way.valid && way.sectors.any_dirty() {
                    out.push(Victim {
                        line_addr: ((way.tag << sets_bits) | (i / ways) as u64) * LINE_BYTES,
                        sectors: way.sectors,
                        owner: way.owner,
                    });
                    way.sectors = way.sectors.cleaned();
                    self.stats.writebacks += 1;
                }
            }
            out
        }

        pub fn lines(&self) -> Vec<LineView> {
            let sets_bits = self.sets.trailing_zeros();
            (self.data.iter().enumerate())
                .filter(|(_, w)| w.valid)
                .map(|(i, w)| LineView {
                    set: i / self.ways,
                    way: i % self.ways,
                    line_addr: ((w.tag << sets_bits) | (i / self.ways) as u64) * LINE_BYTES,
                    tag: w.tag,
                    sectors: w.sectors,
                    owner: w.owner,
                })
                .collect()
        }

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
}

/// One call into a single cache level. Lines are indices into a window
/// three times the cache's capacity, so sets fill and evict.
#[derive(Debug, Clone)]
enum LevelOp {
    Access {
        line: u64,
        sector: usize,
        write: bool,
    },
    Fill {
        line: u64,
        valid: u8,
        dirty: u8,
        owner: u8,
    },
    MarkDirty {
        line: u64,
        sector: usize,
    },
    Invalidate {
        line: u64,
    },
    Drain,
    Peek {
        line: u64,
        sector: usize,
    },
    OwnerOf {
        line: u64,
    },
}

/// A line-index bit that moves a line far up the address space, so tags
/// with high bits set are stored and reconstructed too.
const FAR: u64 = 1 << 30;

fn level_op_strategy() -> impl Strategy<Value = LevelOp> {
    let line = (0u64..96, any::<bool>()).prop_map(|(l, far)| if far { l + FAR } else { l });
    let sector = 0usize..4;
    prop_oneof![
        (line.clone(), sector.clone(), any::<bool>()).prop_map(|(line, sector, write)| {
            LevelOp::Access {
                line,
                sector,
                write,
            }
        }),
        (line.clone(), 0u8..16, 0u8..16, 0u8..4).prop_map(|(line, valid, dirty, owner)| {
            LevelOp::Fill {
                line,
                valid,
                dirty,
                owner,
            }
        }),
        (line.clone(), sector.clone())
            .prop_map(|(line, sector)| LevelOp::MarkDirty { line, sector }),
        line.clone().prop_map(|line| LevelOp::Invalidate { line }),
        Just(LevelOp::Drain),
        (line.clone(), sector).prop_map(|(line, sector)| LevelOp::Peek { line, sector }),
        line.prop_map(|line| LevelOp::OwnerOf { line }),
    ]
}

/// The sector state with valid mask `valid` and dirty mask `dirty & valid`.
fn sector_state(valid: u8, dirty: u8) -> SectorState {
    let mut s = SectorState::empty();
    for i in (0..4).filter(|i| valid >> i & 1 == 1) {
        s.fill(i);
        if dirty >> i & 1 == 1 {
            s.mark_dirty(i);
        }
    }
    s
}

#[derive(Debug, Clone)]
enum Op {
    FillLine(u64),
    FillSector(u64),
    Read(u64),
    Write(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Confine addresses to a small window so hits actually happen.
    let addr = 0u64..8192;
    prop_oneof![
        addr.clone().prop_map(|a| Op::FillLine(a & !63)),
        addr.clone().prop_map(|a| Op::FillSector(a & !15)),
        addr.clone().prop_map(Op::Read),
        addr.prop_map(Op::Write),
    ]
}

proptest! {
    #[test]
    fn cache_never_invents_data(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let mut h = Hierarchy::new(HierarchyConfig::tiny());
        let mut reference: BTreeMap<u64, [bool; 4]> = BTreeMap::new();
        for op in ops {
            match op {
                Op::FillLine(line) => {
                    h.fill_line(line);
                    reference.insert(line, [true; 4]);
                }
                Op::FillSector(addr) => {
                    h.fill_sector(addr);
                    let (line, s) = split_sector(addr);
                    reference.entry(line).or_insert([false; 4])[s] = true;
                }
                Op::Read(addr) | Op::Write(addr) => {
                    let kind = if matches!(op, Op::Write(_)) { AccessKind::Write } else { AccessKind::Read };
                    let r = h.access(addr, kind);
                    if !r.memory_fill_needed() {
                        let (line, s) = split_sector(addr);
                        let filled = reference.get(&line).is_some_and(|m| m[s]);
                        prop_assert!(filled, "hit on never-filled sector {addr:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn writebacks_only_for_written_sectors(
        writes in proptest::collection::vec(0u64..4096, 1..100),
        reads in proptest::collection::vec(0u64..4096, 1..100),
    ) {
        let mut h = Hierarchy::new(HierarchyConfig::tiny());
        let mut written: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        for &a in &writes {
            let sector = a & !15;
            if h.access(sector, AccessKind::Write).memory_fill_needed() {
                h.fill_line(sector & !63);
                h.access(sector, AccessKind::Write);
            }
            h.mark_dirty(sector);
            written.insert(sector);
        }
        for &a in &reads {
            if h.access(a, AccessKind::Read).memory_fill_needed() {
                h.fill_line(a & !63);
            }
        }
        for wb in h.flush_dirty() {
            for s in wb.sectors.dirty_sectors() {
                let sector = wb.line_addr + 16 * s as u64;
                prop_assert!(written.contains(&sector),
                    "writeback of never-written sector {sector:#x}");
            }
        }
    }

    #[test]
    fn set_assoc_lru_keeps_most_recent_within_ways(
        touches in proptest::collection::vec(0u64..16, 2..64),
    ) {
        // With a single set of 4 ways, the most recently touched line is
        // always present.
        let mut c = SetAssocCache::new(256, 4); // 1 set x 4 ways
        let mut last = None;
        for &t in &touches {
            let line = t * 64; // all lines map to the single set
            c.fill(line, SectorState::full());
            last = Some(line);
        }
        if let Some(line) = last {
            prop_assert_eq!(c.peek(line, 0), Probe::Hit);
        }
    }

    #[test]
    fn packed_sets_match_the_way_per_struct_cache(
        ways_log2 in 0u32..4,
        one_set in any::<bool>(),
        ops in proptest::collection::vec(level_op_strategy(), 1..400),
    ) {
        let (ways, sets) = (1usize << ways_log2, if one_set { 1 } else { 4 });
        let capacity = (sets * ways) as u64 * LINE_BYTES;
        let window = 3 * (sets * ways) as u64;
        // The low bits pick a line in the window; the FAR bit is kept.
        let addr = |line: u64| ((line & (FAR - 1)) % window + (line & FAR)) * LINE_BYTES;
        let mut packed = SetAssocCache::new(capacity, ways);
        let mut reference = way_cache::WayCache::new(capacity, ways);
        for op in ops {
            match op {
                LevelOp::Access { line, sector, write } => prop_assert_eq!(
                    packed.access(addr(line), sector, write),
                    reference.access(addr(line), sector, write)
                ),
                LevelOp::Fill { line, valid, dirty, owner } => {
                    let fill = sector_state(valid, dirty);
                    prop_assert_eq!(
                        packed.fill_owned(addr(line), fill, owner),
                        reference.fill_owned(addr(line), fill, owner)
                    );
                }
                LevelOp::MarkDirty { line, sector } => prop_assert_eq!(
                    packed.mark_dirty(addr(line), sector),
                    reference.mark_dirty(addr(line), sector)
                ),
                LevelOp::Invalidate { line } => prop_assert_eq!(
                    packed.invalidate(addr(line)),
                    reference.invalidate(addr(line))
                ),
                LevelOp::Drain => prop_assert_eq!(packed.drain_dirty(), reference.drain_dirty()),
                LevelOp::Peek { line, sector } => prop_assert_eq!(
                    packed.peek(addr(line), sector),
                    reference.peek(addr(line), sector)
                ),
                LevelOp::OwnerOf { line } => prop_assert_eq!(
                    packed.owner_of(addr(line)),
                    reference.owner_of(addr(line))
                ),
            }
            prop_assert_eq!(packed.stats(), reference.stats());
            prop_assert_eq!(packed.lines().collect::<Vec<_>>(), reference.lines());
        }
    }
}
