//! Per-line sector state: four 16B sectors with valid and dirty bits.

use crate::SECTORS_PER_LINE;

/// Valid/dirty bookkeeping for the four 16B sectors of one line
/// (the "6 bits per 64B" overhead of Section 5.1.1: 4 valid + shared
/// dirty tracking; we keep per-sector dirty bits, the upper bound).
///
/// One byte: the valid bits in the low nibble, the dirty bits in the high
/// nibble.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SectorState(u8);

/// The bits of all four sectors in one nibble.
const ALL: u8 = (1 << SECTORS_PER_LINE) - 1;
/// Shift from a sector's valid bit to its dirty bit.
const DIRTY_SHIFT: u32 = 4;

impl SectorState {
    /// All sectors invalid and clean.
    pub const fn empty() -> Self {
        Self(0)
    }

    /// All sectors valid (a full-line fill), clean.
    pub fn full() -> Self {
        Self(ALL)
    }

    /// A single valid sector (a stride fill), clean.
    ///
    /// # Panics
    ///
    /// Panics if `sector >= 4`.
    pub fn single(sector: usize) -> Self {
        assert!(sector < SECTORS_PER_LINE, "sector {sector} out of range");
        Self(1 << sector)
    }

    fn valid(self) -> u8 {
        self.0 & ALL
    }

    fn dirty(self) -> u8 {
        self.0 >> DIRTY_SHIFT
    }

    /// Is `sector` valid?
    pub fn is_valid(&self, sector: usize) -> bool {
        assert!(sector < SECTORS_PER_LINE, "sector {sector} out of range");
        (self.valid() >> sector) & 1 == 1
    }

    /// Is `sector` dirty?
    pub fn is_dirty(&self, sector: usize) -> bool {
        assert!(sector < SECTORS_PER_LINE, "sector {sector} out of range");
        (self.dirty() >> sector) & 1 == 1
    }

    /// Is any sector dirty?
    pub fn any_dirty(&self) -> bool {
        self.dirty() != 0
    }

    /// Are all sectors dirty?
    pub fn all_dirty(&self) -> bool {
        self.dirty() == ALL
    }

    /// Are all sectors valid?
    pub fn all_valid(&self) -> bool {
        self.valid() == ALL
    }

    /// Number of valid sectors.
    pub fn valid_count(&self) -> usize {
        self.valid().count_ones() as usize
    }

    /// Marks `sector` valid (after a fill).
    pub fn fill(&mut self, sector: usize) {
        assert!(sector < SECTORS_PER_LINE, "sector {sector} out of range");
        self.0 |= 1 << sector;
    }

    /// Marks the whole line valid (after a full fill).
    pub fn fill_all(&mut self) {
        self.0 |= ALL;
    }

    /// Marks `sector` dirty (it must be valid).
    ///
    /// # Panics
    ///
    /// Panics if the sector is not valid — writing an invalid sector is a
    /// cache-controller bug.
    pub fn mark_dirty(&mut self, sector: usize) {
        assert!(self.is_valid(sector), "writing invalid sector {sector}");
        self.0 |= 1 << (sector as u32 + DIRTY_SHIFT);
    }

    /// Returns the dirty sector indices (what a writeback must flush).
    pub fn dirty_sectors(&self) -> Vec<usize> {
        (0..SECTORS_PER_LINE)
            .filter(|&s| self.is_dirty(s))
            .collect()
    }

    /// Merges another state's valid and dirty bits into this one (used when
    /// a victim's data moves down one cache level).
    pub fn merge(&mut self, other: SectorState) {
        self.0 |= other.0;
    }

    /// Returns a copy with all dirty bits cleared (after a writeback).
    pub fn cleaned(self) -> Self {
        Self(self.valid())
    }
}

/// Prints the valid and dirty masks apart, not the packed byte.
impl std::fmt::Debug for SectorState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SectorState")
            .field("valid", &self.valid())
            .field("dirty", &self.dirty())
            .finish()
    }
}

/// Splits a byte address into (line address, sector index).
pub fn split_sector(addr: u64) -> (u64, usize) {
    let line = addr & !(crate::LINE_BYTES - 1);
    let sector = ((addr & (crate::LINE_BYTES - 1)) / crate::SECTOR_BYTES) as usize;
    (line, sector)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_full_single() {
        assert_eq!(SectorState::empty().valid_count(), 0);
        assert!(SectorState::full().all_valid());
        let s = SectorState::single(2);
        assert!(s.is_valid(2));
        assert!(!s.is_valid(0));
        assert_eq!(s.valid_count(), 1);
    }

    #[test]
    fn fill_and_dirty_tracking() {
        let mut s = SectorState::empty();
        s.fill(1);
        s.mark_dirty(1);
        assert!(s.any_dirty());
        assert_eq!(s.dirty_sectors(), vec![1]);
        s.fill_all();
        assert!(s.all_valid());
        assert_eq!(s.dirty_sectors(), vec![1], "fill does not clear dirty");
    }

    #[test]
    #[should_panic(expected = "writing invalid sector")]
    fn dirty_invalid_sector_panics() {
        SectorState::empty().mark_dirty(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sector_bounds_checked() {
        SectorState::single(4);
    }

    #[test]
    fn a_sector_state_is_one_byte() {
        assert_eq!(std::mem::size_of::<SectorState>(), 1);
    }

    /// The two-mask model: `(valid, dirty)`, each a 4-bit mask.
    type Model = (u8, u8);

    fn check_against(s: SectorState, (valid, dirty): Model) {
        for i in 0..SECTORS_PER_LINE {
            assert_eq!(s.is_valid(i), valid >> i & 1 == 1, "{s:?} valid {i}");
            assert_eq!(s.is_dirty(i), dirty >> i & 1 == 1, "{s:?} dirty {i}");
        }
        assert_eq!(s.any_dirty(), dirty != 0, "{s:?}");
        assert_eq!(s.all_dirty(), dirty == 0xF, "{s:?}");
        assert_eq!(s.all_valid(), valid == 0xF, "{s:?}");
        assert_eq!(s.valid_count(), valid.count_ones() as usize, "{s:?}");
        let dirty_list: Vec<usize> = (0..4).filter(|i| dirty >> i & 1 == 1).collect();
        assert_eq!(s.dirty_sectors(), dirty_list, "{s:?}");
        assert_eq!(
            format!("{s:?}"),
            format!("SectorState {{ valid: {valid}, dirty: {dirty} }}")
        );
    }

    #[test]
    fn every_reachable_state_answers_like_two_masks() {
        // Breadth-first over the states reachable from `empty` through
        // every mutator, each step mirrored on the two-mask model.
        let mut seen = vec![(SectorState::empty(), (0u8, 0u8))];
        let mut next = 0;
        while next < seen.len() {
            let (s, (valid, dirty)) = seen[next];
            next += 1;
            check_against(s, (valid, dirty));
            let mut steps = vec![(s.cleaned(), (valid, 0))];
            let mut all = s;
            all.fill_all();
            steps.push((all, (0xF, dirty)));
            for i in 0..SECTORS_PER_LINE {
                let mut filled = s;
                filled.fill(i);
                steps.push((filled, (valid | 1 << i, dirty)));
                if valid >> i & 1 == 1 {
                    let mut written = s;
                    written.mark_dirty(i);
                    steps.push((written, (valid, dirty | 1 << i)));
                }
            }
            for &(other, (v, d)) in &seen {
                let mut merged = s;
                merged.merge(other);
                steps.push((merged, (valid | v, dirty | d)));
            }
            for (state, model) in steps {
                match seen.iter().find(|&&(t, _)| t == state) {
                    Some(&(_, m)) => assert_eq!(m, model, "{state:?} reached as two models"),
                    None => seen.push((state, model)),
                }
            }
        }
        // Dirty implies valid, so each sector is invalid, clean or dirty.
        assert_eq!(seen.len(), 81);
    }

    #[test]
    fn split_sector_math() {
        assert_eq!(split_sector(0), (0, 0));
        assert_eq!(split_sector(16), (0, 1));
        assert_eq!(split_sector(63), (0, 3));
        assert_eq!(split_sector(64), (64, 0));
        // 0x1234: line 0x1200, byte 0x34 within the line -> sector 3.
        assert_eq!(split_sector(0x1234), (0x1200, 3));
    }
}
