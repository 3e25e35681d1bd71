//! Per-line sector state: four 16B sectors with valid and dirty bits.

use crate::SECTORS_PER_LINE;

/// Valid/dirty bookkeeping for the four 16B sectors of one line
/// (the "6 bits per 64B" overhead of Section 5.1.1: 4 valid + shared
/// dirty tracking; we keep per-sector dirty bits, the upper bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SectorState {
    valid: u8,
    dirty: u8,
}

impl SectorState {
    /// All sectors invalid and clean.
    pub fn empty() -> Self {
        Self::default()
    }

    /// All sectors valid (a full-line fill), clean.
    pub fn full() -> Self {
        Self {
            valid: (1 << SECTORS_PER_LINE) - 1,
            dirty: 0,
        }
    }

    /// A single valid sector (a stride fill), clean.
    ///
    /// # Panics
    ///
    /// Panics if `sector >= 4`.
    pub fn single(sector: usize) -> Self {
        assert!(sector < SECTORS_PER_LINE, "sector {sector} out of range");
        Self {
            valid: 1 << sector,
            dirty: 0,
        }
    }

    /// Is `sector` valid?
    pub fn is_valid(&self, sector: usize) -> bool {
        assert!(sector < SECTORS_PER_LINE, "sector {sector} out of range");
        (self.valid >> sector) & 1 == 1
    }

    /// Is `sector` dirty?
    pub fn is_dirty(&self, sector: usize) -> bool {
        assert!(sector < SECTORS_PER_LINE, "sector {sector} out of range");
        (self.dirty >> sector) & 1 == 1
    }

    /// Is any sector dirty?
    pub fn any_dirty(&self) -> bool {
        self.dirty != 0
    }

    /// Are all sectors dirty?
    pub fn all_dirty(&self) -> bool {
        self.dirty == (1 << SECTORS_PER_LINE) - 1
    }

    /// Are all sectors valid?
    pub fn all_valid(&self) -> bool {
        self.valid == (1 << SECTORS_PER_LINE) - 1
    }

    /// Number of valid sectors.
    pub fn valid_count(&self) -> usize {
        self.valid.count_ones() as usize
    }

    /// Marks `sector` valid (after a fill).
    pub fn fill(&mut self, sector: usize) {
        assert!(sector < SECTORS_PER_LINE, "sector {sector} out of range");
        self.valid |= 1 << sector;
    }

    /// Marks the whole line valid (after a full fill).
    pub fn fill_all(&mut self) {
        self.valid = (1 << SECTORS_PER_LINE) - 1;
    }

    /// Marks `sector` dirty (it must be valid).
    ///
    /// # Panics
    ///
    /// Panics if the sector is not valid — writing an invalid sector is a
    /// cache-controller bug.
    pub fn mark_dirty(&mut self, sector: usize) {
        assert!(self.is_valid(sector), "writing invalid sector {sector}");
        self.dirty |= 1 << sector;
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
        self.valid |= other.valid;
        self.dirty |= other.dirty;
    }

    /// Returns a copy with all dirty bits cleared (after a writeback).
    pub fn cleaned(mut self) -> Self {
        self.dirty = 0;
        self
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
    fn split_sector_math() {
        assert_eq!(split_sector(0), (0, 0));
        assert_eq!(split_sector(16), (0, 1));
        assert_eq!(split_sector(63), (0, 3));
        assert_eq!(split_sector(64), (64, 0));
        // 0x1234: line 0x1200, byte 0x34 within the line -> sector 3.
        assert_eq!(split_sector(0x1234), (0x1200, 3));
    }
}
