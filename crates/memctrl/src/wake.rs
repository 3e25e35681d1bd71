//! The engine's runnable-core set.
//!
//! [`WakeSet`] is a bitmask of cores that can make progress in the
//! current round. Core stepping is the simulator's dominant cost, and
//! almost every step of a stalled core is a no-op retry; the wake set
//! lets the engine skip a core in O(1) until one of its wake conditions
//! (MLP slot retired, covering fill issued, blocked line installed,
//! queue space freed) actually fires. It is policy-free bookkeeping:
//! *who* wakes a core and *why* belongs to the caller.

/// A fixed-width set of runnable entities (the engine's core wake mask).
///
/// Word-packed so membership tests on the hot path are a shift and a
/// mask; supports any population the simulator's provenance tags allow
/// (256 cores), not just one machine word.
#[derive(Debug, Clone)]
pub struct WakeSet {
    words: Vec<u64>,
    len: usize,
}

impl WakeSet {
    /// A set over `len` entities, initially all awake (every core must be
    /// stepped at least once before its first stall registers a blocker).
    pub fn all_awake(len: usize) -> Self {
        let mut s = Self {
            words: vec![0; len.div_ceil(64)],
            len,
        };
        for i in 0..len {
            s.wake(i);
        }
        s
    }

    /// Marks entity `i` runnable.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn wake(&mut self, i: usize) {
        assert!(i < self.len, "wake index {i} out of range {}", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Tests and clears entity `i`: returns whether it was runnable.
    pub fn take(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let set = self.words[w] & b != 0;
        self.words[w] &= !b;
        set
    }

    /// Whether any entity is runnable.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_set_take_clears_and_reports() {
        let mut s = WakeSet::all_awake(4);
        assert!(s.any());
        assert!(s.take(2));
        assert!(!s.take(2), "take must clear");
        s.wake(2);
        assert!(s.take(2));
        for i in [0, 1, 3] {
            assert!(s.take(i));
        }
        assert!(!s.any());
    }

    #[test]
    fn wake_set_spans_multiple_words() {
        let mut s = WakeSet::all_awake(130);
        assert!(s.take(129));
        assert!(s.take(64));
        s.wake(129);
        assert!(s.take(129));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn wake_out_of_range_panics() {
        WakeSet::all_awake(4).wake(4);
    }
}
