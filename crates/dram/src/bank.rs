//! Per-bank timing and row-buffer state machine.
//!
//! Each bank tracks its open row and the earliest cycle at which each
//! command class becomes legal. Cross-bank constraints (tCCD, tRRD, tFAW,
//! bus occupancy, rank-to-rank switches) live in [`crate::rank`] and
//! [`crate::channel`].

use crate::timing::TimingParams;
use crate::{Cycle, DeviceError};

/// Timing/row state of one DRAM bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BankState {
    open_row: Option<u64>,
    next_act: Cycle,
    next_pre: Cycle,
    next_col: Cycle,
}

impl BankState {
    /// Creates a precharged, idle bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Currently open row, if any.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Earliest cycle an ACT may issue.
    pub fn next_act(&self) -> Cycle {
        self.next_act
    }

    /// Earliest cycle a PRE may issue.
    pub fn next_pre(&self) -> Cycle {
        self.next_pre
    }

    /// Earliest cycle a column command (RD/WR) may issue.
    pub fn next_col(&self) -> Cycle {
        self.next_col
    }

    /// Issues an ACT for `row` at cycle `at`.
    ///
    /// # Errors
    ///
    /// [`DeviceError::StateViolation`] if a row is already open;
    /// [`DeviceError::TimingViolation`] if `at` is before [`Self::next_act`].
    pub fn activate(&mut self, row: u64, at: Cycle, t: &TimingParams) -> Result<(), DeviceError> {
        if self.open_row.is_some() {
            return Err(DeviceError::StateViolation);
        }
        if at < self.next_act {
            return Err(DeviceError::TimingViolation {
                at,
                earliest: self.next_act,
            });
        }
        self.open_row = Some(row);
        self.next_col = self.next_col.max(at + t.rcd);
        self.next_pre = self.next_pre.max(at + t.ras);
        self.next_act = at + t.rc;
        Ok(())
    }

    /// Issues a PRE at cycle `at`.
    ///
    /// Precharging an already-precharged bank is a legal no-op in DDR4 and is
    /// treated as such here (returns `Ok` without touching timing).
    ///
    /// # Errors
    ///
    /// [`DeviceError::TimingViolation`] if `at` is before [`Self::next_pre`].
    pub fn precharge(&mut self, at: Cycle, t: &TimingParams) -> Result<(), DeviceError> {
        if self.open_row.is_none() {
            return Ok(());
        }
        if at < self.next_pre {
            return Err(DeviceError::TimingViolation {
                at,
                earliest: self.next_pre,
            });
        }
        self.open_row = None;
        self.next_act = self.next_act.max(at + t.rp);
        Ok(())
    }

    /// Issues a column read at cycle `at` against the open row.
    ///
    /// # Errors
    ///
    /// [`DeviceError::StateViolation`] if no row is open;
    /// [`DeviceError::TimingViolation`] before [`Self::next_col`].
    pub fn read(&mut self, at: Cycle, t: &TimingParams) -> Result<(), DeviceError> {
        if self.open_row.is_none() {
            return Err(DeviceError::StateViolation);
        }
        if at < self.next_col {
            return Err(DeviceError::TimingViolation {
                at,
                earliest: self.next_col,
            });
        }
        self.next_pre = self.next_pre.max(at + t.rtp);
        Ok(())
    }

    /// Issues a column write at cycle `at` against the open row.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::read`].
    pub fn write(&mut self, at: Cycle, t: &TimingParams) -> Result<(), DeviceError> {
        if self.open_row.is_none() {
            return Err(DeviceError::StateViolation);
        }
        if at < self.next_col {
            return Err(DeviceError::TimingViolation {
                at,
                earliest: self.next_col,
            });
        }
        // Write recovery: data appears cwl later, lasts burst, then tWR.
        self.next_pre = self.next_pre.max(at + t.cwl + t.burst + t.wr);
        // Non-volatile substrates program cells per write: the next column
        // command to this bank waits out the write pulse.
        if t.wtw > 0 {
            self.next_col = self.next_col.max(at + t.wtw);
        }
        Ok(())
    }

    /// Earliest legal issue cycle for a column command, assuming `row` is the
    /// target: accounts for a required PRE+ACT cycle when a different row is
    /// open (used by the controller to rank candidate requests).
    pub fn earliest_column_for_row(&self, row: u64, now: Cycle, t: &TimingParams) -> Cycle {
        match self.open_row {
            Some(open) if open == row => self.next_col.max(now),
            Some(_) => {
                // Conflict: PRE, then ACT, then column.
                let pre_at = self.next_pre.max(now);
                let act_at = (pre_at + t.rp).max(self.next_act);
                act_at + t.rcd
            }
            None => {
                let act_at = self.next_act.max(now);
                act_at + t.rcd
            }
        }
    }

    /// Applies a refresh occupying the bank until `at + rfc`.
    pub fn refresh(&mut self, at: Cycle, t: &TimingParams) {
        self.open_row = None;
        let done = at + t.rfc;
        self.next_act = self.next_act.max(done);
        self.next_pre = self.next_pre.max(done);
        self.next_col = self.next_col.max(done);
    }

    /// Blocks column commands until `until` (used for cross-bank tCCD/WTR
    /// constraints resolved at rank level).
    pub fn delay_col_until(&mut self, until: Cycle) {
        self.next_col = self.next_col.max(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::ddr4_2400()
    }

    #[test]
    fn act_then_read_respects_trcd() {
        let t = t();
        let mut b = BankState::new();
        b.activate(10, 0, &t).unwrap();
        assert_eq!(
            b.read(t.rcd - 1, &t),
            Err(DeviceError::TimingViolation {
                at: t.rcd - 1,
                earliest: t.rcd
            })
        );
        b.read(t.rcd, &t).unwrap();
    }

    #[test]
    fn double_activate_is_state_violation() {
        let t = t();
        let mut b = BankState::new();
        b.activate(1, 0, &t).unwrap();
        assert_eq!(b.activate(2, 100, &t), Err(DeviceError::StateViolation));
    }

    #[test]
    fn read_without_open_row_fails() {
        let t = t();
        let mut b = BankState::new();
        assert_eq!(b.read(100, &t), Err(DeviceError::StateViolation));
    }

    #[test]
    fn precharge_respects_tras() {
        let t = t();
        let mut b = BankState::new();
        b.activate(1, 0, &t).unwrap();
        assert!(matches!(
            b.precharge(t.ras - 1, &t),
            Err(DeviceError::TimingViolation { .. })
        ));
        b.precharge(t.ras, &t).unwrap();
        assert_eq!(b.open_row(), None);
    }

    #[test]
    fn precharge_idle_bank_is_noop() {
        let t = t();
        let mut b = BankState::new();
        let before = b;
        b.precharge(5, &t).unwrap();
        assert_eq!(b, before);
    }

    #[test]
    fn act_after_pre_respects_trp() {
        let t = t();
        let mut b = BankState::new();
        b.activate(1, 0, &t).unwrap();
        b.precharge(t.ras, &t).unwrap();
        let earliest = t.ras + t.rp;
        assert!(matches!(
            b.activate(2, earliest - 1, &t),
            Err(DeviceError::TimingViolation { .. })
        ));
        b.activate(2, earliest, &t).unwrap();
    }

    #[test]
    fn act_to_act_same_bank_respects_trc() {
        let t = t();
        let mut b = BankState::new();
        b.activate(1, 0, &t).unwrap();
        // Fast path: read, precharge as early as possible, re-activate.
        b.read(t.rcd, &t).unwrap();
        b.precharge(t.ras, &t).unwrap();
        // tRC = tRAS + tRP so the state machine already blocks until then,
        // but verify next_act is exactly tRC.
        assert_eq!(b.next_act(), t.rc);
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let t = t();
        let mut b = BankState::new();
        b.activate(1, 0, &t).unwrap();
        b.write(t.rcd, &t).unwrap();
        let wr_done = t.rcd + t.cwl + t.burst + t.wr;
        assert!(matches!(
            b.precharge(wr_done - 1, &t),
            Err(DeviceError::TimingViolation { .. })
        ));
        let mut b2 = b;
        b2.precharge(wr_done, &t).unwrap();
    }

    #[test]
    fn earliest_column_row_hit_vs_conflict() {
        let t = t();
        let mut b = BankState::new();
        b.activate(7, 0, &t).unwrap();
        // Hit: immediately after tRCD.
        assert_eq!(b.earliest_column_for_row(7, 0, &t), t.rcd);
        // Conflict: must wait tRAS (precharge legal) + tRP + tRCD.
        let conflict = b.earliest_column_for_row(8, 0, &t);
        assert_eq!(conflict, t.ras + t.rp + t.rcd);
        // Closed bank from scratch.
        let idle = BankState::new();
        assert_eq!(idle.earliest_column_for_row(3, 5, &t), 5 + t.rcd);
    }

    #[test]
    fn refresh_blocks_everything_for_trfc() {
        let t = t();
        let mut b = BankState::new();
        b.refresh(100, &t);
        assert_eq!(b.next_act(), 100 + t.rfc);
        assert_eq!(b.next_col(), 100 + t.rfc);
        assert_eq!(b.open_row(), None);
    }

    #[test]
    fn delay_col_until_only_extends() {
        let mut b = BankState::new();
        b.delay_col_until(50);
        assert_eq!(b.next_col(), 50);
        b.delay_col_until(20);
        assert_eq!(b.next_col(), 50, "never shrinks");
    }
}
