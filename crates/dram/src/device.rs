//! The assembled memory device: geometry, per-resource timing state, command
//! validation, and statistics for the power model.

use crate::bank::BankState;
use crate::channel::ChannelState;
use crate::command::{CmdKind, Command};
use crate::moderegs::IoMode;
use crate::observe::ObserverSlot;
use crate::rank::RankState;
use crate::timing::TimingParams;
use crate::{Cycle, DeviceError};

/// Geometry and timing of one memory channel (Table 2 defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceConfig {
    /// Timing parameter set (device technology).
    pub timing: TimingParams,
    /// Ranks on the channel.
    pub ranks: usize,
    /// Bank groups per rank.
    pub bank_groups: usize,
    /// Banks per bank group.
    pub banks_per_group: usize,
    /// Rows per bank (256 subarrays x 512 rows in Table 2).
    pub rows_per_bank: u64,
    /// Cachelines per row (the 4Kb/chip local row buffer across a 16-chip
    /// rank holds 8KB of data = 128 64B lines).
    pub cols_per_row: u64,
}

impl DeviceConfig {
    /// The paper's server configuration: DDR4-2400, 1 channel, 2 ranks,
    /// 16 banks per rank (4 groups x 4), 256 subarrays x 512 rows, 128
    /// cachelines per row.
    pub fn ddr4_server() -> Self {
        Self {
            timing: TimingParams::ddr4_2400(),
            ranks: 2,
            bank_groups: 4,
            banks_per_group: 4,
            rows_per_bank: 256 * 512,
            cols_per_row: 128,
        }
    }

    /// A desktop x8 configuration (Section 2.3): 8 data chips + 1 parity
    /// chip with SEC-DED instead of chipkill, a single rank, and the same
    /// 8Gb-die geometry (each chip supplies 8 bits per beat, so the row
    /// spans the same 8KB of data across half as many chips).
    pub fn ddr4_desktop() -> Self {
        Self {
            timing: TimingParams::ddr4_2400(),
            ranks: 1,
            bank_groups: 4,
            banks_per_group: 4,
            rows_per_bank: 256 * 512,
            cols_per_row: 128,
        }
    }

    /// The RRAM configuration used as the RC-NVM substrate: Table 2's
    /// 128 subarrays x 2K rows, 2Kb local row buffer (64 lines per row
    /// across the rank).
    pub fn rram_server() -> Self {
        Self {
            timing: TimingParams::rram(),
            ranks: 2,
            bank_groups: 4,
            banks_per_group: 4,
            rows_per_bank: 128 * 2048,
            cols_per_row: 64,
        }
    }

    /// Total banks per rank.
    pub fn banks_per_rank(&self) -> usize {
        self.bank_groups * self.banks_per_group
    }

    /// Replaces the timing set (builder-style helper for substrate swaps).
    pub fn with_timing(mut self, timing: TimingParams) -> Self {
        self.timing = timing;
        self
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::ddr4_server()
    }
}

/// Command counters, the power model's input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Row activations.
    pub acts: u64,
    /// Precharges (explicit PREs; refresh-internal ones are not counted).
    pub pres: u64,
    /// Regular column reads.
    pub reads: u64,
    /// Stride-mode column reads (internally move up to 4x the data).
    pub stride_reads: u64,
    /// Regular column writes.
    pub writes: u64,
    /// Stride-mode column writes.
    pub stride_writes: u64,
    /// Refreshes issued.
    pub refreshes: u64,
    /// I/O mode switches applied.
    pub mode_switches: u64,
}

impl DeviceStats {
    /// Total column commands (any kind).
    pub fn column_commands(&self) -> u64 {
        self.reads + self.stride_reads + self.writes + self.stride_writes
    }

    /// Adds `other` field-wise.
    pub fn accumulate(&mut self, other: &DeviceStats) {
        self.acts += other.acts;
        self.pres += other.pres;
        self.reads += other.reads;
        self.stride_reads += other.stride_reads;
        self.writes += other.writes;
        self.stride_writes += other.stride_writes;
        self.refreshes += other.refreshes;
        self.mode_switches += other.mode_switches;
    }
}

/// A cycle-accurate model of one memory channel's devices.
#[derive(Debug, Clone)]
pub struct MemoryDevice {
    config: DeviceConfig,
    ranks: Vec<RankState>,
    /// Every bank of the channel, rank-major: the bank at (`rank`,
    /// `bank_group`, `bank`) sits at `(rank * bank_groups + bank_group) *
    /// banks_per_group + bank` (see [`Self::bank_slot`]), so a rank's
    /// banks are one contiguous slice.
    banks: Vec<BankState>,
    channel: ChannelState,
    stats: DeviceStats,
    observers: ObserverSlot,
}

impl MemoryDevice {
    /// Creates an idle device with the given geometry.
    pub fn new(config: DeviceConfig) -> Self {
        let ranks = (0..config.ranks)
            .map(|_| RankState::new(config.bank_groups))
            .collect();
        let banks = vec![BankState::new(); config.ranks * config.banks_per_rank()];
        Self {
            config,
            ranks,
            banks,
            channel: ChannelState::new(),
            stats: DeviceStats::default(),
            observers: ObserverSlot::default(),
        }
    }

    /// Attaches a command observer; every subsequently *accepted* command is
    /// reported to it (see [`crate::observe`]).
    pub fn attach_observer(&mut self, observer: crate::observe::SharedObserver) {
        self.observers.attach(observer);
    }

    /// The device geometry/timing.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Command counters accumulated so far.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Channel bus statistics.
    pub fn channel(&self) -> &ChannelState {
        &self.channel
    }

    /// Current I/O mode of `rank`.
    pub fn io_mode(&self, rank: usize) -> IoMode {
        self.ranks[rank].io_mode()
    }

    /// Row currently open in the addressed bank, if any.
    pub fn open_row(&self, rank: usize, bank_group: usize, bank: usize) -> Option<u64> {
        self.banks[self.bank_slot(rank, bank_group, bank)].open_row()
    }

    /// Index of the addressed bank in the flat `banks` array.
    fn bank_slot(&self, rank: usize, bank_group: usize, bank: usize) -> usize {
        (rank * self.config.bank_groups + bank_group) * self.config.banks_per_group + bank
    }

    /// The slots of `rank`'s banks in the flat `banks` array.
    fn rank_slots(&self, rank: usize) -> std::ops::Range<usize> {
        let n = self.config.banks_per_rank();
        rank * n..(rank + 1) * n
    }

    /// Whether (`rank`, `bank_group`, `bank`) names a bank of this device.
    /// With one flat bank array an out-of-range group or bank would index
    /// another rank's bank instead of panicking, so every path that
    /// indexes checks this first.
    fn bank_in_range(&self, rank: usize, bank_group: usize, bank: usize) -> bool {
        rank < self.config.ranks
            && bank_group < self.config.bank_groups
            && bank < self.config.banks_per_group
    }

    fn validate_address(&self, cmd: &Command) -> Result<(), DeviceError> {
        if !self.bank_in_range(cmd.rank, cmd.bank_group, cmd.bank)
            || cmd.row >= self.config.rows_per_bank
            || cmd.col >= self.config.cols_per_row
        {
            return Err(DeviceError::OutOfRange);
        }
        Ok(())
    }

    /// Earliest cycle `cmd` can legally issue, not before `now`.
    ///
    /// For commands that are illegal in the current *state* (e.g. RD with no
    /// open row) this still returns a time — state legality is enforced by
    /// [`Self::issue`]; the controller is expected to open rows itself.
    /// The address must be in range (checked in debug builds only; the
    /// issuing methods return [`DeviceError::OutOfRange`] instead).
    pub fn earliest_issue(&self, cmd: &Command, now: Cycle) -> Cycle {
        debug_assert!(
            self.validate_address(cmd).is_ok(),
            "earliest_issue: {cmd:?} is outside the device geometry"
        );
        let t = &self.config.timing;
        let bank = &self.banks[self.bank_slot(cmd.rank, cmd.bank_group, cmd.bank)];
        match cmd.kind {
            CmdKind::Act => {
                let rank_at = self.ranks[cmd.rank].earliest_act(cmd.bank_group, now, t);
                rank_at.max(bank.next_act())
            }
            CmdKind::Pre => now.max(bank.next_pre()),
            CmdKind::Rd { .. } | CmdKind::Wr { .. } => {
                let is_read = cmd.is_read();
                let rank_at = self.ranks[cmd.rank].earliest_col(cmd.bank_group, is_read, now, t);
                let chan_at =
                    self.channel
                        .earliest_data_cmd(cmd.rank, is_read, cmd.narrow_lane(), now, t);
                rank_at.max(chan_at).max(bank.next_col())
            }
            CmdKind::Ref => {
                // All banks of the rank must be precharge-able and idle.
                let mut at = now;
                for b in &self.banks[self.rank_slots(cmd.rank)] {
                    at = at.max(if b.open_row().is_some() {
                        b.next_pre() + t.rp
                    } else {
                        b.next_act()
                    });
                }
                at
            }
            CmdKind::Mrs(_) => now,
        }
    }

    /// Issues `cmd` at cycle `at`, checking every timing and state rule.
    ///
    /// Returns the completion cycle: for data commands, the cycle after the
    /// last data beat on the bus; for others, `at`.
    ///
    /// This is the full-check form for a caller that chose `at` itself:
    /// the tests and the host-speed benchmark's traced pass, which
    /// re-issues a recorded command stream into a fresh device. The controller, which always issues at the
    /// earliest legal cycle, uses [`Self::issue_earliest`] and evaluates
    /// each command's timing once instead of twice.
    ///
    /// # Errors
    ///
    /// * [`DeviceError::OutOfRange`] if the address exceeds the geometry.
    /// * [`DeviceError::TimingViolation`] if `at` precedes the earliest
    ///   legal cycle.
    /// * [`DeviceError::StateViolation`] if the bank state or the rank's I/O
    ///   mode does not match the command (stride data commands require a
    ///   stride mode and vice versa).
    pub fn issue(&mut self, cmd: &Command, at: Cycle) -> Result<Cycle, DeviceError> {
        self.validate_address(cmd)?;
        let earliest = self.earliest_issue(cmd, at);
        if at < earliest {
            return Err(DeviceError::TimingViolation { at, earliest });
        }
        let done = self.apply(cmd, at)?;
        self.observers.notify(cmd, at);
        Ok(done)
    }

    /// Issues `cmd` at its earliest legal cycle not before `not_before`,
    /// returning `(at, done)`: the issue cycle and the completion cycle
    /// [`Self::issue`] would return for it.
    ///
    /// Equivalent to `issue(cmd, earliest_issue(cmd, not_before))` with the
    /// timing evaluated once: the earliest cycle is legal by construction,
    /// so only the address and the bank and mode state are checked.
    ///
    /// # Errors
    ///
    /// * [`DeviceError::OutOfRange`] if the address exceeds the geometry.
    /// * [`DeviceError::StateViolation`] under the same conditions as
    ///   [`Self::issue`]. A rejected command leaves the device unchanged.
    pub fn issue_earliest(
        &mut self,
        cmd: &Command,
        not_before: Cycle,
    ) -> Result<(Cycle, Cycle), DeviceError> {
        self.validate_address(cmd)?;
        let at = self.earliest_issue(cmd, not_before);
        let done = self.apply(cmd, at)?;
        self.observers.notify(cmd, at);
        Ok((at, done))
    }

    /// State update for a validated, timing-legal command. A state error
    /// is returned before anything is changed.
    fn apply(&mut self, cmd: &Command, at: Cycle) -> Result<Cycle, DeviceError> {
        let slot = self.bank_slot(cmd.rank, cmd.bank_group, cmd.bank);
        let t = &self.config.timing;
        match cmd.kind {
            CmdKind::Act => {
                self.banks[slot].activate(cmd.row, at, t)?;
                self.ranks[cmd.rank].record_act(cmd.bank_group, at);
                self.stats.acts += 1;
                Ok(at)
            }
            CmdKind::Pre => {
                self.banks[slot].precharge(at, t)?;
                self.stats.pres += 1;
                Ok(at)
            }
            CmdKind::Rd { stride, narrow } => {
                if stride != self.ranks[cmd.rank].io_mode().is_stride() {
                    return Err(DeviceError::StateViolation);
                }
                self.banks[slot].read(at, t)?;
                self.ranks[cmd.rank].record_col(cmd.bank_group, false, at, t);
                self.channel.record_data_cmd(cmd.rank, true, narrow, at, t);
                if stride {
                    self.stats.stride_reads += 1;
                } else {
                    self.stats.reads += 1;
                }
                Ok(at + t.cl + t.burst)
            }
            CmdKind::Wr { stride, narrow } => {
                if stride != self.ranks[cmd.rank].io_mode().is_stride() {
                    return Err(DeviceError::StateViolation);
                }
                self.banks[slot].write(at, t)?;
                self.ranks[cmd.rank].record_col(cmd.bank_group, true, at, t);
                self.channel.record_data_cmd(cmd.rank, false, narrow, at, t);
                if stride {
                    self.stats.stride_writes += 1;
                } else {
                    self.stats.writes += 1;
                }
                Ok(at + t.cwl + t.burst)
            }
            CmdKind::Ref => {
                let slots = self.rank_slots(cmd.rank);
                for b in &mut self.banks[slots] {
                    b.refresh(at, t);
                }
                self.stats.refreshes += 1;
                Ok(at + t.rfc)
            }
            CmdKind::Mrs(mode) => {
                if self.ranks[cmd.rank].apply_mrs(mode, at, t) {
                    self.stats.mode_switches += 1;
                }
                Ok(at)
            }
        }
    }

    /// Convenience used by the controller's FR-FCFS ranking: the earliest
    /// cycle a column access to (`rank`, `bank_group`, `bank`, `row`) could
    /// complete, including any precharge/activate it would require.
    pub fn earliest_column_for_row(
        &self,
        rank: usize,
        bank_group: usize,
        bank: usize,
        row: u64,
        now: Cycle,
    ) -> Cycle {
        debug_assert!(
            self.bank_in_range(rank, bank_group, bank),
            "earliest_column_for_row: bank ({rank}, {bank_group}, {bank}) is outside the device geometry"
        );
        let b = &self.banks[self.bank_slot(rank, bank_group, bank)];
        b.earliest_column_for_row(row, now, &self.config.timing)
    }

    /// Whether a column access to `row` would hit the open row.
    pub fn is_row_hit(&self, rank: usize, bank_group: usize, bank: usize, row: u64) -> bool {
        self.open_row(rank, bank_group, bank) == Some(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> MemoryDevice {
        MemoryDevice::new(DeviceConfig::ddr4_server())
    }

    #[test]
    fn act_read_pre_sequence() {
        let mut d = dev();
        let t = d.config().timing;
        let act = Command::act(0, 1, 2, 99);
        d.issue(&act, 0).unwrap();
        let rd = Command::read(0, 1, 2, 99, 5, false);
        let at = d.earliest_issue(&rd, 0);
        assert_eq!(at, t.rcd);
        let done = d.issue(&rd, at).unwrap();
        assert_eq!(done, t.rcd + t.cl + t.burst);
        let pre = Command::pre(0, 1, 2);
        let pre_at = d.earliest_issue(&pre, 0);
        assert_eq!(pre_at, t.ras); // tRAS dominates tRTP here
        d.issue(&pre, pre_at).unwrap();
        assert_eq!(d.stats().acts, 1);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().pres, 1);
    }

    #[test]
    fn premature_issue_rejected() {
        let mut d = dev();
        d.issue(&Command::act(0, 0, 0, 1), 0).unwrap();
        let rd = Command::read(0, 0, 0, 1, 0, false);
        assert!(matches!(
            d.issue(&rd, 1),
            Err(DeviceError::TimingViolation { .. })
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = dev();
        let bad = Command::act(9, 0, 0, 1);
        assert_eq!(d.issue(&bad, 0), Err(DeviceError::OutOfRange));
        let bad_row = Command::act(0, 0, 0, u64::MAX);
        assert_eq!(d.issue(&bad_row, 0), Err(DeviceError::OutOfRange));
    }

    #[test]
    fn issue_earliest_issues_at_the_earliest_cycle() {
        let mut d = dev();
        let t = d.config().timing;
        assert_eq!(d.issue_earliest(&Command::act(0, 1, 2, 99), 5), Ok((5, 5)));
        let rd = Command::read(0, 1, 2, 99, 5, false);
        let at = 5 + t.rcd;
        assert_eq!(d.issue_earliest(&rd, 0), Ok((at, at + t.cl + t.burst)));
        assert_eq!(d.stats().reads, 1);
    }

    /// In the flat bank array, bank group 4 of rank 0 would be slot 16:
    /// rank 1's first bank. The issuing paths reject the address before
    /// indexing, so rank 1 stays untouched.
    #[test]
    fn out_of_range_group_does_not_reach_another_rank() {
        let mut d = dev();
        let bad = Command::act(0, 4, 0, 1);
        assert_eq!(d.issue_earliest(&bad, 0), Err(DeviceError::OutOfRange));
        assert_eq!(d.issue(&bad, 0), Err(DeviceError::OutOfRange));
        assert_eq!(d.open_row(1, 0, 0), None);
        assert_eq!(d.stats().acts, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside the device geometry")]
    fn earliest_issue_checks_the_address_in_debug_builds() {
        dev().earliest_issue(&Command::act(0, 4, 0, 1), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside the device geometry")]
    fn earliest_column_for_row_checks_the_bank_in_debug_builds() {
        dev().earliest_column_for_row(0, 0, 4, 1, 0);
    }

    #[test]
    fn stride_read_requires_stride_mode() {
        let mut d = dev();
        d.issue(&Command::act(0, 0, 0, 1), 0).unwrap();
        let srd = Command::read(0, 0, 0, 1, 0, true);
        let at = d.earliest_issue(&srd, 0);
        assert_eq!(d.issue(&srd, at), Err(DeviceError::StateViolation));
        // Switch mode, then it works.
        d.issue(&Command::mrs(0, IoMode::Sx4(0)), at).unwrap();
        let at2 = d.earliest_issue(&srd, at);
        d.issue(&srd, at2).unwrap();
        assert_eq!(d.stats().stride_reads, 1);
        assert_eq!(d.stats().mode_switches, 1);
        // And regular reads are now rejected until switching back.
        let rd = Command::read(0, 0, 0, 1, 1, false);
        let at3 = d.earliest_issue(&rd, at2 + 100);
        assert_eq!(d.issue(&rd, at3), Err(DeviceError::StateViolation));
    }

    #[test]
    fn mode_switch_delays_next_column() {
        let mut d = dev();
        let t = d.config().timing;
        d.issue(&Command::act(0, 0, 0, 1), 0).unwrap();
        d.issue(&Command::mrs(0, IoMode::Sx4(3)), t.rcd).unwrap();
        let srd = Command::read(0, 0, 0, 1, 0, true);
        assert_eq!(d.earliest_issue(&srd, t.rcd), t.rcd + t.rtr);
    }

    #[test]
    fn rank_switch_penalty_on_data_bus() {
        let mut d = dev();
        let t = d.config().timing;
        d.issue(&Command::act(0, 0, 0, 1), 0).unwrap();
        d.issue(&Command::act(1, 0, 0, 1), t.rrd_s.max(1)).unwrap();
        let rd0 = Command::read(0, 0, 0, 1, 0, false);
        let at0 = d.earliest_issue(&rd0, 0);
        d.issue(&rd0, at0).unwrap();
        let rd1 = Command::read(1, 0, 0, 1, 0, false);
        let at1 = d.earliest_issue(&rd1, at0);
        // Data for rank 1 must wait for the bus plus tRTR; with identical CL
        // the command gap is burst + rtr.
        assert_eq!(at1, at0 + t.burst + t.rtr);
    }

    #[test]
    fn refresh_blocks_rank() {
        let mut d = dev();
        let t = d.config().timing;
        d.issue(&Command::refresh(0), 0).unwrap();
        let act = Command::act(0, 0, 0, 1);
        assert_eq!(d.earliest_issue(&act, 0), t.rfc);
        assert_eq!(d.stats().refreshes, 1);
    }

    #[test]
    fn refresh_waits_for_open_rows() {
        let mut d = dev();
        let t = d.config().timing;
        d.issue(&Command::act(0, 0, 0, 1), 0).unwrap();
        let r = Command::refresh(0);
        // Must wait tRAS (precharge legality) + tRP.
        assert_eq!(d.earliest_issue(&r, 0), t.ras + t.rp);
    }

    #[test]
    fn row_hit_tracking() {
        let mut d = dev();
        d.issue(&Command::act(0, 2, 3, 77), 0).unwrap();
        assert!(d.is_row_hit(0, 2, 3, 77));
        assert!(!d.is_row_hit(0, 2, 3, 78));
        assert!(!d.is_row_hit(0, 2, 2, 77));
        assert_eq!(d.open_row(0, 2, 3), Some(77));
    }

    #[test]
    fn desktop_config_is_single_rank() {
        let cfg = DeviceConfig::ddr4_desktop();
        assert_eq!(cfg.ranks, 1);
        assert_eq!(cfg.banks_per_rank(), 16);
        let mut d = MemoryDevice::new(cfg);
        // Rank 1 does not exist on the desktop part.
        assert_eq!(
            d.issue(&Command::act(1, 0, 0, 0), 0),
            Err(DeviceError::OutOfRange)
        );
        d.issue(&Command::act(0, 0, 0, 0), 0).unwrap();
    }

    #[test]
    fn stats_column_totals() {
        let s = DeviceStats {
            reads: 2,
            stride_writes: 3,
            ..Default::default()
        };
        assert_eq!(s.column_commands(), 5);
    }
}
