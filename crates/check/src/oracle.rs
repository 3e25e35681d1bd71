//! The JEDEC protocol oracle.
//!
//! [`ProtocolOracle`] is a deliberately naive re-derivation of the DDR4 (and
//! RRAM) command rules from the timing parameters alone. It shares no state
//! machine with `sam_dram::device` — where the device folds every rule into
//! precomputed `next_*` windows, the oracle keeps the raw event history
//! (last ACT, last closing PRE, last read, last write, the four most recent
//! ACTs per rank, lane release times) and re-checks each window from first
//! principles.
//!
//! # Command ordering
//!
//! The controller back-dates commands: a request that queued for a long time
//! may issue at a cycle earlier than commands already recorded (its cursor
//! starts at the request's arrival time). The observer therefore sees the
//! stream in *issue order*, not cycle order. The oracle buffers everything
//! and checks the cycle-sorted stream at [`ProtocolOracle::finish`] — sound
//! for bank/rank/channel windows because the per-resource rules themselves
//! force cycle monotonicity on each resource (e.g. two ACTs to one rank are
//! at least tRRD_S apart in both orders).
//!
//! The one exception is the mode register: MRS has no timing window, so a
//! back-dated MRS may carry an older cycle than data commands that issued
//! (and were mode-checked by the device) *before* it. I/O-mode consistency
//! and the post-MRS tRTR settle window are therefore checked in issue order
//! as commands are recorded, exactly like the physical mode register applies
//! them.

use std::collections::VecDeque;

use sam_dram::command::{CmdKind, Command};
use sam_dram::device::DeviceConfig;
use sam_dram::moderegs::IoMode;
use sam_dram::observe::CommandObserver;
use sam_dram::timing::TimingParams;
use sam_dram::Cycle;

use crate::{Constraint, Violation};

/// JEDEC allows postponing up to eight refresh commands, so consecutive
/// REFs may legally be up to nine intervals apart.
const REFI_SLACK: u64 = 9;

/// Geometry and timing the oracle checks against.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Timing parameters (the oracle trusts only these numbers, not the
    /// device's derived state).
    pub timing: TimingParams,
    /// Number of ranks.
    pub ranks: usize,
    /// Bank groups per rank.
    pub bank_groups: usize,
    /// Banks per bank group.
    pub banks_per_group: usize,
    /// Rows per bank.
    pub rows_per_bank: u64,
    /// Columns (bursts) per row.
    pub cols_per_row: u64,
    /// Whether tREFI deadlines are enforced (off for refresh-free
    /// substrates such as RRAM).
    pub check_refresh: bool,
}

impl OracleConfig {
    /// Builds an oracle configuration mirroring `cfg`.
    pub fn from_device(cfg: &DeviceConfig) -> Self {
        Self {
            timing: cfg.timing,
            ranks: cfg.ranks,
            bank_groups: cfg.bank_groups,
            banks_per_group: cfg.banks_per_group,
            rows_per_bank: cfg.rows_per_bank,
            cols_per_row: cfg.cols_per_row,
            check_refresh: cfg.timing.needs_refresh(),
        }
    }

    /// The DDR4 server-channel geometry (2 ranks, 4x4 banks).
    pub fn ddr4_server() -> Self {
        Self::from_device(&DeviceConfig::ddr4_server())
    }

    /// Enables or disables tREFI deadline checking (builder-style).
    pub fn with_refresh_checking(mut self, on: bool) -> Self {
        self.check_refresh = on;
        self
    }
}

type Ev = (Command, Cycle);

/// Per-rank mode-register shadow, advanced in issue order.
#[derive(Debug, Clone)]
struct ModeCk {
    io_mode: IoMode,
    mode_ready: Cycle,
    last_mrs: Option<Ev>,
}

impl Default for ModeCk {
    fn default() -> Self {
        Self {
            io_mode: IoMode::X4,
            mode_ready: 0,
            last_mrs: None,
        }
    }
}

/// Shadow-checks a command stream against the JEDEC rules.
///
/// Attach it to a device (via `MemoryDevice::attach_observer`) or feed it
/// manually with [`ProtocolOracle::record`], then call
/// [`ProtocolOracle::finish`].
#[derive(Debug, Clone)]
pub struct ProtocolOracle {
    cfg: OracleConfig,
    log: Vec<Ev>,
    modes: Vec<ModeCk>,
    mode_violations: Vec<Violation>,
}

impl ProtocolOracle {
    /// Creates an oracle for the given configuration.
    pub fn new(cfg: OracleConfig) -> Self {
        let modes = vec![ModeCk::default(); cfg.ranks];
        Self {
            cfg,
            log: Vec::new(),
            modes,
            mode_violations: Vec::new(),
        }
    }

    /// The configuration this oracle checks against.
    pub fn config(&self) -> &OracleConfig {
        &self.cfg
    }

    /// Records one command in issue order.
    pub fn record(&mut self, cmd: &Command, at: Cycle) {
        if cmd.rank < self.cfg.ranks {
            self.mode_check(cmd, at);
        }
        self.log.push((*cmd, at));
    }

    /// Number of commands recorded so far.
    pub fn command_count(&self) -> usize {
        self.log.len()
    }

    /// The recorded command stream, in issue order.
    pub fn commands(&self) -> &[(Command, Cycle)] {
        &self.log
    }

    /// Checks everything recorded so far and returns the violations,
    /// ordered by cycle.
    pub fn check(&self) -> Vec<Violation> {
        let mut sorted = self.log.clone();
        // Stable: same-cycle commands keep issue order, matching the device.
        sorted.sort_by_key(|&(_, at)| at);
        let mut checker = Checker::new(&self.cfg);
        for (cmd, at) in &sorted {
            checker.feed(cmd, *at);
        }
        let mut all = self.mode_violations.clone();
        all.extend(checker.finalize());
        all.sort_by_key(|v| v.at);
        all
    }

    /// Consumes the oracle and returns all violations, ordered by cycle.
    pub fn finish(self) -> Vec<Violation> {
        self.check()
    }

    /// I/O-mode consistency runs in issue order: the mode register is
    /// program-order state, and MRS (unlike every other command) carries no
    /// timing window that would pin its position in the cycle-sorted view.
    fn mode_check(&mut self, cmd: &Command, at: Cycle) {
        let rtr = self.cfg.timing.rtr;
        let m = &mut self.modes[cmd.rank];
        match cmd.kind {
            CmdKind::Mrs(mode) if mode != m.io_mode => {
                m.io_mode = mode;
                m.mode_ready = m.mode_ready.max(at + rtr);
                m.last_mrs = Some((*cmd, at));
            }
            CmdKind::Rd { stride, .. } | CmdKind::Wr { stride, .. } => {
                if stride != m.io_mode.is_stride() {
                    self.mode_violations.push(Violation {
                        constraint: Constraint::IoMode,
                        cmd: *cmd,
                        at,
                        prior: m.last_mrs,
                        earliest: at,
                    });
                }
                if at < m.mode_ready {
                    self.mode_violations.push(Violation {
                        constraint: Constraint::TRtr,
                        cmd: *cmd,
                        at,
                        prior: m.last_mrs,
                        earliest: m.mode_ready,
                    });
                }
            }
            _ => {}
        }
    }
}

impl CommandObserver for ProtocolOracle {
    fn on_command(&mut self, cmd: &Command, at: Cycle) {
        self.record(cmd, at);
    }
}

/// Replays `cmds` (in issue order) against a fresh oracle.
pub fn replay(cfg: OracleConfig, cmds: &[(Command, Cycle)]) -> Vec<Violation> {
    let mut oracle = ProtocolOracle::new(cfg);
    for (cmd, at) in cmds {
        oracle.record(cmd, *at);
    }
    oracle.finish()
}

#[derive(Debug, Clone, Default)]
struct BankCk {
    open_row: Option<u64>,
    last_act: Option<Ev>,
    /// Last *closing* precharge (PRE to an idle bank is a legal no-op).
    last_pre: Option<Ev>,
    last_rd: Option<Ev>,
    last_wr: Option<Ev>,
}

#[derive(Debug, Clone)]
struct RankCk {
    /// The (up to) four most recent ACTs — the tFAW sliding window.
    act_window: VecDeque<Ev>,
    last_act_any: Option<Ev>,
    last_act_bg: Vec<Option<Ev>>,
    last_col_any: Option<Ev>,
    last_col_bg: Vec<Option<Ev>>,
    last_wr_any: Option<Ev>,
    last_wr_bg: Vec<Option<Ev>>,
    last_ref: Option<Ev>,
}

impl RankCk {
    fn new(bank_groups: usize) -> Self {
        Self {
            act_window: VecDeque::with_capacity(4),
            last_act_any: None,
            last_act_bg: vec![None; bank_groups],
            last_col_any: None,
            last_col_bg: vec![None; bank_groups],
            last_wr_any: None,
            last_wr_bg: vec![None; bank_groups],
            last_ref: None,
        }
    }
}

/// The cycle-order pass: bank state plus every timing window.
struct Checker<'a> {
    cfg: &'a OracleConfig,
    banks: Vec<Vec<BankCk>>,
    ranks: Vec<RankCk>,
    lane_free: [Cycle; 4],
    lane_owner: [Option<Ev>; 4],
    last_bus_rank: Option<usize>,
    last_data: Option<Ev>,
    last_cycle: Cycle,
    violations: Vec<Violation>,
}

impl<'a> Checker<'a> {
    fn new(cfg: &'a OracleConfig) -> Self {
        let banks_per_rank = cfg.bank_groups * cfg.banks_per_group;
        Self {
            cfg,
            banks: vec![vec![BankCk::default(); banks_per_rank]; cfg.ranks],
            ranks: (0..cfg.ranks)
                .map(|_| RankCk::new(cfg.bank_groups))
                .collect(),
            lane_free: [0; 4],
            lane_owner: [None; 4],
            last_bus_rank: None,
            last_data: None,
            last_cycle: 0,
            violations: Vec::new(),
        }
    }

    fn flag(
        &mut self,
        constraint: Constraint,
        cmd: &Command,
        at: Cycle,
        prior: Option<Ev>,
        earliest: Cycle,
    ) {
        self.violations.push(Violation {
            constraint,
            cmd: *cmd,
            at,
            prior,
            earliest,
        });
    }

    /// Flags `constraint` if `at` falls inside the window `prior + width`.
    fn window(
        &mut self,
        constraint: Constraint,
        cmd: &Command,
        at: Cycle,
        prior: Option<Ev>,
        width: u64,
    ) {
        if let Some((_, prior_at)) = prior {
            if at < prior_at + width {
                self.flag(constraint, cmd, at, prior, prior_at + width);
            }
        }
    }

    fn geometry_ok(&self, cmd: &Command) -> bool {
        cmd.rank < self.cfg.ranks
            && cmd.bank_group < self.cfg.bank_groups
            && cmd.bank < self.cfg.banks_per_group
            && cmd.row < self.cfg.rows_per_bank
            && cmd.col < self.cfg.cols_per_row
    }

    fn feed(&mut self, cmd: &Command, at: Cycle) {
        self.last_cycle = self.last_cycle.max(at);
        if !self.geometry_ok(cmd) {
            self.flag(Constraint::Geometry, cmd, at, None, at);
            return;
        }
        match cmd.kind {
            CmdKind::Act => self.check_act(cmd, at),
            CmdKind::Pre => self.check_pre(cmd, at),
            CmdKind::Rd { .. } | CmdKind::Wr { .. } => self.check_col(cmd, at),
            CmdKind::Ref => self.check_ref(cmd, at),
            // Mode-register semantics are issue-order state, handled by
            // `ProtocolOracle::mode_check` before sorting.
            CmdKind::Mrs(_) => {}
        }
    }

    fn bank_idx(&self, cmd: &Command) -> usize {
        cmd.bank_group * self.cfg.banks_per_group + cmd.bank
    }

    fn check_act(&mut self, cmd: &Command, at: Cycle) {
        let t = self.cfg.timing;
        let bi = self.bank_idx(cmd);
        let bank = self.banks[cmd.rank][bi].clone();
        let rank = &self.ranks[cmd.rank];
        let (last_ref, last_act_any, last_act_bg) = (
            rank.last_ref,
            rank.last_act_any,
            rank.last_act_bg[cmd.bank_group],
        );
        let faw_anchor = if rank.act_window.len() == 4 {
            Some(rank.act_window[0])
        } else {
            None
        };

        if bank.open_row.is_some() {
            self.flag(Constraint::BankState, cmd, at, bank.last_act, at);
        }
        self.window(Constraint::TRc, cmd, at, bank.last_act, t.rc);
        self.window(Constraint::TRp, cmd, at, bank.last_pre, t.rp);
        self.window(Constraint::TRfc, cmd, at, last_ref, t.rfc);
        self.window(Constraint::TRrdS, cmd, at, last_act_any, t.rrd_s);
        self.window(Constraint::TRrdL, cmd, at, last_act_bg, t.rrd_l);
        self.window(Constraint::TFaw, cmd, at, faw_anchor, t.faw);

        let ev = (*cmd, at);
        let b = &mut self.banks[cmd.rank][bi];
        b.open_row = Some(cmd.row);
        b.last_act = Some(ev);
        let r = &mut self.ranks[cmd.rank];
        r.last_act_any = Some(ev);
        r.last_act_bg[cmd.bank_group] = Some(ev);
        if r.act_window.len() == 4 {
            r.act_window.pop_front();
        }
        r.act_window.push_back(ev);
    }

    fn check_pre(&mut self, cmd: &Command, at: Cycle) {
        let t = self.cfg.timing;
        let bi = self.bank_idx(cmd);
        let bank = self.banks[cmd.rank][bi].clone();
        if bank.open_row.is_none() {
            // PRE to an idle bank is a legal no-op.
            return;
        }
        let last_ref = self.ranks[cmd.rank].last_ref;
        self.window(Constraint::TRas, cmd, at, bank.last_act, t.ras);
        self.window(Constraint::TRtp, cmd, at, bank.last_rd, t.rtp);
        self.window(
            Constraint::TWr,
            cmd,
            at,
            bank.last_wr,
            t.cwl + t.burst + t.wr,
        );
        self.window(Constraint::TRfc, cmd, at, last_ref, t.rfc);

        let b = &mut self.banks[cmd.rank][bi];
        b.open_row = None;
        b.last_pre = Some((*cmd, at));
    }

    fn check_col(&mut self, cmd: &Command, at: Cycle) {
        let t = self.cfg.timing;
        let is_read = cmd.is_read();
        let lat = if is_read { t.cl } else { t.cwl };
        let bi = self.bank_idx(cmd);
        let bank = self.banks[cmd.rank][bi].clone();
        let rank = &self.ranks[cmd.rank];
        let (last_ref, last_col_any, last_col_bg, last_wr_any, last_wr_bg) = (
            rank.last_ref,
            rank.last_col_any,
            rank.last_col_bg[cmd.bank_group],
            rank.last_wr_any,
            rank.last_wr_bg[cmd.bank_group],
        );

        match bank.open_row {
            None => self.flag(Constraint::BankState, cmd, at, bank.last_pre, at),
            Some(row) if row != cmd.row => {
                // The command stream claims a row the bank does not have
                // open — a controller bookkeeping bug.
                self.flag(Constraint::BankState, cmd, at, bank.last_act, at);
            }
            Some(_) => {}
        }
        self.window(Constraint::TRcd, cmd, at, bank.last_act, t.rcd);
        self.window(Constraint::TRfc, cmd, at, last_ref, t.rfc);
        if t.wtw > 0 {
            self.window(Constraint::TWtw, cmd, at, bank.last_wr, t.wtw);
        }
        self.window(Constraint::TCcdS, cmd, at, last_col_any, t.ccd_s);
        self.window(Constraint::TCcdL, cmd, at, last_col_bg, t.ccd_l);
        if is_read {
            // Write-to-read turnaround counts from the end of the write
            // burst (WR issue + CWL + burst).
            self.window(
                Constraint::TWtrS,
                cmd,
                at,
                last_wr_any,
                t.cwl + t.burst + t.wtr_s,
            );
            self.window(
                Constraint::TWtrL,
                cmd,
                at,
                last_wr_bg,
                t.cwl + t.burst + t.wtr_l,
            );
        }

        // Data-bus occupancy: the burst starts `lat` after the command and
        // must not overlap whatever the command's lanes still carry.
        let data_start = at + lat;
        let (free, owner) = match cmd.narrow_lane() {
            Some(lane) => (
                self.lane_free[lane as usize],
                self.lane_owner[lane as usize],
            ),
            None => {
                let lane = (0..4).max_by_key(|&l| self.lane_free[l]).unwrap_or(0);
                (self.lane_free[lane], self.lane_owner[lane])
            }
        };
        if data_start < free {
            self.flag(
                Constraint::BusOverlap,
                cmd,
                at,
                owner,
                free.saturating_sub(lat),
            );
        } else if let Some(last) = self.last_bus_rank {
            if last != cmd.rank && data_start < free + t.rtr {
                self.flag(
                    Constraint::TRtr,
                    cmd,
                    at,
                    self.last_data,
                    (free + t.rtr).saturating_sub(lat),
                );
            }
        }

        let ev = (*cmd, at);
        let b = &mut self.banks[cmd.rank][bi];
        if is_read {
            b.last_rd = Some(ev);
        } else {
            b.last_wr = Some(ev);
        }
        let r = &mut self.ranks[cmd.rank];
        r.last_col_any = Some(ev);
        r.last_col_bg[cmd.bank_group] = Some(ev);
        if !is_read {
            r.last_wr_any = Some(ev);
            r.last_wr_bg[cmd.bank_group] = Some(ev);
        }
        let done = data_start + t.burst;
        match cmd.narrow_lane() {
            Some(lane) => {
                self.lane_free[lane as usize] = done;
                self.lane_owner[lane as usize] = Some(ev);
            }
            None => {
                self.lane_free = [done; 4];
                self.lane_owner = [Some(ev); 4];
            }
        }
        self.last_bus_rank = Some(cmd.rank);
        self.last_data = Some(ev);
    }

    fn check_ref(&mut self, cmd: &Command, at: Cycle) {
        let t = self.cfg.timing;
        let last_ref = self.ranks[cmd.rank].last_ref;
        if self.cfg.check_refresh {
            if let Some((_, prev)) = last_ref {
                let deadline = prev + REFI_SLACK * t.refi;
                if at > deadline {
                    self.flag(Constraint::TRefi, cmd, at, last_ref, deadline);
                }
            }
        }
        self.window(Constraint::TRfc, cmd, at, last_ref, t.rfc);
        // Refresh implicitly precharges every bank of the rank: open banks
        // must be precharge-able (their windows plus tRP), closed banks must
        // have finished their activate/precharge cycles.
        let banks = self.banks[cmd.rank].clone();
        for bank in &banks {
            if bank.open_row.is_some() {
                self.window(Constraint::TRas, cmd, at, bank.last_act, t.ras + t.rp);
                self.window(Constraint::TRtp, cmd, at, bank.last_rd, t.rtp + t.rp);
                self.window(
                    Constraint::TWr,
                    cmd,
                    at,
                    bank.last_wr,
                    t.cwl + t.burst + t.wr + t.rp,
                );
            } else {
                self.window(Constraint::TRc, cmd, at, bank.last_act, t.rc);
                self.window(Constraint::TRp, cmd, at, bank.last_pre, t.rp);
            }
        }
        for bank in &mut self.banks[cmd.rank] {
            bank.open_row = None;
        }
        self.ranks[cmd.rank].last_ref = Some((*cmd, at));
    }

    fn finalize(mut self) -> Vec<Violation> {
        if self.cfg.check_refresh {
            let refi = self.cfg.timing.refi;
            for r in 0..self.cfg.ranks {
                let last_ref = self.ranks[r].last_ref;
                let deadline = last_ref.map_or(0, |(_, ref_at)| ref_at) + REFI_SLACK * refi;
                if self.last_cycle > deadline {
                    let cmd = Command::refresh(r);
                    self.flag(Constraint::TRefi, &cmd, self.last_cycle, last_ref, deadline);
                }
            }
        }
        self.violations
    }
}
