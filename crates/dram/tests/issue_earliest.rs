//! Differential test of `MemoryDevice::issue_earliest`, the controller's
//! one-evaluation issue path, against the full-check pair it replaces:
//! `earliest_issue` followed by `issue` at that cycle. Random command
//! streams (ACT, PRE, regular/stride/narrow RD and WR, MRS, REF, with the
//! cursor moving forward or back-dated) drive one device through each
//! path; after every step the two must agree on the outcome and on every
//! observable, and a rejected command must leave both devices exactly as
//! they were.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use sam_dram::command::Command;
use sam_dram::device::{DeviceConfig, DeviceStats, MemoryDevice};
use sam_dram::moderegs::IoMode;
use sam_dram::observe::CommandObserver;
use sam_dram::{Cycle, DeviceError};

/// Every command an observer was told about, in order.
#[derive(Default)]
struct Log(Vec<(Command, Cycle)>);

impl CommandObserver for Log {
    fn on_command(&mut self, cmd: &Command, at: Cycle) {
        self.0.push((*cmd, at));
    }
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Act {
        row: u64,
    },
    Pre,
    /// `lane`: `Some` for a narrow burst. Otherwise the burst runs in the
    /// rank's current kind of mode (stride or regular), or in the other
    /// kind when `flip` is set, which the device must reject. With `seek`
    /// a burst aimed at a precharged bank moves to the rank's next open
    /// bank, if it has one.
    Column {
        write: bool,
        flip: bool,
        seek: bool,
        lane: Option<u8>,
        col: u64,
    },
    Mrs {
        mode: usize,
    },
    Ref,
}

/// One step: a command kind, its bank, and how the cursor moves first
/// (`back` back-dates `not_before` by `delta` the way the controller
/// starts a request at its arrival; otherwise the cursor advances).
#[derive(Debug, Clone, Copy)]
struct Step {
    kind: Kind,
    rank: usize,
    bank_group: usize,
    bank: usize,
    delta: u64,
    back: bool,
}

fn column_strategy() -> impl Strategy<Value = Kind> {
    (any::<bool>(), 0u8..4, 0u8..4, 0u8..6, 0u64..64).prop_map(|(write, flip, seek, lane, col)| {
        Kind::Column {
            write,
            flip: flip == 0,
            seek: seek != 0,
            lane: (lane < 4).then_some(lane),
            col,
        }
    })
}

/// Column commands are five in twelve and ACTs three in twelve.
fn kind_strategy() -> impl Strategy<Value = Kind> {
    let act = || (0u64..8).prop_map(|row| Kind::Act { row });
    let mrs = || (0usize..IoMode::ALL.len()).prop_map(|mode| Kind::Mrs { mode });
    prop_oneof![
        act(),
        act(),
        act(),
        Just(Kind::Pre),
        column_strategy(),
        column_strategy(),
        column_strategy(),
        column_strategy(),
        column_strategy(),
        mrs(),
        mrs(),
        Just(Kind::Ref),
    ]
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (
        kind_strategy(),
        0usize..2,
        0usize..4,
        0usize..4,
        (0u64..48, any::<bool>()),
    )
        .prop_map(|(kind, rank, bank_group, bank, (delta, back))| Step {
            kind,
            rank,
            bank_group,
            bank,
            delta,
            back,
        })
}

/// The command for `step` on `dev`: a column command targets the open
/// row when there is one (the device checks only that some row is open)
/// and, unless flipped, the mode kind the rank is in.
fn command(dev: &MemoryDevice, s: &Step) -> Command {
    let (rank, bg, bank) = (s.rank, s.bank_group, s.bank);
    match s.kind {
        Kind::Act { row } => Command::act(rank, bg, bank, row),
        Kind::Pre => Command::pre(rank, bg, bank),
        Kind::Column {
            write,
            flip,
            seek,
            lane,
            col,
        } => {
            let per_group = dev.config().banks_per_group;
            let banks = dev.config().banks_per_rank();
            let start = bg * per_group + bank;
            let (bg, bank) = (0..banks)
                .map(|k| {
                    let i = (start + k) % banks;
                    (i / per_group, i % per_group)
                })
                .find(|&(g, b)| !seek || dev.open_row(rank, g, b).is_some())
                .unwrap_or((bg, bank));
            let row = dev.open_row(rank, bg, bank).unwrap_or(0);
            let stride = dev.io_mode(rank).is_stride() != flip;
            match (lane, write) {
                (Some(l), false) => Command::read_narrow(rank, bg, bank, row, col, l),
                (Some(l), true) => Command::write_narrow(rank, bg, bank, row, col, l),
                (None, false) => Command::read(rank, bg, bank, row, col, stride),
                (None, true) => Command::write(rank, bg, bank, row, col, stride),
            }
        }
        Kind::Mrs { mode } => Command::mrs(rank, IoMode::ALL[mode]),
        Kind::Ref => Command::refresh(rank),
    }
}

/// A device with a logging observer attached.
fn observed(cfg: DeviceConfig) -> (MemoryDevice, Arc<Mutex<Log>>) {
    let mut dev = MemoryDevice::new(cfg);
    let log = Arc::new(Mutex::new(Log::default()));
    dev.attach_observer(log.clone());
    (dev, log)
}

/// The reference path: compute the earliest cycle, then issue there with
/// every check.
fn check_then_issue(
    dev: &mut MemoryDevice,
    cmd: &Command,
    not_before: Cycle,
) -> Result<(Cycle, Cycle), DeviceError> {
    let at = dev.earliest_issue(cmd, not_before);
    dev.issue(cmd, at).map(|done| (at, done))
}

/// Asserts every observable of the two devices agrees.
fn assert_same(a: &MemoryDevice, b: &MemoryDevice, step: usize) {
    let cfg = a.config();
    assert_eq!(a.stats(), b.stats(), "step {step}: stats");
    assert_eq!(a.channel(), b.channel(), "step {step}: channel");
    for rank in 0..cfg.ranks {
        assert_eq!(
            a.io_mode(rank),
            b.io_mode(rank),
            "step {step}: mode of rank {rank}"
        );
        for bg in 0..cfg.bank_groups {
            for bank in 0..cfg.banks_per_group {
                assert_eq!(
                    a.open_row(rank, bg, bank),
                    b.open_row(rank, bg, bank),
                    "step {step}: open row of ({rank}, {bg}, {bank})"
                );
            }
        }
    }
}

/// Drives both paths through `steps`; returns the stream's command
/// counters and how many commands both rejected.
fn run(cfg: DeviceConfig, steps: &[Step]) -> (DeviceStats, u64) {
    let (mut a, log_a) = observed(cfg);
    let (mut b, log_b) = observed(cfg);
    let mut now: Cycle = 0;
    let mut accepted = 0;
    let mut rejected = 0;
    for (i, s) in steps.iter().enumerate() {
        let not_before = if s.back {
            now.saturating_sub(s.delta)
        } else {
            now += s.delta;
            now
        };
        let cmd = command(&a, s);
        let (before_a, before_b) = (format!("{a:?}"), format!("{b:?}"));
        let got = a.issue_earliest(&cmd, not_before);
        let want = check_then_issue(&mut b, &cmd, not_before);
        assert_eq!(got, want, "step {i}: {cmd:?} not before {not_before}");
        match got {
            Ok((at, done)) => {
                assert!(at >= not_before, "step {i}: issued before the cursor");
                assert!(done >= at, "step {i}: done before issue");
                now = now.max(at);
                accepted += 1;
            }
            Err(e) => {
                rejected += 1;
                assert_eq!(e, DeviceError::StateViolation, "step {i}");
                assert_eq!(format!("{a:?}"), before_a, "step {i}: rejection changed a");
                assert_eq!(format!("{b:?}"), before_b, "step {i}: rejection changed b");
            }
        }
        assert_same(&a, &b, i);
    }
    let (log_a, log_b) = (log_a.lock().unwrap(), log_b.lock().unwrap());
    assert_eq!(&log_a.0, &log_b.0, "observed command streams");
    assert_eq!(
        log_a.0.len(),
        accepted,
        "one notification per accepted command"
    );
    (*a.stats(), rejected)
}

/// Runs 128 random streams on `cfg` and checks that together they
/// exercised every command class, accepted and rejected, so a change to
/// the generator cannot quietly hollow the comparison out.
fn differential(cfg: DeviceConfig, name: &str) {
    let streams = proptest::collection::vec(step_strategy(), 1..120);
    let mut rng = TestRng::deterministic(name);
    let mut total = DeviceStats::default();
    let mut rejected = 0;
    for _ in 0..128 {
        let (stats, r) = run(cfg, &streams.generate(&mut rng));
        total.acts += stats.acts;
        total.pres += stats.pres;
        total.reads += stats.reads;
        total.stride_reads += stats.stride_reads;
        total.writes += stats.writes;
        total.stride_writes += stats.stride_writes;
        total.refreshes += stats.refreshes;
        total.mode_switches += stats.mode_switches;
        rejected += r;
    }
    let DeviceStats {
        acts,
        pres,
        reads,
        stride_reads,
        writes,
        stride_writes,
        refreshes,
        mode_switches,
    } = total;
    for (what, n) in [
        ("ACT", acts),
        ("PRE", pres),
        ("RD", reads),
        ("stride RD", stride_reads),
        ("WR", writes),
        ("stride WR", stride_writes),
        ("REF", refreshes),
        ("mode switch", mode_switches),
        ("rejection", rejected),
    ] {
        assert!(n >= 50, "{name}: only {n} accepted {what} commands");
    }
}

#[test]
fn issue_earliest_matches_earliest_then_issue_on_ddr4() {
    differential(DeviceConfig::ddr4_server(), "ddr4");
}

#[test]
fn issue_earliest_matches_earliest_then_issue_on_rram() {
    differential(DeviceConfig::rram_server(), "rram");
}

/// The two illegal-state commands the controller must never send: a read
/// of a precharged bank and a stride read in a regular mode. Both paths
/// reject each with the same error and leave the device untouched.
#[test]
fn illegal_state_commands_are_rejected_alike_without_effect() {
    for cfg in [DeviceConfig::ddr4_server(), DeviceConfig::rram_server()] {
        let (mut a, _) = observed(cfg);
        let (mut b, _) = observed(cfg);
        for dev in [&mut a, &mut b] {
            dev.issue_earliest(&Command::act(0, 1, 2, 5), 0).unwrap();
        }
        let closed = Command::read(1, 0, 0, 0, 3, false);
        let stride_in_x4 = Command::read(0, 1, 2, 5, 3, true);
        for cmd in [closed, stride_in_x4] {
            let (before_a, before_b) = (format!("{a:?}"), format!("{b:?}"));
            assert_eq!(a.issue_earliest(&cmd, 40), Err(DeviceError::StateViolation));
            assert_eq!(
                check_then_issue(&mut b, &cmd, 40),
                Err(DeviceError::StateViolation)
            );
            assert_eq!(format!("{a:?}"), before_a, "{cmd:?} changed the device");
            assert_eq!(format!("{b:?}"), before_b, "{cmd:?} changed the device");
        }
    }
}
