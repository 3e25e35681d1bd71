//! Per-bank command lanes: renders the accepted command stream as
//! Chrome-trace spans, one lane per bank (and one per rank for MRS).
//!
//! [`span`] is a pure function of a command, its issue cycle and the
//! [`TimingParams`] in effect; the controller calls it after each command
//! the device accepts and records the result in the run's trace recorder.
//! Every ACT/PRE/RD/WR/MRS becomes a `Complete` span on the lane of the
//! bank it occupies, with a nominal duration (tRCD for ACT, tRP for PRE,
//! CAS latency + burst for column commands, tRTR for MRS). Durations are
//! *nominal occupancy* — the state machines in [`crate::bank`] enforce the
//! real constraints — but they make bank-level parallelism and row-cycle
//! gaps visible at a glance in Perfetto.
//!
//! REF commands are deliberately skipped: the controller emits refresh
//! windows itself (it knows the per-rank schedule), and double-reporting
//! would clutter the rank lanes.

use crate::command::{CmdKind, Command};
use crate::timing::TimingParams;
use crate::Cycle;
use sam_trace::event::track;
use sam_trace::{Category, TraceEvent};

/// The lane span of `cmd` accepted at `at`, with its nominal duration
/// under `t`; `None` for REF.
pub fn span(cmd: &Command, at: Cycle, t: &TimingParams) -> Option<TraceEvent> {
    let bank_lane = track::bank(cmd.rank, cmd.bank_group, cmd.bank);
    let (lane, name, dur, arg) = match cmd.kind {
        CmdKind::Act => (bank_lane, "ACT", t.rcd, cmd.row),
        CmdKind::Pre => (bank_lane, "PRE", t.rp, 0),
        CmdKind::Rd { stride, narrow } => {
            let name = match (stride, narrow.is_some()) {
                (true, _) => "SRD",
                (false, true) => "RDn",
                (false, false) => "RD",
            };
            (bank_lane, name, t.cl + t.burst, cmd.col)
        }
        CmdKind::Wr { stride, narrow } => {
            let name = match (stride, narrow.is_some()) {
                (true, _) => "SWR",
                (false, true) => "WRn",
                (false, false) => "WR",
            };
            (bank_lane, name, t.cwl + t.burst, cmd.col)
        }
        // The controller emits refresh windows itself.
        CmdKind::Ref => return None,
        CmdKind::Mrs(_) => (track::rank(cmd.rank), "MRS", t.rtr, 0),
    };
    Some(TraceEvent::complete(
        lane,
        Category::Dram,
        name,
        at,
        dur,
        arg,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moderegs::IoMode;

    fn recorded(cmds: &[(Command, Cycle)]) -> Vec<TraceEvent> {
        let t = TimingParams::ddr4_2400();
        cmds.iter()
            .filter_map(|(cmd, at)| span(cmd, *at, &t))
            .collect()
    }

    #[test]
    fn commands_land_on_their_bank_lane() {
        let t = TimingParams::ddr4_2400();
        let events = recorded(&[
            (Command::act(0, 1, 2, 77), 10),
            (Command::read(0, 1, 2, 77, 5, false), 10 + t.rcd),
            (Command::pre(0, 1, 2), 100),
        ]);
        assert_eq!(events.len(), 3);
        for ev in &events {
            assert_eq!(ev.track, track::bank(0, 1, 2));
            assert_eq!(ev.cat, Category::Dram);
        }
        assert_eq!(events[0].name, "ACT");
        assert_eq!(events[0].dur, t.rcd);
        assert_eq!(events[0].arg, 77);
        assert_eq!(events[1].name, "RD");
        assert_eq!(events[1].dur, t.cl + t.burst);
        assert_eq!(events[2].name, "PRE");
    }

    #[test]
    fn stride_and_narrow_commands_are_distinguished() {
        let events = recorded(&[
            (Command::read(0, 0, 0, 0, 0, true), 0),
            (Command::read_narrow(0, 0, 0, 0, 0, 2), 1),
            (Command::write(0, 0, 0, 0, 0, true), 2),
            (Command::write_narrow(0, 0, 0, 0, 0, 1), 3),
        ]);
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert_eq!(names, ["SRD", "RDn", "SWR", "WRn"]);
    }

    #[test]
    fn mrs_lands_on_rank_lane_and_ref_is_skipped() {
        let t = TimingParams::ddr4_2400();
        let events = recorded(&[
            (Command::refresh(1), 5),
            (Command::mrs(1, IoMode::Sx4(2)), 6),
        ]);
        assert_eq!(events.len(), 1, "REF is the controller's to report");
        assert_eq!(events[0].name, "MRS");
        assert_eq!(events[0].track, track::rank(1));
        assert_eq!(events[0].dur, t.rtr);
    }
}
