//! Per-bank command-lane tracing: renders the accepted command stream as
//! Chrome-trace spans, one lane per bank (and one per rank for MRS).
//!
//! [`CommandLaneTracer`] is a [`CommandObserver`]: attach it to a device
//! (through `Controller::attach_observer`) and every accepted
//! ACT/PRE/RD/WR/MRS becomes a `Complete` span on the lane of the bank it
//! occupies, with a nominal duration from the [`TimingParams`] in
//! effect (tRCD for ACT, tRP for PRE, CAS latency + burst for column
//! commands, tRTR for MRS). Durations are *nominal occupancy* — the state
//! machines in [`crate::bank`] enforce the real constraints — but they
//! make bank-level parallelism and row-cycle gaps visible at a glance in
//! Perfetto.
//!
//! REF commands are deliberately skipped: the controller emits refresh
//! windows itself (it knows the per-rank schedule), and double-reporting
//! would clutter the rank lanes.

use crate::command::{CmdKind, Command};
use crate::observe::CommandObserver;
use crate::timing::TimingParams;
use crate::Cycle;
use sam_trace::event::track;
use sam_trace::{Category, SharedSink, TraceEvent};

/// A [`CommandObserver`] that draws accepted commands on per-bank lanes of
/// the attached trace sink.
pub struct CommandLaneTracer {
    sink: SharedSink,
    timing: TimingParams,
}

impl CommandLaneTracer {
    /// A tracer drawing into `sink` with nominal durations from `timing`.
    pub fn new(sink: SharedSink, timing: TimingParams) -> Self {
        Self { sink, timing }
    }
}

impl std::fmt::Debug for CommandLaneTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommandLaneTracer").finish_non_exhaustive()
    }
}

impl CommandObserver for CommandLaneTracer {
    fn on_command(&mut self, cmd: &Command, at: Cycle) {
        let t = &self.timing;
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
            CmdKind::Ref => return,
            CmdKind::Mrs(_) => (track::rank(cmd.rank), "MRS", t.rtr, 0),
        };
        self.sink
            .lock()
            .expect("trace sink lock poisoned")
            .record(TraceEvent::complete(
                lane,
                Category::Dram,
                name,
                at,
                dur,
                arg,
            ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moderegs::IoMode;
    use sam_trace::RingRecorder;
    use std::sync::{Arc, Mutex};

    fn recorded(cmds: &[(Command, Cycle)]) -> Vec<TraceEvent> {
        let ring = Arc::new(Mutex::new(RingRecorder::new(64)));
        let mut tracer = CommandLaneTracer::new(ring.clone(), TimingParams::ddr4_2400());
        for (cmd, at) in cmds {
            tracer.on_command(cmd, *at);
        }
        drop(tracer);
        Arc::try_unwrap(ring)
            .expect("sole owner")
            .into_inner()
            .unwrap()
            .into_events()
            .0
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
