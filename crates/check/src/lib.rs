//! Independent verification layer for the SAM reproduction.
//!
//! The simulator's device model (`sam-dram`) *enforces* the DDR4/RRAM
//! protocol while the controller (`sam-memctrl`) *exploits* it; a bug that
//! relaxes both sides at once is invisible to either. This crate closes that
//! loop with deliberately naive re-implementations that share **no code**
//! with the models they check:
//!
//! * [`oracle`] — a JEDEC protocol oracle. It shadows every command the
//!   device accepts (via [`sam_dram::observe::CommandObserver`]) and
//!   replays the stream against first-principles bank-state and timing
//!   rules: tRCD, tRP, tRAS, tRC, tRTP, tWR, tWTR_S/L, tCCD_S/L, tRRD_S/L,
//!   the four-deep tFAW window, rank-turnaround tRTR, RRAM write-recovery
//!   tWTW, refresh tRFC/tREFI deadlines, I/O-mode consistency, and data-bus
//!   occupancy.
//! * [`invariants`] — structural invariants of the sectored cache hierarchy
//!   (`sam-cache`): a dirty sector is valid, no duplicate tags in a set,
//!   no valid line without a valid sector.
//! * [`ecc_audit`] — an auditor proving each chipkill codeword layout in
//!   `sam-ecc` maps every symbol bit to exactly one (beat, pin) slot of its
//!   own device, covering the burst exactly once.
//! * [`trace`] — an in-memory command recorder, so a device's stream can
//!   be re-issued or replayed through the oracle after the run.
//!
//! Violations name the constraint, the offending command and cycle, the
//! earliest legal cycle, and the prior command that opened the window.

#![warn(missing_docs)]

pub mod ecc_audit;
pub mod invariants;
pub mod oracle;
pub mod trace;

use sam_dram::command::Command;
use sam_dram::Cycle;

/// A protocol rule the oracle can find violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Constraint {
    /// Activate-to-column delay.
    TRcd,
    /// Precharge-to-activate delay.
    TRp,
    /// Activate-to-precharge minimum (row must stay open tRAS).
    TRas,
    /// Activate-to-activate minimum on one bank.
    TRc,
    /// Read-to-precharge delay.
    TRtp,
    /// Write-recovery before precharge.
    TWr,
    /// Write-to-read turnaround, different bank group.
    TWtrS,
    /// Write-to-read turnaround, same bank group.
    TWtrL,
    /// Column-to-column spacing, different bank group.
    TCcdS,
    /// Column-to-column spacing, same bank group.
    TCcdL,
    /// Activate-to-activate spacing, different bank group.
    TRrdS,
    /// Activate-to-activate spacing, same bank group.
    TRrdL,
    /// At most four activates per rank in any tFAW window.
    TFaw,
    /// Turnaround bubble: rank switch on the bus, or data too soon after a
    /// mode-register switch.
    TRtr,
    /// Write-to-write recovery (RRAM substrate).
    TWtw,
    /// Refresh lockout: no command to a rank within tRFC of its REF.
    TRfc,
    /// Refresh deadline: consecutive REFs at most 9 x tREFI apart.
    TRefi,
    /// Command illegal in the current bank state (ACT on open bank, column
    /// access to a closed bank).
    BankState,
    /// Data command's stride flag disagrees with the rank's I/O mode.
    IoMode,
    /// Data bursts overlap on a channel sub-lane.
    BusOverlap,
    /// Address outside the device geometry.
    Geometry,
}

impl Constraint {
    /// The JEDEC-style name of the constraint.
    pub fn name(self) -> &'static str {
        match self {
            Constraint::TRcd => "tRCD",
            Constraint::TRp => "tRP",
            Constraint::TRas => "tRAS",
            Constraint::TRc => "tRC",
            Constraint::TRtp => "tRTP",
            Constraint::TWr => "tWR",
            Constraint::TWtrS => "tWTR_S",
            Constraint::TWtrL => "tWTR_L",
            Constraint::TCcdS => "tCCD_S",
            Constraint::TCcdL => "tCCD_L",
            Constraint::TRrdS => "tRRD_S",
            Constraint::TRrdL => "tRRD_L",
            Constraint::TFaw => "tFAW",
            Constraint::TRtr => "tRTR",
            Constraint::TWtw => "tWTW",
            Constraint::TRfc => "tRFC",
            Constraint::TRefi => "tREFI",
            Constraint::BankState => "bank-state",
            Constraint::IoMode => "io-mode",
            Constraint::BusOverlap => "bus-overlap",
            Constraint::Geometry => "geometry",
        }
    }
}

impl std::fmt::Display for Constraint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One protocol violation found by the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule that was broken.
    pub constraint: Constraint,
    /// The offending command.
    pub cmd: Command,
    /// Cycle the offending command issued at.
    pub at: Cycle,
    /// The prior command (and its cycle) that opened the timing window, when
    /// one exists.
    pub prior: Option<(Command, Cycle)>,
    /// Earliest cycle at which the command would have been legal (equals
    /// `at` for pure state violations with no timing component).
    pub earliest: Cycle,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: [{}] @ {} needs >= {}",
            self.constraint, self.cmd, self.at, self.earliest
        )?;
        if let Some((prior, prior_at)) = &self.prior {
            write!(f, " (after [{prior}] @ {prior_at})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_names_match_jedec_spelling() {
        assert_eq!(Constraint::TFaw.name(), "tFAW");
        assert_eq!(Constraint::TCcdS.name(), "tCCD_S");
        assert_eq!(Constraint::TWtrL.name(), "tWTR_L");
        assert_eq!(Constraint::BankState.name(), "bank-state");
    }

    #[test]
    fn violation_display_names_both_commands() {
        let v = Violation {
            constraint: Constraint::TFaw,
            cmd: Command::act(0, 1, 2, 99),
            at: 25,
            prior: Some((Command::act(0, 0, 0, 7), 0)),
            earliest: 26,
        };
        let s = v.to_string();
        assert!(s.starts_with("tFAW: [ACT"), "{s}");
        assert!(s.contains("@ 25 needs >= 26"), "{s}");
        assert!(s.contains("after [ACT"), "{s}");
    }
}
