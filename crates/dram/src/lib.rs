//! Cycle-level DDR4 / RRAM device model with the SAM I/O extensions.
//!
//! This crate is the memory-device half of the simulation substrate the
//! paper runs on (the authors used NVMain; we build the equivalent from
//! scratch). It models:
//!
//! * [`timing`] — JEDEC-style timing parameter sets for DDR4-2400 and the
//!   RRAM substrate of RC-NVM (Table 2), plus the proportional latency
//!   scaling the paper applies for area overhead (Section 6.1).
//! * [`command`] — the DRAM command protocol (ACT/PRE/RD/WR/REF/MRS) with
//!   stride-mode reads and writes.
//! * [`bank`], [`rank`], [`channel`] — per-resource timing state machines
//!   enforcing tRCD/tRP/tRAS/tCCD_S/L/tRRD/tFAW/tRTR/bus occupancy.
//! * [`device`] — the assembled [`device::MemoryDevice`]: validates and
//!   issues commands, tracks command counts for the power model.
//! * [`iobuf`] — a functional model of the common-die I/O buffer (Section
//!   2.2/4.2): four 32-bit buffers with four lanes each, the fuse-selected
//!   x4/x8/x16 modes, the SAM-IO stride modes `Sx4_n`, the SAM-en
//!   two-dimensional buffer, and the Section 4.4 interleaved-MUX finer
//!   granularity.
//! * [`subarray`] — a functional model of SAM-sub's column-wise subarrays
//!   built from mats and helper flip-flops (Section 4.1).
//! * [`moderegs`] — the mode-register file and stride-mode switching
//!   (Section 5.3; a switch costs tRTR).
//!
//! # Example
//!
//! ```
//! use sam_dram::device::{MemoryDevice, DeviceConfig};
//! use sam_dram::command::Command;
//! use sam_dram::timing::TimingParams;
//!
//! let mut dev = MemoryDevice::new(DeviceConfig::ddr4_server());
//! let act = Command::act(0, 0, 0, 42);
//! let t = dev.earliest_issue(&act, 0);
//! dev.issue(&act, t).unwrap();
//! let rd = Command::read(0, 0, 0, 42, 7, false);
//! let t_rd = dev.earliest_issue(&rd, t);
//! assert!(t_rd >= t + TimingParams::ddr4_2400().rcd);
//! ```

#![warn(missing_docs)]

pub mod bank;
pub mod channel;
pub mod command;
pub mod device;
pub mod iobuf;
pub mod lanes;
pub mod moderegs;
pub mod observe;
pub mod rank;
pub mod subarray;
pub mod timing;

/// Memory-clock cycle count (DDR4-2400 runs the command clock at 1200 MHz).
pub type Cycle = u64;

/// Errors returned by the device model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceError {
    /// The command violates a timing constraint at the requested cycle.
    TimingViolation {
        /// Cycle at which the command was attempted.
        at: Cycle,
        /// Earliest cycle at which it would be legal.
        earliest: Cycle,
    },
    /// The command targets a bank in the wrong state (e.g. RD with no open
    /// row, ACT on an already-open bank).
    StateViolation,
    /// A command field is out of range for the configured geometry.
    OutOfRange,
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::TimingViolation { at, earliest } => {
                write!(
                    f,
                    "timing violation: issued at cycle {at}, legal at {earliest}"
                )
            }
            DeviceError::StateViolation => write!(f, "command illegal in current bank state"),
            DeviceError::OutOfRange => write!(f, "command field out of range for geometry"),
        }
    }
}

impl std::error::Error for DeviceError {}
