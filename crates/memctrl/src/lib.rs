//! Memory controller for the SAM reproduction.
//!
//! Implements the controller of Table 2: open-page row policy, FR-FCFS
//! scheduling, a 32-entry write queue with drain watermarks, per-rank
//! refresh, and the `rw:rk:bk:ch:cl:offset` address mapping — plus the SAM
//! extensions: stride-mode requests that require an I/O mode switch (issued
//! as MRS commands costing tRTR, Section 5.3) and the Figure 10
//! virtual-to-physical bit remapping for stride-mode pages.
//!
//! # Example
//!
//! ```
//! use sam_memctrl::controller::{Controller, ControllerConfig};
//! use sam_memctrl::request::MemRequest;
//!
//! let mut ctrl = Controller::new(ControllerConfig::default());
//! ctrl.enqueue(MemRequest::read(1, 0x4040), 0).unwrap();
//! let done = ctrl.drain(0);
//! assert_eq!(done.len(), 1);
//! assert!(done[0].finish > 0);
//! ```

#![warn(missing_docs)]

pub mod controller;
pub mod hybrid;
pub mod level;
pub mod mapping;
pub mod request;
pub mod sched;

pub use sam_dram::Cycle;
