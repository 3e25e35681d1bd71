//! SAM: the paper's memory designs, the baselines it compares against, and a
//! full-system simulator that runs IMDB-style access traces through a cache
//! hierarchy, memory controller, and cycle-level device model.
//!
//! The crate is organized around three ideas:
//!
//! 1. A **design** ([`design::Design`]) is a hardware configuration: which
//!    substrate (DRAM/RRAM), how much area overhead (which scales array
//!    latencies per Section 6.1), whether and how it supports stride-mode
//!    accesses, its record-alignment policy, and its ECC scheme. The eight
//!    designs of Figure 12 are constructed in [`designs`].
//! 2. A **trace** ([`ops`]) is a design-independent description of what a
//!    query touches: which fields of which records, reads or writes, plus
//!    compute. The IMDB engine (`sam-imdb`) compiles queries into traces.
//! 3. The **system** ([`system::System`]) lowers a trace under a design and
//!    a table store layout ([`layout`]), drives it through the sector-cache
//!    hierarchy and FR-FCFS controller, and reports cycles, command counts,
//!    and cache statistics — everything Figures 12–15 need.
//!
//! # Example
//!
//! ```
//! use sam::designs::{commodity, sam_en};
//! use sam::layout::{TableSpec, Store};
//! use sam::ops::TraceOp;
//! use sam::system::{System, SystemConfig};
//!
//! let table = TableSpec::new(0x1000_0000, 16, 1000); // 16 fields, 1000 records
//! // Scan field 3 of every record.
//! let trace: Vec<TraceOp> = (0..1000)
//!     .map(|r| TraceOp::read_fields(r, vec![3]))
//!     .collect();
//!
//! let base = System::new(SystemConfig::default(), commodity(), Store::Row)
//!     .run(&[table], &[trace.clone()]);
//! let sam = System::new(SystemConfig::default(), sam_en(), Store::Row)
//!     .run(&[table], &[trace]);
//! assert!(sam.cycles < base.cycles, "strided scans are faster under SAM");
//! ```

#![warn(missing_docs)]

pub mod design;
pub mod designs;
pub mod isa;
pub mod layout;
pub mod ops;
pub mod os;
pub mod properties;
pub mod system;

pub use sam_dram::Cycle;
