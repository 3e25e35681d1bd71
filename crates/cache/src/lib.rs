//! Cache hierarchy with sector-cache support for the SAM reproduction.
//!
//! Section 5.1.1: strided data returned by SAM is a 16B piece of each of
//! several cachelines, so the paper adopts a *sector cache* — each 64B line
//! is split into four 16B sectors with their own valid and dirty bits (6 bits
//! of overhead per line). A stride fill populates one sector in each of the
//! gathered lines; a regular fill populates all four.
//!
//! * [`set_assoc`] — the LRU set-associative core used at every level.
//! * [`sector`] — per-line sector valid/dirty state.
//! * [`hierarchy`] — the three-level hierarchy of Table 2 (L1 32KB,
//!   L2 256KB, LLC 8MB, all 8-way, 64B lines), with sector fills at every
//!   level and writeback propagation.
//!
//! # Example
//!
//! ```
//! use sam_cache::hierarchy::{Hierarchy, HierarchyConfig, AccessKind};
//!
//! let mut h = Hierarchy::new(HierarchyConfig::table2());
//! // Cold miss goes to memory...
//! let r = h.access(0x1000, AccessKind::Read);
//! assert!(r.memory_fill_needed());
//! h.fill_line(0x1000);
//! // ...then the line hits.
//! let r2 = h.access(0x1000, AccessKind::Read);
//! assert!(!r2.memory_fill_needed());
//! ```

#![warn(missing_docs)]

pub mod hierarchy;
pub mod sector;
pub mod set_assoc;

/// Bytes per cacheline throughout the system (Table 2).
pub const LINE_BYTES: u64 = 64;
/// Bytes per sector (one chipkill codeword of data — Section 5.1.1).
pub const SECTOR_BYTES: u64 = 16;
/// Sectors per line.
pub const SECTORS_PER_LINE: usize = (LINE_BYTES / SECTOR_BYTES) as usize;
