//! The IMDB workload engine of the evaluation (Section 6.1).
//!
//! Two benchmark tables — the wide `Ta` (128 x 8B fields, 1KB records) and
//! the narrow `Tb` (16 x 8B fields, 128B records) — and the Table 3 query
//! set: Q1–Q12 (column-store-preferring; from the RC-NVM benchmark), the
//! supplemental Qs1–Qs6 (row-store-preferring), and the parametric
//! arithmetic/aggregate queries whose selectivity, projectivity, and record
//! size the Figure 15 sweeps vary.
//!
//! Queries compile ([`plan`]) into design-independent multi-core traces
//! (`sam::ops`), which [`exec`] runs against any design/store combination.
//!
//! # Example
//!
//! ```
//! use sam_imdb::query::Query;
//! use sam_imdb::plan::PlanConfig;
//! use sam_imdb::exec::{run_query, Workload};
//! use sam::designs::{commodity, sam_en};
//! use sam::layout::Store;
//!
//! let cfg = PlanConfig::tiny();
//! let base = run_query(&Workload::new(Query::Q3, cfg), &commodity(), Store::Row);
//! let sam = run_query(&Workload::new(Query::Q3, cfg), &sam_en(), Store::Row);
//! assert!(sam.result.cycles < base.result.cycles);
//! ```

#![warn(missing_docs)]

pub mod data;
pub mod exec;
pub mod plan;
pub mod query;
pub mod sql;
pub mod table;
pub mod values;
