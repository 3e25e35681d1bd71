//! Shared utilities for the SAM reproduction workspace.
//!
//! Three small, dependency-free building blocks used across every other
//! crate in the workspace:
//!
//! * [`rng`] — deterministic pseudo-random number generators
//!   ([`rng::SplitMix64`], [`rng::Xoshiro256StarStar`]). Every experiment in
//!   the harness seeds these explicitly so that runs are reproducible
//!   bit-for-bit.
//! * [`stats`] — the summary statistics the paper reports (arithmetic mean,
//!   geometric mean of speedups, min/max).
//! * [`table`] — plain-text table rendering used by the `fig*`/`table*`
//!   harness binaries to print paper-style rows.
//! * [`hist`] — power-of-two histograms for latency reporting.
//! * [`json`] — a deterministic JSON writer plus a strict parser, used for
//!   the machine-readable `results/<bin>.json` metric files.
//!
//! # Example
//!
//! ```
//! use sam_util::rng::SplitMix64;
//! use sam_util::stats::geometric_mean;
//!
//! let mut rng = SplitMix64::new(42);
//! let speedups = [2.0, 8.0];
//! assert_eq!(geometric_mean(&speedups), 4.0);
//! let _sample = rng.next_u64();
//! ```

#![warn(missing_docs)]

pub mod fxhash;
pub mod hist;
pub mod json;
pub mod rng;
pub mod stats;
pub mod table;
