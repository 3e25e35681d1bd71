//! Adversarial stress engine for the SAM memory system.
//!
//! `sam-check` verifies that every DRAM command is *legal*; this crate
//! verifies that the scheduler's *behaviour* is sane under workloads
//! built to hurt it. Three pieces compose:
//!
//! 1. [`pattern`] — seeded, deterministic generators for named attack
//!    patterns (row-hit floods, bank ping-pong, watermark-oscillating
//!    write bursts, tFAW trains, sector-straddling stride sweeps).
//! 2. [`driver`] + [`diff`] — a mirrored front-end that executes a
//!    stream against the real controller while checking behavioural
//!    invariants ([`invariant`]), and a differential runner comparing
//!    the same stream across knob settings (cap monotonicity, semantic
//!    identity).
//! 3. [`shrink`] — a greedy delta-debugging pass that reduces any
//!    failing stream to a 1-minimal replayable repro in the [`stream`]
//!    text format, which `sam-check replay` re-runs.
//!
//! [`hybriddiff`] runs the differential idea across *model layers*
//! instead of knob settings: every pattern stream through the DRAM-cache
//! hybrid topology, cross-checked against its pure functional mirror (a
//! library check, run by this crate's tests).
//!
//! The `stress` binary in `sam-bench` fronts all of it; [`report`]
//! defines its `results/stress.json` schema and linter.

#![warn(missing_docs)]

pub mod diff;
pub mod driver;
pub mod hybriddiff;
pub mod invariant;
pub mod pattern;
pub mod report;
pub mod shrink;
pub mod stream;

pub use diff::{run_differential, DiffCase, DiffReport, DiffRun};
pub use driver::{read_residency_bound, run_stream, StressOutcome};
pub use hybriddiff::{run_hybrid_case, run_hybrid_differential, HybridDiffOutcome};
pub use invariant::{InvariantKind, Violation};
pub use pattern::{Pattern, PatternParams};
pub use report::{json_report, lint_stress_json, PatternReport, StressJsonSummary};
pub use shrink::{shrink_stream, violates};
pub use stream::{
    format_stream, is_stress_trace, parse_stream, renumber, DeviceKind, StressConfig, StressStream,
    TimedRequest, STRESS_TRACE_HEADER,
};

/// Replays a stress trace (text form), returning the config it declares
/// and the outcome of executing it — violations included. This is what
/// `sam-check replay` calls after checking the header, so a minimal
/// repro written by the shrinker reproduces its violation anywhere.
///
/// # Errors
///
/// Returns parse errors verbatim; executing a parsed stream cannot fail.
pub fn replay_text(text: &str) -> Result<(StressConfig, StressOutcome), String> {
    let stream = parse_stream(text)?;
    let outcome = run_stream(&stream.config, &stream.requests);
    Ok((stream.config, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrunk_repro_replays_to_the_same_violation_through_text() {
        let cfg = StressConfig::unchecked(DeviceKind::Ddr4, 4096, 8, 28);
        let stream = Pattern::WriteBurst.generate(&PatternParams::small(23));
        let minimal = shrink_stream(&cfg, &stream, InvariantKind::WatermarkSupremacy);
        let text = format_stream(&minimal);
        assert!(is_stress_trace(&text));
        let (parsed_cfg, outcome) = replay_text(&text).unwrap();
        assert_eq!(parsed_cfg, cfg);
        assert!(outcome
            .violations
            .iter()
            .any(|v| v.kind == InvariantKind::WatermarkSupremacy));
    }
}
