//! Greedy delta-debugging over failing streams.
//!
//! Given a stream whose execution violates an invariant, [`shrink_stream`]
//! finds a 1-minimal sub-stream that still violates the *same* invariant
//! kind: classic ddmin — try dropping ever-smaller chunks, keep any drop
//! that preserves the failure, finish with a per-request pass so no
//! single request can be removed. Relative request order (and therefore
//! arrival monotonicity) is preserved; ids are renumbered before every
//! probe because the driver requires positional ids.
//!
//! Determinism note: the predicate re-runs the full driver, so shrinking
//! is slow in the worst case — O(n²) driver runs — but the failures this
//! crate hunts (watermark inversions) collapse within a few hundred
//! probes, and the output is the artifact that matters: a replayable
//! trace a human can read in one screen.

use crate::driver::run_stream;
use crate::invariant::InvariantKind;
use crate::stream::{renumber, StressConfig, StressStream, TimedRequest};

/// Whether executing `requests` under `cfg` violates `kind`.
pub fn violates(cfg: &StressConfig, requests: &[TimedRequest], kind: InvariantKind) -> bool {
    let mut probe = requests.to_vec();
    renumber(&mut probe);
    run_stream(cfg, &probe)
        .violations
        .iter()
        .any(|v| v.kind == kind)
}

/// Reduces `requests` to a 1-minimal stream still violating `kind`
/// under `cfg`, returned as a self-contained replayable stream.
///
/// # Panics
///
/// Panics if the input stream does not violate `kind` — shrinking a
/// passing stream is a caller bug, not an empty result.
pub fn shrink_stream(
    cfg: &StressConfig,
    requests: &[TimedRequest],
    kind: InvariantKind,
) -> StressStream {
    assert!(
        violates(cfg, requests, kind),
        "shrink_stream: input does not violate {kind}"
    );
    let mut current: Vec<TimedRequest> = requests.to_vec();
    // ddmin: drop chunks at shrinking granularity.
    let mut chunk = (current.len() / 2).max(1);
    while chunk >= 1 {
        let mut progressed = false;
        let mut start = 0;
        while start < current.len() && current.len() > 1 {
            let end = (start + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            if !candidate.is_empty() && violates(cfg, &candidate, kind) {
                current = candidate;
                progressed = true;
                // Same start now addresses the next chunk.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !progressed {
            break;
        }
        chunk = if chunk > 1 { chunk / 2 } else { 1 };
    }
    renumber(&mut current);
    debug_assert!(violates(cfg, &current, kind));
    StressStream {
        config: *cfg,
        requests: current,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{Pattern, PatternParams};
    use crate::stream::DeviceKind;

    /// The known-bad synthetic config: inverted hysteresis margins via
    /// the validation-bypassing hook.
    fn inverted() -> StressConfig {
        StressConfig::unchecked(DeviceKind::Ddr4, 4096, 8, 28)
    }

    /// The first violation kind a run of `requests` under `cfg` produces.
    fn first_violation(cfg: &StressConfig, requests: &[TimedRequest]) -> Option<InvariantKind> {
        let mut probe = requests.to_vec();
        renumber(&mut probe);
        run_stream(cfg, &probe).violations.first().map(|v| v.kind)
    }

    #[test]
    fn shrinks_write_burst_failure_to_a_screenful() {
        let cfg = inverted();
        for seed in [17, 7] {
            let stream = Pattern::WriteBurst.generate(&PatternParams::small(seed));
            assert_eq!(
                first_violation(&cfg, &stream),
                Some(InvariantKind::WatermarkSupremacy),
                "seed {seed}"
            );
            let minimal = shrink_stream(&cfg, &stream, InvariantKind::WatermarkSupremacy);
            assert!(
                minimal.requests.len() <= 32,
                "seed {seed}: minimal repro has {} requests",
                minimal.requests.len()
            );
            // 1-minimality: removing any single request loses the failure.
            for i in 0..minimal.requests.len() {
                let mut sub = minimal.requests.clone();
                sub.remove(i);
                assert!(
                    sub.is_empty() || !violates(&cfg, &sub, InvariantKind::WatermarkSupremacy),
                    "seed {seed}: request {i} was removable"
                );
            }
            // And the repro replays to the same violation via the text form.
            let text = crate::stream::format_stream(&minimal);
            let back = crate::stream::parse_stream(&text).unwrap();
            assert_eq!(back.config, cfg);
            assert_eq!(
                first_violation(&back.config, &back.requests),
                Some(InvariantKind::WatermarkSupremacy),
                "seed {seed}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not violate")]
    fn shrinking_a_passing_stream_panics() {
        let stream = Pattern::RowHitFlood.generate(&PatternParams::small(2));
        let _ = shrink_stream(
            &StressConfig::ddr4_default(),
            &stream,
            InvariantKind::WatermarkSupremacy,
        );
    }
}
