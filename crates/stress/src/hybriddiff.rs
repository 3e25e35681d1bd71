//! Hybrid-topology differential: the DRAM-cache controller vs its pure
//! functional mirror, on adversarial streams.
//!
//! The flat differential ([`crate::diff`]) compares one stream across
//! scheduler knob settings; this one compares one stream across *model
//! layers* of the [`sam_memctrl::hybrid::DramCacheController`]:
//!
//! * **mirror identity** — the cycle-level controller's per-request
//!   decision stream (hit/miss/dirty-evict/writethrough) must match the
//!   timing-free [`MirrorModel`] exactly, request for request. The
//!   controller updates its tags eagerly at admission precisely so this
//!   holds; a divergence means the chain builder and the policy
//!   disagree.
//! * **forward progress** — every admitted external request surfaces an
//!   external completion by end of stream (the transaction chains never
//!   strand a terminal).
//! * **policy exclusivity** — a writeback run never writes through, a
//!   writethrough run never evicts dirty victims, and both agree with
//!   the mirror's counter totals.
//!
//! Findings are reported as strings like the cross-run checks in
//! [`crate::diff`]: they have no single offending DRAM command (the
//! protocol oracle owns that layer), and the flat shrinker does not
//! apply to composite-level runs.

use std::collections::BTreeSet;

use sam_memctrl::controller::ControllerConfig;
use sam_memctrl::hybrid::{DramCacheController, HybridConfig, MirrorModel, WritePolicy};
use sam_memctrl::level::MemLevel;

use crate::stream::{DeviceKind, TimedRequest};

/// Outcome of driving one stream through the hybrid controller.
#[derive(Debug, Clone)]
pub struct HybridDiffOutcome {
    /// Policy the run used.
    pub policy: WritePolicy,
    /// External requests admitted and completed.
    pub completions: u64,
    /// The controller's end-of-run summary counters.
    pub hits: u64,
    /// Misses (mirror-checked).
    pub misses: u64,
    /// Cross-layer findings (empty = all held).
    pub findings: Vec<String>,
}

/// Builds the hybrid under test: a small direct-mapped DDR4 cache (few
/// sets, so adversarial streams alias and evict quickly) over the given
/// backing device, with decision logging on for the mirror comparison.
fn hybrid_under_test(
    policy: WritePolicy,
    block_bytes: u64,
    back: DeviceKind,
) -> DramCacheController {
    let mut cfg = HybridConfig::new(block_bytes, policy);
    cfg.capacity_bytes = block_bytes * 16;
    cfg.log_decisions = true;
    DramCacheController::new(ControllerConfig::with_device(back.config()), cfg)
}

/// Drives `requests` (arrival order) through the hybrid controller under
/// `policy`, then replays the same stream through the [`MirrorModel`]
/// and cross-checks every decision and counter.
pub fn run_hybrid_case(
    requests: &[TimedRequest],
    policy: WritePolicy,
    block_bytes: u64,
    back: DeviceKind,
) -> HybridDiffOutcome {
    let mut ctrl = hybrid_under_test(policy, block_bytes, back);
    let mut findings = Vec::new();
    let mut pending: BTreeSet<u64> = BTreeSet::new();
    let mut admitted: Vec<(u64, bool)> = Vec::new();
    let mut completions = 0u64;
    let mut next = 0usize;
    let mut now = 0;
    loop {
        // Admit due requests in stream order while the window has room.
        while next < requests.len()
            && requests[next].arrival <= now
            && ctrl.can_accept(requests[next].req.is_write)
        {
            let t = &requests[next];
            ctrl.enqueue(t.req, now.max(t.arrival))
                .expect("can_accept checked");
            pending.insert(t.req.id);
            admitted.push((t.req.addr, t.req.is_write));
            next += 1;
        }
        match ctrl.schedule_one(now.max(ctrl.clock())) {
            Some(c) => {
                if !pending.remove(&c.id) {
                    findings.push(format!(
                        "external completion {} was never admitted (or completed twice)",
                        c.id
                    ));
                }
                completions += 1;
                now = now.max(c.finish);
            }
            None => {
                // The hybrid is fully idle: every admitted transaction
                // has closed (see the mirror contract), so pending
                // externals here mean a stranded terminal.
                if !pending.is_empty() {
                    findings.push(format!(
                        "hybrid idled with {} admitted externals incomplete",
                        pending.len()
                    ));
                    break;
                }
                match requests.get(next) {
                    Some(t) => {
                        // Idle gap: jump to the next arrival.
                        let target = now.max(t.arrival);
                        ctrl.advance_to(target);
                        now = target;
                    }
                    None => break,
                }
            }
        }
    }

    // Mirror identity: replay the admitted stream through the pure model.
    let mut mirror = MirrorModel::new(ctrl.hybrid_config());
    let decisions = ctrl.decisions();
    if decisions.len() != admitted.len() {
        findings.push(format!(
            "controller logged {} decisions for {} admitted requests",
            decisions.len(),
            admitted.len()
        ));
    }
    for (i, (&(addr, is_write), got)) in admitted.iter().zip(decisions).enumerate() {
        let want = mirror.access(addr, is_write);
        if want != *got {
            findings.push(format!(
                "decision {i} diverged from the mirror: controller {got:?} vs mirror {want:?}"
            ));
        }
    }
    let summary = ctrl.summary();
    for (field, ctrl_n, mirror_n) in [
        ("hits", summary.hits, mirror.hits),
        ("misses", summary.misses, mirror.misses),
        ("fills", summary.fills, mirror.fills),
        (
            "dirty_evictions",
            summary.dirty_evictions,
            mirror.dirty_evictions,
        ),
        ("writethroughs", summary.writethroughs, mirror.writethroughs),
    ] {
        if ctrl_n != mirror_n {
            findings.push(format!(
                "{field}: controller counted {ctrl_n}, mirror counted {mirror_n}"
            ));
        }
    }
    // Policy exclusivity.
    match policy {
        WritePolicy::Writeback if summary.writethroughs != 0 => findings.push(format!(
            "writeback run wrote through {} times",
            summary.writethroughs
        )),
        WritePolicy::Writethrough if summary.dirty_evictions != 0 => findings.push(format!(
            "writethrough run evicted {} dirty victims",
            summary.dirty_evictions
        )),
        _ => {}
    }
    if completions != admitted.len() as u64 {
        findings.push(format!(
            "{} externals admitted but {completions} completed",
            admitted.len()
        ));
    }

    HybridDiffOutcome {
        policy,
        completions,
        hits: summary.hits,
        misses: summary.misses,
        findings,
    }
}

/// The full differential: one stream under both write policies, plus the
/// cross-policy check that a read-only prefix decides identically (write
/// allocation is the only policy-visible state divergence).
pub fn run_hybrid_differential(
    requests: &[TimedRequest],
    block_bytes: u64,
    back: DeviceKind,
) -> Vec<HybridDiffOutcome> {
    let mut outcomes: Vec<HybridDiffOutcome> = [WritePolicy::Writeback, WritePolicy::Writethrough]
        .into_iter()
        .map(|policy| run_hybrid_case(requests, policy, block_bytes, back))
        .collect();
    // Until the first write the two policies' caches hold identical
    // state, so their decision streams must agree on that prefix.
    let reads_prefix = requests.iter().take_while(|t| !t.req.is_write).count();
    let (wb, wt) = (&outcomes[0], &outcomes[1]);
    if reads_prefix > 0 && (wb.hits + wb.misses > 0) && (wt.hits + wt.misses > 0) {
        let wb_first =
            run_prefix_decisions(requests, reads_prefix, block_bytes, WritePolicy::Writeback);
        let wt_first = run_prefix_decisions(
            requests,
            reads_prefix,
            block_bytes,
            WritePolicy::Writethrough,
        );
        if wb_first != wt_first {
            outcomes[1].findings.push(format!(
                "read-only prefix ({reads_prefix} requests) decided differently across policies"
            ));
        }
    }
    outcomes
}

/// Mirror decisions for the first `n` requests under `policy` (pure —
/// the mirror is the arbiter; both cycle-level runs were already checked
/// against it above).
fn run_prefix_decisions(
    requests: &[TimedRequest],
    n: usize,
    block_bytes: u64,
    policy: WritePolicy,
) -> Vec<sam_memctrl::hybrid::HybridDecision> {
    let cfg = {
        let mut c = HybridConfig::new(block_bytes, policy);
        c.capacity_bytes = block_bytes * 16;
        c
    };
    let mut mirror = MirrorModel::new(&cfg);
    requests
        .iter()
        .take(n)
        .map(|t| mirror.access(t.req.addr, t.req.is_write))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{Pattern, PatternParams};
    use crate::stream::renumber;
    use sam_memctrl::request::MemRequest;

    #[test]
    fn every_pattern_is_clean_under_both_policies() {
        // Short streams, plus the default-length ones at seed 7.
        let default_len = PatternParams {
            seed: 7,
            ..PatternParams::default()
        };
        for params in [PatternParams::small(17), default_len] {
            for pattern in Pattern::ALL {
                let stream = pattern.generate(&params);
                for out in run_hybrid_differential(&stream, 128, DeviceKind::Rram) {
                    assert!(
                        out.findings.is_empty(),
                        "{} ({}, seed {}, {} requests): {:?}",
                        pattern.name(),
                        out.policy.label(),
                        params.seed,
                        params.len,
                        out.findings
                    );
                    assert_eq!(out.completions, stream.len() as u64, "{}", pattern.name());
                }
            }
        }
    }

    #[test]
    fn aliasing_write_stream_exercises_dirty_evictions() {
        // Two blocks mapping to the same set under capacity 16 blocks of
        // 128B: addresses 0 and 16*128 alias.
        let mut v: Vec<TimedRequest> = Vec::new();
        for i in 0..24u64 {
            let addr = (i % 2) * 16 * 128;
            v.push(TimedRequest {
                req: MemRequest::write(0, addr),
                arrival: i * 4,
            });
        }
        renumber(&mut v);
        let outs = run_hybrid_differential(&v, 128, DeviceKind::Rram);
        assert!(outs[0].findings.is_empty(), "{:?}", outs[0].findings);
        assert!(outs[1].findings.is_empty(), "{:?}", outs[1].findings);
        // Writeback ping-pong: every re-miss evicts the dirty sibling.
        assert!(outs[0].misses > 2);
    }

    #[test]
    fn the_mirror_distinguishes_the_policies() {
        // A write-hit decides differently under the two policies (dirty
        // bit vs writethrough), so replaying one policy's stream through
        // the other policy's mirror must diverge — the drift signal
        // `run_hybrid_case`'s per-decision comparison keys on.
        let cfg_of = |policy| {
            let mut c = HybridConfig::new(128, policy);
            c.capacity_bytes = 128 * 16;
            c
        };
        let mut wb = MirrorModel::new(&cfg_of(WritePolicy::Writeback));
        let mut wt = MirrorModel::new(&cfg_of(WritePolicy::Writethrough));
        let stream = [(0u64, true), (8, true)]; // miss-allocate?, then write-hit
        let a: Vec<_> = stream.iter().map(|&(p, w)| wb.access(p, w)).collect();
        let b: Vec<_> = stream.iter().map(|&(p, w)| wt.access(p, w)).collect();
        assert_ne!(a, b);
        assert_eq!(wb.writethroughs, 0);
        assert!(wt.writethroughs > 0);
    }
}
