//! Arrival-ordered stream execution with invariant checking.
//!
//! The driver is a minimal front-end around the real
//! [`sam_memctrl::controller::Controller`]: it admits requests strictly
//! in stream order once their arrival cycle is due and the target queue
//! has space, interleaving scheduling decisions exactly like the system
//! engine does (`now` advances to each completion's finish). Alongside
//! the controller it keeps a *mirror* of queue membership built purely
//! from its own enqueue/completion events; every scheduling decision is
//! then judged against the mirror:
//!
//! * the watermark-supremacy check compares the mirrored write-queue
//!   depth at decision time with what got served,
//! * the read-residency check compares each read's completion against
//!   [`read_residency_bound`],
//! * the mirror's oldest-pending age is cross-checked against the
//!   controller's own forward-progress probe
//!   ([`sam_memctrl::controller::Controller::oldest_pending_age`]) —
//!   a divergence means the mirror and the controller disagree about
//!   what is queued, which would invalidate the other checks.
//!
//! Residency is measured from *admission* (when the driver hands the
//! request to the controller), not nominal arrival: a stream may dump
//! thousands of requests on one cycle, and time spent blocked behind a
//! full queue is front-end back-pressure, not scheduler unfairness.

use std::collections::BTreeMap;

use sam_dram::Cycle;
use sam_memctrl::controller::{Controller, ControllerConfig, ControllerStats};
use sam_trace::SharedRecorder;

use crate::invariant::{InvariantKind, Violation};
use crate::stream::{StressConfig, TimedRequest};

/// Everything measured about one stream execution.
#[derive(Debug, Clone, PartialEq)]
pub struct StressOutcome {
    /// Requests admitted and completed.
    pub completions: u64,
    /// Completed reads (regular + stride + narrow).
    pub reads: u64,
    /// Completed writes.
    pub writes: u64,
    /// Row-buffer hits among completions.
    pub row_hits: u64,
    /// Scheduling decisions forced by the starvation cap.
    pub starved: u64,
    /// Refreshes issued.
    pub refreshes: u64,
    /// Largest observed read residency (finish - admission).
    pub max_read_residency: Cycle,
    /// The residency bound the run was checked against.
    pub residency_bound: Cycle,
    /// Cycle the last completion finished.
    pub last_finish: Cycle,
    /// Invariant violations, in observation order.
    pub violations: Vec<Violation>,
    /// Canonical rendering of the controller's per-core provenance
    /// lanes; the scheduler differential compares it across paths.
    pub lanes_digest: String,
}

impl StressOutcome {
    /// Canonical one-line stats rendering; the differential runner's
    /// "semantically equal configs" check compares these byte-for-byte.
    pub fn stats_digest(&self) -> String {
        format!(
            "completions={} reads={} writes={} row_hits={} starved={} refreshes={} \
             max_read_residency={} last_finish={} violations={}",
            self.completions,
            self.reads,
            self.writes,
            self.row_hits,
            self.starved,
            self.refreshes,
            self.max_read_residency,
            self.last_finish,
            self.violations.len()
        )
    }
}

/// Upper bound on one read's queue residency under `cfg`, given that the
/// stream contains `stream_writes` writes in total.
///
/// Derivation: once a read's age crosses the starvation cap it wins
/// every read-serving decision against at most a read-queue's worth of
/// older reads; what can delay read service is write drain, and a drain
/// only persists while admitted writes keep the queue above the low
/// watermark — bounded by the stream's total write count, not the queue
/// depth. Each serviced request costs at most one precharge + activate +
/// column access + recovery (`svc` below, summed generously so RRAM's
/// slow writes and tFAW stalls are covered), and refresh steals at most
/// `rfc` per rank per `refi` window. The bound is deliberately loose —
/// it must never fire on a correct scheduler — but finite, so schedulers
/// that lose forward progress or let row hits starve a capped read
/// still trip it.
pub fn read_residency_bound(cfg: &ControllerConfig, stream_writes: u64) -> Cycle {
    let t = &cfg.device.timing;
    let svc =
        t.rp + t.rcd + t.cl + t.cwl + t.burst + t.wr + t.rtr + t.wtw + t.ccd_l + t.rrd_l + t.faw;
    let backlog = (cfg.read_queue_capacity + 4) as u64 + stream_writes;
    let busy = cfg
        .starvation_cap
        .saturating_add(backlog.saturating_mul(svc));
    let refresh = if cfg.refresh_enabled() {
        (busy / t.refi + 2) * cfg.device.ranks as u64 * t.rfc
    } else {
        0
    };
    busy.saturating_add(refresh)
}

/// Executes `requests` (arrival order, positional ids) under `cfg`,
/// checking every invariant. Plain, uninstrumented entry point.
pub fn run_stream(cfg: &StressConfig, requests: &[TimedRequest]) -> StressOutcome {
    run_stream_instrumented(cfg, requests, None)
}

/// [`run_stream`] with an optional `sam-trace` recorder attached to the
/// controller (the `stress --trace` path). The recorder is purely
/// observational: attaching it must not change the outcome.
pub fn run_stream_instrumented(
    cfg: &StressConfig,
    requests: &[TimedRequest],
    trace: Option<SharedRecorder>,
) -> StressOutcome {
    let mut ctrl = Controller::new(cfg.controller_config());
    if let Some(recorder) = trace {
        ctrl.attach_trace(recorder);
    }
    let stream_writes = requests.iter().filter(|t| t.req.is_write).count() as u64;
    let bound = read_residency_bound(ctrl.config(), stream_writes);
    let hi = cfg.drain_hi;

    // id -> (is_write, admission cycle); the driver-side queue mirror.
    let mut mirror: BTreeMap<u64, (bool, Cycle)> = BTreeMap::new();
    let mut mirror_reads = 0usize;
    let mut mirror_writes = 0usize;

    let mut out = StressOutcome {
        completions: 0,
        reads: 0,
        writes: 0,
        row_hits: 0,
        starved: 0,
        refreshes: 0,
        max_read_residency: 0,
        residency_bound: bound,
        last_finish: 0,
        violations: Vec::new(),
        lanes_digest: String::new(),
    };

    let mut next = 0usize;
    let mut now: Cycle = 0;
    loop {
        // Admit due requests in stream order while the queues have room.
        while next < requests.len() && requests[next].arrival <= now {
            let t = &requests[next];
            if !ctrl.can_accept(t.req.is_write) {
                break;
            }
            let admitted = now.max(t.arrival);
            ctrl.enqueue(t.req, admitted).expect("can_accept checked");
            mirror.insert(t.req.id, (t.req.is_write, admitted));
            if t.req.is_write {
                mirror_writes += 1;
            } else {
                mirror_reads += 1;
            }
            next += 1;
        }
        if ctrl.queued() == 0 {
            match requests.get(next) {
                Some(t) => {
                    // Event-driven idle jump (DESIGN.md §13): walk the
                    // controller's refresh deadlines across the gap —
                    // refreshes issue at their original due cycles —
                    // then land directly on the next arrival. Purely a
                    // matter of *when* background work is performed:
                    // the lazy catch-up inside scheduling issues the
                    // identical commands at the identical cycles.
                    let target = now.max(t.arrival);
                    ctrl.advance_to(target);
                    now = target;
                    continue;
                }
                None => break,
            }
        }

        // Cross-check the forward-progress probe against the mirror
        // before the decision mutates both.
        let probe = ctrl.oldest_pending_age(now);
        let mirror_oldest = mirror
            .values()
            .map(|&(_, adm)| now.saturating_sub(adm))
            .max();
        if probe != mirror_oldest {
            out.violations.push(Violation {
                kind: InvariantKind::ForwardProgress,
                request_id: u64::MAX,
                at: now,
                detail: format!(
                    "controller probe {probe:?} disagrees with driver mirror {mirror_oldest:?}"
                ),
            });
            break;
        }

        let writes_before = mirror_writes;
        let reads_before = mirror_reads;
        let Some(c) = ctrl.schedule_one(now) else {
            out.violations.push(Violation {
                kind: InvariantKind::ForwardProgress,
                request_id: u64::MAX,
                at: now,
                detail: format!(
                    "scheduler idled with {reads_before} reads and {writes_before} writes queued"
                ),
            });
            break;
        };
        let (is_write, admitted) = mirror
            .remove(&c.id)
            .expect("completion for a request the driver admitted");
        if is_write {
            mirror_writes -= 1;
            out.writes += 1;
        } else {
            mirror_reads -= 1;
            out.reads += 1;
        }
        out.completions += 1;
        out.row_hits += u64::from(c.row_hit);
        out.last_finish = out.last_finish.max(c.finish);

        if !is_write && reads_before > 0 && writes_before >= hi {
            out.violations.push(Violation {
                kind: InvariantKind::WatermarkSupremacy,
                request_id: c.id,
                at: c.issue,
                detail: format!(
                    "read served with write queue at {writes_before}/{hi} (hi) and \
                     {reads_before} reads queued"
                ),
            });
        }
        if !is_write {
            let residency = c.finish.saturating_sub(admitted);
            out.max_read_residency = out.max_read_residency.max(residency);
            if residency > bound {
                out.violations.push(Violation {
                    kind: InvariantKind::ReadResidencyBound,
                    request_id: c.id,
                    at: c.finish,
                    detail: format!("read residency {residency} exceeds bound {bound}"),
                });
            }
        }
        now = now.max(c.finish);
    }

    if !mirror.is_empty() {
        let mut stuck: Vec<u64> = mirror.keys().copied().collect();
        stuck.sort_unstable();
        out.violations.push(Violation {
            kind: InvariantKind::ForwardProgress,
            request_id: stuck[0],
            at: now,
            detail: format!("{} admitted requests never completed", stuck.len()),
        });
    }

    out.starved = ctrl.stats().starvation_forced;
    out.refreshes = ctrl.stats().refreshes;

    // Lane conservation: the provenance lanes must telescope to the
    // aggregate counters exactly, on every stream, tagged or not, but for
    // refreshes, which no lane owns.
    let stats = *ctrl.stats();
    let lanes = ctrl.per_core().total();
    if (ControllerStats {
        refreshes: stats.refreshes,
        ..lanes
    }) != stats
    {
        out.violations.push(Violation {
            kind: InvariantKind::LaneConservation,
            request_id: u64::MAX,
            at: now,
            detail: format!("lanes {lanes:?} vs aggregate {stats:?}"),
        });
    }
    out.lanes_digest = lanes_digest(ctrl.per_core());

    ctrl.finish_epochs(now);
    out
}

/// Deterministic one-line rendering of the per-core lane totals, so two
/// runs' lanes can be compared byte-for-byte like [`StressOutcome::stats_digest`].
fn lanes_digest(lanes: &sam_memctrl::controller::CoreLanes) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for core in 0..lanes.cores() {
        let t = lanes.core_total(core as u8);
        let _ = write!(
            s,
            "core{core}[hits={} misses={} conflicts={} reads={} writes={} latency={} starved={}] ",
            t.row_hits,
            t.row_misses,
            t.row_conflicts,
            t.reads_done,
            t.writes_done,
            t.total_latency,
            t.starvation_forced
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{renumber, DeviceKind};
    use sam_memctrl::request::MemRequest;

    fn reads(n: usize, spacing: Cycle) -> Vec<TimedRequest> {
        let mut v: Vec<TimedRequest> = (0..n)
            .map(|i| TimedRequest {
                req: MemRequest::read(0, (i as u64 % 128) * 64),
                arrival: i as Cycle * spacing,
            })
            .collect();
        renumber(&mut v);
        v
    }

    #[test]
    fn clean_stream_has_no_violations() {
        let out = run_stream(&StressConfig::ddr4_default(), &reads(256, 4));
        assert_eq!(out.completions, 256);
        assert_eq!(out.reads, 256);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.max_read_residency <= out.residency_bound);
    }

    #[test]
    fn inverted_margins_violate_watermark_supremacy() {
        // lo=28 >= hi=8: the drain latch sets at 8 queued writes and
        // immediately resets (len <= lo), so reads keep being served
        // over a brim-full write queue.
        let cfg = StressConfig::unchecked(DeviceKind::Ddr4, 4096, 8, 28);
        let mut v: Vec<TimedRequest> = (0..12)
            .map(|i| TimedRequest {
                req: MemRequest::write(0, i * 0x2000),
                arrival: 0,
            })
            .collect();
        for i in 0..4u64 {
            v.push(TimedRequest {
                req: MemRequest::read(0, 0x40 * i),
                arrival: 1,
            });
        }
        renumber(&mut v);
        let out = run_stream(&cfg, &v);
        assert!(
            out.violations
                .iter()
                .any(|x| x.kind == InvariantKind::WatermarkSupremacy),
            "expected a WatermarkSupremacy violation: {:?}",
            out.violations
        );
        // The same stream under valid margins is clean.
        let ok = run_stream(&StressConfig::ddr4_default(), &v);
        assert!(ok.violations.is_empty(), "{:?}", ok.violations);
    }

    #[test]
    fn equal_configs_digest_identically() {
        let v = reads(128, 2);
        let a = run_stream(&StressConfig::ddr4_default(), &v);
        let explicit = StressConfig::new(DeviceKind::Ddr4, 4096, 28, 8).unwrap();
        let b = run_stream(&explicit, &v);
        assert_eq!(a.stats_digest(), b.stats_digest());
        assert_eq!(a, b);
    }

    #[test]
    fn instrumented_run_matches_plain() {
        let v = reads(64, 3);
        let cfg = StressConfig::ddr4_default();
        let plain = run_stream(&cfg, &v);
        let recorder = sam_trace::RunRecorder::shared(1 << 12, 1_000);
        let traced = run_stream_instrumented(&cfg, &v, Some(recorder.clone()));
        assert_eq!(plain, traced);
        assert!(!recorder.lock().unwrap().ring.is_empty());
    }

    #[test]
    fn rram_default_margins_are_clean_too() {
        let cfg = StressConfig::new(DeviceKind::Rram, 4096, 28, 8).unwrap();
        let out = run_stream(&cfg, &reads(64, 8));
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.refreshes, 0, "RRAM does not refresh");
    }
}
