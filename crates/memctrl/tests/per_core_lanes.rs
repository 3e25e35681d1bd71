//! Property-based tests of the per-core provenance lanes: over arbitrary
//! tagged request streams, the (core, kind) lane stats must telescope —
//! their sum equals the controller's aggregate counters exactly (but for
//! refreshes, which no request owns and every lane leaves at 0), and the
//! per-core rows partition that total. Tagging a stream never moves a
//! completion.

use proptest::prelude::*;
use sam_memctrl::controller::{Controller, ControllerConfig, ControllerStats, CoreLanes};
use sam_memctrl::request::{Completion, MemRequest, Provenance, ReqKind, StrideSpec};
use sam_trace::RunRecorder;

/// Request `i` of a generated stream: stride or regular, read or write, at
/// the 64B-aligned `addr`.
fn request(i: usize, addr: u64, stride: bool, write: bool) -> MemRequest {
    let id = i as u64 + 1;
    let addr = addr & !63;
    match (stride, write) {
        (true, false) => MemRequest::stride_read(id, addr, StrideSpec::ssc_dsd()),
        (true, true) => MemRequest::stride_write(id, addr, StrideSpec::ssc_dsd()),
        (false, false) => MemRequest::read(id, addr),
        (false, true) => MemRequest::write(id, addr),
    }
}

/// Runs a randomly tagged request stream and returns the per-core lanes
/// alongside the controller's aggregate counters.
fn run_stream(
    addrs: &[u64],
    strides: &[bool],
    writes: &[bool],
    arrivals: &[u64],
    cores: &[u8],
    kinds: &[u8],
) -> (CoreLanes, ControllerStats) {
    run_stream_cfg(
        ControllerConfig::default(),
        addrs,
        strides,
        writes,
        arrivals,
        cores,
        kinds,
    )
}

/// [`run_stream`] under an explicit controller configuration (the
/// tight-cap starvation tests shrink the cap far below its default).
fn run_stream_cfg(
    cfg: ControllerConfig,
    addrs: &[u64],
    strides: &[bool],
    writes: &[bool],
    arrivals: &[u64],
    cores: &[u8],
    kinds: &[u8],
) -> (CoreLanes, ControllerStats) {
    let mut ctrl = Controller::new(cfg);
    for (i, &addr) in addrs.iter().enumerate() {
        let req = request(i, addr, strides[i], writes[i]);
        let kind = ReqKind::ALL[kinds[i] as usize % ReqKind::COUNT];
        let req = req.with_provenance(Provenance::new(cores[i], kind));
        let _ = ctrl.enqueue(req, arrivals[i]);
    }
    let _ = ctrl.drain(0);
    let stats = *ctrl.stats();
    (ctrl.per_core().clone(), stats)
}

/// Enqueues a stream, tagging request `i` with `tags[i]` when given, and
/// returns which requests were admitted and the completions of one
/// `drain`.
fn admit_and_drain(
    addrs: &[u64],
    strides: &[bool],
    writes: &[bool],
    arrivals: &[u64],
    tags: Option<&[Provenance]>,
) -> (Vec<bool>, Vec<Completion>) {
    let mut ctrl = Controller::new(ControllerConfig::default());
    let admitted = addrs
        .iter()
        .enumerate()
        .map(|(i, &addr)| {
            let mut req = request(i, addr, strides[i], writes[i]);
            if let Some(tags) = tags {
                req = req.with_provenance(tags[i]);
            }
            ctrl.enqueue(req, arrivals[i]).is_ok()
        })
        .collect();
    (admitted, ctrl.drain(0))
}

/// Whole-record equality of a lane sum against the aggregate counters,
/// but for `refreshes`, which every lane leaves at 0.
fn assert_telescopes(lanes: &CoreLanes, stats: &ControllerStats) {
    let total = ControllerStats {
        refreshes: stats.refreshes,
        ..lanes.total()
    };
    assert_eq!(total, *stats);
    for core in 0..lanes.cores() as u8 {
        for kind in ReqKind::ALL {
            assert_eq!(
                lanes.lane(core, kind).refreshes,
                0,
                "no lane owns a refresh"
            );
        }
    }
}

proptest! {
    /// The telescoping invariant: summing every (core, kind) lane
    /// reconstructs the aggregate counters field by field — no burst is
    /// double-charged or dropped, whatever mix of cores and kinds
    /// issued it.
    #[test]
    fn lane_sums_reconstruct_the_aggregates(
        addrs in proptest::collection::vec(0u64..(1 << 30), 1..50),
        strides in proptest::collection::vec(any::<bool>(), 50),
        writes in proptest::collection::vec(any::<bool>(), 50),
        arrivals in proptest::collection::vec(0u64..20_000, 50),
        cores in proptest::collection::vec(0u8..8, 50),
        kinds in proptest::collection::vec(any::<u8>(), 50),
    ) {
        let (lanes, stats) =
            run_stream(&addrs, &strides, &writes, &arrivals, &cores, &kinds);
        assert_telescopes(&lanes, &stats);
        // Every accepted request completed as exactly one read or write.
        let total = lanes.total();
        prop_assert_eq!(
            total.reads_done + total.writes_done,
            stats.reads_done + stats.writes_done
        );
    }

    /// Provenance is payload, never policy: the same stream run untagged
    /// and with arbitrary (core, kind) tags admits the same requests and
    /// drains to the same completions — same order, same issue and
    /// finish cycles, same row hits.
    #[test]
    fn provenance_never_moves_a_completion(
        addrs in proptest::collection::vec(0u64..(1 << 30), 1..60),
        strides in proptest::collection::vec(any::<bool>(), 60),
        writes in proptest::collection::vec(any::<bool>(), 60),
        arrivals in proptest::collection::vec(0u64..20_000, 60),
        cores in proptest::collection::vec(any::<u8>(), 60),
        kinds in proptest::collection::vec(any::<u8>(), 60),
    ) {
        let tags: Vec<Provenance> = cores
            .iter()
            .zip(&kinds)
            .map(|(&core, &kind)| Provenance::new(core, ReqKind::ALL[kind as usize % ReqKind::COUNT]))
            .collect();
        let plain = admit_and_drain(&addrs, &strides, &writes, &arrivals, None);
        let tagged = admit_and_drain(&addrs, &strides, &writes, &arrivals, Some(&tags));
        prop_assert_eq!(plain, tagged);
    }

    /// The per-core rows partition the total: summing `core_total` over
    /// every observed core matches `total()`, and rows beyond the highest
    /// tagged core never materialize.
    #[test]
    fn core_rows_partition_the_total(
        addrs in proptest::collection::vec(0u64..(1 << 28), 1..30),
        writes in proptest::collection::vec(any::<bool>(), 30),
        arrivals in proptest::collection::vec(0u64..5_000, 30),
        cores in proptest::collection::vec(0u8..6, 30),
        kinds in proptest::collection::vec(any::<u8>(), 30),
    ) {
        let strides = vec![false; addrs.len()];
        let (lanes, _) = run_stream(&addrs, &strides, &writes, &arrivals, &cores, &kinds);
        let max_core = cores[..addrs.len()].iter().copied().max().unwrap_or(0);
        prop_assert!(lanes.cores() <= max_core as usize + 1);
        let mut by_core = ControllerStats::default();
        for c in 0..lanes.cores() {
            by_core.accumulate(&lanes.core_total(c as u8));
        }
        prop_assert_eq!(by_core, lanes.total());
        // Kind lanes partition each core row the same way.
        for c in 0..lanes.cores() {
            let mut by_kind = ControllerStats::default();
            for kind in ReqKind::ALL {
                by_kind.accumulate(&lanes.lane(c as u8, kind));
            }
            prop_assert_eq!(by_kind, lanes.core_total(c as u8));
        }
    }

    /// Starvation decisions are lane-conserved too: under a tight cap and
    /// an adversarial row-hit stream (same-row hits with interleaved
    /// conflict-row victims), the forced decisions land in the lanes of
    /// the requests that aged out, and still telescope to the aggregate.
    #[test]
    fn starved_counters_telescope_under_tight_caps(
        cap in 1u64..=64,
        cols in proptest::collection::vec(0u64..128, 8..40),
        victims in proptest::collection::vec(any::<bool>(), 40),
        cores in proptest::collection::vec(0u8..4, 40),
        kinds in proptest::collection::vec(any::<u8>(), 40),
    ) {
        // Row 0 hits vs row 1 of the same physical bank (the +8KB term
        // compensates the XOR bank permutation).
        let addrs: Vec<u64> = cols
            .iter()
            .zip(&victims)
            .map(|(c, v)| c * 64 + if *v { 256 * 1024 + 8 * 1024 } else { 0 })
            .collect();
        let strides = vec![false; addrs.len()];
        let writes = vec![false; addrs.len()];
        let arrivals = vec![0u64; addrs.len()];
        let cfg = ControllerConfig {
            starvation_cap: cap,
            ..Default::default()
        };
        let (lanes, stats) =
            run_stream_cfg(cfg, &addrs, &strides, &writes, &arrivals, &cores, &kinds);
        assert_telescopes(&lanes, &stats);
        if victims.iter().take(cols.len()).any(|&v| v)
            && !victims.iter().take(cols.len()).all(|&v| v)
        {
            // Mixed rows at a tiny cap: aged conflicts must have forced
            // at least one scheduling decision — and the lanes saw it.
            prop_assert!(lanes.total().starvation_forced > 0 || cap > 1_000);
        }
    }

    /// The epoch-telescoping variant: with an epoch recorder attached to
    /// the same tagged stream, both accountings must be conserved at
    /// once — the per-epoch deltas sum to the aggregates (the epoch
    /// engine's invariant) AND the per-core lanes sum to the same
    /// aggregates, so the two views of one run agree on every shared
    /// counter.
    #[test]
    fn lanes_and_epoch_deltas_agree_on_the_totals(
        epoch_len in prop_oneof![1u64..=16, 100u64..=5000],
        addrs in proptest::collection::vec(0u64..(1 << 28), 1..40),
        writes in proptest::collection::vec(any::<bool>(), 40),
        arrivals in proptest::collection::vec(0u64..10_000, 40),
        cores in proptest::collection::vec(0u8..8, 40),
        kinds in proptest::collection::vec(any::<u8>(), 40),
    ) {
        let mut ctrl = Controller::new(ControllerConfig::default());
        let recorder = RunRecorder::shared(1, epoch_len);
        ctrl.attach_trace(recorder.clone());
        for (i, addr) in addrs.iter().enumerate() {
            let id = i as u64 + 1;
            let addr = addr & !63;
            let req = if writes[i] {
                MemRequest::write(id, addr)
            } else {
                MemRequest::read(id, addr)
            };
            let kind = ReqKind::ALL[kinds[i] as usize % ReqKind::COUNT];
            let _ = ctrl.enqueue(
                req.with_provenance(Provenance::new(cores[i], kind)),
                arrivals[i],
            );
        }
        let done = ctrl.drain(0);
        let end = done.iter().map(|d| d.finish).max().unwrap_or(0);
        ctrl.finish_epochs(end);
        let stats = *ctrl.stats();
        assert_telescopes(ctrl.per_core(), &stats);
        let epoch_sum = recorder.lock().unwrap().epochs.sum();
        let lane_total = ctrl.per_core().total();
        prop_assert_eq!(epoch_sum.reads, lane_total.reads_done);
        prop_assert_eq!(epoch_sum.writes, lane_total.writes_done);
        prop_assert_eq!(epoch_sum.row_hits, lane_total.row_hits);
        prop_assert_eq!(epoch_sum.row_misses, lane_total.row_misses);
        prop_assert_eq!(epoch_sum.row_conflicts, lane_total.row_conflicts);
        prop_assert_eq!(epoch_sum.starved, lane_total.starvation_forced);
        prop_assert_eq!(epoch_sum.latency, lane_total.total_latency);
    }

    /// Untagged streams stay cheap and attributable: every request
    /// defaults to (core 0, demand), so exactly one lane row exists and
    /// the demand lane alone carries the whole run.
    #[test]
    fn untagged_streams_collapse_to_core_zero_demand(
        addrs in proptest::collection::vec(0u64..(1 << 28), 1..30),
        writes in proptest::collection::vec(any::<bool>(), 30),
    ) {
        let mut ctrl = Controller::new(ControllerConfig::default());
        for (i, addr) in addrs.iter().enumerate() {
            let id = i as u64 + 1;
            let addr = addr & !63;
            let req = if writes[i] {
                MemRequest::write(id, addr)
            } else {
                MemRequest::read(id, addr)
            };
            let _ = ctrl.enqueue(req, 0);
        }
        let _ = ctrl.drain(0);
        let lanes = ctrl.per_core();
        prop_assert_eq!(lanes.cores(), 1);
        prop_assert_eq!(lanes.lane(0, ReqKind::Demand), lanes.total());
        for kind in ReqKind::ALL {
            if kind != ReqKind::Demand {
                prop_assert!(lanes.lane(0, kind).is_zero());
            }
        }
    }
}
