//! Property-based tests of the epoch stats engine: over arbitrary request
//! streams and epoch lengths, the per-epoch delta rows must telescope —
//! their field-wise sum equals the controller's end-of-run totals exactly,
//! and the rows partition the run into ordered, boundary-aligned spans.

use std::sync::Arc;

use proptest::prelude::*;
use sam_memctrl::controller::{Controller, ControllerConfig};
use sam_memctrl::request::{MemRequest, StrideSpec};
use sam_trace::{EpochCounters, EpochRecorder, RunRecorder};

/// Runs a random request stream with a trace recorder attached and
/// returns its epochs alongside the controller's final counters.
fn run_stream(
    epoch_len: u64,
    addrs: &[u64],
    strides: &[bool],
    writes: &[bool],
    arrivals: &[u64],
) -> (EpochRecorder, EpochCounters) {
    run_stream_cfg(
        ControllerConfig::default(),
        epoch_len,
        addrs,
        strides,
        writes,
        arrivals,
    )
}

/// [`run_stream`] under an explicit controller configuration (the
/// tight-cap starvation tests shrink the cap far below its default).
fn run_stream_cfg(
    cfg: ControllerConfig,
    epoch_len: u64,
    addrs: &[u64],
    strides: &[bool],
    writes: &[bool],
    arrivals: &[u64],
) -> (EpochRecorder, EpochCounters) {
    let mut ctrl = Controller::new(cfg);
    // A one-event ring: only the epochs are under test.
    let recorder = RunRecorder::shared(1, epoch_len);
    ctrl.attach_trace(recorder.clone());
    for (i, addr) in addrs.iter().enumerate() {
        let id = i as u64 + 1;
        let addr = addr & !63;
        let req = match (strides[i], writes[i]) {
            (true, false) => MemRequest::stride_read(id, addr, StrideSpec::ssc_dsd()),
            (true, true) => MemRequest::stride_write(id, addr, StrideSpec::ssc_dsd()),
            (false, false) => MemRequest::read(id, addr),
            (false, true) => MemRequest::write(id, addr),
        };
        let _ = ctrl.enqueue(req, arrivals[i]);
    }
    let done = ctrl.drain(0);
    let end = done.iter().map(|d| d.finish).max().unwrap_or(0);
    ctrl.finish_epochs(end);
    let totals = EpochCounters {
        reads: ctrl.stats().reads_done,
        writes: ctrl.stats().writes_done,
        row_hits: ctrl.stats().row_hits,
        row_misses: ctrl.stats().row_misses,
        row_conflicts: ctrl.stats().row_conflicts,
        refreshes: ctrl.stats().refreshes,
        starved: ctrl.stats().starvation_forced,
        latency: ctrl.stats().total_latency,
        acts: ctrl.device_stats().acts,
        pres: ctrl.device_stats().pres,
        mode_switches: ctrl.device_stats().mode_switches,
        bus_busy: ctrl.device().channel().busy_cycles,
    };
    drop(ctrl);
    let recorder = Arc::try_unwrap(recorder)
        .expect("controller dropped, recorder is sole owner")
        .into_inner()
        .expect("trace recorder lock poisoned");
    (recorder.epochs, totals)
}

proptest! {
    /// The telescoping-sum invariant: every counter the epoch engine
    /// samples must be conserved — summing the per-epoch deltas
    /// reconstructs the end-of-run aggregates field by field.
    #[test]
    fn epoch_deltas_sum_to_final_totals(
        epoch_len in prop_oneof![1u64..=16, 100u64..=5000],
        addrs in proptest::collection::vec(0u64..(1 << 30), 1..50),
        strides in proptest::collection::vec(any::<bool>(), 50),
        writes in proptest::collection::vec(any::<bool>(), 50),
        arrivals in proptest::collection::vec(0u64..20_000, 50),
    ) {
        let (recorder, totals) = run_stream(epoch_len, &addrs, &strides, &writes, &arrivals);
        let sum = recorder.sum();
        prop_assert_eq!(sum.reads, totals.reads);
        prop_assert_eq!(sum.writes, totals.writes);
        prop_assert_eq!(sum.row_hits, totals.row_hits);
        prop_assert_eq!(sum.row_misses, totals.row_misses);
        prop_assert_eq!(sum.row_conflicts, totals.row_conflicts);
        prop_assert_eq!(sum.refreshes, totals.refreshes);
        prop_assert_eq!(sum.starved, totals.starved);
        prop_assert_eq!(sum.latency, totals.latency);
        prop_assert_eq!(sum.acts, totals.acts);
        prop_assert_eq!(sum.pres, totals.pres);
        prop_assert_eq!(sum.mode_switches, totals.mode_switches);
        prop_assert_eq!(sum.bus_busy, totals.bus_busy);
        // Every accepted request completed as exactly one read or write.
        prop_assert_eq!(sum.reads + sum.writes, totals.reads + totals.writes);
    }

    /// Rows partition the run: indices strictly increase, spans are
    /// non-empty and non-overlapping, and every row except the final
    /// partial one is aligned to the epoch grid.
    #[test]
    fn epoch_rows_are_ordered_and_grid_aligned(
        epoch_len in 1u64..=2000,
        addrs in proptest::collection::vec(0u64..(1 << 28), 1..30),
        writes in proptest::collection::vec(any::<bool>(), 30),
        arrivals in proptest::collection::vec(0u64..5_000, 30),
    ) {
        let strides = vec![false; addrs.len()];
        let (recorder, totals) = run_stream(epoch_len, &addrs, &strides, &writes, &arrivals);
        let rows = recorder.rows();
        prop_assert!(!rows.is_empty() || totals.is_zero());
        for pair in rows.windows(2) {
            prop_assert!(pair[0].index < pair[1].index, "indices strictly increase");
            prop_assert!(pair[0].end <= pair[1].start, "spans do not overlap");
        }
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(row.start, row.index * epoch_len, "rows start on the grid");
            prop_assert!(row.end > row.start || totals.is_zero());
            if i + 1 < rows.len() {
                prop_assert_eq!(row.end, row.start + epoch_len, "closed rows span one epoch");
            }
        }
    }

    /// Starvation decisions are epoch-conserved too: under a tight cap
    /// and an adversarial row-hit stream (a pile of same-row hits with
    /// interleaved conflict-row victims — the shape the stress engine's
    /// row-hit flood uses), the per-epoch `starved` deltas telescope to
    /// the controller's end-of-run `starvation_forced` total, and the
    /// stream really does force starvation decisions.
    #[test]
    fn starved_counters_telescope_under_tight_caps(
        cap in 1u64..=64,
        epoch_len in prop_oneof![1u64..=16, 100u64..=5000],
        cols in proptest::collection::vec(0u64..128, 8..40),
        victims in proptest::collection::vec(any::<bool>(), 40),
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
        let (recorder, totals) =
            run_stream_cfg(cfg, epoch_len, &addrs, &strides, &writes, &arrivals);
        prop_assert_eq!(recorder.sum().starved, totals.starved);
        if victims.iter().take(cols.len()).any(|&v| v)
            && !victims.iter().take(cols.len()).all(|&v| v)
        {
            // Mixed rows at a tiny cap: aged conflicts must have forced
            // at least one scheduling decision.
            prop_assert!(totals.starved > 0 || cap > 1_000);
        }
    }

    /// The invariant is insensitive to the sampling granularity: a 1-cycle
    /// recorder and a huge single-epoch recorder see the same stream and
    /// must agree on the totals.
    #[test]
    fn epoch_length_does_not_change_the_sum(
        addrs in proptest::collection::vec(0u64..(1 << 28), 1..30),
        writes in proptest::collection::vec(any::<bool>(), 30),
    ) {
        let strides = vec![false; addrs.len()];
        let arrivals = vec![0u64; addrs.len()];
        let (fine, t1) = run_stream(1, &addrs, &strides, &writes, &arrivals);
        let (coarse, t2) = run_stream(u64::MAX / 2, &addrs, &strides, &writes, &arrivals);
        prop_assert_eq!(t1, t2, "identical streams produce identical totals");
        prop_assert_eq!(fine.sum(), coarse.sum());
        prop_assert!(coarse.rows().len() <= 1, "one giant epoch yields one row");
        prop_assert!(fine.rows().len() >= coarse.rows().len());
    }
}
