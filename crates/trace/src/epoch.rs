//! Epoch statistics: monotonic counters folded into fixed-length windows.
//!
//! The controller calls [`EpochRecorder::tick`] at every request
//! completion with a snapshot of its cumulative counters
//! ([`EpochCounters`]); the recorder closes an epoch whenever the
//! completion time crosses an epoch boundary, recording the counter
//! *delta* since the previous close. Deltas telescope, so the sum of all
//! per-epoch rows equals the end-of-run totals **exactly** — the invariant
//! the proptest in `sam-memctrl` pins down. Queue depths and MLP are
//! gauges, recorded as within-epoch peaks.
//!
//! Two modelling caveats, both deliberate:
//!
//! * Attribution is by *completion time*: work is charged to the epoch in
//!   which its completion was observed, and since the FR-FCFS scheduler
//!   can back-date commands, a completion observed after a boundary may
//!   include cycles before it. Totals are exact; per-epoch placement is
//!   sharp to one completion.
//! * All-zero epochs (no completions, no gauge activity — e.g. the long
//!   refresh-interval gaps of a sparse run) are omitted from the row list;
//!   the telescoping sum is unaffected.

use crate::Cycle;

/// A snapshot of the simulator's cumulative (monotonic) counters, taken by
/// the controller at a completion. Field-for-field deltas between
/// snapshots form the per-epoch rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochCounters {
    /// Completed reads (controller).
    pub reads: u64,
    /// Completed writes (controller).
    pub writes: u64,
    /// Row-buffer hits (controller).
    pub row_hits: u64,
    /// Row-buffer misses (controller).
    pub row_misses: u64,
    /// Row-buffer conflicts (controller).
    pub row_conflicts: u64,
    /// Refreshes issued (controller).
    pub refreshes: u64,
    /// Starvation-cap firings (controller).
    pub starved: u64,
    /// Summed request latency in cycles (controller).
    pub latency: u64,
    /// ACT commands (device).
    pub acts: u64,
    /// PRE commands (device).
    pub pres: u64,
    /// I/O mode switches (device).
    pub mode_switches: u64,
    /// Busy cycles on the data bus (channel).
    pub bus_busy: u64,
}

impl EpochCounters {
    /// Field-wise `self - earlier` (monotonic counters, so plain
    /// subtraction; panics in debug if a counter ran backwards).
    pub fn minus(&self, earlier: &EpochCounters) -> EpochCounters {
        EpochCounters {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            row_hits: self.row_hits - earlier.row_hits,
            row_misses: self.row_misses - earlier.row_misses,
            row_conflicts: self.row_conflicts - earlier.row_conflicts,
            refreshes: self.refreshes - earlier.refreshes,
            starved: self.starved - earlier.starved,
            latency: self.latency - earlier.latency,
            acts: self.acts - earlier.acts,
            pres: self.pres - earlier.pres,
            mode_switches: self.mode_switches - earlier.mode_switches,
            bus_busy: self.bus_busy - earlier.bus_busy,
        }
    }

    /// Field-wise accumulation (used to verify the telescoping-sum
    /// invariant).
    pub fn accumulate(&mut self, other: &EpochCounters) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
        self.refreshes += other.refreshes;
        self.starved += other.starved;
        self.latency += other.latency;
        self.acts += other.acts;
        self.pres += other.pres;
        self.mode_switches += other.mode_switches;
        self.bus_busy += other.bus_busy;
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == EpochCounters::default()
    }
}

/// One closed epoch: the counter delta over `[start, end)` plus gauge
/// peaks observed within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochRow {
    /// Epoch index (counted from 0 including omitted all-zero epochs).
    pub index: u64,
    /// First cycle of the epoch.
    pub start: Cycle,
    /// One past the last cycle (start of the next epoch; for the final
    /// partial epoch, the run's last observed cycle).
    pub end: Cycle,
    /// Counter deltas attributed to this epoch.
    pub delta: EpochCounters,
    /// Peak read-queue depth observed at completions in this epoch.
    pub readq_peak: u64,
    /// Peak write-queue depth observed at completions in this epoch.
    pub writeq_peak: u64,
    /// Peak outstanding misses (summed over cores) observed in this epoch.
    pub mlp_peak: u64,
}

impl EpochRow {
    /// Row-hit rate over this epoch's column accesses, if any happened.
    pub fn row_hit_rate(&self) -> Option<f64> {
        let n = self.delta.row_hits + self.delta.row_misses + self.delta.row_conflicts;
        (n > 0).then(|| self.delta.row_hits as f64 / n as f64)
    }

    /// Data-bus utilization over the epoch span.
    pub fn bus_utilization(&self) -> f64 {
        let span = self.end.saturating_sub(self.start);
        if span == 0 {
            0.0
        } else {
            (self.delta.bus_busy as f64 / span as f64).min(1.0)
        }
    }
}

/// Folds completion-time counter snapshots into per-epoch rows.
#[derive(Debug)]
pub struct EpochRecorder {
    len: Cycle,
    start: Cycle,
    index: u64,
    /// Monotone time cursor: completions can be observed out of cycle
    /// order (the scheduler back-dates), so earlier times are clamped.
    cursor: Cycle,
    /// Totals at the most recent tick (what a boundary close attributes to
    /// the epoch being closed).
    prev: EpochCounters,
    /// Totals at the last epoch close (the telescoping base).
    closed: EpochCounters,
    readq_peak: u64,
    writeq_peak: u64,
    mlp_peak: u64,
    rows: Vec<EpochRow>,
    finished: bool,
}

impl EpochRecorder {
    /// A recorder with `len`-cycle epochs (clamped to >= 1).
    pub fn new(len: Cycle) -> Self {
        Self {
            len: len.max(1),
            start: 0,
            index: 0,
            cursor: 0,
            prev: EpochCounters::default(),
            closed: EpochCounters::default(),
            readq_peak: 0,
            writeq_peak: 0,
            mlp_peak: 0,
            rows: Vec::new(),
            finished: false,
        }
    }

    /// Configured epoch length in cycles.
    pub fn epoch_len(&self) -> Cycle {
        self.len
    }

    /// Records a completion-time snapshot: `totals` are the cumulative
    /// counters as of `now`, `readq`/`writeq` the queue depths after the
    /// completion. Closes every epoch whose boundary `now` has crossed.
    pub fn tick(&mut self, now: Cycle, totals: EpochCounters, readq: u64, writeq: u64) {
        debug_assert!(!self.finished, "tick after finish");
        let now = now.max(self.cursor);
        if now >= self.start + self.len {
            // Close the epoch the previous snapshot belongs to, then
            // telescope over the skipped region in one jump: after that
            // close, `closed == prev` and the gauges are reset, so a
            // per-epoch close loop from here would only discard all-zero
            // epochs — O(skip) work for rows that are omitted anyway.
            // The skip-ahead core can jump time by millions of cycles in
            // one event, so crossing a quiet region must cost O(1), not
            // O(cycles skipped).
            let at_close = self.prev;
            self.close(at_close);
            if now >= self.start + self.len {
                let skipped = (now - self.start) / self.len;
                self.start += skipped * self.len;
                self.index += skipped;
            }
        }
        self.cursor = now;
        self.prev = totals;
        self.readq_peak = self.readq_peak.max(readq);
        self.writeq_peak = self.writeq_peak.max(writeq);
    }

    /// Records a gauge sample of total outstanding misses (MLP), credited
    /// to the currently open epoch.
    pub fn observe_mlp(&mut self, outstanding: u64) {
        self.mlp_peak = self.mlp_peak.max(outstanding);
    }

    /// Flushes the final (partial) epoch: `totals` are the end-of-run
    /// counters, `now` the last simulated cycle. After this the rows sum
    /// exactly to `totals`. Idempotent per recorder; later ticks panic in
    /// debug builds.
    pub fn finish(&mut self, now: Cycle, totals: EpochCounters) {
        if self.finished {
            return;
        }
        self.finished = true;
        let now = now.max(self.cursor);
        self.prev = totals;
        let tail = totals.minus(&self.closed);
        if !tail.is_zero() || self.readq_peak > 0 || self.writeq_peak > 0 || self.mlp_peak > 0 {
            self.rows.push(EpochRow {
                index: self.index,
                start: self.start,
                end: now.max(self.start),
                delta: tail,
                readq_peak: self.readq_peak,
                writeq_peak: self.writeq_peak,
                mlp_peak: self.mlp_peak,
            });
        }
        self.closed = totals;
    }

    fn close(&mut self, at_totals: EpochCounters) {
        let end = self.start + self.len;
        let delta = at_totals.minus(&self.closed);
        if !delta.is_zero() || self.readq_peak > 0 || self.writeq_peak > 0 || self.mlp_peak > 0 {
            self.rows.push(EpochRow {
                index: self.index,
                start: self.start,
                end,
                delta,
                readq_peak: self.readq_peak,
                writeq_peak: self.writeq_peak,
                mlp_peak: self.mlp_peak,
            });
        }
        self.closed = at_totals;
        self.start = end;
        self.index += 1;
        self.readq_peak = 0;
        self.writeq_peak = 0;
        self.mlp_peak = 0;
    }

    /// The closed rows so far (all rows, after [`Self::finish`]).
    pub fn rows(&self) -> &[EpochRow] {
        &self.rows
    }

    /// Consumes the recorder, returning its rows.
    pub fn into_rows(self) -> Vec<EpochRow> {
        self.rows
    }

    /// Field-wise sum of all row deltas (equals the end-of-run totals once
    /// finished — the invariant under test).
    pub fn sum(&self) -> EpochCounters {
        let mut total = EpochCounters::default();
        for row in &self.rows {
            total.accumulate(&row.delta);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(reads: u64, latency: u64) -> EpochCounters {
        EpochCounters {
            reads,
            latency,
            ..Default::default()
        }
    }

    #[test]
    fn single_epoch_accumulates_to_finish() {
        let mut r = EpochRecorder::new(1000);
        r.tick(10, snap(1, 50), 3, 0);
        r.tick(20, snap(2, 90), 2, 0);
        r.finish(500, snap(2, 90));
        assert_eq!(r.rows().len(), 1);
        let row = r.rows()[0];
        assert_eq!(row.start, 0);
        assert_eq!(row.end, 500);
        assert_eq!(row.delta.reads, 2);
        assert_eq!(row.delta.latency, 90);
        assert_eq!(row.readq_peak, 3);
        assert_eq!(r.sum(), snap(2, 90));
    }

    #[test]
    fn boundary_crossing_attributes_to_prior_tick() {
        let mut r = EpochRecorder::new(100);
        r.tick(10, snap(1, 10), 0, 0);
        // Crosses the boundary at 100: epoch 0 closes with the *previous*
        // totals; this completion lands in epoch 1.
        r.tick(150, snap(2, 30), 0, 0);
        r.finish(150, snap(2, 30));
        assert_eq!(r.rows().len(), 2);
        assert_eq!(r.rows()[0].delta.reads, 1);
        assert_eq!(r.rows()[0].end, 100);
        assert_eq!(r.rows()[1].delta.reads, 1);
        assert_eq!(r.rows()[1].index, 1);
        assert_eq!(r.sum(), snap(2, 30));
    }

    #[test]
    fn empty_epochs_are_omitted_but_indices_advance() {
        let mut r = EpochRecorder::new(10);
        r.tick(5, snap(1, 5), 0, 0);
        r.tick(95, snap(2, 9), 0, 0); // skips epochs 1..8 with no activity
        r.finish(95, snap(2, 9));
        assert_eq!(r.rows().len(), 2);
        assert_eq!(r.rows()[0].index, 0);
        assert_eq!(r.rows()[1].index, 9);
        assert_eq!(r.sum(), snap(2, 9));
    }

    #[test]
    fn huge_skips_telescope_in_constant_time() {
        // A skip-ahead jump crossing ~1e17 epochs: the pre-fix per-epoch
        // close loop would effectively never return; the telescoped jump
        // must produce the same two rows instantly.
        let mut r = EpochRecorder::new(10);
        r.tick(5, snap(1, 5), 0, 0);
        let far: Cycle = 1_000_000_000_000_000_000;
        r.tick(far, snap(2, 9), 0, 0);
        r.finish(far, snap(2, 9));
        assert_eq!(r.rows().len(), 2);
        assert_eq!(r.rows()[0].index, 0);
        assert_eq!(r.rows()[0].delta.reads, 1);
        assert_eq!(r.rows()[1].index, far / 10);
        assert_eq!(r.rows()[1].delta.reads, 1);
        assert_eq!(r.sum(), snap(2, 9));
    }

    #[test]
    fn telescoped_skip_matches_small_skip_row_for_row() {
        // The O(1) jump must be observationally identical to the closes
        // it replaces on a gap small enough to enumerate by hand.
        let mut r = EpochRecorder::new(10);
        r.tick(5, snap(1, 5), 2, 1);
        r.tick(95, snap(2, 9), 0, 0);
        r.finish(95, snap(2, 9));
        assert_eq!(r.rows().len(), 2);
        assert_eq!(
            (r.rows()[0].index, r.rows()[0].start, r.rows()[0].end),
            (0, 0, 10)
        );
        assert_eq!(r.rows()[0].readq_peak, 2);
        assert_eq!(
            (r.rows()[1].index, r.rows()[1].start, r.rows()[1].end),
            (9, 90, 95)
        );
        assert_eq!(r.sum(), snap(2, 9));
    }

    #[test]
    fn out_of_order_completions_are_clamped() {
        let mut r = EpochRecorder::new(100);
        r.tick(150, snap(1, 10), 0, 0);
        r.tick(40, snap(2, 20), 0, 0); // back-dated: clamped to cursor 150
        r.finish(150, snap(2, 20));
        assert_eq!(r.sum(), snap(2, 20));
        // Both completions are attributed at/after cycle 150 (epoch 1).
        assert!(r.rows().iter().all(|row| row.index >= 1));
    }

    #[test]
    fn mlp_gauge_peaks_per_epoch() {
        let mut r = EpochRecorder::new(100);
        r.observe_mlp(4);
        r.observe_mlp(9);
        r.tick(50, snap(1, 5), 0, 0);
        r.tick(120, snap(2, 8), 0, 0);
        r.observe_mlp(2);
        r.finish(130, snap(2, 8));
        assert_eq!(r.rows()[0].mlp_peak, 9);
        assert_eq!(r.rows()[1].mlp_peak, 2);
    }

    #[test]
    fn derived_rates() {
        let row = EpochRow {
            index: 0,
            start: 0,
            end: 100,
            delta: EpochCounters {
                row_hits: 3,
                row_misses: 1,
                bus_busy: 25,
                ..Default::default()
            },
            readq_peak: 0,
            writeq_peak: 0,
            mlp_peak: 0,
        };
        assert_eq!(row.row_hit_rate(), Some(0.75));
        assert!((row.bus_utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn finish_is_idempotent() {
        let mut r = EpochRecorder::new(100);
        r.tick(10, snap(1, 1), 0, 0);
        r.finish(10, snap(1, 1));
        r.finish(10, snap(1, 1));
        assert_eq!(r.rows().len(), 1);
    }

    #[test]
    fn zero_length_epochs_clamp() {
        let r = EpochRecorder::new(0);
        assert_eq!(r.epoch_len(), 1);
    }
}
