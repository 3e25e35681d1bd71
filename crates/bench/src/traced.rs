//! Traced runs: one plan entry with a `sam-trace` recorder attached.
//!
//! Each run builds its **own** recorder (event ring plus epoch statistics,
//! never shared), so tracing is sweep-safe: the executor fans traced runs
//! out over `--jobs` workers exactly like bare ones, and the collected
//! [`RunTrace`]s come back in plan order. The traced path calls the same
//! simulator as the bare one with a purely observational recorder, so
//! tables and `results/<bin>.json` stay byte-identical whether or not
//! `--trace` was given (covered by tests here and in `sam-core`).
//!
//! The driver renders the collected runs into one Chrome `trace_event`
//! document per binary (`results/<bin>.trace.json` by default): one
//! process per run, one thread lane per simulator component — see
//! [`sam_trace::chrome`].

use std::sync::Arc;

use sam::system::Instrumentation;
use sam_trace::{RunRecorder, RunTrace};

use crate::experiment::{Job, Outcome};

/// How a traced run records: epoch length for the stats engine and the
/// event-ring bound.
#[derive(Debug, Clone, Copy)]
pub struct TraceOptions {
    /// Epoch length in memory cycles.
    pub epoch_len: u64,
    /// Ring capacity in events; the oldest events are dropped beyond it
    /// (the exporter still produces a balanced, lintable trace).
    pub ring_capacity: usize,
}

/// Default event-ring bound per run. A full figure collects one ring per
/// constituent simulation (162 for fig12), so the per-run bound is what
/// keeps the merged Chrome document small enough for Perfetto to load and
/// `lint-trace` to parse in seconds; 4096 events still cover the most
/// recent few refresh windows of a run. Raise it via
/// [`TraceOptions::ring_capacity`] when tracing a single run in depth.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 12;

impl TraceOptions {
    /// Options with the given epoch length and the default ring bound.
    pub fn new(epoch_len: u64) -> Self {
        Self {
            epoch_len,
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }
}

impl Default for TraceOptions {
    fn default() -> Self {
        Self::new(crate::cli::DEFAULT_EPOCH_LEN)
    }
}

/// Runs `job` with a fresh trace recorder attached, returning the outcome
/// plus its recorded trace under `label`.
pub fn run_traced(job: &Job, label: &str, opts: TraceOptions) -> (Outcome, RunTrace) {
    let recorder = RunRecorder::shared(opts.ring_capacity, opts.epoch_len);
    let outcome = job.run(&mut Instrumentation {
        trace: Some(recorder.clone()),
        ..Default::default()
    });
    let trace = Arc::try_unwrap(recorder)
        .expect("run finished, recorder is sole owner")
        .into_inner()
        .expect("trace recorder lock poisoned")
        .into_trace(label);
    (outcome, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Run;
    use sam::designs;
    use sam::layout::Store;
    use sam_imdb::exec::Workload;
    use sam_imdb::plan::PlanConfig;
    use sam_imdb::query::Query;
    use sam_stress::stream::StressConfig;
    use sam_stress::{Pattern, PatternParams};
    use sam_trace::{chrome_trace, lint_chrome_trace, Category, EpochCounters};
    use sam_util::json::Json;

    fn query_job(design: sam::design::Design, store: Store) -> Job {
        Run::query(
            "",
            Workload::new(Query::Q4, PlanConfig::tiny()),
            design,
            store,
        )
        .job
    }

    #[test]
    fn traced_run_matches_untraced_and_records() {
        let job = query_job(designs::sam_en(), Store::Row);
        let plain = job.run(&mut Instrumentation::default());
        let (traced, trace) = run_traced(&job, "Q4/SAM-en/Row", TraceOptions::new(1_000));
        assert_eq!(traced, plain);
        assert!(!trace.events.is_empty());
        assert!(!trace.epochs.is_empty());
        assert_eq!(trace.label, "Q4/SAM-en/Row");
        // The full system's epoch rows telescope to the run's own stats,
        // as the bare controller's do (memctrl's `epoch_stats` tests).
        let mut sum = EpochCounters::default();
        for row in &trace.epochs {
            sum.accumulate(&row.delta);
        }
        let Outcome::Query(q) = &plain else {
            panic!("a query job yields a query outcome")
        };
        let (c, d) = (&q.result.ctrl, &q.result.device);
        assert!(sum.reads > 0 && sum.acts > 0, "the run recorded no work");
        assert_eq!(
            [
                sum.reads,
                sum.writes,
                sum.starved,
                sum.refreshes,
                sum.acts,
                sum.pres,
                sum.mode_switches
            ],
            [
                c.reads_done,
                c.writes_done,
                c.starvation_forced,
                c.refreshes,
                d.acts,
                d.pres,
                d.mode_switches
            ]
        );
    }

    /// Stress cells record through the same entry point: the bare
    /// controller takes the recorder from the instrumentation, draws its
    /// commands on bank lanes, and samples its epochs.
    #[test]
    fn traced_stress_cell_matches_untraced_and_records() {
        let job = Job::Stress {
            config: StressConfig::ddr4_default(),
            pattern: Pattern::BankPingPong,
            params: PatternParams::small(3),
        };
        let plain = job.run(&mut Instrumentation::default());
        let (traced, trace) = run_traced(&job, "ping-pong/commodity", TraceOptions::new(1_000));
        assert_eq!(traced, plain);
        assert!(
            trace.events.iter().any(|e| e.cat == Category::Dram),
            "the stress controller draws its commands on bank lanes"
        );
        let mut sum = EpochCounters::default();
        for row in &trace.epochs {
            sum.accumulate(&row.delta);
        }
        let Outcome::Stress(s) = &plain else {
            panic!("a stress job yields a stress outcome")
        };
        assert!(sum.reads > 0, "the cell recorded no work");
        assert_eq!(
            [
                sum.reads,
                sum.writes,
                sum.row_hits,
                sum.starved,
                sum.refreshes
            ],
            [s.reads, s.writes, s.row_hits, s.starved, s.refreshes]
        );
    }

    #[test]
    fn collected_document_passes_lint() {
        let traces: Vec<RunTrace> = [
            (designs::commodity(), Store::Row),
            (designs::sam_en(), Store::Row),
            (designs::commodity(), Store::Column),
        ]
        .into_iter()
        .map(|(design, store)| {
            let label = format!("Q4/{}/{store:?}", design.name);
            run_traced(&query_job(design, store), &label, TraceOptions::new(5_000)).1
        })
        .collect();
        let doc = chrome_trace("test", &traces);
        let summary = lint_chrome_trace(&doc).expect("collected runs lint clean");
        assert_eq!(summary.processes, 3);
        assert!(summary.epoch_rows > 0);
        // And survives a serialize/parse round-trip (what `sam-check
        // lint-trace` actually reads).
        let reparsed = Json::parse(&doc.to_string()).expect("writer output parses");
        assert_eq!(lint_chrome_trace(&reparsed).unwrap(), summary);
    }
}
