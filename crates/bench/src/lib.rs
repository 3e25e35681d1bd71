//! Shared harness code for the `fig*` / `table*` binaries that regenerate
//! the paper's tables and figures.
//!
//! Every binary prints an aligned text table whose rows/series correspond
//! one-to-one with what the paper reports; `EXPERIMENTS.md` records a
//! captured copy next to the paper's numbers. Alongside the tables, each
//! binary emits a machine-readable [`metrics::MetricsReport`] to
//! `results/<bin>.json`.
//!
//! Each binary is an [`experiment::Experiment`] registered in
//! [`bins::EXPERIMENTS`]: a weighted plan of independent runs plus a
//! render. One driver ([`experiment::drive`]) fans the plan out over the
//! [`sweep`] runner (`--jobs N`, parsed by [`cli`]); results come back in
//! plan order, keeping the output byte-identical to a serial run.

#![warn(missing_docs)]

pub mod bench_fig12;
pub mod bins;
pub mod checked;
pub mod cli;
pub mod experiment;
pub mod fig16;
pub mod heartbeat;
pub mod metrics;
pub mod stressrun;
pub mod sweep;
pub mod traced;

use sam::design::Design;
use sam::designs;
use sam::layout::Store;
use sam::system::SystemConfig;
use sam_imdb::exec::{run_baseline, run_ideal, run_query, speedup, QueryRun, Workload};
use sam_imdb::plan::PlanConfig;
use sam_imdb::query::Query;

use crate::experiment::Run;
use crate::metrics::RunMetrics;

/// The evaluated designs in Figure 12's legend order.
pub fn figure12_designs() -> Vec<Design> {
    vec![
        designs::rc_nvm_bit(),
        designs::rc_nvm_wd(),
        designs::gs_dram(),
        designs::gs_dram_ecc(),
        designs::sam_sub(),
        designs::sam_io(),
        designs::sam_en(),
    ]
}

/// One query's speedups: per design, plus the ideal reference.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Query name.
    pub query: String,
    /// (design name, speedup vs row-store baseline).
    pub speedups: Vec<(String, f64)>,
    /// Ideal (best-store commodity) speedup.
    pub ideal: f64,
}

/// Runs `query` on every Figure 12 design and the ideal reference.
pub fn speedup_row(query: Query, plan: PlanConfig, system: SystemConfig) -> SpeedupRow {
    let workload = Workload::new(query, plan).with_system(system);
    let base = run_baseline(&workload);
    let mut speedups = Vec::new();
    for design in figure12_designs() {
        let run = run_query(&workload, &design, Store::Row);
        speedups.push((design.name.to_string(), speedup(&base, &run)));
    }
    let ideal = run_ideal(&workload);
    SpeedupRow {
        query: query.name(),
        speedups,
        ideal: speedup(&base, &ideal),
    }
}

/// One query's results from a parallel grid: the speedup row for the
/// printed table plus the per-run metrics for the JSON report.
pub type GridRow = (SpeedupRow, Vec<RunMetrics>);

/// The number of simulations in one query's grid chunk: the commodity
/// row-store baseline, each design on the row store, and the commodity
/// column-store run behind the ideal reference.
pub fn grid_chunk_len(designs: &[Design]) -> usize {
    designs.len() + 2
}

/// Plans one query's grid chunk, in [`grid_chunk_len`] order: the
/// commodity row-store baseline, each design on the row store, and the
/// commodity column-store run behind the ideal reference.
pub fn grid_runs(
    query: Query,
    plan: PlanConfig,
    system: SystemConfig,
    designs: &[Design],
) -> Vec<Run> {
    let workload = Workload::new(query, plan).with_system(system);
    let name = query.name();
    let mut runs = Vec::with_capacity(grid_chunk_len(designs));
    let base = format!("{name}/commodity/Row");
    runs.push(Run::query(base, workload, designs::commodity(), Store::Row));
    for design in designs {
        let label = format!("{name}/{}/Row", design.name);
        runs.push(Run::query(label, workload, design.clone(), Store::Row));
    }
    let col = format!("{name}/commodity/Column");
    runs.push(Run::query(
        col,
        workload,
        designs::commodity(),
        Store::Column,
    ));
    runs
}

/// Assembles one query's completed grid chunk (in [`grid_runs`] order)
/// into its speedup row and metrics records.
pub fn assemble_grid_chunk(runs: &[QueryRun], designs: &[Design], gather: u64) -> GridRow {
    assert_eq!(runs.len(), grid_chunk_len(designs));
    let base = &runs[0];
    let col = &runs[runs.len() - 1];
    let commodity = designs::commodity();
    let mut metrics = vec![RunMetrics::from_run(base, &commodity, 1.0, gather)];
    let mut speedups = Vec::with_capacity(designs.len());
    for (design, run) in designs.iter().zip(&runs[1..runs.len() - 1]) {
        let s = speedup(base, run);
        speedups.push((design.name.to_string(), s));
        metrics.push(RunMetrics::from_run(run, design, s, gather));
    }
    // The ideal reference is commodity hardware on whichever store is
    // better, so its speedup is at least 1.0 (the row-store baseline).
    let col_speedup = speedup(base, col);
    metrics.push(RunMetrics::from_run(col, &commodity, col_speedup, gather));
    let row = SpeedupRow {
        query: base.query.name(),
        speedups,
        ideal: col_speedup.max(1.0),
    };
    (row, metrics)
}

/// Geometric mean helper re-exported for the binaries.
pub fn gmean(values: &[f64]) -> f64 {
    sam_util::stats::geometric_mean(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{try_parse_args, ArgSpec};

    /// Plans `queries`' grid chunks and runs them through the experiment
    /// executor on `jobs` workers.
    fn grid(queries: &[Query], designs: &[Design], jobs: usize) -> Vec<GridRow> {
        let system = SystemConfig::default();
        let plan: Vec<Run> = queries
            .iter()
            .flat_map(|q| grid_runs(*q, PlanConfig::tiny(), system, designs))
            .collect();
        let argv = ["--jobs".to_string(), jobs.to_string()];
        let args = try_parse_args(&ArgSpec::new("grid"), PlanConfig::tiny(), &argv).unwrap();
        let (results, _, _) = experiment::execute(&plan, &args);
        let gather = system.granularity.gather() as u64;
        results
            .into_queries()
            .chunks(grid_chunk_len(designs))
            .map(|chunk| assemble_grid_chunk(chunk, designs, gather))
            .collect()
    }

    #[test]
    fn figure12_has_seven_hardware_designs() {
        assert_eq!(figure12_designs().len(), 7);
    }

    #[test]
    fn speedup_row_small_scale() {
        let row = speedup_row(Query::Q4, PlanConfig::tiny(), SystemConfig::default());
        assert_eq!(row.speedups.len(), 7);
        assert!(row.ideal >= 1.0);
        let sam_en = row.speedups.iter().find(|(n, _)| n == "SAM-en").unwrap().1;
        assert!(
            sam_en > 1.0,
            "SAM-en should beat baseline on Q4: {sam_en:.2}"
        );
    }

    /// The byte-identity guarantee in miniature: the executed grid must
    /// reproduce the serial helper's speedups exactly, at any job count.
    #[test]
    fn grid_matches_serial_speedup_rows_exactly() {
        let plan = PlanConfig::tiny();
        let system = SystemConfig::default();
        let designs = figure12_designs();
        let queries = [Query::Q4, Query::Qs3];
        let serial: Vec<SpeedupRow> = queries
            .iter()
            .map(|q| speedup_row(*q, plan, system))
            .collect();
        for jobs in [1, 4] {
            let grid = grid(&queries, &designs, jobs);
            assert_eq!(grid.len(), serial.len());
            for ((row, metrics), expect) in grid.iter().zip(&serial) {
                assert_eq!(row.query, expect.query);
                assert_eq!(metrics.len(), grid_chunk_len(&designs));
                assert!(row.ideal.to_bits() == expect.ideal.to_bits());
                for ((n, s), (en, es)) in row.speedups.iter().zip(&expect.speedups) {
                    assert_eq!(n, en);
                    assert!(s.to_bits() == es.to_bits(), "{n}: {s} vs {es}");
                }
            }
        }
    }

    #[test]
    fn grid_metrics_follow_plan_order() {
        let grid = grid(&[Query::Q4], &[designs::sam_en()], 2);
        let (row, metrics) = &grid[0];
        assert_eq!(row.speedups.len(), 1);
        assert_eq!(metrics.len(), 3);
        assert_eq!(metrics[0].design, "commodity");
        assert_eq!(metrics[0].store, "Row");
        assert!((metrics[0].speedup - 1.0).abs() < 1e-12);
        assert_eq!(metrics[1].design, "SAM-en");
        assert_eq!(metrics[2].design, "commodity");
        assert_eq!(metrics[2].store, "Column");
    }
}
