//! The Section 1 motivation experiment: sub-ranked memory (AGMS/DGMS)
//! vs SAM on random point reads and a strided field scan.

use std::sync::Arc;

use sam::design::Design;
use sam::designs::{commodity, dgms, sam_en};
use sam::layout::{Store, TableSpec};
use sam::ops::TraceOp;
use sam::system::SystemConfig;
use sam_imdb::plan::TA_BASE;
use sam_util::rng::Xoshiro256StarStar;
use sam_util::table::TextTable;

use crate::experiment::{Ctx, Job, Rendered, Results, Run};
use crate::metrics::RunMetrics;

/// Random single-field point reads: each core touches records scattered
/// over the table, one random field each (sub-rank-friendly).
fn random_point_reads(records: u64, count: usize, cores: usize, seed: u64) -> Vec<Vec<TraceOp>> {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut traces = vec![Vec::new(); cores];
    for i in 0..count {
        let r = rng.next_below(records);
        let f = rng.next_below(128) as u16;
        traces[i % cores].push(TraceOp::read_fields(r, vec![f]));
        traces[i % cores].push(TraceOp::compute(3));
    }
    traces
}

/// A strided field scan: every record's field 9 (same word offset — the
/// same sub-rank every time).
fn strided_scan(records: u64, cores: usize) -> Vec<Vec<TraceOp>> {
    sam::ops::partition_records(0..records, cores, |r, t| {
        t.push(TraceOp::read_fields(r, vec![9]));
        t.push(TraceOp::compute(3));
    })
}

const WORKLOADS: [&str; 2] = ["random point reads", "strided field scan"];

fn designs() -> [Design; 3] {
    [commodity(), dgms(), sam_en()]
}

/// The 2×3 grid (workload × design) on the Table 2 system, each run
/// weighted by the table's record count.
pub fn plan(ctx: &Ctx) -> Vec<Run> {
    let records = ctx.args.plan.ta_records;
    let table = TableSpec::ta(TA_BASE, records);
    let traces = [
        random_point_reads(records, records as usize, 4, 0xD1CE),
        strided_scan(records, 4),
    ];
    let mut runs = Vec::new();
    for (label, traces) in WORKLOADS.iter().zip(traces) {
        let traces = Arc::new(traces);
        for design in designs() {
            runs.push(Run {
                label: format!("{label}/{}", design.name),
                weight: records,
                job: Job::Traces {
                    system: SystemConfig::default(),
                    design,
                    table,
                    traces: traces.clone(),
                },
            });
        }
    }
    runs
}

/// The normalized table plus `results/motivation.json`.
pub fn render(ctx: &Ctx, results: Results) -> Rendered {
    let records = ctx.args.plan.ta_records;
    let gather = SystemConfig::default().granularity.gather() as u64;
    let designs = designs();
    let runs = results.into_run_results();
    println!(
        "Section 1 motivation: sub-ranking vs SAM on random and strided accesses\n\
         (Ta = {records} x 1KB records; cycles normalized to commodity DRAM)\n"
    );
    let mut out = TextTable::new(vec!["workload", "commodity", "DGMS (sub-ranked)", "SAM-en"]);
    out.numeric();

    let mut report = ctx.report();
    for (wi, label) in WORKLOADS.iter().enumerate() {
        let chunk = &runs[wi * designs.len()..(wi + 1) * designs.len()];
        let base = &chunk[0];
        let mut row = Vec::new();
        for (design, result) in designs.iter().zip(chunk) {
            let speedup = base.cycles as f64 / result.cycles as f64;
            row.push(speedup);
            report.runs.push(RunMetrics::from_result(
                *label,
                design,
                Store::Row,
                result,
                speedup,
                gather,
            ));
        }
        out.row_f64(*label, &row, 2);
    }
    println!("{out}");
    println!("Sub-ranking helps when accesses scatter across sub-ranks (random");
    println!("reads) but a strided scan hits one word offset — one sub-rank —");
    println!("so DGMS stays near 1x while SAM gathers 8 records per burst.");
    report.into()
}
