//! Quickstart: measure how much SAM accelerates a strided field scan.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the paper's wide table Ta, runs `SELECT SUM(f9) FROM Ta WHERE
//! f10 > x` (Q3) on commodity DRAM and on the three SAM designs, and prints
//! the speedups — the core claim of the paper in a dozen lines.

use sam::designs::{sam_en, sam_io, sam_sub};
use sam::layout::Store;
use sam_imdb::exec::{run_baseline, run_query, speedup, Workload};
use sam_imdb::plan::PlanConfig;
use sam_imdb::query::Query;

fn main() {
    let mut plan = PlanConfig::default_scale();
    plan.ta_records = 8192; // keep the example snappy
    let workload = Workload::new(Query::Q3, plan);

    println!("Q3: {}", Query::Q3.sql());
    println!("table Ta: {} records x 1KB\n", plan.ta_records);

    let baseline = run_baseline(&workload);
    println!(
        "commodity DRAM (row store): {} memory cycles, {:.0}% bus utilization",
        baseline.result.cycles,
        baseline.result.bus_utilization() * 100.0
    );

    for design in [sam_sub(), sam_io(), sam_en()] {
        let run = run_query(&workload, &design, Store::Row);
        println!(
            "{:>8}: {} cycles  ->  {:.2}x speedup  ({} stride bursts instead of {} line fills)",
            design.name,
            run.result.cycles,
            speedup(&baseline, &run),
            run.result.stride_bursts,
            baseline.result.line_bursts,
        );
    }
    println!("\nOne stride burst returns the scanned field of 8 records (4-bit");
    println!("granularity, Section 4.4), so SAM moves ~8x less data per record");
    println!("while staying chipkill-protected.");
}
