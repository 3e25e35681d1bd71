//! HTAP scenario: the motivating workload of the paper's introduction.
//!
//! ```text
//! cargo run --release --example htap_analytics
//! ```
//!
//! A hybrid transactional/analytical mix cannot be served well by either a
//! pure row store or a pure column store: analytics want field scans,
//! transactions want whole records. This example runs an analytical query
//! (Q5), a transactional update (Q11), and a row-preferring tuple scan
//! (Qs4) and shows that SAM-en tracks the *better* store on every one,
//! while each fixed store loses somewhere.

use sam::designs::{commodity, sam_en};
use sam::layout::Store;
use sam_imdb::exec::{run_query, Workload};
use sam_imdb::plan::PlanConfig;
use sam_imdb::query::Query;
use sam_util::table::TextTable;

fn main() {
    let mut plan = PlanConfig::default_scale();
    plan.ta_records = 8192;
    plan.tb_records = 32768;

    let queries = [
        ("analytics", Query::Q5),
        ("transaction", Query::Q11),
        ("tuple scan", Query::Qs4),
    ];

    let mut table = TextTable::new(vec![
        "workload",
        "query",
        "row-store",
        "column-store",
        "SAM-en",
    ]);
    table.numeric();
    println!("HTAP mix on commodity DRAM vs SAM-en (cycles, lower is better)\n");
    for (label, q) in queries {
        let w = Workload::new(q, plan);
        let row = run_query(&w, &commodity(), Store::Row).result.cycles;
        let col = run_query(&w, &commodity(), Store::Column).result.cycles;
        let sam = run_query(&w, &sam_en(), Store::Row).result.cycles;
        table.row(vec![
            label.into(),
            q.name(),
            row.to_string(),
            col.to_string(),
            sam.to_string(),
        ]);
    }
    println!("{table}");
    println!("A fixed store wins one side of HTAP and loses the other; SAM-en");
    println!("keeps the row-store layout (fast transactions) and uses stride");
    println!("bursts to match column-store analytics — Section 3.1's argument.");
}
