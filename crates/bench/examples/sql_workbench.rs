//! SQL in, answers and speedups out: the database substrate end-to-end.
//!
//! ```text
//! cargo run --release --example sql_workbench
//! ```
//!
//! Parses Table 3's literal SQL, executes it against materialized tables
//! for real answers, and measures how much faster SAM-en's stride mode
//! serves the same statement.

use sam::designs::sam_en;
use sam::layout::Store;
use sam_imdb::exec::{run_baseline, run_query, speedup, Workload};
use sam_imdb::plan::PlanConfig;
use sam_imdb::sql::parse;
use sam_imdb::values::{Answer, Database};

fn main() {
    let mut plan = PlanConfig::default_scale();
    plan.ta_records = 4096;
    plan.tb_records = 16384;
    let mut db = Database::generate(&plan);

    let statements = [
        "SELECT SUM(f9) FROM Ta WHERE f10 > x",
        "SELECT AVG(f1) FROM Tb WHERE f10 > x",
        "SELECT f3, f4 FROM Ta WHERE f1 > x AND f9 < y",
        "UPDATE Tb SET f9 = x WHERE f10 = y",
    ];

    for sql in statements {
        let query = parse(sql).expect("Table 3 dialect");
        let answer = db.execute(query);
        let summary = match &answer {
            Answer::Sum(s) => format!("SUM = {s:#x}"),
            Answer::Avgs(a) => format!(
                "AVG = {:.1} (x{} fields)",
                a.first().copied().unwrap_or(0.0),
                a.len()
            ),
            Answer::Rows(r) => format!("{} rows", r.len()),
            Answer::Modified(n) => format!("{n} rows modified"),
        };
        let w = Workload::new(query, plan);
        let base = run_baseline(&w);
        let sam = run_query(&w, &sam_en(), Store::Row);
        println!("{sql}");
        println!("  -> {query}: {summary}");
        println!(
            "  -> baseline {} cycles, SAM-en {} cycles: {:.2}x\n",
            base.result.cycles,
            sam.result.cycles,
            speedup(&base, &sam)
        );
    }
    println!("The parser, the value-level executor, and the timing simulator all");
    println!("agree on which records each statement touches (tests/consistency.rs).");
}
