//! Figure 12: speedup (normalized to the row-store commodity baseline)
//! of every design on the Q and Qs query sets, with geometric means.

use sam_imdb::query::Query;
use sam_util::table::TextTable;

use crate::experiment::{Ctx, Rendered, Results, Run};
use crate::{assemble_grid_chunk, figure12_designs, gmean, grid_chunk_len, grid_runs, SpeedupRow};

fn groups() -> [(&'static str, Vec<Query>); 2] {
    [
        ("Q queries (prefer column store)", Query::q_set().to_vec()),
        ("Qs queries (prefer row store)", Query::qs_set().to_vec()),
    ]
}

/// The 162-run grid: per query, the baseline, every design, and the
/// column-store run behind the ideal reference.
pub fn plan(ctx: &Ctx) -> Vec<Run> {
    let designs = figure12_designs();
    groups()
        .into_iter()
        .flat_map(|(_, queries)| queries)
        .flat_map(|q| grid_runs(q, ctx.args.plan, ctx.system, &designs))
        .collect()
}

/// The two speedup tables plus `results/fig12.json`.
pub fn render(ctx: &Ctx, results: Results) -> Rendered {
    let plan = ctx.args.plan;
    println!(
        "Figure 12: speedup vs row-store baseline (Ta rows = {}, Tb rows = {}, SSC-DSD 4-bit granularity){}\n",
        plan.ta_records,
        plan.tb_records,
        if ctx.args.checked { " [checked]" } else { "" }
    );
    let designs = figure12_designs();
    let chunk = grid_chunk_len(&designs);
    let mut report = ctx.report();
    let violations = results.violations.clone();
    let runs = results.into_queries();
    let mut offset = 0;
    for (label, queries) in groups() {
        let count = queries.len() * chunk;
        let rows = runs[offset..offset + count]
            .chunks(chunk)
            .map(|c| {
                let (row, metrics) = assemble_grid_chunk(c, &designs, ctx.gather());
                report.runs.extend(metrics);
                row
            })
            .collect();
        offset += count;
        print_group(label, rows);
    }
    for (metrics, v) in report.runs.iter_mut().zip(violations) {
        metrics.check_violations = v;
    }
    report.into()
}

fn print_group(label: &str, rows: Vec<SpeedupRow>) {
    let mut header = vec!["query".to_string()];
    let mut table_rows = Vec::new();
    let mut columns: Vec<Vec<f64>> = Vec::new();
    for (qi, row) in rows.into_iter().enumerate() {
        if qi == 0 {
            header.extend(row.speedups.iter().map(|(n, _)| n.clone()));
            header.push("ideal".into());
            columns = vec![Vec::new(); row.speedups.len() + 1];
        }
        let mut values: Vec<f64> = row.speedups.iter().map(|(_, s)| *s).collect();
        values.push(row.ideal);
        for (ci, v) in values.iter().enumerate() {
            columns[ci].push(*v);
        }
        table_rows.push((row.query, values));
    }
    let mut table = TextTable::new(header);
    table.numeric();
    for (name, values) in table_rows {
        table.row_f64(name, &values, 2);
    }
    let gmeans: Vec<f64> = columns.iter().map(|c| gmean(c)).collect();
    table.row_f64("Gmean", &gmeans, 2);
    println!("{label}\n{table}");
}
