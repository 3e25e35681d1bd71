//! Figure 16: the DRAM-as-cache hybrid topology — cycles, hit rate,
//! write-policy traffic, and split energy for every (cache-block size ×
//! write policy) point, normalized per query to the flat RC-NVM-wd
//! baseline.

use sam_util::table::TextTable;

use crate::experiment::{Ctx, Rendered, Results, Run};
use crate::fig16::{assemble_chunk, chunk_len, grid_runs, queries, Fig16Report};
use crate::metrics::RunMetrics;

/// Per query, the flat baseline plus every hybrid point. Under
/// `--checked` the executor shadows the flat runs with one oracle and
/// every hybrid point with two, one per device stream.
pub fn plan(ctx: &Ctx) -> Vec<Run> {
    queries()
        .into_iter()
        .flat_map(|q| grid_runs(q, ctx.args.plan, ctx.system))
        .collect()
}

/// The table plus `results/fig16.json`.
pub fn render(ctx: &Ctx, results: Results) -> Rendered {
    let args = ctx.args;
    let mut report = Fig16Report::new(args.plan, args.checked, args.has_flag("--per-core"));
    let violations = results.violations.clone();
    let runs = results.into_queries();
    let mut table = TextTable::new(vec![
        "config",
        "cycles",
        "speedup",
        "hit%",
        "dirty-evict",
        "wr-through",
        "energy (uJ)",
    ]);
    table.numeric();
    let chunks = runs.chunks(chunk_len()).zip(violations.chunks(chunk_len()));
    for (q, (chunk, violations)) in queries().iter().zip(chunks) {
        let (mut baseline, mut points) = assemble_chunk(chunk, *q, ctx.gather());
        baseline.check_violations = violations[0];
        for (p, v) in points.iter_mut().zip(&violations[1..]) {
            p.run.check_violations = *v;
        }
        baseline_row(&mut table, &q.name(), &baseline);
        for p in &points {
            table.row(vec![
                p.label.clone(),
                p.run.cycles.to_string(),
                format!("{:.2}", p.run.speedup),
                format!("{:.1}", 100.0 * p.summary.hit_rate()),
                p.summary.dirty_evictions.to_string(),
                p.summary.writethroughs.to_string(),
                format!("{:.1}", p.run.energy_uj),
            ]);
        }
        report.baselines.push((q.name(), baseline));
        report.points.extend(points);
    }

    println!(
        "Figure 16: DRAM-cache hybrid over RC-NVM-wd (Ta rows = {}, Tb rows = {}, DDR4 front cache){}\n",
        args.plan.ta_records,
        args.plan.tb_records,
        if args.checked { " [checked]" } else { "" }
    );
    println!("{table}");
    report.to_json().into()
}

fn baseline_row(table: &mut TextTable, query: &str, baseline: &RunMetrics) {
    table.row(vec![
        format!("{query}/flat"),
        baseline.cycles.to_string(),
        format!("{:.2}", baseline.speedup),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{:.1}", baseline.energy_uj),
    ]);
}
