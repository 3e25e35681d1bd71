//! Figure 13: power breakdown (background / ACT / RD-WR) and normalized
//! energy efficiency per design, grouped by query class.

use sam::design::Design;
use sam::designs::commodity;
use sam::layout::Store;
use sam_imdb::exec::Workload;
use sam_imdb::query::Query;
use sam_power::{breakdown, energy_uj, ActivityCounts, PowerParams};
use sam_util::table::TextTable;

use crate::experiment::{Ctx, Rendered, Results, Run};
use crate::figure12_designs;
use crate::metrics::RunMetrics;

fn groups() -> [(&'static str, Vec<Query>); 4] {
    [
        (
            "Read (Q1-Q10)",
            vec![
                Query::Q1,
                Query::Q2,
                Query::Q3,
                Query::Q4,
                Query::Q5,
                Query::Q6,
                Query::Q7,
                Query::Q8,
                Query::Q9,
                Query::Q10,
            ],
        ),
        ("Write (Q11,Q12)", vec![Query::Q11, Query::Q12]),
        (
            "Read (Qs1-Qs4)",
            vec![Query::Qs1, Query::Qs2, Query::Qs3, Query::Qs4],
        ),
        ("Write (Qs5,Qs6)", vec![Query::Qs5, Query::Qs6]),
    ]
}

fn designs() -> Vec<Design> {
    let mut designs = vec![commodity()];
    designs.extend(figure12_designs());
    designs
}

/// One run per (group, design, query), the commodity baseline first in
/// each group. Per-query costs are very uneven — Q1-Q10 (and the joins in
/// particular) dominate — so the cost-hint weights keep a heavy pair from
/// landing last on one worker and gating the whole sweep.
pub fn plan(ctx: &Ctx) -> Vec<Run> {
    let mut runs = Vec::new();
    for (_, queries) in groups() {
        for design in designs() {
            for q in &queries {
                let label = format!("{}/{}/Row", q.name(), design.name);
                let workload = Workload::new(*q, ctx.args.plan).with_system(ctx.system);
                runs.push(Run::query(label, workload, design.clone(), Store::Row));
            }
        }
    }
    runs
}

/// The power/efficiency tables plus `results/fig13.json`.
pub fn render(ctx: &Ctx, results: Results) -> Rendered {
    let plan = ctx.args.plan;
    let gather = ctx.gather();
    let designs = designs();
    let runs = results.into_queries();
    println!(
        "Figure 13: average power (mW) by component and normalized energy efficiency\n\
         (Ta rows = {}, Tb rows = {})\n",
        plan.ta_records, plan.tb_records
    );
    let mut report = ctx.report();
    let mut next = 0usize;
    for (label, queries) in &groups() {
        // The commodity baseline is the first design, so its runs lead
        // the group's block — remember them for speedup metrics.
        let group_runs = &runs[next..next + designs.len() * queries.len()];
        next += group_runs.len();
        let baseline_runs = &group_runs[..queries.len()];

        let mut power_table = TextTable::new(vec!["design", "background", "ACT", "RD/WR", "total"]);
        power_table.numeric();
        let mut eff_table = TextTable::new(vec!["design", "energy-efficiency"]);
        eff_table.numeric();
        let mut baseline_energy = 0.0;
        for (di, design) in designs.iter().enumerate() {
            let params = PowerParams::for_design(design);
            let mut bg = 0.0;
            let mut act = 0.0;
            let mut rdwr = 0.0;
            let mut energy = 0.0;
            for (qi, run) in group_runs[di * queries.len()..(di + 1) * queries.len()]
                .iter()
                .enumerate()
            {
                let activity = ActivityCounts::from_run(&run.result, gather);
                let b = breakdown(&params, design, &activity);
                bg += b.background_mw;
                act += b.act_mw;
                rdwr += b.rdwr_mw;
                energy += energy_uj(&params, design, &activity);
                let speedup = baseline_runs[qi].result.cycles as f64 / run.result.cycles as f64;
                report
                    .runs
                    .push(RunMetrics::from_run(run, design, speedup, gather));
            }
            let n = queries.len() as f64;
            let name = if design.name == "commodity" {
                "baseline(row)"
            } else {
                design.name
            };
            power_table.row_f64(name, &[bg / n, act / n, rdwr / n, (bg + act + rdwr) / n], 1);
            if design.name == "commodity" {
                baseline_energy = energy;
            }
            eff_table.row_f64(name, &[baseline_energy / energy], 2);
        }
        println!("{label}: power breakdown (mW)\n{power_table}");
        println!("{label}: energy efficiency (baseline energy / design energy)\n{eff_table}");
    }
    report.into()
}
