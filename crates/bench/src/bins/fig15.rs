//! Figure 15: parametric arithmetic/aggregate query sweeps over
//! selectivity, projectivity, and record size, for RC-NVM-wd,
//! GS-DRAM-ecc, SAM-en, and the ideal store.

use sam::design::Design;
use sam::designs::{gs_dram_ecc, rc_nvm_wd, sam_en};
use sam_imdb::plan::PlanConfig;
use sam_imdb::query::Query;
use sam_util::table::TextTable;

use crate::experiment::{Ctx, Rendered, Results, Run};
use crate::metrics::MetricsReport;
use crate::{assemble_grid_chunk, grid_chunk_len, grid_runs, GridRow};

fn designs() -> Vec<Design> {
    vec![rc_nvm_wd(), gs_dram_ecc(), sam_en()]
}

const SELECTIVITIES: [f64; 7] = [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0];
const PROJECTIVITIES: [u32; 7] = [4, 8, 16, 32, 64, 96, 128];

/// One panel's rendering plan: the heading, the table's first column
/// header, and one (label, query, plan) row per swept point.
struct Panel {
    heading: String,
    first_column: &'static str,
    labels: Vec<String>,
    cases: Vec<(Query, PlanConfig)>,
}

fn sweep_selectivity(label: &str, projectivity: u32, aggregate: bool, plan: PlanConfig) -> Panel {
    let heading = format!(
        "Figure 15({label}): speedup vs selectivity ({projectivity} fields projected{})\n",
        if aggregate { ", aggregate" } else { "" }
    );
    let mut labels = Vec::new();
    let mut cases = Vec::new();
    for sel in SELECTIVITIES {
        let q = if aggregate {
            Query::Aggregate {
                projectivity,
                selectivity: sel,
            }
        } else {
            Query::Arithmetic {
                projectivity,
                selectivity: sel,
            }
        };
        labels.push(format!("{:.0}%", sel * 100.0));
        cases.push((q, plan));
    }
    Panel {
        heading,
        first_column: "selectivity",
        labels,
        cases,
    }
}

fn sweep_projectivity(label: &str, selectivity: f64, aggregate: bool, plan: PlanConfig) -> Panel {
    let heading = format!(
        "Figure 15({label}): speedup vs projectivity ({:.0}% records selected{})\n",
        selectivity * 100.0,
        if aggregate { ", aggregate" } else { "" }
    );
    let mut labels = Vec::new();
    let mut cases = Vec::new();
    for proj in PROJECTIVITIES {
        let q = if aggregate {
            Query::Aggregate {
                projectivity: proj,
                selectivity,
            }
        } else {
            Query::Arithmetic {
                projectivity: proj,
                selectivity,
            }
        };
        labels.push(proj.to_string());
        cases.push((q, plan));
    }
    Panel {
        heading,
        first_column: "fields",
        labels,
        cases,
    }
}

fn sweep_record_size(plan: PlanConfig) -> Panel {
    let heading =
        "Figure 15(i): speedup vs record size (100% selected, all fields projected)\n".to_string();
    let mut labels = Vec::new();
    let mut cases = Vec::new();
    for fields in [2u32, 4, 8, 16, 32, 64, 128, 256] {
        let mut p = plan;
        p.ta_fields = fields;
        // Keep total data volume roughly constant across record sizes.
        p.ta_records = (plan.ta_records * 128 / fields as u64).max(1024);
        let q = Query::Arithmetic {
            projectivity: fields,
            selectivity: 1.0,
        };
        labels.push(format!("{}B", fields as u64 * 8));
        cases.push((q, p));
    }
    Panel {
        heading,
        first_column: "record",
        labels,
        cases,
    }
}

fn build_panel(p: &str, plan: PlanConfig) -> Panel {
    match p {
        "a" => sweep_selectivity("a", 8, false, plan),
        "b" => sweep_selectivity("b", 64, false, plan),
        "c" => sweep_selectivity("c", 128, false, plan),
        "d" => sweep_projectivity("d", 0.1, false, plan),
        "e" => sweep_projectivity("e", 0.5, false, plan),
        "f" => sweep_projectivity("f", 1.0, false, plan),
        "g" => sweep_selectivity("g", 8, true, plan),
        "h" => sweep_projectivity("h", 1.0, true, plan),
        "i" => sweep_record_size(plan),
        _ => unreachable!(),
    }
}

fn panels(ctx: &Ctx) -> Vec<Panel> {
    ctx.panels()
        .into_iter()
        .map(|p| build_panel(p, ctx.args.plan))
        .collect()
}

/// Every selected panel's parametric sweep points, in panel order.
pub fn plan(ctx: &Ctx) -> Vec<Run> {
    let mut runs = Vec::new();
    for panel in panels(ctx) {
        for (q, p) in panel.cases {
            runs.extend(grid_runs(q, p, ctx.system, &designs()));
        }
    }
    runs
}

/// Each selected panel's table plus `results/fig15.json`.
pub fn render(ctx: &Ctx, results: Results) -> Rendered {
    let ds = designs();
    let chunk = grid_chunk_len(&ds);
    let runs = results.into_queries();
    let mut report = ctx.report();
    let mut offset = 0usize;
    for panel in panels(ctx) {
        println!("{}", panel.heading);
        let count = panel.cases.len() * chunk;
        let rows = runs[offset..offset + count]
            .chunks(chunk)
            .map(|c| assemble_grid_chunk(c, &ds, ctx.gather()));
        offset += count;
        render_panel(&panel, rows, &mut report);
    }
    report.into()
}

/// Prints one panel's table from its assembled grid rows.
fn render_panel(panel: &Panel, rows: impl Iterator<Item = GridRow>, report: &mut MetricsReport) {
    let mut table = TextTable::new(vec![
        panel.first_column,
        "RC-NVM-wd",
        "GS-DRAM-ecc",
        "SAM-en",
        "ideal",
    ]);
    table.numeric();
    for (label, (row, metrics)) in panel.labels.iter().zip(rows) {
        let mut values: Vec<f64> = row.speedups.iter().map(|(_, s)| *s).collect();
        values.push(row.ideal);
        table.row_f64(label.clone(), &values, 2);
        report.runs.extend(metrics);
    }
    println!("{table}");
}
