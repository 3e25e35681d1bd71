//! Figure 14: (a) substrate swap NVM<->DRAM, (b) strided granularity
//! sweep, (c) area/storage overhead.

use sam::design::{Design, Granularity};
use sam::designs::{gs_dram_ecc, rc_nvm_wd, sam_en, sam_io, sam_sub};
use sam::system::SystemConfig;
use sam_dram::timing::Substrate;
use sam_imdb::exec::QueryRun;
use sam_imdb::query::Query;
use sam_util::table::TextTable;

use crate::experiment::{Ctx, Rendered, Results, Run};
use crate::metrics::MetricsReport;
use crate::{assemble_grid_chunk, gmean, grid_chunk_len, grid_runs};

fn all_queries() -> Vec<Query> {
    let mut qs = Query::q_set().to_vec();
    qs.extend(Query::qs_set());
    qs
}

/// One simulated table cell: a query set run against one design under
/// one system configuration. Panels that simulate are flattened into an
/// ordered list of cells so the whole figure is one sweep.
struct Cell {
    queries: Vec<Query>,
    system: SystemConfig,
    design: Design,
}

impl Cell {
    fn run_count(&self) -> usize {
        self.queries.len() * grid_chunk_len(std::slice::from_ref(&self.design))
    }
}

fn panel_a_rows() -> Vec<Design> {
    vec![rc_nvm_wd(), sam_sub(), sam_io(), sam_en()]
}

fn panel_b_rows() -> Vec<Design> {
    vec![rc_nvm_wd(), gs_dram_ecc(), sam_en()]
}

fn panel_cells(panel: &str, system: SystemConfig) -> Vec<Cell> {
    match panel {
        "a" => panel_a_rows()
            .into_iter()
            .flat_map(|base| {
                [Substrate::Rram, Substrate::Dram].map(|substrate| Cell {
                    queries: all_queries(),
                    system,
                    design: base.clone().with_substrate(substrate),
                })
            })
            .collect(),
        "b" => panel_b_rows()
            .into_iter()
            .flat_map(|design| {
                [Granularity::Bits16, Granularity::Bits8, Granularity::Bits4].map(|gran| {
                    let mut sys = system;
                    sys.granularity = gran;
                    Cell {
                        queries: Query::q_set().to_vec(),
                        system: sys,
                        design: design.clone(),
                    }
                })
            })
            .collect(),
        "c" => Vec::new(),
        _ => unreachable!(),
    }
}

/// Assembles one cell's completed runs into its gmean speedup, feeding
/// the per-run metrics into the report.
fn cell_gmean(cell: &Cell, runs: &[QueryRun], report: &mut MetricsReport) -> f64 {
    let designs = std::slice::from_ref(&cell.design);
    let gather = cell.system.granularity.gather() as u64;
    let mut speedups = Vec::new();
    for chunk in runs.chunks(grid_chunk_len(designs)) {
        let (row, metrics) = assemble_grid_chunk(chunk, designs, gather);
        speedups.push(row.speedups[0].1);
        report.runs.extend(metrics);
    }
    gmean(&speedups)
}

fn panel_c() {
    println!("Figure 14(c): area and storage overhead\n");
    let mut table = TextTable::new(vec!["design", "area", "storage", "extra metal layers"]);
    table.numeric();
    for r in sam_area::report() {
        table.row(vec![
            r.name.to_string(),
            format!("{:.4}", r.area),
            format!("{:.3}", r.storage),
            r.extra_metal_layers.to_string(),
        ]);
    }
    println!("{table}");
}

/// Every simulated cell of the selected panels, in panel order.
pub fn plan(ctx: &Ctx) -> Vec<Run> {
    let mut runs = Vec::new();
    for cell in ctx.panels().iter().flat_map(|p| panel_cells(p, ctx.system)) {
        for q in &cell.queries {
            let one = std::slice::from_ref(&cell.design);
            runs.extend(grid_runs(*q, ctx.args.plan, cell.system, one));
        }
    }
    runs
}

/// The selected panels plus `results/fig14.json`.
pub fn render(ctx: &Ctx, results: Results) -> Rendered {
    let panels = ctx.panels();
    let runs = results.into_queries();
    let mut report = ctx.report();
    let mut cells = panels.iter().flat_map(|p| panel_cells(p, ctx.system));
    let mut offset = 0usize;
    let mut next_gmean = |report: &mut MetricsReport| {
        let cell = cells.next().expect("cell list covers every panel table");
        let count = cell.run_count();
        let g = cell_gmean(&cell, &runs[offset..offset + count], report);
        offset += count;
        g
    };
    for p in &panels {
        match *p {
            "a" => {
                println!("Figure 14(a): all-query gmean speedup under each substrate\n");
                let mut table = TextTable::new(vec!["design", "NVM", "DRAM"]);
                table.numeric();
                for base in panel_a_rows() {
                    let row = [next_gmean(&mut report), next_gmean(&mut report)];
                    table.row_f64(base.name, &row, 2);
                }
                println!("{table}");
            }
            "b" => {
                println!("Figure 14(b): Q-query gmean speedup vs strided granularity\n");
                let mut table = TextTable::new(vec!["design", "16-bit", "8-bit", "4-bit"]);
                table.numeric();
                for design in panel_b_rows() {
                    let row = [
                        next_gmean(&mut report),
                        next_gmean(&mut report),
                        next_gmean(&mut report),
                    ];
                    table.row_f64(design.name, &row, 2);
                }
                println!("{table}");
            }
            "c" => panel_c(),
            _ => unreachable!(),
        }
    }
    report.into()
}
