//! The reliability experiment behind Table 1's "Reliability" row:
//! chipkill fault injection under each design's codeword layout.

use sam::designs::all_designs;
use sam_util::table::TextTable;

use crate::experiment::{Ctx, Job, Rendered, Results, Run};

/// One injection campaign per design, weighted by `--trials`.
pub fn plan(ctx: &Ctx) -> Vec<Run> {
    let trials = ctx.args.trials;
    all_designs()
        .into_iter()
        .map(|design| Run {
            label: design.name.to_string(),
            weight: trials,
            job: Job::Campaign {
                layout: design.codeword_layout,
                trials: trials as usize,
                seed: 0xC41F,
            },
        })
        .collect()
}

/// The campaign table plus `results/reliability.json`.
pub fn render(ctx: &Ctx, results: Results) -> Rendered {
    let trials = ctx.args.trials;
    let reports = results.into_campaigns();
    println!(
        "Chipkill fault-injection campaign: {trials} corruption patterns per chip x 18 chips\n"
    );
    let mut table = TextTable::new(vec![
        "design",
        "layout",
        "corrected",
        "detected",
        "silent",
        "unprotected",
        "chipkill-safe",
    ]);
    for (design, report) in all_designs().into_iter().zip(&reports) {
        table.row(vec![
            design.name.to_string(),
            format!("{:?}", design.codeword_layout),
            report.corrected.to_string(),
            report.detected.to_string(),
            report.silent.to_string(),
            report.unprotected.to_string(),
            if report.chipkill_safe() {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    println!("{table}");
    println!("GS-DRAM's strided gather cannot co-fetch ECC symbols (Section 3.3.1):");
    println!("its strided accesses run unprotected, while every SAM layout corrects");
    println!("all whole-chip failures (Sections 4.1-4.3).");
    ctx.report().into()
}
