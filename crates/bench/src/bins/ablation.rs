//! Ablation studies behind the design choices DESIGN.md calls out:
//! SAM-en option decomposition, MLP-window sensitivity, and stream
//! prefetching under a narrow MLP window.

use sam::designs::{commodity, sam_en, sam_en_no_2d, sam_en_no_fga, sam_io};
use sam::layout::Store;
use sam::system::SystemConfig;
use sam_imdb::exec::Workload;
use sam_imdb::query::Query;
use sam_power::{breakdown, ActivityCounts, PowerParams};
use sam_util::table::TextTable;

use crate::experiment::{Ctx, Rendered, Results, Run};
use crate::metrics::RunMetrics;

const MLPS: [usize; 4] = [4, 8, 16, 32];
const PREFETCH_DEGREES: [u32; 3] = [0, 2, 4];

fn option_designs() -> [sam::design::Design; 4] {
    [sam_io(), sam_en_no_fga(), sam_en_no_2d(), sam_en()]
}

/// All three studies' 19 runs as one flat plan; the render slices them
/// back out in plan order. The studies run on the Table 2 system, not the
/// command line's scheduler knobs.
pub fn plan(ctx: &Ctx) -> Vec<Run> {
    let plan = ctx.args.plan;
    let sys = SystemConfig::default();
    let w = Workload::new(Query::Q3, plan).with_system(sys);
    let mut runs = vec![Run::query("Q3/commodity/Row", w, commodity(), Store::Row)];
    for d in option_designs() {
        runs.push(Run::query(format!("Q3/{}/Row", d.name), w, d, Store::Row));
    }
    for mlp in MLPS {
        let w = Workload::new(Query::Q3, plan).with_system(SystemConfig { mlp, ..sys });
        runs.push(Run::query(
            format!("Q3/commodity mlp={mlp}"),
            w,
            commodity(),
            Store::Row,
        ));
        runs.push(Run::query(
            format!("Q3/SAM-en mlp={mlp}"),
            w,
            sam_en(),
            Store::Row,
        ));
    }
    for degree in PREFETCH_DEGREES {
        let s = SystemConfig {
            mlp: 2,
            prefetch_degree: degree,
            ..sys
        };
        let w = Workload::new(Query::Qs3, plan).with_system(s);
        runs.push(Run::query(
            format!("Qs3/commodity pf={degree}"),
            w,
            commodity(),
            Store::Row,
        ));
        runs.push(Run::query(
            format!("Qs3/SAM-en pf={degree}"),
            w,
            sam_en(),
            Store::Row,
        ));
    }
    runs
}

/// The three ablation sections plus `results/ablation.json`.
pub fn render(ctx: &Ctx, results: Results) -> Rendered {
    let gather = SystemConfig::default().granularity.gather() as u64;
    let runs = results.into_queries();
    let option_designs = option_designs();
    let mut report = ctx.report();

    println!("Ablation 1: SAM-en option decomposition on Q3 (Section 4.3)\n");
    let base = &runs[0];
    report
        .runs
        .push(RunMetrics::from_run(base, &commodity(), 1.0, gather));
    let mut t = TextTable::new(vec!["design", "speedup", "power (mW)", "CWF", "over-fetch"]);
    t.numeric();
    for (d, run) in option_designs.iter().zip(&runs[1..5]) {
        let params = PowerParams::for_design(d);
        let act = ActivityCounts::from_run(&run.result, gather);
        let power = breakdown(&params, d, &act);
        let speedup = base.result.cycles as f64 / run.result.cycles as f64;
        report
            .runs
            .push(RunMetrics::from_run(run, d, speedup, gather));
        t.row(vec![
            d.name.to_string(),
            format!("{speedup:.2}"),
            format!("{:.0}", power.total_mw()),
            if d.critical_word_first {
                "yes".into()
            } else {
                "no".into()
            },
            format!("{:.0}x", d.power.stride_overfetch),
        ]);
    }
    println!("{t}");
    println!("Option 1 (fine-grained activation) removes the over-fetch power;");
    println!("option 2 (2D buffer) restores critical-word-first. Speedups are");
    println!("within noise of each other — the options trade power and layout,");
    println!("not bandwidth (Section 4.3).\n");

    println!("Ablation 2: MLP-window sensitivity of the Q3 speedup\n");
    let mut t = TextTable::new(vec![
        "MLP/core",
        "baseline cycles",
        "SAM-en cycles",
        "speedup",
    ]);
    t.numeric();
    for (i, mlp) in MLPS.iter().enumerate() {
        let b = &runs[5 + 2 * i];
        let r = &runs[5 + 2 * i + 1];
        let speedup = b.result.cycles as f64 / r.result.cycles as f64;
        report.runs.push(RunMetrics::from_result(
            format!("Q3 mlp={mlp}"),
            &commodity(),
            Store::Row,
            &b.result,
            1.0,
            gather,
        ));
        report.runs.push(RunMetrics::from_result(
            format!("Q3 mlp={mlp}"),
            &sam_en(),
            Store::Row,
            &r.result,
            speedup,
            gather,
        ));
        t.row(vec![
            mlp.to_string(),
            b.result.cycles.to_string(),
            r.result.cycles.to_string(),
            format!("{speedup:.2}"),
        ]);
    }
    println!("{t}");
    println!("Both designs saturate their bottlenecks at modest windows (the");
    println!("baseline the bus, SAM the gathered-burst stream), so the speedup");
    println!("is stable across realistic MLP — until the window oversubscribes");
    println!("the controller's read queue (4 cores x 32 > 96 entries), where");
    println!("queue-full stalls start costing SAM's latency-sensitive bursts.");

    println!("\nAblation 3: next-line stream prefetching on Qs3 under a narrow");
    println!("MLP window (2 outstanding misses/core: a latency-bound core)\n");
    let mut t = TextTable::new(vec!["prefetch degree", "baseline cycles", "SAM-en cycles"]);
    t.numeric();
    for (i, degree) in PREFETCH_DEGREES.iter().enumerate() {
        let b = &runs[13 + 2 * i];
        let r = &runs[13 + 2 * i + 1];
        report.runs.push(RunMetrics::from_result(
            format!("Qs3 pf={degree}"),
            &commodity(),
            Store::Row,
            &b.result,
            1.0,
            gather,
        ));
        report.runs.push(RunMetrics::from_result(
            format!("Qs3 pf={degree}"),
            &sam_en(),
            Store::Row,
            &r.result,
            b.result.cycles as f64 / r.result.cycles as f64,
            gather,
        ));
        t.row(vec![
            degree.to_string(),
            b.result.cycles.to_string(),
            r.result.cycles.to_string(),
        ]);
    }
    println!("{t}");
    println!("With a narrow window, sequential whole-tuple scans are latency-bound");
    println!("and a next-line prefetcher recovers the baseline's loss. SAM-en does");
    println!("NOT benefit: its grouped record alignment (Figure 11(a)) interleaves");
    println!("a tuple's lines at stride K, so a next-line detector never fires — a");
    println!("stride-aware prefetcher would be needed. At Table 2's MLP both scans");
    println!("are bandwidth-bound anyway, which is why the main configuration");
    println!("leaves prefetching off.");
    report.into()
}
