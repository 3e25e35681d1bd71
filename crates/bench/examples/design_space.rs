//! Design-space exploration: strided granularity and the SAM-en options.
//!
//! ```text
//! cargo run --release --example design_space
//! ```
//!
//! Two explorations the paper discusses but a downstream adopter would want
//! to rerun on their own workload:
//!
//! 1. Granularity (Section 4.4): 16-bit/8-bit/4-bit per chip trade burst
//!    efficiency against chipkill symbol size (Figure 14(b)).
//! 2. SAM-en's two options (Section 4.3): fine-grained activation (power)
//!    and the 2D I/O buffer (layout/critical-word-first) toggled
//!    independently — the ablation behind the SAM-en design point.

use sam::design::Granularity;
use sam::designs::{sam_en, sam_en_no_2d, sam_en_no_fga, sam_io};
use sam::layout::Store;
use sam::system::SystemConfig;
use sam_imdb::exec::{run_baseline, run_query, speedup, Workload};
use sam_imdb::plan::PlanConfig;
use sam_imdb::query::Query;
use sam_power::{breakdown, ActivityCounts, PowerParams};

fn main() {
    let mut plan = PlanConfig::default_scale();
    plan.ta_records = 8192;

    println!("Granularity sweep on Q3 (Figure 14(b))\n");
    for gran in [Granularity::Bits16, Granularity::Bits8, Granularity::Bits4] {
        let sys = SystemConfig {
            granularity: gran,
            ..Default::default()
        };
        let w = Workload::new(Query::Q3, plan).with_system(sys);
        let base = run_baseline(&w);
        let run = run_query(&w, &sam_en(), Store::Row);
        println!(
            "  {gran}: gathers {} lines/burst -> {:.2}x speedup",
            gran.gather(),
            speedup(&base, &run)
        );
    }

    println!("\nSAM-en option ablation on Q3 (Section 4.3)\n");
    let w = Workload::new(Query::Q3, plan);
    let base = run_baseline(&w);
    for design in [sam_io(), sam_en_no_fga(), sam_en_no_2d(), sam_en()] {
        let run = run_query(&w, &design, Store::Row);
        let params = PowerParams::for_design(&design);
        let activity = ActivityCounts::from_run(&run.result, 8);
        let power = breakdown(&params, &design, &activity);
        println!(
            "  {:>13}: {:.2}x speedup, {:>6.1} mW, critical-word-first: {}",
            design.name,
            speedup(&base, &run),
            power.total_mw(),
            design.critical_word_first
        );
    }
    println!("\nOption 1 (fine-grained activation) buys back SAM-IO's over-fetch");
    println!("power; option 2 (2D buffer) restores the default codeword layout");
    println!("and critical-word-first. Together they are SAM-en.");
}
