//! Tables 1-3: qualitative/config printouts with zero simulation runs.
//!
//! Each table still goes through the experiment driver with an empty plan
//! so its zero-run `results/<bin>.json` report lints like every other
//! binary's.

use sam::designs::{gs_dram, rc_nvm_bit, rc_nvm_wd, sam_en, sam_io, sam_sub};
use sam::properties::properties;
use sam::system::CPU_MHZ;
use sam_dram::device::DeviceConfig;
use sam_imdb::query::Query;
use sam_memctrl::controller::ControllerConfig;
use sam_util::table::TextTable;

use crate::experiment::{Ctx, Rendered, Results, Run};

/// The tables simulate nothing.
pub fn plan(_ctx: &Ctx) -> Vec<Run> {
    Vec::new()
}

/// Table 1: qualitative comparison of designs for strided access.
pub fn table1(ctx: &Ctx, _results: Results) -> Rendered {
    let designs = [
        rc_nvm_bit(),
        rc_nvm_wd(),
        gs_dram(),
        sam_sub(),
        sam_io(),
        sam_en(),
    ];
    let mut header = vec!["property".to_string()];
    header.extend(designs.iter().map(|d| d.name.to_string()));
    let mut table = TextTable::new(header);

    let props: Vec<_> = designs.iter().map(properties).collect();
    let yes_no = |b: bool| if b { "v".to_string() } else { "x".to_string() };

    let rows: Vec<(&str, Vec<String>)> = vec![
        (
            "Database Alignment",
            props.iter().map(|p| yes_no(p.database_alignment)).collect(),
        ),
        (
            "ISA Extension",
            props.iter().map(|p| yes_no(p.isa_extension)).collect(),
        ),
        (
            "Sector/MDA Cache",
            props.iter().map(|p| yes_no(p.sector_cache)).collect(),
        ),
        (
            "Memory Controller",
            props
                .iter()
                .map(|p| p.memory_controller.to_string())
                .collect(),
        ),
        (
            "Command Interface",
            props
                .iter()
                .map(|p| p.command_interface.to_string())
                .collect(),
        ),
        (
            "Critical-Word-First",
            props
                .iter()
                .map(|p| p.critical_word_first.to_string())
                .collect(),
        ),
        (
            "Performance",
            props.iter().map(|p| p.performance.to_string()).collect(),
        ),
        (
            "Power Consumption",
            props.iter().map(|p| p.power.to_string()).collect(),
        ),
        (
            "Area Overhead",
            props.iter().map(|p| p.area.to_string()).collect(),
        ),
        (
            "Reliability",
            props.iter().map(|p| p.reliability.to_string()).collect(),
        ),
        (
            "Mode Switch Delay",
            props.iter().map(|p| p.mode_switch.to_string()).collect(),
        ),
    ];
    for (name, cells) in rows {
        let mut row = vec![name.to_string()];
        row.extend(cells);
        table.row(row);
    }
    println!("Table 1: comparison of designs for strided access\n");
    println!("{table}");
    println!("v: good/unmodified   o: fair/slightly modified   x: poor/modified");
    ctx.report().into()
}

/// Table 2: simulated system parameters, with the scheduler-knob
/// overrides applied to the controller rows.
pub fn table2(ctx: &Ctx, _results: Results) -> Rendered {
    let h = ctx.system.hierarchy;
    let dram = DeviceConfig::ddr4_server();
    let rram = DeviceConfig::rram_server();
    let ctrl = ctx.system.sched.apply(ControllerConfig::default());

    println!("Table 2: simulated system parameters\n");
    println!("Processor");
    println!(
        "  {} cores, x86-class issue model, {:.1} GHz",
        ctx.args.plan.cores,
        CPU_MHZ as f64 / 1000.0
    );
    println!(
        "  L1: {}KB, L2: {}KB, LLC: {}MB",
        h.l1_bytes / 1024,
        h.l2_bytes / 1024,
        h.llc_bytes / (1024 * 1024)
    );
    println!("  64B cachelines, {}-way associative, 16B sectors", h.ways);
    println!("Memory Controller");
    println!("  Write queue capacity: {}", ctrl.write_queue_capacity);
    println!("  Address mapping: rw:rk:bk:ch:cl:offset (XOR bank permutation)");
    println!("  Page management: open-page, FR-FCFS");
    let fcfs = match ctrl.starvation_cap {
        0 => " (pure FCFS)",
        _ => "",
    };
    println!(
        "  FR-FCFS starvation cap: {} cycles{fcfs}",
        ctrl.starvation_cap
    );
    for (name, cfg) in [("DRAM", dram), ("RRAM", rram)] {
        let t = cfg.timing;
        println!("{name}");
        println!("  DDR4-2400 interface, x4 I/O width");
        println!(
            "  1 channel, {} ranks, {} banks/rank",
            cfg.ranks,
            cfg.banks_per_rank()
        );
        println!(
            "  {} rows/bank, {} cachelines/row",
            cfg.rows_per_bank, cfg.cols_per_row
        );
        println!("  CL-nRCD-nRP: {}-{}-{}", t.cl, t.rcd, t.rp);
        println!(
            "  nRTR(mode switch)-nCCDS-nCCDL: {}-{}-{}",
            t.rtr, t.ccd_s, t.ccd_l
        );
        if t.wtw > 0 {
            println!("  write pulse (same-bank write-to-write): {} CK", t.wtw);
        }
    }
    ctx.report().into()
}

/// Table 3: the benchmark queries' SQL.
pub fn table3(ctx: &Ctx, _results: Results) -> Rendered {
    println!("Table 3: benchmark queries\n");
    let mut table = TextTable::new(vec!["No.", "SQL statement"]);
    for q in Query::q_set() {
        table.row(vec![q.name(), q.sql()]);
    }
    println!("Queries from the RC-NVM benchmark (prefer column store)\n{table}");

    let mut table = TextTable::new(vec!["No.", "SQL statement"]);
    for q in Query::qs_set() {
        table.row(vec![q.name(), q.sql()]);
    }
    println!("Supplemental queries (prefer row store)\n{table}");

    let mut table = TextTable::new(vec!["No.", "SQL statement"]);
    table.row(vec![
        "Arith.".into(),
        Query::Arithmetic {
            projectivity: 8,
            selectivity: 0.25,
        }
        .sql(),
    ]);
    table.row(vec![
        "Aggr.".into(),
        Query::Aggregate {
            projectivity: 8,
            selectivity: 0.25,
        }
        .sql(),
    ]);
    println!("Parametric queries (prefer row or column store)\n{table}");
    ctx.report().into()
}
