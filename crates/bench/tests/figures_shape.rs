//! Integration tests pinning the *shape* of the paper's headline results at
//! a reduced scale: who wins, in what order, and roughly by how much.
//! (The full-scale numbers are regenerated by the `sam-bench` binaries and
//! recorded in EXPERIMENTS.md.)

use sam::designs::{
    commodity, gs_dram, gs_dram_ecc, rc_nvm_bit, rc_nvm_wd, sam_en, sam_io, sam_sub,
};
use sam::layout::Store;
use sam_imdb::exec::{run_baseline, run_ideal, run_query, speedup, Workload};
use sam_imdb::plan::PlanConfig;
use sam_imdb::query::Query;
use sam_util::stats::geometric_mean;

fn plan() -> PlanConfig {
    let mut p = PlanConfig::tiny();
    p.ta_records = 4096;
    p.tb_records = 16384;
    p
}

fn q_gmean(design: &sam::design::Design, queries: &[Query]) -> f64 {
    let mut speedups = Vec::new();
    for q in queries {
        let w = Workload::new(*q, plan());
        let base = run_baseline(&w);
        let run = run_query(&w, design, Store::Row);
        speedups.push(speedup(&base, &run));
    }
    geometric_mean(&speedups)
}

/// A representative Q subset keeps the test suite fast while covering both
/// tables, reads, writes, and multi-predicate queries.
fn q_subset() -> Vec<Query> {
    vec![Query::Q1, Query::Q3, Query::Q4, Query::Q9, Query::Q11]
}

fn qs_subset() -> Vec<Query> {
    vec![Query::Qs3, Query::Qs4, Query::Qs5]
}

#[test]
fn figure12_q_query_ordering_holds() {
    let sam_en_g = q_gmean(&sam_en(), &q_subset());
    let sam_io_g = q_gmean(&sam_io(), &q_subset());
    let sam_sub_g = q_gmean(&sam_sub(), &q_subset());
    let gs_ecc_g = q_gmean(&gs_dram_ecc(), &q_subset());
    let rc_wd_g = q_gmean(&rc_nvm_wd(), &q_subset());
    let rc_bit_g = q_gmean(&rc_nvm_bit(), &q_subset());

    // The paper's ordering: SAM-en ~ SAM-IO > SAM-sub > RC-NVM-wd >
    // GS-DRAM-ecc ~ RC-NVM-bit, all well above 1.
    assert!(sam_en_g > 2.5, "SAM-en gmean {sam_en_g:.2}");
    assert!((sam_en_g / sam_io_g - 1.0).abs() < 0.15, "SAM-en ~ SAM-IO");
    assert!(
        sam_io_g > sam_sub_g,
        "SAM-IO {sam_io_g:.2} > SAM-sub {sam_sub_g:.2}"
    );
    assert!(
        sam_sub_g > rc_wd_g,
        "SAM-sub {sam_sub_g:.2} > RC-NVM-wd {rc_wd_g:.2}"
    );
    assert!(
        rc_wd_g > rc_bit_g,
        "RC-NVM-wd {rc_wd_g:.2} > RC-NVM-bit {rc_bit_g:.2}"
    );
    assert!(
        gs_ecc_g > 1.5 && gs_ecc_g < sam_en_g,
        "GS-DRAM-ecc in between"
    );
}

#[test]
fn figure12_gs_dram_fast_but_unprotected() {
    let gs = q_gmean(&gs_dram(), &q_subset());
    let gs_ecc = q_gmean(&gs_dram_ecc(), &q_subset());
    // Restoring ECC costs GS-DRAM a large fraction of its win (the paper
    // reports GS-DRAM-ecc at 64-68% of SAM).
    assert!(
        gs_ecc < 0.85 * gs,
        "embedded ECC must cost: {gs_ecc:.2} vs {gs:.2}"
    );
}

#[test]
fn figure12_qs_degradations_match_paper_shape() {
    // SAM-IO/SAM-en: essentially no loss; SAM-sub: moderate; RC-NVM: heavy
    // (RRAM writes + vertical alignment).
    for (design, lo, hi) in [
        (sam_io(), 0.95, 1.02),
        (sam_en(), 0.95, 1.02),
        (sam_sub(), 0.55, 0.92),
        (rc_nvm_wd(), 0.30, 0.80),
    ] {
        let mut speedups = Vec::new();
        for q in qs_subset() {
            let w = Workload::new(q, plan());
            let base = run_baseline(&w);
            let run = run_query(&w, &design, Store::Row);
            speedups.push(speedup(&base, &run));
        }
        let g = geometric_mean(&speedups);
        assert!(
            (lo..=hi).contains(&g),
            "{} Qs gmean {g:.2} outside [{lo}, {hi}]",
            design.name
        );
    }
}

#[test]
fn ideal_reference_brackets_q_and_qs() {
    // Q-type: ideal (column store) well above baseline. Qs-type: ideal is
    // the row store itself (within noise of 1.0).
    let w = Workload::new(Query::Q3, plan());
    let base = run_baseline(&w);
    let ideal = run_ideal(&w);
    assert!(speedup(&base, &ideal) > 2.0);
    assert_eq!(ideal.store, Store::Column);

    let w = Workload::new(Query::Qs3, plan());
    let base = run_baseline(&w);
    let ideal = run_ideal(&w);
    let s = speedup(&base, &ideal);
    assert!((0.98..=1.10).contains(&s), "Qs ideal {s:.3}");
}

#[test]
fn granularity_improves_bandwidth_utilization() {
    // Figure 14(b): finer strided granularity gathers more lines per burst
    // and wins more.
    use sam::design::Granularity;
    use sam::system::SystemConfig;
    let mut speeds = Vec::new();
    for gran in [Granularity::Bits16, Granularity::Bits8, Granularity::Bits4] {
        let sys = SystemConfig {
            granularity: gran,
            ..Default::default()
        };
        let w = Workload::new(Query::Q5, plan()).with_system(sys);
        let base = run_baseline(&w);
        let run = run_query(&w, &sam_en(), Store::Row);
        speeds.push(speedup(&base, &run));
    }
    assert!(speeds[0] < speeds[1] && speeds[1] < speeds[2], "{speeds:?}");
}

#[test]
fn substrate_swap_shows_dram_advantage_on_writes() {
    // Figure 14(a): the same design on DRAM beats itself on RRAM for write
    // queries (RRAM write pulses).
    use sam_dram::timing::Substrate;
    let design_rram = rc_nvm_wd();
    let design_dram = rc_nvm_wd().with_substrate(Substrate::Dram);
    let w = Workload::new(Query::Qs5, plan());
    let base = run_baseline(&w);
    let rram = speedup(&base, &run_query(&w, &design_rram, Store::Row));
    let dram = speedup(&base, &run_query(&w, &design_dram, Store::Row));
    assert!(
        dram > rram,
        "DRAM {dram:.2} must beat RRAM {rram:.2} on inserts"
    );
}

#[test]
fn figure15_crossover_shapes_hold() {
    // Arithmetic query: sparse projections favour SAM strongly; projecting
    // the whole record converges to the baseline (the engine switches to
    // row accesses) — the Figure 15(c)/(f) crossover.
    let sparse = Query::Arithmetic {
        projectivity: 4,
        selectivity: 0.5,
    };
    let dense = Query::Arithmetic {
        projectivity: 128,
        selectivity: 0.5,
    };
    let speed = |q: Query| {
        let w = Workload::new(q, plan());
        let base = run_baseline(&w);
        speedup(&base, &run_query(&w, &sam_en(), Store::Row))
    };
    let s_sparse = speed(sparse);
    let s_dense = speed(dense);
    assert!(s_sparse > 2.0, "sparse projection speedup {s_sparse:.2}");
    assert!(
        (0.9..=1.3).contains(&s_dense),
        "dense projection converges to baseline: {s_dense:.2}"
    );
    assert!(s_sparse > s_dense);
}

#[test]
fn figure15_aggregate_relieves_rc_nvm_field_switch() {
    // Figure 15(g): field-at-a-time processing narrows the RC-NVM-wd gap
    // to SAM-en relative to the record-at-a-time arithmetic query.
    let gap = |q: Query| {
        let w = Workload::new(q, plan());
        let base = run_baseline(&w);
        let sam = speedup(&base, &run_query(&w, &sam_en(), Store::Row));
        let rc = speedup(&base, &run_query(&w, &rc_nvm_wd(), Store::Row));
        rc / sam
    };
    let arith = gap(Query::Arithmetic {
        projectivity: 8,
        selectivity: 0.5,
    });
    let aggr = gap(Query::Aggregate {
        projectivity: 8,
        selectivity: 0.5,
    });
    assert!(
        aggr > arith,
        "aggregate must relieve RC-NVM: arith ratio {arith:.2}, aggr ratio {aggr:.2}"
    );
}

#[test]
fn commodity_design_matches_itself_as_sanity_floor() {
    let w = Workload::new(Query::Q1, plan());
    let a = run_query(&w, &commodity(), Store::Row);
    let b = run_baseline(&w);
    assert_eq!(a.result.cycles, b.result.cycles);
}
