//! Cross-validation: the planner's traces touch exactly the records the
//! value-level reference executor reads — the two halves of the database
//! (timing and function) agree on every query's record set.

use std::collections::BTreeSet;

use sam::ops::TraceOp;
use sam_imdb::plan::{compile, PlanConfig};
use sam_imdb::query::Query;
use sam_imdb::values::{Answer, Database};

fn cfg() -> PlanConfig {
    let mut cfg = PlanConfig::tiny();
    cfg.ta_records = 512;
    cfg.tb_records = 2048;
    cfg
}

/// Records of `table` that a plan touches with a given filter on ops.
fn touched_records(
    plan: &sam_imdb::plan::Plan,
    table: u8,
    filter: impl Fn(&TraceOp) -> bool,
) -> BTreeSet<u64> {
    plan.traces
        .iter()
        .flatten()
        .filter(|op| op.table() == Some(table) && filter(op))
        .map(|op| match op {
            TraceOp::Fields { record, .. } | TraceOp::Whole { record, .. } => *record,
            TraceOp::Compute(_) => unreachable!(),
        })
        .collect()
}

#[test]
fn q1_projection_trace_matches_executor_rows() {
    let cfg = cfg();
    let plan = compile(Query::Q1, &cfg);
    let mut db = Database::generate(&cfg);
    let answer = db.execute(Query::Q1);
    let projected = touched_records(
        &plan,
        0,
        |op| matches!(op, TraceOp::Fields { fields, .. } if **fields == [3, 4]),
    );
    let Answer::Rows(rows) = answer else {
        panic!("Q1 returns rows")
    };
    let executed: BTreeSet<u64> = rows.iter().map(|(r, _)| *r).collect();
    assert_eq!(projected, executed);
    assert!(!executed.is_empty());
}

#[test]
fn q12_write_trace_matches_modified_count() {
    let cfg = cfg();
    let plan = compile(Query::Q12, &cfg);
    let mut db = Database::generate(&cfg);
    let written = touched_records(&plan, 1, |op| {
        matches!(op, TraceOp::Fields { write: true, .. })
    });
    let Answer::Modified(n) = db.execute(Query::Q12) else {
        panic!()
    };
    assert_eq!(written.len() as u64, n);
}

#[test]
fn q2_whole_reads_match_selected_rows() {
    let cfg = cfg();
    let plan = compile(Query::Q2, &cfg);
    let mut db = Database::generate(&cfg);
    let wholes = touched_records(&plan, 1, |op| matches!(op, TraceOp::Whole { .. }));
    let Answer::Rows(rows) = db.execute(Query::Q2) else {
        panic!()
    };
    let executed: BTreeSet<u64> = rows.iter().map(|(r, _)| *r).collect();
    assert_eq!(wholes, executed);
}

#[test]
fn every_query_plans_and_executes_consistently() {
    // Smoke-level consistency: cardinalities are sane for all queries.
    let cfg = cfg();
    for q in Query::q_set().into_iter().chain(Query::qs_set()) {
        let plan = compile(q, &cfg);
        let mut db = Database::generate(&cfg);
        let answer = db.execute(q);
        let ops: usize = plan.traces.iter().map(Vec::len).sum();
        assert!(ops > 0, "{q}: empty plan");
        assert!(answer.cardinality() <= cfg.tb_records as usize, "{q}");
    }
}

#[test]
fn arithmetic_projection_trace_matches_executor() {
    let cfg = cfg();
    let q = Query::Arithmetic {
        projectivity: 4,
        selectivity: 0.5,
    };
    let plan = compile(q, &cfg);
    let mut db = Database::generate(&cfg);
    let Answer::Rows(rows) = db.execute(q) else {
        panic!()
    };
    let executed: BTreeSet<u64> = rows.iter().map(|(r, _)| *r).collect();
    let projected = touched_records(
        &plan,
        0,
        |op| matches!(op, TraceOp::Fields { fields, .. } if fields.len() == 4),
    );
    assert_eq!(projected, executed);
}
