//! Property-based tests of query compilation: structural invariants of the
//! generated traces for arbitrary scales and parameters.

use proptest::prelude::*;
use sam::ops::TraceOp;
use sam_imdb::plan::{compile, PlanConfig};
use sam_imdb::query::Query;

fn small_config(ta: u64, tb: u64, seed: u64) -> PlanConfig {
    let mut cfg = PlanConfig::tiny();
    cfg.ta_records = ta;
    cfg.tb_records = tb;
    cfg.seed = seed;
    cfg
}

fn all_static_queries() -> Vec<Query> {
    let mut q = Query::q_set().to_vec();
    q.extend(Query::qs_set());
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_query_compiles_with_valid_references(
        ta in 64u64..512,
        tb in 64u64..512,
        seed in any::<u64>(),
    ) {
        let cfg = small_config(ta, tb, seed);
        for q in all_static_queries() {
            let plan = compile(q, &cfg);
            prop_assert_eq!(plan.traces.len(), cfg.cores);
            for op in plan.traces.iter().flatten() {
                match op {
                    TraceOp::Fields { table, record, fields, .. } => {
                        let spec = plan.tables[*table as usize];
                        prop_assert!(*record < spec.records, "{q}: record {record}");
                        prop_assert!(fields.iter().all(|&f| (f as u32) < spec.fields),
                            "{q}: field out of range");
                        prop_assert!(!fields.is_empty());
                    }
                    TraceOp::Whole { table, record, .. } => {
                        let spec = plan.tables[*table as usize];
                        prop_assert!(*record < spec.records);
                    }
                    TraceOp::Compute(c) => prop_assert!(*c > 0),
                }
            }
        }
    }

    #[test]
    fn selectivity_scales_projection_volume(
        seed in any::<u64>(),
        lo in 0.05f64..0.3,
    ) {
        let hi = (lo * 3.0).min(1.0);
        let cfg = small_config(2048, 2048, seed);
        let count_proj = |sel: f64| -> usize {
            let q = Query::Arithmetic { projectivity: 4, selectivity: sel };
            compile(q, &cfg)
                .traces
                .iter()
                .flatten()
                .filter(|op| matches!(op, TraceOp::Fields { fields, .. } if fields.len() == 4))
                .count()
        };
        prop_assert!(count_proj(lo) < count_proj(hi), "higher selectivity, more projections");
    }

    #[test]
    fn write_queries_emit_writes_read_queries_do_not(seed in any::<u64>()) {
        let cfg = small_config(256, 1024, seed);
        for q in all_static_queries() {
            let plan = compile(q, &cfg);
            let has_write = plan.traces.iter().flatten().any(|op| {
                matches!(op,
                    TraceOp::Fields { write: true, .. } | TraceOp::Whole { write: true, .. })
            });
            prop_assert_eq!(has_write, q.is_write(), "{}", q);
        }
    }

    #[test]
    fn aggregate_and_arithmetic_touch_identical_fields(
        seed in any::<u64>(),
        proj in 1u32..16,
    ) {
        // Same parameters -> same projected field set, regardless of
        // record-major vs field-major order.
        let cfg = small_config(512, 512, seed);
        let fields_of = |q: Query| -> std::collections::BTreeSet<u16> {
            compile(q, &cfg)
                .traces
                .iter()
                .flatten()
                .filter_map(|op| match op {
                    TraceOp::Fields { fields, .. } => Some(fields.to_vec()),
                    _ => None,
                })
                .flatten()
                .collect()
        };
        let a = fields_of(Query::Arithmetic { projectivity: proj, selectivity: 1.0 });
        let b = fields_of(Query::Aggregate { projectivity: proj, selectivity: 1.0 });
        prop_assert_eq!(a, b);
    }
}
