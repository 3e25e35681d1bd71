//! Query compilation: Table 3 queries to design-independent core traces.
//!
//! The engine models a conventional executor: column-preferring (Q) queries
//! read exactly the fields they need, record at a time; the supplemental
//! row-preferring (Qs) queries process whole tuples; the parametric
//! aggregate query processes field-at-a-time (each field scanned
//! independently — the property that relieves RC-NVM's field-switch cost in
//! Figure 15(g)).
//!
//! Selection decisions are derived from a hash of `(seed, table, record)`
//! so that every design sees the identical record set.

use std::sync::Arc;

use sam::layout::TableSpec;
use sam::ops::{Trace, TraceOp};

use crate::data::selected;
use crate::query::Query;

/// Base physical address of table Ta (1 GiB mark, row-aligned).
pub const TA_BASE: u64 = 0x4000_0000;
/// Base physical address of table Tb (4 GiB mark, row-aligned).
pub const TB_BASE: u64 = 0x1_0000_0000;

/// CPU-cycle costs of executor work per record (calibrated so the ideal
/// column-store speedup on Q queries lands in the paper's 4-5x band; see
/// EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Scan-loop overhead per record.
    pub loop_overhead: u32,
    /// Predicate evaluation.
    pub predicate: u32,
    /// Per projected/output field.
    pub per_field: u32,
    /// Per aggregate update.
    pub aggregate: u32,
    /// Hash-join build/probe work per record.
    pub probe: u32,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            loop_overhead: 2,
            predicate: 1,
            per_field: 1,
            aggregate: 1,
            probe: 4,
        }
    }
}

/// Workload scaling and determinism knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanConfig {
    /// Records loaded into Ta (the paper loads 10M; scale to taste).
    pub ta_records: u64,
    /// Records loaded into Tb.
    pub tb_records: u64,
    /// Fields in Ta (128 in the paper; Figure 15(i) varies it).
    pub ta_fields: u32,
    /// Cores the trace is partitioned over.
    pub cores: usize,
    /// Selection-hash seed.
    pub seed: u64,
    /// Executor cost model.
    pub costs: CostModel,
}

impl PlanConfig {
    /// The default evaluation scale: enough data to dwarf the 8MB LLC.
    pub fn default_scale() -> Self {
        Self {
            ta_records: 16 * 1024,
            tb_records: 128 * 1024,
            ta_fields: 128,
            cores: 4,
            seed: 0x5A11AD,
            costs: CostModel::default(),
        }
    }

    /// A miniature scale for unit tests.
    pub fn tiny() -> Self {
        Self {
            ta_records: 512,
            tb_records: 2048,
            ta_fields: 128,
            cores: 4,
            seed: 7,
            costs: CostModel::default(),
        }
    }

    /// The Ta table spec under this config.
    pub fn ta(&self) -> TableSpec {
        TableSpec::new(TA_BASE, self.ta_fields, self.ta_records)
    }

    /// The Tb table spec under this config.
    pub fn tb(&self) -> TableSpec {
        TableSpec::tb(TB_BASE, self.tb_records)
    }
}

impl Default for PlanConfig {
    fn default() -> Self {
        Self::default_scale()
    }
}

/// A compiled query: its tables and one trace per core.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Tables referenced by the traces (index = `TraceOp` table id).
    pub tables: Vec<TableSpec>,
    /// Per-core op streams.
    pub traces: Vec<Trace>,
}

/// Deterministically chooses `count` distinct projected fields (excluding
/// field 0, the predicate field), sorted ascending. Shared with the
/// value-level executor so both project the same columns.
pub fn projected_field_list(seed: u64, table_fields: u32, count: u32) -> Vec<u16> {
    let count = count.min(table_fields.saturating_sub(1)).max(1);
    let mut rng = sam_util::rng::Xoshiro256StarStar::new(seed ^ 0xF1E1D5);
    let picks = rng.sample_indices((table_fields - 1) as usize, count as usize);
    picks.into_iter().map(|i| (i + 1) as u16).collect()
}

/// A load or store of `fields` of one record. The list is shared with every
/// other op of the plan that touches it, not copied (see [`TraceOp`]).
fn fields_op(table: u8, record: u64, fields: &Arc<[u16]>, write: bool) -> TraceOp {
    TraceOp::Fields {
        table,
        record,
        fields: Arc::clone(fields),
        write,
    }
}

/// Compiles `query` into a [`Plan`].
///
/// Each arm builds its field lists once and pushes every record's ops
/// straight into the trace of the core that owns the record, so compiling
/// makes no heap allocation per record beyond the traces' own growth.
pub fn compile(query: Query, cfg: &PlanConfig) -> Plan {
    let c = cfg.costs;
    let seed = cfg.seed;
    let cores = cfg.cores;
    let ta = cfg.ta();
    let tb = cfg.tb();
    // Table ids: 0 = Ta, 1 = Tb (even when only one is used, keep both so
    // joins and single-table queries share the id space).
    let tables = vec![ta, tb];
    let mut traces = vec![Trace::new(); cores];
    // Contiguous-chunk partitioning: core i scans records
    // [i*n/cores, (i+1)*n/cores) — each core issues its own gather groups'
    // stride fills (a round-robin split would funnel every group-leader
    // record to core 0 and serialize all misses behind one MLP window).
    let core_of = |i: u64, total: u64| -> usize {
        let chunk = total.div_ceil(cores as u64).max(1);
        ((i / chunk) as usize).min(cores - 1)
    };

    // Scan helper: per record of `table`, read `pred_fields`, and when
    // selected run `then(record, trace)` on the owning core's trace.
    let filter_scan = |traces: &mut Vec<Trace>,
                       table: u8,
                       records: u64,
                       pred_fields: &[u16],
                       sel: f64,
                       then: &mut dyn FnMut(u64, &mut Trace)| {
        let pred: Arc<[u16]> = pred_fields.into();
        for r in 0..records {
            let t = &mut traces[core_of(r, records)];
            t.push(fields_op(table, r, &pred, false));
            t.push(TraceOp::Compute(c.loop_overhead + c.predicate));
            if selected(seed, table, r, sel) {
                then(r, t);
            }
        }
    };

    match query {
        Query::Q1 => {
            let proj: Arc<[u16]> = Arc::from([3, 4]);
            filter_scan(&mut traces, 0, ta.records, &[10], 0.25, &mut |r, t| {
                t.push(fields_op(0, r, &proj, false));
                t.push(TraceOp::Compute(2 * c.per_field));
            });
        }
        Query::Q2 => {
            // Predicate mostly false (Section 6.1).
            filter_scan(&mut traces, 1, tb.records, &[10], 0.01, &mut |r, t| {
                t.push(TraceOp::Whole {
                    table: 1,
                    record: r,
                    write: false,
                });
                t.push(TraceOp::Compute(16 * c.per_field));
            });
        }
        Query::Q3 => {
            let sum: Arc<[u16]> = Arc::from([9]);
            filter_scan(&mut traces, 0, ta.records, &[10], 0.25, &mut |r, t| {
                t.push(fields_op(0, r, &sum, false));
                t.push(TraceOp::Compute(c.aggregate));
            });
        }
        Query::Q4 => {
            let sum: Arc<[u16]> = Arc::from([9]);
            filter_scan(&mut traces, 1, tb.records, &[10], 0.25, &mut |r, t| {
                t.push(fields_op(1, r, &sum, false));
                t.push(TraceOp::Compute(c.aggregate));
            });
        }
        Query::Q5 => {
            let avg: Arc<[u16]> = Arc::from([1]);
            filter_scan(&mut traces, 0, ta.records, &[10], 0.25, &mut |r, t| {
                t.push(fields_op(0, r, &avg, false));
                t.push(TraceOp::Compute(c.aggregate));
            });
        }
        Query::Q6 => {
            let avg: Arc<[u16]> = Arc::from([1]);
            filter_scan(&mut traces, 1, tb.records, &[10], 0.25, &mut |r, t| {
                t.push(fields_op(1, r, &avg, false));
                t.push(TraceOp::Compute(c.aggregate));
            });
        }
        Query::Q7 | Query::Q8 => {
            // Hash join: build over Tb, probe with Ta; ~25% of probes match.
            let (build, probe): (Arc<[u16]>, &[u16]) = if query == Query::Q7 {
                (Arc::from([1, 9, 4]), &[1, 9])
            } else {
                (Arc::from([9, 4]), &[9])
            };
            for r in 0..tb.records {
                let t = &mut traces[core_of(r, tb.records)];
                t.push(fields_op(1, r, &build, false));
                t.push(TraceOp::Compute(c.loop_overhead + c.probe));
            }
            let out: Arc<[u16]> = Arc::from([3]);
            filter_scan(&mut traces, 0, ta.records, probe, 0.25, &mut |r, t| {
                t.push(TraceOp::Compute(c.probe));
                t.push(fields_op(0, r, &out, false));
                t.push(TraceOp::Compute(2 * c.per_field));
            });
        }
        Query::Q9 | Query::Q10 => {
            let second: Arc<[u16]> = Arc::from([if query == Query::Q9 { 9 } else { 2 }]);
            let proj: Arc<[u16]> = Arc::from([3, 4]);
            filter_scan(&mut traces, 0, ta.records, &[1], 0.5, &mut |r, t| {
                t.push(fields_op(0, r, &second, false));
                t.push(TraceOp::Compute(c.predicate));
                if selected(seed ^ 1, 0, r, 0.5) {
                    t.push(fields_op(0, r, &proj, false));
                    t.push(TraceOp::Compute(2 * c.per_field));
                }
            });
        }
        Query::Q11 => {
            let set: Arc<[u16]> = Arc::from([3, 4]);
            filter_scan(&mut traces, 1, tb.records, &[10], 0.25, &mut |r, t| {
                t.push(fields_op(1, r, &set, true));
                t.push(TraceOp::Compute(2 * c.per_field));
            });
        }
        Query::Q12 => {
            let set: Arc<[u16]> = Arc::from([9]);
            filter_scan(&mut traces, 1, tb.records, &[10], 0.25, &mut |r, t| {
                t.push(fields_op(1, r, &set, true));
                t.push(TraceOp::Compute(c.per_field));
            });
        }
        Query::Qs1 | Query::Qs2 => {
            // LIMIT scan: whole-record reads of a prefix. Scaled to an
            // eighth of the table so the measurement stays cache-dwarfing
            // (the paper's LIMIT 1024 over 10M records is similarly small
            // relative to its scale).
            let (tid, records) = if query == Query::Qs1 {
                (0u8, ta.records)
            } else {
                (1, tb.records)
            };
            let limit = (records / 8).max(1024).min(records);
            for r in 0..limit {
                let fields = if tid == 0 { ta.fields } else { tb.fields };
                let t = &mut traces[core_of(r, limit)];
                t.push(TraceOp::Whole {
                    table: tid,
                    record: r,
                    write: false,
                });
                t.push(TraceOp::Compute(c.loop_overhead + fields * c.per_field / 8));
            }
        }
        Query::Qs3 | Query::Qs4 => {
            // Tuple-at-a-time row engine: the whole tuple is materialized,
            // then filtered.
            let (tid, records) = if query == Query::Qs3 {
                (0u8, ta.records)
            } else {
                (1, tb.records)
            };
            for r in 0..records {
                let t = &mut traces[core_of(r, records)];
                t.push(TraceOp::Whole {
                    table: tid,
                    record: r,
                    write: false,
                });
                t.push(TraceOp::Compute(c.loop_overhead + c.predicate));
                if selected(seed, tid, r, 0.25) {
                    t.push(TraceOp::Compute(c.per_field));
                }
            }
        }
        Query::Qs5 | Query::Qs6 => {
            // Appends: whole-record writes over a fresh eighth of the table.
            let (tid, records, fields) = if query == Query::Qs5 {
                (0u8, ta.records, ta.fields)
            } else {
                (1, tb.records, tb.fields)
            };
            let inserts = (records / 8).max(1024).min(records);
            for i in 0..inserts {
                let r = records - inserts + i; // append region
                let t = &mut traces[core_of(i, inserts)];
                t.push(TraceOp::Whole {
                    table: tid,
                    record: r,
                    write: true,
                });
                t.push(TraceOp::Compute(c.loop_overhead + fields * c.per_field / 8));
            }
        }
        Query::Arithmetic {
            projectivity,
            selectivity,
        } => {
            let proj: Arc<[u16]> = projected_field_list(seed, ta.fields, projectivity).into();
            filter_scan(
                &mut traces,
                0,
                ta.records,
                &[0],
                selectivity,
                &mut |r, t| {
                    // Record-at-a-time: all projected fields of this record.
                    t.push(fields_op(0, r, &proj, false));
                    t.push(TraceOp::Compute(proj.len() as u32 * c.per_field));
                },
            );
        }
        Query::Aggregate {
            projectivity,
            selectivity,
        } => {
            // Field-at-a-time: predicate pass first, then one pass per field.
            let proj = projected_field_list(seed, ta.fields, projectivity);
            let pred: Arc<[u16]> = Arc::from([0]);
            for r in 0..ta.records {
                let t = &mut traces[core_of(r, ta.records)];
                t.push(fields_op(0, r, &pred, false));
                t.push(TraceOp::Compute(c.loop_overhead + c.predicate));
            }
            for f in proj {
                let field: Arc<[u16]> = Arc::from([f]);
                for r in 0..ta.records {
                    if selected(seed, 0, r, selectivity) {
                        let t = &mut traces[core_of(r, ta.records)];
                        t.push(fields_op(0, r, &field, false));
                        t.push(TraceOp::Compute(c.aggregate));
                    }
                }
            }
        }
    }

    Plan { tables, traces }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_ops(plan: &Plan) -> usize {
        plan.traces.iter().map(std::vec::Vec::len).sum()
    }

    #[test]
    fn selection_is_deterministic_and_roughly_calibrated() {
        let n = 10_000u64;
        let hits = (0..n).filter(|&r| selected(42, 0, r, 0.25)).count();
        let hits2 = (0..n).filter(|&r| selected(42, 0, r, 0.25)).count();
        assert_eq!(hits, hits2);
        let frac = hits as f64 / n as f64;
        assert!((0.22..0.28).contains(&frac), "selectivity {frac}");
    }

    #[test]
    fn projected_fields_distinct_sorted_nonzero() {
        let p = projected_field_list(9, 128, 64);
        assert_eq!(p.len(), 64);
        assert!(p.windows(2).all(|w| w[0] < w[1]));
        assert!(p.iter().all(|&f| (1..128).contains(&f)));
    }

    #[test]
    fn projectivity_clamped_to_table() {
        assert_eq!(projected_field_list(9, 16, 128).len(), 15);
        assert_eq!(projected_field_list(9, 16, 0).len(), 1);
    }

    #[test]
    fn q1_reads_pred_and_projection() {
        let cfg = PlanConfig::tiny();
        let plan = compile(Query::Q1, &cfg);
        assert_eq!(plan.traces.len(), 4);
        let ops = count_ops(&plan);
        // Every record gets 2 ops; ~25% get 2 more.
        let expected_min = 2 * cfg.ta_records as usize;
        assert!(
            ops > expected_min && ops < 3 * cfg.ta_records as usize,
            "ops {ops}"
        );
        // Projection reads f3, f4.
        let any_proj = plan
            .traces
            .iter()
            .flatten()
            .any(|op| matches!(op, TraceOp::Fields { fields, .. } if **fields == [3, 4]));
        assert!(any_proj);
    }

    #[test]
    fn q2_rarely_selects() {
        let plan = compile(Query::Q2, &PlanConfig::tiny());
        let wholes = plan
            .traces
            .iter()
            .flatten()
            .filter(|op| matches!(op, TraceOp::Whole { .. }))
            .count();
        assert!(wholes < 2048 / 20, "Q2 selects ~1%: {wholes}");
    }

    #[test]
    fn q11_writes_selected_fields() {
        let plan = compile(Query::Q11, &PlanConfig::tiny());
        let writes = plan
            .traces
            .iter()
            .flatten()
            .filter(|op| matches!(op, TraceOp::Fields { write: true, .. }))
            .count();
        assert!(writes > 0);
    }

    #[test]
    fn qs5_appends_whole_writes() {
        let cfg = PlanConfig::tiny();
        let plan = compile(Query::Qs5, &cfg);
        let writes: Vec<u64> = plan
            .traces
            .iter()
            .flatten()
            .filter_map(|op| match op {
                TraceOp::Whole {
                    record,
                    write: true,
                    ..
                } => Some(*record),
                _ => None,
            })
            .collect();
        assert!(!writes.is_empty());
        assert!(writes.iter().all(|&r| r < cfg.ta_records));
    }

    #[test]
    fn join_touches_both_tables() {
        let plan = compile(Query::Q7, &PlanConfig::tiny());
        let tables: std::collections::BTreeSet<u8> = plan
            .traces
            .iter()
            .flatten()
            .filter_map(sam::ops::TraceOp::table)
            .collect();
        assert_eq!(tables.len(), 2);
    }

    #[test]
    fn aggregate_is_field_major() {
        let cfg = PlanConfig::tiny();
        let plan = compile(
            Query::Aggregate {
                projectivity: 2,
                selectivity: 1.0,
            },
            &cfg,
        );
        // Field-major: the trace revisits record 0 once per projected field
        // after the predicate pass.
        let t0 = &plan.traces[0];
        let r0_reads = t0
            .iter()
            .filter(|op| matches!(op, TraceOp::Fields { record: 0, .. }))
            .count();
        assert_eq!(r0_reads, 3, "predicate + 2 field passes");
    }

    #[test]
    fn arithmetic_is_record_major() {
        let cfg = PlanConfig::tiny();
        let plan = compile(
            Query::Arithmetic {
                projectivity: 4,
                selectivity: 1.0,
            },
            &cfg,
        );
        let t0 = &plan.traces[0];
        // Record 0: predicate read then one Fields op with all 4 fields.
        let proj_op = t0.iter().find(
            |op| matches!(op, TraceOp::Fields { record: 0, fields, .. } if fields.len() == 4),
        );
        assert!(proj_op.is_some());
    }

    #[test]
    fn plans_are_deterministic() {
        let cfg = PlanConfig::tiny();
        let a = compile(Query::Q9, &cfg);
        let b = compile(Query::Q9, &cfg);
        assert_eq!(a.traces, b.traces);
    }

    #[test]
    fn tables_are_far_apart() {
        let cfg = PlanConfig::default_scale();
        let ta = cfg.ta();
        let tb = cfg.tb();
        // Leave room for the 32x vertical-stacking expansion and the column
        // space of each table.
        assert!(tb.base > ta.base + 40 * ta.data_bytes());
    }
}
