//! Query execution: runs compiled plans against a design/system and
//! derives the paper's metrics (speedup vs the row-store baseline, the
//! ideal row/column reference).

use sam::design::Design;
use sam::designs::commodity;
use sam::layout::Store;
use sam::system::{Instrumentation, RunResult, System, SystemConfig};

use crate::plan::{compile, Plan, PlanConfig};
use crate::query::Query;

/// A query plus its scaling configuration.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The query to run.
    pub query: Query,
    /// Scaling/seed configuration.
    pub plan: PlanConfig,
    /// System configuration (MLP, granularity, scheduler overrides...).
    pub system: SystemConfig,
}

impl Workload {
    /// A workload with the default system configuration.
    pub fn new(query: Query, plan: PlanConfig) -> Self {
        Self {
            query,
            plan,
            system: SystemConfig::default(),
        }
    }

    /// Replaces the system configuration (builder-style).
    pub fn with_system(mut self, system: SystemConfig) -> Self {
        self.system = system;
        self
    }

    /// Compiles this workload's plan.
    pub fn compile(&self) -> Plan {
        compile(self.query, &self.plan)
    }
}

/// The outcome of running one workload on one design.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRun {
    /// The query that ran.
    pub query: Query,
    /// Design name.
    pub design: &'static str,
    /// Store layout used.
    pub store: Store,
    /// Raw simulation result.
    pub result: RunResult,
}

/// Runs `workload` on `design` with tables organized as `store`.
pub fn run_query(workload: &Workload, design: &Design, store: Store) -> QueryRun {
    run_query_instrumented(workload, design, store, &mut Instrumentation::default())
}

/// Like [`run_query`], with verification hooks attached (see
/// [`Instrumentation`]).
pub fn run_query_instrumented(
    workload: &Workload,
    design: &Design,
    store: Store,
    instr: &mut Instrumentation<'_>,
) -> QueryRun {
    let plan = workload.compile();
    let system = System::new(workload.system, design.clone(), store);
    let result = system.run_instrumented(&plan.tables, &plan.traces, instr);
    QueryRun {
        query: workload.query,
        design: design.name,
        store,
        result,
    }
}

/// Runs the row-store commodity baseline (the denominator of every speedup
/// in Figures 12, 14, and 15).
pub fn run_baseline(workload: &Workload) -> QueryRun {
    run_query(workload, &commodity(), Store::Row)
}

/// Runs the "ideal" reference: commodity hardware with whichever store the
/// query prefers (row for Qs-type, column for Q-type) — concretely, the
/// better of the two runs.
pub fn run_ideal(workload: &Workload) -> QueryRun {
    let row = run_query(workload, &commodity(), Store::Row);
    let col = run_query(workload, &commodity(), Store::Column);
    if row.result.cycles <= col.result.cycles {
        row
    } else {
        col
    }
}

/// Speedup of `run` relative to `baseline` (higher is better).
pub fn speedup(baseline: &QueryRun, run: &QueryRun) -> f64 {
    baseline.result.cycles as f64 / run.result.cycles as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam::designs::{gs_dram, sam_en, sam_io};

    fn wl(q: Query) -> Workload {
        Workload::new(q, PlanConfig::tiny())
    }

    #[test]
    fn sam_en_accelerates_q3() {
        let w = wl(Query::Q3);
        let base = run_baseline(&w);
        let sam = run_query(&w, &sam_en(), Store::Row);
        let s = speedup(&base, &sam);
        assert!(s > 1.5, "Q3 speedup {s:.2}");
    }

    #[test]
    fn ideal_picks_the_better_store() {
        let q = wl(Query::Q3);
        let ideal = run_ideal(&q);
        assert_eq!(ideal.store, Store::Column, "Q3 prefers column store");
        let qs = wl(Query::Qs3);
        let ideal_qs = run_ideal(&qs);
        assert_eq!(ideal_qs.store, Store::Row, "Qs3 prefers row store");
    }

    #[test]
    fn qs_queries_cap_at_baseline_for_sam() {
        let w = wl(Query::Qs4);
        let base = run_baseline(&w);
        let io = run_query(&w, &sam_io(), Store::Row);
        let s = speedup(&base, &io);
        assert!(s > 0.85 && s <= 1.05, "SAM-IO on Qs4: {s:.3}");
    }

    #[test]
    fn update_queries_run_and_write() {
        let w = wl(Query::Q12);
        let base = run_baseline(&w);
        assert!(base.result.writeback_bursts > 0);
        let sam = run_query(&w, &sam_en(), Store::Row);
        assert!(speedup(&base, &sam) > 1.0, "strided updates should win");
    }

    #[test]
    fn gs_dram_close_to_sam_on_reads() {
        let w = wl(Query::Q5);
        let base = run_baseline(&w);
        let gs = speedup(&base, &run_query(&w, &gs_dram(), Store::Row));
        let sam = speedup(&base, &run_query(&w, &sam_en(), Store::Row));
        let ratio = gs / sam;
        assert!(
            (0.7..1.4).contains(&ratio),
            "GS-DRAM vs SAM-en ratio {ratio:.2}"
        );
    }

    #[test]
    fn run_is_deterministic() {
        let w = wl(Query::Q1);
        let a = run_baseline(&w);
        let b = run_baseline(&w);
        assert_eq!(a.result.cycles, b.result.cycles);
    }
}
