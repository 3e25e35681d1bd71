//! `cache-replay`: the Figure 12 grid's compiled traces replayed
//! functionally through the cache hierarchy alone, with no controller.
//!
//! Each run's traces are walked round-robin across cores, one op at a
//! time. An op expands to 16 B sector touches exactly as the system
//! engine expands it; a touch that misses every level is filled at once
//! (a stride fill of the gathered sectors when the design can stride the
//! field, a line fill otherwise), and a write miss is then marked dirty.

use sam::layout::Placement;
use sam::ops::TraceOp;
use sam_cache::hierarchy::{AccessKind, Hierarchy, HitLevel};
use sam_cache::set_assoc::CacheStats;
use sam_check::invariants::{check_hierarchy, check_inclusion};
use sam_imdb::exec;
use sam_imdb::plan::PlanConfig;
use sam_util::fxhash::FxHashSet;

use crate::golden;
use crate::probe::{Probe, Site, Tracer};
use crate::sim::{fig12_points, golden_plan, Point};
use crate::workload::{add_cache, cache_counts, Laps, Layers, Pass, Workload, GOLDEN_SEED};

/// One run's replay counters.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheRun {
    pub accesses: u64,
    pub levels: [CacheStats; 3],
    pub line_fills: u64,
    pub sector_fills: u64,
    pub dirty_marks: u64,
    /// Writebacks the fills' evictions produced.
    pub writebacks: u64,
    /// Writebacks of the final flush.
    pub flushed: u64,
}

/// Column names of `perf/expected/cache-replay.tsv`, in
/// [`CacheRun::columns`] order.
pub const COLUMNS: [&str; 17] = [
    "accesses",
    "l1_hits",
    "l1_sector_misses",
    "l1_line_misses",
    "l1_writebacks",
    "l2_hits",
    "l2_sector_misses",
    "l2_line_misses",
    "l2_writebacks",
    "llc_hits",
    "llc_sector_misses",
    "llc_line_misses",
    "llc_writebacks",
    "line_fills",
    "sector_fills",
    "dirty_marks",
    "writebacks",
];

impl CacheRun {
    pub fn columns(&self) -> Vec<u64> {
        let mut v = vec![self.accesses];
        for s in &self.levels {
            v.extend([s.hits, s.sector_misses, s.line_misses, s.writebacks]);
        }
        v.extend([
            self.line_fills,
            self.sector_fills,
            self.dirty_marks,
            self.writebacks + self.flushed,
        ]);
        v
    }
}

/// The workload, with its expectation at [`GOLDEN_SEED`].
#[derive(Debug)]
pub struct CacheReplay {
    points: Vec<Point>,
    expected: Vec<Vec<u64>>,
    plan: PlanConfig,
}

impl CacheReplay {
    pub fn new() -> Result<Self, String> {
        let rows = golden::parse_tsv(include_str!("../expected/cache-replay.tsv"), &COLUMNS)?;
        let points = fig12_points();
        if rows.len() != points.len() {
            return Err(format!(
                "cache-replay expectation has {} rows, the grid {}",
                rows.len(),
                points.len()
            ));
        }
        for (p, (label, _)) in points.iter().zip(&rows) {
            if p.label != *label {
                return Err(format!(
                    "expectation row '{label}' where the grid has '{}'",
                    p.label
                ));
            }
        }
        Ok(Self {
            points,
            expected: rows.into_iter().map(|(_, v)| v).collect(),
            plan: golden_plan(),
        })
    }
}

/// Replays one run's traces; returns its counters.
fn replay<P: Probe>(
    h: &mut Hierarchy,
    placements: &[Placement],
    traces: &[Vec<TraceOp>],
    probe: &mut P,
) -> CacheRun {
    let mut run = CacheRun {
        accesses: 0,
        levels: [CacheStats::default(); 3],
        line_fills: 0,
        sector_fills: 0,
        dirty_marks: 0,
        writebacks: 0,
        flushed: 0,
    };
    let mut seen = FxHashSet::default();
    let mut field_ids: Vec<u32> = Vec::new();
    let mut touches: Vec<(u64, u32)> = Vec::new();
    let longest = traces.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (core, trace) in traces.iter().enumerate() {
            let (table, record, fields, write) = match trace.get(i) {
                Some(TraceOp::Fields {
                    table,
                    record,
                    fields,
                    write,
                }) => (*table, *record, Some(fields), *write),
                Some(TraceOp::Whole {
                    table,
                    record,
                    write,
                }) => (*table, *record, None, *write),
                Some(TraceOp::Compute(_)) | None => continue,
            };
            let p = &placements[table as usize];
            field_ids.clear();
            match fields {
                Some(f) => field_ids.extend(f.iter().map(|&f| u32::from(f))),
                None => field_ids.extend(0..p.spec().fields),
            }
            seen.clear();
            touches.clear();
            for &f in &field_ids {
                let sector = p.field_addr(record, f) & !15;
                if seen.insert(sector) {
                    touches.push((sector, f));
                }
            }
            // The engine's access-path choice: an op touching half the
            // record or more moves less data as line fills than as
            // per-field stride gathers.
            let field_access =
                fields.is_some() && touches.len() as u64 * 32 <= p.spec().record_bytes();
            let kind = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            for &(sector, f) in &touches {
                run.accesses += 1;
                let level = probe.call(Site::Access, || h.access(sector, kind)).level;
                if level != HitLevel::Memory {
                    continue;
                }
                let stride = if field_access {
                    p.stride_fill(record, f)
                } else {
                    None
                };
                match stride {
                    Some(fill) => {
                        for &s in &fill.sector_addrs {
                            run.sector_fills += 1;
                            let wbs =
                                probe.call(Site::FillSector, || h.fill_sector_owned(s, core as u8));
                            run.writebacks += wbs.len() as u64;
                        }
                    }
                    None => {
                        run.line_fills += 1;
                        let wbs = probe.call(Site::FillLine, || {
                            h.fill_line_owned(sector & !63, core as u8)
                        });
                        run.writebacks += wbs.len() as u64;
                    }
                }
                if write {
                    run.dirty_marks += 1;
                    probe.call(Site::MarkDirty, || h.mark_dirty(sector));
                }
            }
        }
    }
    run.flushed = probe.call(Site::FlushDirty, || h.flush_dirty()).len() as u64;
    let (l1, l2, llc) = h.stats();
    run.levels = [*l1, *l2, *llc];
    run
}

impl Workload for CacheReplay {
    type Item = CacheRun;

    fn warmup(&self) -> usize {
        2
    }

    fn pass<P: Probe>(&self, seed: u64, verify: bool, probe: &mut P) -> Pass<CacheRun> {
        let plan = PlanConfig { seed, ..self.plan };
        let mut pass = Pass::new(self.points.len());
        let mut trace_ops = 0;
        let mut laps = Laps::start();
        for p in &self.points {
            let workload = exec::Workload::new(p.query, plan).with_system(p.system);
            let compiled = probe.span("imdb.compile", |_| workload.compile());
            let placements: Vec<Placement> = compiled
                .tables
                .iter()
                .map(|t| Placement::new(*t, p.store, &p.design, p.system.granularity))
                .collect();
            pass.setup_ns.push(laps.lap());
            let mut h = Hierarchy::new(p.system.hierarchy);
            let run = replay(&mut h, &placements, &compiled.traces, probe);
            pass.sim_ns.push(laps.lap());
            pass.work += run.accesses;
            trace_ops += compiled.traces.iter().map(Vec::len).sum::<usize>();
            if verify {
                let violations: Vec<String> = check_hierarchy(&h)
                    .into_iter()
                    .chain(check_inclusion(&h))
                    .map(|v| v.to_string())
                    .collect();
                if !violations.is_empty() {
                    pass.failures.push(format!(
                        "{}: {} cache invariant violations, first: {}",
                        p.label,
                        violations.len(),
                        violations[0]
                    ));
                }
            }
            pass.items.push(run);
        }
        pass.layers
            .insert("imdb.trace_ops".into(), trace_ops as f64);
        pass
    }

    fn check(&self, seed: u64, items: &[CacheRun]) -> Vec<String> {
        if seed != GOLDEN_SEED {
            return Vec::new();
        }
        self.points
            .iter()
            .zip(&self.expected)
            .zip(items)
            .filter_map(|((p, want), run)| {
                let got = run.columns();
                (got != *want).then(|| format!("{}: expected {want:?}, got {got:?}", p.label))
            })
            .collect()
    }

    fn layers(&self, pass: &Pass<CacheRun>, _tracer: &Tracer) -> Layers {
        let mut layers = Layers::new();
        let mut levels = [CacheStats::default(); 3];
        for r in &pass.items {
            add_cache(&mut levels, [&r.levels[0], &r.levels[1], &r.levels[2]]);
        }
        cache_counts(&mut layers, &levels);
        layers
    }
}

#[cfg(test)]
impl CacheReplay {
    /// The grid at `PlanConfig::tiny()` scale, with no expectation.
    pub fn tiny() -> Self {
        Self {
            points: fig12_points(),
            expected: Vec::new(),
            plan: PlanConfig::tiny(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Off;

    #[test]
    fn committed_expectation_lines_up_with_the_grid() {
        CacheReplay::new().unwrap();
    }

    #[test]
    fn tiny_pass_keeps_invariants_and_reproduces() {
        let w = CacheReplay::tiny();
        let pass = w.pass(7, true, &mut Off);
        assert!(pass.failures.is_empty(), "{:?}", pass.failures);
        assert_eq!(pass.items.len(), 162);
        assert!(pass.items.iter().all(|r| r.accesses > 0));
        assert!(
            pass.items.iter().any(|r| r.sector_fills > 0),
            "stride designs gather"
        );
        assert!(
            pass.items.iter().any(|r| r.dirty_marks > 0),
            "update queries write"
        );
        assert_eq!(pass.items, w.pass(7, false, &mut Off).items);
    }

    /// Regenerates `perf/expected/cache-replay.tsv` from the current
    /// simulator; run it with
    /// `cargo test --release --manifest-path perf/Cargo.toml -- --ignored bless`.
    #[test]
    #[ignore = "rewrites perf/expected/cache-replay.tsv"]
    fn bless_cache_replay_expectation() {
        let w = CacheReplay {
            plan: golden_plan(),
            ..CacheReplay::tiny()
        };
        let pass = w.pass(GOLDEN_SEED, true, &mut Off);
        assert!(pass.failures.is_empty(), "{:?}", pass.failures);
        let rows: Vec<(String, Vec<u64>)> = w
            .points
            .iter()
            .zip(&pass.items)
            .map(|(p, r)| (p.label.clone(), r.columns()))
            .collect();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected/cache-replay.tsv");
        std::fs::write(path, golden::format_tsv(&COLUMNS, &rows)).unwrap();
    }
}
