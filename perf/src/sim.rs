//! The full-system workloads: the Figure 12 and Figure 16 grids, each run
//! compiled with `Workload::compile` and simulated with `System::run`.

use sam::design::Design;
use sam::designs;
use sam::layout::Store;
use sam::system::{RunResult, System, SystemConfig};
use sam_bench::{fig16, figure12_designs};
use sam_cache::set_assoc::CacheStats;
use sam_dram::device::DeviceStats;
use sam_imdb::exec;
use sam_imdb::plan::PlanConfig;
use sam_imdb::query::Query;

use crate::golden::{self, Pinned};
use crate::probe::{Probe, Tracer};
use crate::stats::percentile;
use crate::workload::{
    add_cache, add_device, cache_counts, device_counts, ratio, CtrlTotals, Laps, Layers, Pass,
    Workload, GOLDEN_SEED,
};

/// One simulator run of a grid.
#[derive(Debug, Clone)]
pub struct Point {
    pub label: String,
    pub query: Query,
    pub design: Design,
    pub store: Store,
    pub system: SystemConfig,
}

/// The golden scale: Ta 2048 and Tb 8192 records, the goldens' plan.
pub fn golden_plan() -> PlanConfig {
    PlanConfig {
        ta_records: 2048,
        tb_records: 8192,
        ..PlanConfig::default_scale()
    }
}

/// The Figure 12 grid in the figure's order: per query (Q set, then Qs
/// set), the commodity row-store baseline, every design on the row
/// store, and commodity on the column store.
pub fn fig12_points() -> Vec<Point> {
    let system = SystemConfig::default();
    let queries = Query::q_set().into_iter().chain(Query::qs_set());
    let mut points = Vec::new();
    for query in queries {
        let runs = std::iter::once((designs::commodity(), Store::Row))
            .chain(figure12_designs().into_iter().map(|d| (d, Store::Row)))
            .chain(std::iter::once((designs::commodity(), Store::Column)));
        for (design, store) in runs {
            points.push(Point {
                label: format!("{}/{}/{store:?}", query.name(), design.name),
                query,
                design,
                store,
                system,
            });
        }
    }
    points
}

/// The Figure 16 grid in sweep order: per query, the flat RRAM baseline
/// and then every (block size, write policy) hybrid point.
pub fn fig16_points() -> Vec<Point> {
    let mut points = Vec::new();
    for query in fig16::queries() {
        points.push(Point {
            label: format!("{}/flat", query.name()),
            query,
            design: fig16::backing_design(),
            store: Store::Row,
            system: SystemConfig::default(),
        });
        for cfg in fig16::point_configs() {
            points.push(Point {
                label: fig16::point_label(query, &cfg),
                query,
                design: fig16::backing_design(),
                store: Store::Row,
                system: SystemConfig {
                    hybrid: Some(cfg),
                    ..SystemConfig::default()
                },
            });
        }
    }
    points
}

/// A grid of full-system runs with its golden expectation.
#[derive(Debug)]
pub struct SimGrid {
    points: Vec<Point>,
    golden: Vec<Pinned>,
    /// Scale of every run; each pass sets the seed.
    plan: PlanConfig,
    warmup: usize,
}

impl SimGrid {
    /// Pairs `points` with the golden runs, which must carry the same
    /// labels in the same order.
    fn new(
        points: Vec<Point>,
        golden: Vec<(String, Pinned)>,
        warmup: usize,
    ) -> Result<Self, String> {
        if points.len() != golden.len() {
            return Err(format!(
                "golden has {} runs, the grid {}",
                golden.len(),
                points.len()
            ));
        }
        for (p, (label, _)) in points.iter().zip(&golden) {
            if p.label != *label {
                return Err(format!(
                    "golden run '{label}' where the grid has '{}'",
                    p.label
                ));
            }
        }
        let golden = golden.into_iter().map(|(_, pinned)| pinned).collect();
        Ok(Self {
            points,
            golden,
            plan: golden_plan(),
            warmup,
        })
    }

    pub fn fig12() -> Result<Self, String> {
        let golden = golden::parse_fig12(include_str!("../../tests/golden/fig12.json"))?;
        Self::new(fig12_points(), golden, 2)
    }

    pub fn fig16() -> Result<Self, String> {
        let golden = golden::parse_fig16(include_str!("../../tests/golden/fig16.json"))?;
        Self::new(fig16_points(), golden, 5)
    }
}

impl Workload for SimGrid {
    type Item = RunResult;

    fn warmup(&self) -> usize {
        self.warmup
    }

    fn pass<P: Probe>(&self, seed: u64, _verify: bool, probe: &mut P) -> Pass<RunResult> {
        let plan = PlanConfig { seed, ..self.plan };
        let mut pass = Pass::new(self.points.len());
        let mut trace_ops = 0;
        let mut laps = Laps::start();
        for p in &self.points {
            let workload = exec::Workload::new(p.query, plan).with_system(p.system);
            let compiled = probe.span("imdb.compile", |_| workload.compile());
            pass.setup_ns.push(laps.lap());
            let system = System::new(p.system, p.design.clone(), p.store);
            let result = probe.span("system.run", |_| {
                system.run(&compiled.tables, &compiled.traces)
            });
            pass.sim_ns.push(laps.lap());
            pass.work += result.cycles;
            trace_ops += compiled.traces.iter().map(Vec::len).sum::<usize>();
            pass.items.push(result);
        }
        pass.layers
            .insert("imdb.trace_ops".into(), trace_ops as f64);
        pass
    }

    fn check(&self, seed: u64, items: &[RunResult]) -> Vec<String> {
        if seed != GOLDEN_SEED {
            return Vec::new();
        }
        self.points
            .iter()
            .zip(&self.golden)
            .zip(items)
            .filter_map(|((p, want), run)| {
                let got = Pinned::of(run);
                (got != *want).then(|| format!("{}: golden {want:?}, got {got:?}", p.label))
            })
            .collect()
    }

    fn layers(&self, pass: &Pass<RunResult>, tracer: &Tracer) -> Layers {
        let mut layers = Layers::new();
        let runs_ns = tracer.durations("system.run");
        for (name, p) in [("system.run.ms_p50", 50.0), ("system.run.ms_p99", 99.0)] {
            layers.insert(name.into(), percentile(&runs_ns, p).unwrap_or(0.0) / 1e6);
        }

        // Host ns per simulated request, overall and split by the kind
        // of query and of topology.
        let mut split: [(f64, f64); 5] = [(0.0, 0.0); 5];
        let mut l1_accesses = 0;
        let mut levels = [CacheStats::default(); 3];
        let mut ctrl = CtrlTotals::default();
        let mut device = DeviceStats::default();
        let mut bursts = [0u64; 4];
        let mut hybrid = (0, 0, 0, 0, 0, 0, 0);
        for ((p, r), &ns) in self.points.iter().zip(&pass.items).zip(&runs_ns) {
            let reqs = (r.ctrl.reads_done + r.ctrl.writes_done) as f64;
            let kind = if p.query.is_write() { 2 } else { 1 };
            let topology = if p.system.hybrid.is_some() { 4 } else { 3 };
            for i in [0, kind, topology] {
                split[i].0 += ns;
                split[i].1 += reqs;
            }
            l1_accesses += r.cache.0.accesses();
            add_cache(&mut levels, [&r.cache.0, &r.cache.1, &r.cache.2]);
            ctrl.add(&r.ctrl, r.read_latency_mean, r.bus_busy, r.cycles);
            add_device(&mut device, &r.device);
            for (b, v) in bursts.iter_mut().zip([
                r.stride_bursts,
                r.line_bursts,
                r.ecc_bursts,
                r.writeback_bursts,
            ]) {
                *b += v;
            }
            if let Some(h) = &r.hybrid {
                hybrid.0 += h.hits;
                hybrid.1 += h.misses;
                hybrid.2 += h.fills;
                hybrid.3 += h.dirty_evictions;
                hybrid.4 += h.writethroughs;
                hybrid.5 += h.front.acts;
                hybrid.6 += h.back.acts;
            }
        }
        let names = [
            "system.ns_per_req",
            "system.ns_per_req.read_queries",
            "system.ns_per_req.write_queries",
            "system.ns_per_req.flat",
            "system.ns_per_req.hybrid",
        ];
        let has_hybrid = split[4].1 > 0.0;
        for (i, (name, (ns, reqs))) in names.iter().zip(split).enumerate() {
            // The topology split only means something on a grid with both.
            if i < 3 || has_hybrid {
                layers.insert((*name).into(), ratio(ns, reqs));
            }
        }
        let run_ns: f64 = runs_ns.iter().sum();
        layers.insert(
            "system.ns_per_l1_access".into(),
            ratio(run_ns, l1_accesses as f64),
        );
        for (name, v) in ["stride", "line", "ecc", "writeback"].iter().zip(bursts) {
            layers.insert(format!("system.{name}_bursts"), v as f64);
        }
        cache_counts(&mut layers, &levels);
        ctrl.insert(&mut layers);
        device_counts(&mut layers, &device);
        if has_hybrid {
            let (hits, misses, fills, dirty, wt, front, back) = hybrid;
            for (name, v) in [
                ("hit_rate", ratio(hits as f64, (hits + misses) as f64)),
                ("fills", fills as f64),
                ("dirty_evictions", dirty as f64),
                ("writethroughs", wt as f64),
                ("front.acts", front as f64),
                ("back.acts", back as f64),
            ] {
                layers.insert(format!("hybrid.{name}"), v);
            }
        }
        layers
    }
}

#[cfg(test)]
impl SimGrid {
    /// `points` at `PlanConfig::tiny()` scale, with no golden.
    pub fn tiny(points: Vec<Point>) -> Self {
        Self {
            points,
            golden: Vec::new(),
            plan: PlanConfig::tiny(),
            warmup: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Off;

    #[test]
    fn grids_line_up_with_their_goldens() {
        assert_eq!(SimGrid::fig12().unwrap().points.len(), 162);
        assert_eq!(SimGrid::fig16().unwrap().points.len(), 14);
    }

    #[test]
    fn tiny_passes_reproduce_under_the_tracer() {
        for points in [fig12_points(), fig16_points()] {
            let grid = SimGrid::tiny(points);
            let mut tracer = Tracer::default();
            let traced = grid.pass(7, false, &mut tracer);
            assert_eq!(traced.items, grid.pass(7, false, &mut Off).items);
            assert!(traced.work > 0 && traced.sim_ns.len() == traced.items.len());
            let layers = grid.layers(&traced, &tracer);
            assert!(layers["system.ns_per_req"] > 0.0);
        }
    }

    #[test]
    fn golden_check_names_each_drifted_run() {
        let grid = SimGrid::tiny(fig16_points());
        let items = grid.pass(GOLDEN_SEED, false, &mut Off).items;
        let mut golden: Vec<Pinned> = items.iter().map(Pinned::of).collect();
        golden[3].cycles += 1;
        let grid = SimGrid { golden, ..grid };
        let failures = grid.check(GOLDEN_SEED, &items);
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].starts_with(&grid.points[3].label),
            "{failures:?}"
        );
        assert!(grid.check(GOLDEN_SEED + 1, &items).is_empty());
    }
}
