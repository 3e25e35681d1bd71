//! Figure 16: the hybrid DRAM-as-cache topology — a commodity DDR4 front
//! cache over the RC-NVM-wd RRAM substrate — swept over cache-block size
//! × write policy against the flat RRAM baseline.
//!
//! Each query contributes one chunk: the flat `RC-NVM-wd` run first
//! (speedup 1.0), then every `(block size, write policy)` hybrid point.
//! Hybrid speedups are normalized to that query's flat baseline, so a
//! value above 1.0 means the DRAM cache pays for its tag traffic. Energy
//! is split per level — the DDR4 front is charged at DRAM rates, the RRAM
//! backing store at RRAM rates — and the point's `energy_uj` is their sum.
//!
//! Schema of `results/fig16.json` (all keys required; `run` entries
//! follow the [`crate::metrics`] run schema):
//!
//! ```text
//! { "bin": "fig16", "checked": bool,
//!   "plan": { "ta_records": uint, "tb_records": uint, "seed": uint },
//!   "baselines": [ { "query": str, "run": <run> } ],
//!   "points": [ { "label": str, "query": str, "block_bytes": uint,
//!                 "policy": "writeback"|"writethrough",
//!                 "hits": uint, "misses": uint, "fills": uint,
//!                 "dirty_evictions": uint, "writethroughs": uint,
//!                 "hit_rate": number,
//!                 "energy_front_uj": number, "energy_back_uj": number,
//!                 "run": <run> } ] }
//! ```

use sam::design::Design;
use sam::designs;
use sam::layout::Store;
use sam::system::SystemConfig;
use sam_dram::device::DeviceStats;
use sam_imdb::exec::{speedup, QueryRun, Workload};
use sam_imdb::plan::PlanConfig;
use sam_imdb::query::Query;
use sam_memctrl::hybrid::{HybridConfig, HybridSummary, WritePolicy};
use sam_power::{energy_uj, ActivityCounts, PowerParams};
use sam_util::json::Json;

use crate::experiment::Run;
use crate::metrics::{lint_run, RunMetrics};

/// Cache-block sizes swept (bytes). Strictly larger than the 64 B line so
/// every block spans multiple controller requests.
pub const BLOCK_BYTES: [u64; 3] = [128, 256, 512];

/// Write policies swept.
pub const POLICIES: [WritePolicy; 2] = [WritePolicy::Writeback, WritePolicy::Writethrough];

/// The figure's query set: one scan-heavy read query and one UPDATE, so
/// the write policy has observable consequences.
pub fn queries() -> [Query; 2] {
    [Query::Q3, Query::Q12]
}

/// The backing design fronted by the DRAM cache (and the flat baseline).
pub fn backing_design() -> Design {
    designs::rc_nvm_wd()
}

/// Runs per query chunk: the flat baseline plus every hybrid point.
pub fn chunk_len() -> usize {
    1 + BLOCK_BYTES.len() * POLICIES.len()
}

/// The swept hybrid configurations, in serialization order (block size
/// major, policy minor).
pub fn point_configs() -> Vec<HybridConfig> {
    let mut configs = Vec::with_capacity(BLOCK_BYTES.len() * POLICIES.len());
    for block in BLOCK_BYTES {
        for policy in POLICIES {
            configs.push(HybridConfig::new(block, policy));
        }
    }
    configs
}

/// Sweep label of one hybrid point, e.g. `"Q12/bs256/writeback"`.
pub fn point_label(query: Query, cfg: &HybridConfig) -> String {
    format!(
        "{}/bs{}/{}",
        query.name(),
        cfg.block_bytes,
        cfg.policy.label()
    )
}

/// Plans one query's chunk: the flat RRAM baseline first (label
/// `"<query>/flat"`), then every hybrid point in [`point_configs`] order.
pub fn grid_runs(query: Query, plan: PlanConfig, system: SystemConfig) -> Vec<Run> {
    let mut runs = Vec::with_capacity(chunk_len());
    let flat = Workload::new(query, plan).with_system(system);
    let label = format!("{}/flat", query.name());
    runs.push(Run::query(label, flat, backing_design(), Store::Row));
    for cfg in point_configs() {
        let hybrid = SystemConfig {
            hybrid: Some(cfg),
            ..system
        };
        let workload = Workload::new(query, plan).with_system(hybrid);
        let label = point_label(query, &cfg);
        runs.push(Run::query(label, workload, backing_design(), Store::Row));
    }
    runs
}

/// One hybrid configuration's measured outcome.
#[derive(Debug, Clone)]
pub struct Fig16Point {
    /// Sweep label (see [`point_label`]).
    pub label: String,
    /// Query name.
    pub query: String,
    /// Cache-block size in bytes.
    pub block_bytes: u64,
    /// Write policy of the point.
    pub policy: WritePolicy,
    /// The hybrid controller's decision/traffic summary.
    pub summary: HybridSummary,
    /// Energy charged to the DDR4 front cache (µJ).
    pub energy_front_uj: f64,
    /// Energy charged to the RRAM backing store (µJ).
    pub energy_back_uj: f64,
    /// Standard per-run metrics; `energy_uj` is the front+back sum and
    /// `speedup` is vs the query's flat baseline.
    pub run: RunMetrics,
}

/// Activity of one level of the hierarchy: that level's device counters
/// over the whole run's wall-clock (background power accrues for the full
/// duration on both levels).
fn level_activity(stats: &DeviceStats, cycles: u64, gather: u64) -> ActivityCounts {
    ActivityCounts {
        cycles,
        acts: stats.acts,
        reads: stats.reads,
        writes: stats.writes,
        stride_reads: stats.stride_reads,
        stride_writes: stats.stride_writes,
        refreshes: stats.refreshes,
        gather,
    }
}

/// Assembles one query's chunk (baseline first, then the points in
/// [`point_configs`] order) into the baseline metrics and the hybrid
/// points.
///
/// # Panics
///
/// Panics if the chunk length does not match [`chunk_len`] or a hybrid
/// run is missing its summary.
pub fn assemble_chunk(
    chunk: &[QueryRun],
    query: Query,
    gather: u64,
) -> (RunMetrics, Vec<Fig16Point>) {
    assert_eq!(chunk.len(), chunk_len(), "one baseline + every point");
    let back_design = backing_design();
    let base = &chunk[0];
    let baseline = RunMetrics::from_run(base, &back_design, speedup(base, base), gather);
    let mut points = Vec::with_capacity(chunk.len() - 1);
    for (cfg, run) in point_configs().iter().zip(&chunk[1..]) {
        let summary = run
            .result
            .hybrid
            .expect("hybrid runs carry a level summary");
        let mut metrics = RunMetrics::from_run(run, &back_design, speedup(base, run), gather);
        let energy_front_uj = energy_uj(
            &PowerParams::ddr4(),
            &designs::commodity(),
            &level_activity(&summary.front, run.result.cycles, gather),
        );
        let energy_back_uj = energy_uj(
            &PowerParams::rram(),
            &back_design,
            &level_activity(&summary.back, run.result.cycles, gather),
        );
        metrics.energy_uj = energy_front_uj + energy_back_uj;
        points.push(Fig16Point {
            label: point_label(query, cfg),
            query: query.name(),
            block_bytes: cfg.block_bytes,
            policy: cfg.policy,
            summary,
            energy_front_uj,
            energy_back_uj,
            run: metrics,
        });
    }
    (baseline, points)
}

/// The figure's report: per-query flat baselines plus every hybrid point,
/// in sweep submission order.
#[derive(Debug, Clone)]
pub struct Fig16Report {
    /// Plan scaling the runs used.
    pub plan: PlanConfig,
    /// Whether the verification oracles shadowed the runs.
    pub checked: bool,
    /// Whether run entries carry their `per_core` sections (`--per-core`).
    pub per_core: bool,
    /// Flat-baseline metrics, one per query.
    pub baselines: Vec<(String, RunMetrics)>,
    /// Hybrid points, grouped by query in sweep order.
    pub points: Vec<Fig16Point>,
}

impl Fig16Report {
    /// An empty report about to collect the sweep.
    pub fn new(plan: PlanConfig, checked: bool, per_core: bool) -> Self {
        Self {
            plan,
            checked,
            per_core,
            baselines: Vec::new(),
            points: Vec::new(),
        }
    }

    /// The report as a JSON tree (the module-docs schema).
    pub fn to_json(&self) -> Json {
        let baselines: Vec<Json> = self
            .baselines
            .iter()
            .map(|(query, run)| {
                Json::object([
                    ("query", Json::str(query)),
                    ("run", run.to_json(self.per_core)),
                ])
            })
            .collect();
        let points: Vec<Json> = self
            .points
            .iter()
            .map(|p| {
                Json::object([
                    ("label", Json::str(&p.label)),
                    ("query", Json::str(&p.query)),
                    ("block_bytes", Json::UInt(p.block_bytes)),
                    ("policy", Json::str(p.policy.label())),
                    ("hits", Json::UInt(p.summary.hits)),
                    ("misses", Json::UInt(p.summary.misses)),
                    ("fills", Json::UInt(p.summary.fills)),
                    ("dirty_evictions", Json::UInt(p.summary.dirty_evictions)),
                    ("writethroughs", Json::UInt(p.summary.writethroughs)),
                    ("hit_rate", Json::Float(p.summary.hit_rate())),
                    ("energy_front_uj", Json::Float(p.energy_front_uj)),
                    ("energy_back_uj", Json::Float(p.energy_back_uj)),
                    ("run", p.run.to_json(self.per_core)),
                ])
            })
            .collect();
        Json::object([
            ("bin", Json::str("fig16")),
            ("checked", Json::Bool(self.checked)),
            (
                "plan",
                Json::object([
                    ("ta_records", Json::UInt(self.plan.ta_records)),
                    ("tb_records", Json::UInt(self.plan.tb_records)),
                    ("seed", Json::UInt(self.plan.seed)),
                ]),
            ),
            ("baselines", Json::Array(baselines)),
            ("points", Json::Array(points)),
        ])
    }
}

/// Relative tolerance for the energy-split cross-check in the lint.
const ENERGY_SPLIT_TOLERANCE: f64 = 1e-9;

/// Validates a parsed `results/fig16.json` document against the module
/// schema, including the semantic cross-checks: `policy` is a known
/// label, `block_bytes` is a power of two of at least two 64 B lines,
/// `hit_rate` matches `hits / (hits + misses)`, and each point's
/// `energy_front_uj + energy_back_uj` equals its run's `energy_uj`.
///
/// # Errors
///
/// Returns a human-readable description of the first schema violation.
pub fn lint_fig16_json(doc: &Json) -> Result<(), String> {
    match doc.get("bin") {
        Some(Json::Str(s)) if s == "fig16" => {}
        other => return Err(format!("key 'bin' must be \"fig16\", got {other:?}")),
    }
    match doc.get("checked") {
        Some(Json::Bool(_)) => {}
        other => return Err(format!("key 'checked' must be a bool, got {other:?}")),
    }
    let plan = doc
        .get("plan")
        .ok_or_else(|| "missing key 'plan'".to_string())?;
    for key in ["ta_records", "tb_records", "seed"] {
        match plan.get(key) {
            Some(Json::UInt(_)) => {}
            other => return Err(format!("plan: key '{key}' must be a uint, got {other:?}")),
        }
    }
    let baselines = doc
        .get("baselines")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing or non-array key 'baselines'".to_string())?;
    for (i, b) in baselines.iter().enumerate() {
        match b.get("query") {
            Some(Json::Str(_)) => {}
            other => {
                return Err(format!(
                    "baselines[{i}]: key 'query' must be a string, got {other:?}"
                ))
            }
        }
        let run = b
            .get("run")
            .ok_or_else(|| format!("baselines[{i}]: missing key 'run'"))?;
        lint_run(run).map_err(|e| format!("baselines[{i}].run: {e}"))?;
    }
    let points = doc
        .get("points")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing or non-array key 'points'".to_string())?;
    for (i, p) in points.iter().enumerate() {
        lint_point(p).map_err(|e| format!("points[{i}]: {e}"))?;
    }
    Ok(())
}

fn lint_point(p: &Json) -> Result<(), String> {
    for key in ["label", "query"] {
        match p.get(key) {
            Some(Json::Str(_)) => {}
            other => return Err(format!("key '{key}' must be a string, got {other:?}")),
        }
    }
    match p.get("policy") {
        Some(Json::Str(s)) if POLICIES.iter().any(|pol| pol.label() == *s) => {}
        other => return Err(format!("unknown write policy {other:?}")),
    }
    let uint = |key: &str| match p.get(key) {
        Some(Json::UInt(v)) => Ok(*v),
        other => Err(format!("key '{key}' must be a uint, got {other:?}")),
    };
    let number = |key: &str| match p.get(key) {
        Some(v) if v.is_number() => Ok(v.as_f64().unwrap_or(f64::NAN)),
        other => Err(format!("key '{key}' must be a number, got {other:?}")),
    };
    let block = uint("block_bytes")?;
    if !block.is_power_of_two() || block < 128 {
        return Err(format!(
            "block_bytes must be a power of two spanning at least two 64 B lines, got {block}"
        ));
    }
    let hits = uint("hits")?;
    let misses = uint("misses")?;
    for key in ["fills", "dirty_evictions", "writethroughs"] {
        uint(key)?;
    }
    let hit_rate = number("hit_rate")?;
    let accesses = hits
        .checked_add(misses)
        .ok_or_else(|| format!("hits {hits} + misses {misses} overflows u64"))?;
    let expected = if accesses == 0 {
        0.0
    } else {
        hits as f64 / accesses as f64
    };
    if (hit_rate - expected).abs() > 1e-12 {
        return Err(format!(
            "hit_rate {hit_rate} does not match hits/(hits+misses) = {expected}"
        ));
    }
    let front = number("energy_front_uj")?;
    let back = number("energy_back_uj")?;
    let run = p
        .get("run")
        .ok_or_else(|| "missing key 'run'".to_string())?;
    lint_run(run).map_err(|e| format!("run: {e}"))?;
    let total = run
        .get("energy_uj")
        .and_then(Json::as_f64)
        .ok_or_else(|| "run: key 'energy_uj' must be a number".to_string())?;
    let split = front + back;
    if (split - total).abs() > ENERGY_SPLIT_TOLERANCE * total.abs().max(1.0) {
        return Err(format!(
            "energy split {split} (front {front} + back {back}) does not telescope to the run's energy_uj {total}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Results;
    use sam::system::Instrumentation;

    fn tiny_chunk(query: Query) -> Vec<QueryRun> {
        let runs = grid_runs(query, PlanConfig::tiny(), SystemConfig::default())
            .iter()
            .map(|run| run.job.run(&mut Instrumentation::default()))
            .collect();
        Results {
            runs,
            violations: Vec::new(),
        }
        .into_queries()
    }

    #[test]
    fn chunk_assembles_baseline_plus_every_point() {
        let query = Query::Q12;
        let runs = tiny_chunk(query);
        let gather = SystemConfig::default().granularity.gather() as u64;
        let (baseline, points) = assemble_chunk(&runs, query, gather);
        assert_eq!(points.len(), BLOCK_BYTES.len() * POLICIES.len());
        assert!((baseline.speedup - 1.0).abs() < 1e-12);
        assert!(baseline.energy_uj > 0.0);
        for p in &points {
            assert_eq!(p.query, "Q12");
            assert!(p.summary.hits + p.summary.misses > 0, "{}", p.label);
            assert!(p.run.speedup > 0.0, "{}", p.label);
            let split = p.energy_front_uj + p.energy_back_uj;
            assert!(
                (split - p.run.energy_uj).abs() <= 1e-9 * split.abs().max(1.0),
                "{}: {split} vs {}",
                p.label,
                p.run.energy_uj
            );
        }
        // Writethrough points never hold dirty lines; writeback points
        // never write through.
        for p in &points {
            match p.policy {
                WritePolicy::Writeback => assert_eq!(p.summary.writethroughs, 0, "{}", p.label),
                WritePolicy::Writethrough => {
                    assert_eq!(p.summary.dirty_evictions, 0, "{}", p.label);
                }
            }
        }
    }

    fn tiny_report() -> Fig16Report {
        let query = Query::Q12;
        let runs = tiny_chunk(query);
        let gather = SystemConfig::default().granularity.gather() as u64;
        let (baseline, points) = assemble_chunk(&runs, query, gather);
        let mut report = Fig16Report::new(PlanConfig::tiny(), false, false);
        report.baselines.push((query.name(), baseline));
        report.points.extend(points);
        report
    }

    #[test]
    fn report_round_trips_through_the_lint() {
        let text = tiny_report().to_json().to_string();
        let doc = Json::parse(&text).expect("writer output parses");
        lint_fig16_json(&doc).expect("fresh report passes lint");
    }

    #[test]
    fn lint_rejects_a_forged_energy_split() {
        let mut report = tiny_report();
        report.points[0].energy_front_uj *= 2.0;
        let doc = Json::parse(&report.to_json().to_string()).unwrap();
        let e = lint_fig16_json(&doc).unwrap_err();
        assert!(e.contains("telescope"), "{e}");
    }

    /// A forged point whose hits + misses wraps to 0 must not pass as an
    /// empty cache with hit rate 0 (or panic in a debug build).
    #[test]
    fn lint_rejects_hit_counts_that_overflow() {
        let mut doc = Json::parse(&tiny_report().to_json().to_string()).unwrap();
        let Json::Object(top) = &mut doc else {
            panic!("a report is an object")
        };
        let Some((_, Json::Array(points))) = top.iter_mut().find(|(k, _)| k == "points") else {
            panic!("a report has points")
        };
        let Json::Object(point) = &mut points[0] else {
            panic!("a point is an object")
        };
        for (k, v) in point.iter_mut() {
            match k.as_str() {
                "hits" | "misses" => *v = Json::UInt(1 << 63),
                "hit_rate" => *v = Json::Float(0.0),
                _ => {}
            }
        }
        let e = lint_fig16_json(&doc).unwrap_err();
        assert!(e.contains("points[0]") && e.contains("overflows"), "{e}");
    }

    #[test]
    fn labels_and_configs_stay_in_lockstep() {
        let runs = grid_runs(Query::Q3, PlanConfig::tiny(), SystemConfig::default());
        assert_eq!(runs.len(), chunk_len());
        assert_eq!(runs[0].label, "Q3/flat");
        for (run, cfg) in runs[1..].iter().zip(point_configs()) {
            assert_eq!(run.label, point_label(Query::Q3, &cfg));
        }
    }
}
