//! Structured per-run metrics and the `results/<bin>.json` report.
//!
//! Every sweep run is summarized as a [`RunMetrics`] record; an
//! experiment's render collects its records into a [`MetricsReport`],
//! which the driver writes with the hand-rolled [`sam_util::json`] writer, so the figure/table numbers are
//! machine-readable next to the printed tables. [`lint_metrics_json`]
//! validates a report against the schema below — `sam-check lint-json`
//! and CI call it on the emitted files.
//!
//! The serialized report deliberately omits the worker count: the runs
//! are deterministic and ordered by submission index, so the same
//! configuration must produce a byte-identical file at any `--jobs`.
//!
//! Schema (all keys required):
//!
//! ```text
//! { "bin": str, "checked": bool,
//!   "plan": { "ta_records": uint, "tb_records": uint, "seed": uint },
//!   "runs": [ { "query": str, "design": str, "store": str,
//!               "cycles": uint, "speedup": number, "row_hit_rate": number,
//!               "read_latency_mean": number, "read_latency_p99": uint,
//!               "write_latency_mean": number, "write_latency_p99": uint,
//!               "refreshes": uint, "energy_uj": number,
//!               "check_violations": uint } ] }
//! ```

use std::collections::BTreeSet;

use sam::design::Design;
use sam::layout::Store;
use sam::system::RunResult;
use sam_imdb::exec::QueryRun;
use sam_imdb::plan::PlanConfig;
use sam_memctrl::controller::{ControllerStats, CoreLanes};
use sam_memctrl::request::ReqKind;
use sam_power::{energy_uj, ActivityCounts, PowerParams};
use sam_util::json::Json;

/// The structured outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Query name (e.g. `"Q3"`).
    pub query: String,
    /// Design name (e.g. `"SAM-en"`).
    pub design: String,
    /// Store layout (`"Row"` / `"Column"`).
    pub store: String,
    /// End-to-end memory-clock cycles.
    pub cycles: u64,
    /// Speedup vs the run's baseline (1.0 for the baseline itself).
    pub speedup: f64,
    /// Row-hit rate over all column accesses (0.0 when none).
    pub row_hit_rate: f64,
    /// Mean read latency in memory cycles.
    pub read_latency_mean: f64,
    /// p99 read-latency upper bound (power-of-two bucket).
    pub read_latency_p99: u64,
    /// Mean write latency in memory cycles.
    pub write_latency_mean: f64,
    /// p99 write-latency upper bound (power-of-two bucket).
    pub write_latency_p99: u64,
    /// Total run energy in microjoules (substrate power model).
    pub energy_uj: f64,
    /// Check violations (protocol + cache); 0 on unchecked runs.
    pub check_violations: u64,
    /// Per-(core, kind) controller lanes for this run.
    ///
    /// Serialized only when the report has per-core output enabled
    /// ([`MetricsReport::with_per_core`], the `--per-core` flag) — the
    /// default `results/<bin>.json` stays byte-identical.
    pub per_core: CoreLanes,
    /// The controller's aggregate counters: `refreshes` is serialized on
    /// its own, and the rest next to the lanes as `per_core.totals`,
    /// through the same seven keys as each lane (no lane owns a refresh),
    /// so the telescoping invariant is checkable from the JSON alone.
    pub ctrl: ControllerStats,
}

impl RunMetrics {
    /// Summarizes a run. `gather` is the gather granularity in bytes
    /// (`system.granularity.gather()`), an input to the energy model.
    pub fn from_run(run: &QueryRun, design: &Design, speedup: f64, gather: u64) -> Self {
        Self::from_result(
            run.query.name(),
            design,
            run.store,
            &run.result,
            speedup,
            gather,
        )
    }

    /// [`Self::from_run`] for raw [`RunResult`]s whose workload is not a
    /// named query (the motivation traces), under a free-form label.
    pub fn from_result(
        query: impl Into<String>,
        design: &Design,
        store: Store,
        r: &RunResult,
        speedup: f64,
        gather: u64,
    ) -> Self {
        let params = PowerParams::for_design(design);
        let activity = ActivityCounts::from_run(r, gather);
        Self {
            query: query.into(),
            design: design.name.to_string(),
            store: format!("{store:?}"),
            cycles: r.cycles,
            speedup,
            row_hit_rate: r.ctrl.row_hit_rate().unwrap_or(0.0),
            read_latency_mean: r.read_latency_mean,
            read_latency_p99: r.read_latency_p99,
            write_latency_mean: r.write_latency_mean,
            write_latency_p99: r.write_latency_p99,
            energy_uj: energy_uj(&params, design, &activity),
            check_violations: 0,
            per_core: r.per_core.clone(),
            ctrl: r.ctrl,
        }
    }

    pub(crate) fn to_json(&self, per_core: bool) -> Json {
        let mut pairs = vec![
            ("query", Json::str(&self.query)),
            ("design", Json::str(&self.design)),
            ("store", Json::str(&self.store)),
            ("cycles", Json::UInt(self.cycles)),
            ("speedup", Json::Float(self.speedup)),
            ("row_hit_rate", Json::Float(self.row_hit_rate)),
            ("read_latency_mean", Json::Float(self.read_latency_mean)),
            ("read_latency_p99", Json::UInt(self.read_latency_p99)),
            ("write_latency_mean", Json::Float(self.write_latency_mean)),
            ("write_latency_p99", Json::UInt(self.write_latency_p99)),
            ("refreshes", Json::UInt(self.ctrl.refreshes)),
            ("energy_uj", Json::Float(self.energy_uj)),
            ("check_violations", Json::UInt(self.check_violations)),
        ];
        if per_core {
            pairs.push(("per_core", self.per_core_json()));
        }
        Json::object(pairs)
    }

    /// The run's `per_core` section: aggregate `totals` plus one entry per
    /// non-zero (core, kind) lane, in (core, kind-index) order.
    fn per_core_json(&self) -> Json {
        let mut lanes = Vec::new();
        for core in 0..self.per_core.cores() {
            for kind in ReqKind::ALL {
                let lane = self.per_core.lane(core as u8, kind);
                if lane.is_zero() {
                    continue;
                }
                let mut pairs = vec![
                    ("core", Json::UInt(core as u64)),
                    ("kind", Json::str(kind.label())),
                ];
                pairs.extend(lane_stat_pairs(&lane));
                lanes.push(Json::object(pairs));
            }
        }
        Json::object([
            ("totals", Json::object(lane_stat_pairs(&self.ctrl))),
            ("lanes", Json::Array(lanes)),
        ])
    }
}

/// The serialized field set of one [`ControllerStats`], `refreshes` left
/// out (shared by `totals` and each lane entry, so the lint can sum them
/// field-by-field).
const LANE_STAT_KEYS: [&str; 7] = [
    "row_hits",
    "row_misses",
    "row_conflicts",
    "reads",
    "writes",
    "latency",
    "starved",
];

fn lane_stat_pairs(lane: &ControllerStats) -> Vec<(&'static str, Json)> {
    vec![
        ("row_hits", Json::UInt(lane.row_hits)),
        ("row_misses", Json::UInt(lane.row_misses)),
        ("row_conflicts", Json::UInt(lane.row_conflicts)),
        ("reads", Json::UInt(lane.reads_done)),
        ("writes", Json::UInt(lane.writes_done)),
        ("latency", Json::UInt(lane.total_latency)),
        ("starved", Json::UInt(lane.starvation_forced)),
    ]
}

/// A whole binary's metrics: configuration plus every run, in the order
/// the runs were submitted to the sweep (deterministic across `--jobs`).
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Binary name (`"fig12"`, ...).
    pub bin: String,
    /// Plan scaling the runs used.
    pub plan: PlanConfig,
    /// Worker threads the sweep ran with.
    pub jobs: usize,
    /// Whether the verification oracle shadowed the runs.
    pub checked: bool,
    /// Whether each serialized run carries its `per_core` section (the
    /// `--per-core` flag). Off by default: the report stays byte-identical
    /// to the pre-provenance schema.
    pub per_core: bool,
    /// Per-run records.
    pub runs: Vec<RunMetrics>,
}

impl MetricsReport {
    /// An empty report for a binary about to run its sweeps.
    pub fn new(bin: impl Into<String>, plan: PlanConfig, jobs: usize, checked: bool) -> Self {
        Self {
            bin: bin.into(),
            plan,
            jobs,
            checked,
            per_core: false,
            runs: Vec::new(),
        }
    }

    /// Enables (or disables) the per-run `per_core` sections and the
    /// cycles rollup (builder-style, from the `--per-core` flag).
    pub fn with_per_core(mut self, on: bool) -> Self {
        self.per_core = on;
        self
    }

    /// The report as a JSON tree (the `results/<bin>.json` schema). The
    /// worker count is not serialized — see the module docs.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("bin", Json::str(&self.bin)),
            ("checked", Json::Bool(self.checked)),
            (
                "plan",
                Json::object([
                    ("ta_records", Json::UInt(self.plan.ta_records)),
                    ("tb_records", Json::UInt(self.plan.tb_records)),
                    ("seed", Json::UInt(self.plan.seed)),
                ]),
            ),
            (
                "runs",
                Json::Array(self.runs.iter().map(|r| r.to_json(self.per_core)).collect()),
            ),
        ])
    }

    /// Flamegraph-style rollup of where the memory cycles went: one folded
    /// stack line `design;coreN;kind <latency-cycles>` per (design, core,
    /// kind) lane, summed across every run, in first-seen design order
    /// then (core, kind) order. Feed `folded` straight to
    /// `flamegraph.pl`-compatible tooling, or read it as a table.
    pub fn rollup_json(&self) -> Json {
        let mut order: Vec<String> = Vec::new();
        let mut cycles: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        for run in &self.runs {
            for core in 0..run.per_core.cores() {
                for kind in ReqKind::ALL {
                    let lane = run.per_core.lane(core as u8, kind);
                    if lane.total_latency == 0 {
                        continue;
                    }
                    let key = format!("{};core{core};{}", run.design, kind.label());
                    if !cycles.contains_key(&key) {
                        order.push(key.clone());
                    }
                    *cycles.entry(key).or_insert(0) += lane.total_latency;
                }
            }
        }
        let folded: Vec<Json> = order
            .iter()
            .map(|key| Json::str(format!("{key} {}", cycles[key])))
            .collect();
        Json::object([
            ("bin", Json::str(&self.bin)),
            ("metric", Json::str("lane_latency_cycles")),
            ("folded", Json::Array(folded)),
        ])
    }
}

/// Validates a parsed `results/<bin>.json` document against the module
/// schema.
///
/// # Errors
///
/// Returns a human-readable description of the first schema violation
/// (missing key, wrong type, non-finite number serialized as `null`).
pub fn lint_metrics_json(doc: &Json) -> Result<(), String> {
    require_str(doc, "bin")?;
    match doc.get("checked") {
        Some(Json::Bool(_)) => {}
        other => return Err(expected("checked", "bool", other)),
    }
    let plan = doc
        .get("plan")
        .ok_or_else(|| "missing key 'plan'".to_string())?;
    for key in ["ta_records", "tb_records", "seed"] {
        require_uint(plan, key).map_err(|e| format!("plan: {e}"))?;
    }
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing or non-array key 'runs'".to_string())?;
    for (i, run) in runs.iter().enumerate() {
        lint_run(run).map_err(|e| format!("runs[{i}]: {e}"))?;
    }
    Ok(())
}

pub(crate) fn lint_run(run: &Json) -> Result<(), String> {
    for key in ["query", "design", "store"] {
        require_str(run, key)?;
    }
    for key in [
        "cycles",
        "read_latency_p99",
        "write_latency_p99",
        "refreshes",
        "check_violations",
    ] {
        require_uint(run, key)?;
    }
    for key in [
        "speedup",
        "row_hit_rate",
        "read_latency_mean",
        "write_latency_mean",
        "energy_uj",
    ] {
        match run.get(key) {
            Some(v) if v.is_number() => {}
            other => return Err(expected(key, "number", other)),
        }
    }
    if let Some(per_core) = run.get("per_core") {
        lint_per_core(per_core).map_err(|e| format!("per_core: {e}"))?;
    }
    Ok(())
}

/// Validates a run's optional `per_core` section: the lane entries are
/// well-formed, every `kind` is a known request-kind label, no (core,
/// kind) pair repeats, and — the telescoping invariant — the lanes sum
/// field-wise to `totals` exactly (refreshes are aggregate-only, so every
/// serialized field must be conserved).
fn lint_per_core(per_core: &Json) -> Result<(), String> {
    let totals = per_core
        .get("totals")
        .ok_or_else(|| "missing key 'totals'".to_string())?;
    for key in LANE_STAT_KEYS {
        require_uint(totals, key).map_err(|e| format!("totals: {e}"))?;
    }
    let lanes = per_core
        .get("lanes")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing or non-array key 'lanes'".to_string())?;
    let mut seen = BTreeSet::new();
    let mut sums = [0u64; LANE_STAT_KEYS.len()];
    for (i, lane) in lanes.iter().enumerate() {
        require_uint(lane, "core").map_err(|e| format!("lanes[{i}]: {e}"))?;
        let kind = match lane.get("kind") {
            Some(Json::Str(s)) => s.clone(),
            other => return Err(format!("lanes[{i}]: {}", expected("kind", "string", other))),
        };
        if !ReqKind::ALL.iter().any(|k| k.label() == kind) {
            return Err(format!("lanes[{i}]: unknown request kind '{kind}'"));
        }
        let core = match lane.get("core") {
            Some(Json::UInt(c)) => *c,
            _ => unreachable!("checked above"),
        };
        if !seen.insert((core, kind.clone())) {
            return Err(format!("lanes[{i}]: duplicate lane (core {core}, {kind})"));
        }
        for (s, key) in sums.iter_mut().zip(LANE_STAT_KEYS) {
            match lane.get(key) {
                Some(Json::UInt(v)) => {
                    *s = s.checked_add(*v).ok_or_else(|| {
                        format!("lanes[{i}]: sum of '{key}' over the lanes overflows u64")
                    })?;
                }
                other => {
                    return Err(format!(
                        "lanes[{i}]: {}",
                        expected(key, "unsigned integer", other)
                    ))
                }
            }
        }
    }
    for (s, key) in sums.iter().zip(LANE_STAT_KEYS) {
        let Some(Json::UInt(total)) = totals.get(key) else {
            unreachable!("checked above");
        };
        if s != total {
            return Err(format!(
                "lanes do not telescope: sum of '{key}' is {s}, totals say {total}"
            ));
        }
    }
    Ok(())
}

fn require_str(doc: &Json, key: &str) -> Result<(), String> {
    match doc.get(key) {
        Some(Json::Str(_)) => Ok(()),
        other => Err(expected(key, "string", other)),
    }
}

fn require_uint(doc: &Json, key: &str) -> Result<(), String> {
    match doc.get(key) {
        Some(Json::UInt(_)) => Ok(()),
        other => Err(expected(key, "unsigned integer", other)),
    }
}

fn expected(key: &str, kind: &str, got: Option<&Json>) -> String {
    match got {
        Some(v) => format!("key '{key}' must be a {kind}, got {v}"),
        None => format!("missing key '{key}'"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam::designs;
    use sam::layout::Store;
    use sam::system::SystemConfig;
    use sam_imdb::exec::{run_query, Workload};
    use sam_imdb::query::Query;

    fn sample_report() -> MetricsReport {
        let workload = Workload::new(Query::Q4, PlanConfig::tiny());
        let design = designs::sam_en();
        let run = run_query(&workload, &design, Store::Row);
        let gather = SystemConfig::default().granularity.gather() as u64;
        let mut report = MetricsReport::new("fig12", PlanConfig::tiny(), 2, false);
        report
            .runs
            .push(RunMetrics::from_run(&run, &design, 1.7, gather));
        report
    }

    #[test]
    fn emitted_report_passes_its_own_lint() {
        let report = sample_report();
        let text = report.to_json().to_string();
        let doc = Json::parse(&text).expect("writer output parses");
        lint_metrics_json(&doc).expect("writer output passes lint");
    }

    #[test]
    fn run_metrics_capture_simulation_state() {
        let report = sample_report();
        let m = &report.runs[0];
        assert_eq!(m.query, "Q4");
        assert_eq!(m.design, "SAM-en");
        assert_eq!(m.store, "Row");
        assert!(m.cycles > 0);
        assert!(m.row_hit_rate > 0.0 && m.row_hit_rate <= 1.0);
        assert!(m.read_latency_mean > 0.0);
        assert!(m.read_latency_p99 >= m.read_latency_mean as u64);
        assert!(m.energy_uj > 0.0);
        assert_eq!(m.check_violations, 0);
    }

    #[test]
    fn lint_rejects_missing_and_mistyped_keys() {
        let mut doc = Json::parse(&sample_report().to_json().to_string()).unwrap();
        lint_metrics_json(&doc).unwrap();

        // Missing top-level key.
        if let Json::Object(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "bin");
        }
        let e = lint_metrics_json(&doc).unwrap_err();
        assert!(e.contains("bin"), "{e}");

        // Mistyped run field.
        let mut doc = Json::parse(&sample_report().to_json().to_string()).unwrap();
        if let Some(Json::Array(runs)) = match &mut doc {
            Json::Object(pairs) => pairs.iter_mut().find(|(k, _)| k == "runs").map(|(_, v)| v),
            _ => None,
        } {
            if let Json::Object(run) = &mut runs[0] {
                for (k, v) in run.iter_mut() {
                    if k == "cycles" {
                        *v = Json::str("fast");
                    }
                }
            }
        }
        let e = lint_metrics_json(&doc).unwrap_err();
        assert!(e.contains("runs[0]") && e.contains("cycles"), "{e}");
    }

    /// The `--per-core` opt-in keeps the same byte-stability promise:
    /// absent the flag, a report full of populated lanes serializes
    /// exactly as before the field existed.
    #[test]
    fn per_core_stays_out_of_the_default_schema() {
        let report = sample_report();
        assert!(report.runs[0].per_core.cores() > 0, "lanes are populated");
        let text = report.to_json().to_string();
        assert!(!text.contains("per_core"), "{text}");
    }

    #[test]
    fn per_core_section_passes_lint_and_telescopes() {
        let report = sample_report().with_per_core(true);
        let text = report.to_json().to_string();
        assert!(text.contains("per_core"), "{text}");
        let doc = Json::parse(&text).expect("writer output parses");
        lint_metrics_json(&doc).expect("per-core output passes lint");
    }

    /// A forged document whose lane sums wrap: two demand lanes of 2^63
    /// reads each against `totals.reads = 0` must not wrap to a match (or
    /// panic in a debug build).
    #[test]
    fn lint_rejects_lane_sums_that_overflow() {
        let stats = |reads: u64| {
            LANE_STAT_KEYS
                .iter()
                .map(move |&k| (k, Json::UInt(if k == "reads" { reads } else { 0 })))
        };
        let lane = |core: u64| {
            let id = [("core", Json::UInt(core)), ("kind", Json::str("demand"))];
            Json::object(id.into_iter().chain(stats(1 << 63)))
        };
        let per_core = Json::object([
            ("totals", Json::object(stats(0))),
            ("lanes", Json::Array(vec![lane(0), lane(1)])),
        ]);
        let e = lint_per_core(&per_core).unwrap_err();
        assert!(
            e.contains("lanes[1]") && e.contains("'reads'") && e.contains("overflow"),
            "{e}"
        );
    }

    #[test]
    fn lint_rejects_lanes_that_do_not_telescope() {
        let mut report = sample_report().with_per_core(true);
        report.runs[0].ctrl.reads_done += 1;
        let doc = Json::parse(&report.to_json().to_string()).unwrap();
        let e = lint_metrics_json(&doc).unwrap_err();
        assert!(e.contains("telescope"), "{e}");
    }

    /// Two independently-built reports must fold to the same bytes: the
    /// rollup's interior cycle map is a `BTreeMap` so stack order cannot
    /// depend on hash state.
    #[test]
    fn rollup_is_byte_identical_across_builds() {
        let a = sample_report().rollup_json().to_string();
        let b = sample_report().rollup_json().to_string();
        assert_eq!(a, b);
    }

    #[test]
    fn rollup_folds_cycles_by_design_core_kind() {
        let report = sample_report();
        let doc = Json::parse(&report.rollup_json().to_string()).unwrap();
        assert!(matches!(doc.get("bin"), Some(Json::Str(b)) if b == "fig12"));
        let folded = doc.get("folded").and_then(Json::as_array).unwrap();
        assert!(!folded.is_empty());
        let total: u64 = folded
            .iter()
            .map(|line| {
                let Json::Str(s) = line else { panic!("{line}") };
                let (stack, cycles) = s.rsplit_once(' ').expect("folded line has a count");
                assert_eq!(stack.split(';').count(), 3, "design;coreN;kind: {s}");
                assert!(stack.contains(";core"), "{s}");
                cycles.parse::<u64>().expect("count parses")
            })
            .sum();
        assert_eq!(total, report.runs[0].ctrl.total_latency);
    }

    #[test]
    fn serialized_report_is_independent_of_jobs() {
        let mut a = sample_report();
        let mut b = sample_report();
        a.jobs = 1;
        b.jobs = 8;
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    }
}
