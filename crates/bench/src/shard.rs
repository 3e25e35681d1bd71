//! Sharded sweep execution: record codecs, canonical argv, and the
//! `--shard K/N` and merge-replay halves of the experiment executor.
//!
//! Every experiment's plan ([`crate::experiment::Run`] list) runs in one
//! of three modes, all in plan order:
//!
//! * **local** — run everything; results additionally round-trip through
//!   the record codec ([`roundtrip`]) so a codec bug breaks the
//!   byte-identity goldens immediately, not only on distributed runs;
//! * **shard** (`--shard K/N`, [`run_shard`]) — run only the indices the
//!   deterministic cost-weighted partitioner
//!   ([`crate::sweep::partition_weighted`]) assigns to shard `K`, print
//!   nothing, and write a `results/<bin>.shard-K-of-N.json` envelope;
//! * **replay** (`sam-check merge-shards`, [`replay`]) — decode the merged
//!   records against the plan and skip execution entirely; the driver then
//!   renders, reproducing a local run's stdout and JSON byte-for-byte. A
//!   record that does not match its plan entry is an error, never a panic.
//!
//! The envelope schema and merge oracle live in `sam_check::shards`; this
//! module owns how each outcome serializes ([`ShardRecord`],
//! [`Outcome::decode`]) and the canonical argv an envelope carries so the
//! merge can reconstruct the run configuration exactly
//! ([`canonical_argv`]).

use sam::layout::Store;
use sam::system::{Instrumentation, RunResult, SystemConfig};
use sam_check::shards::{run_digest, ShardEnvelope, ShardRun};
use sam_ecc::inject::CampaignReport;
use sam_imdb::exec::QueryRun;
use sam_imdb::query::Query;
use sam_memctrl::controller::{ControllerStats, CoreLanes, LaneStats};
use sam_memctrl::hybrid::HybridSummary;
use sam_memctrl::request::ReqKind;
use sam_stress::driver::StressOutcome;
use sam_stress::invariant::{InvariantKind, Violation};
use sam_util::json::Json;

use crate::cli::{ArgSpec, BenchArgs};
use crate::experiment::{Job, Outcome, Run};
use crate::heartbeat;
use crate::sweep::{partition_weighted, run_sweep_weighted, SweepPanic, SweepTask};

/// The argv an envelope carries: every flag that shapes *what* runs or
/// what the rendered bytes look like, none that shape *how* it runs
/// (`--jobs`, `--shard`, observability). All `N` shards of one sweep
/// produce the same canonical argv, and the merge re-parses it with
/// [`crate::cli::try_parse_args`] to reconstruct the configuration.
pub fn canonical_argv(spec: &ArgSpec, args: &BenchArgs) -> Vec<String> {
    let mut argv = vec![
        "--rows".to_string(),
        args.plan.ta_records.to_string(),
        "--tb-rows".to_string(),
        args.plan.tb_records.to_string(),
        "--seed".to_string(),
        args.plan.seed.to_string(),
    ];
    if let Some(cap) = args.starvation_cap {
        argv.push("--starvation-cap".to_string());
        argv.push(cap.to_string());
    }
    if let Some(hi) = args.drain_hi {
        argv.push("--drain-hi".to_string());
        argv.push(hi.to_string());
    }
    if let Some(lo) = args.drain_lo {
        argv.push("--drain-lo".to_string());
        argv.push(lo.to_string());
    }
    if spec.accepts_trials {
        argv.push("--trials".to_string());
        argv.push(args.trials.to_string());
    }
    for flag in &args.flags {
        argv.push(flag.clone());
    }
    for panel in &args.panels {
        argv.push(panel.clone());
    }
    argv.push("--out".to_string());
    argv.push(args.out.to_string_lossy().into_owned());
    argv
}

/// A sweep result that can cross a process boundary: serialized into a
/// shard envelope's `record` field and decoded back for the merge
/// replay. The contract is exact: `from_record(parse(to_record()))`
/// must reproduce a value whose rendering is byte-identical, and local
/// runs round-trip every result through it to keep the codec honest.
pub trait ShardRecord: Sized + Send {
    /// Serializes the result.
    fn to_record(&self) -> Json;
    /// Decodes a result.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first mismatch between the
    /// record and this type's schema.
    fn from_record(record: &Json) -> Result<Self, String>;
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing key '{key}'"))
}

fn u64_field(doc: &Json, key: &str) -> Result<u64, String> {
    match field(doc, key)? {
        Json::UInt(v) => Ok(*v),
        other => Err(format!(
            "key '{key}' must be an unsigned integer, got {other}"
        )),
    }
}

// `Json::Float(1.0)` prints as `1` and reparses as `UInt(1)`, so float
// fields must accept any numeric variant; `as_f64` is bit-exact for the
// integers f64 can represent, which covers everything a float field that
// printed without a fraction could have held.
fn f64_field(doc: &Json, key: &str) -> Result<f64, String> {
    field(doc, key)?
        .as_f64()
        .ok_or_else(|| format!("key '{key}' must be a number"))
}

fn str_field<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    field(doc, key)?
        .as_str()
        .ok_or_else(|| format!("key '{key}' must be a string"))
}

fn arr_field<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(doc, key)?
        .as_array()
        .ok_or_else(|| format!("key '{key}' must be an array"))
}

fn ctrl_to_json(s: &ControllerStats) -> Json {
    Json::object([
        ("row_hits", Json::UInt(s.row_hits)),
        ("row_misses", Json::UInt(s.row_misses)),
        ("row_conflicts", Json::UInt(s.row_conflicts)),
        ("reads_done", Json::UInt(s.reads_done)),
        ("writes_done", Json::UInt(s.writes_done)),
        ("total_latency", Json::UInt(s.total_latency)),
        ("refreshes", Json::UInt(s.refreshes)),
        ("starvation_forced", Json::UInt(s.starvation_forced)),
    ])
}

fn ctrl_from_json(doc: &Json) -> Result<ControllerStats, String> {
    Ok(ControllerStats {
        row_hits: u64_field(doc, "row_hits")?,
        row_misses: u64_field(doc, "row_misses")?,
        row_conflicts: u64_field(doc, "row_conflicts")?,
        reads_done: u64_field(doc, "reads_done")?,
        writes_done: u64_field(doc, "writes_done")?,
        total_latency: u64_field(doc, "total_latency")?,
        refreshes: u64_field(doc, "refreshes")?,
        starvation_forced: u64_field(doc, "starvation_forced")?,
    })
}

fn device_to_json(s: &sam_dram::device::DeviceStats) -> Json {
    Json::object([
        ("acts", Json::UInt(s.acts)),
        ("pres", Json::UInt(s.pres)),
        ("reads", Json::UInt(s.reads)),
        ("stride_reads", Json::UInt(s.stride_reads)),
        ("writes", Json::UInt(s.writes)),
        ("stride_writes", Json::UInt(s.stride_writes)),
        ("refreshes", Json::UInt(s.refreshes)),
        ("mode_switches", Json::UInt(s.mode_switches)),
    ])
}

fn device_from_json(doc: &Json) -> Result<sam_dram::device::DeviceStats, String> {
    Ok(sam_dram::device::DeviceStats {
        acts: u64_field(doc, "acts")?,
        pres: u64_field(doc, "pres")?,
        reads: u64_field(doc, "reads")?,
        stride_reads: u64_field(doc, "stride_reads")?,
        writes: u64_field(doc, "writes")?,
        stride_writes: u64_field(doc, "stride_writes")?,
        refreshes: u64_field(doc, "refreshes")?,
        mode_switches: u64_field(doc, "mode_switches")?,
    })
}

fn cache_to_json(s: &sam_cache::set_assoc::CacheStats) -> Json {
    Json::object([
        ("hits", Json::UInt(s.hits)),
        ("sector_misses", Json::UInt(s.sector_misses)),
        ("line_misses", Json::UInt(s.line_misses)),
        ("writebacks", Json::UInt(s.writebacks)),
    ])
}

fn cache_from_json(doc: &Json) -> Result<sam_cache::set_assoc::CacheStats, String> {
    Ok(sam_cache::set_assoc::CacheStats {
        hits: u64_field(doc, "hits")?,
        sector_misses: u64_field(doc, "sector_misses")?,
        line_misses: u64_field(doc, "line_misses")?,
        writebacks: u64_field(doc, "writebacks")?,
    })
}

// A lane is 7 counters; a row is one lane per ReqKind in dense index
// order; per_core is one row per core. All rows serialize (zero lanes
// included) so the round-trip preserves `cores()` and equality exactly.
fn lane_to_json(l: LaneStats) -> Json {
    Json::Array(vec![
        Json::UInt(l.row_hits),
        Json::UInt(l.row_misses),
        Json::UInt(l.row_conflicts),
        Json::UInt(l.reads_done),
        Json::UInt(l.writes_done),
        Json::UInt(l.total_latency),
        Json::UInt(l.starvation_forced),
    ])
}

fn lane_from_json(doc: &Json) -> Result<LaneStats, String> {
    let vals = doc
        .as_array()
        .ok_or_else(|| "lane must be an array".to_string())?;
    if vals.len() != 7 {
        return Err(format!("lane must have 7 counters, got {}", vals.len()));
    }
    let mut nums = [0u64; 7];
    for (slot, v) in nums.iter_mut().zip(vals) {
        match v {
            Json::UInt(n) => *slot = *n,
            other => {
                return Err(format!(
                    "lane counter must be an unsigned integer, got {other}"
                ))
            }
        }
    }
    Ok(LaneStats {
        row_hits: nums[0],
        row_misses: nums[1],
        row_conflicts: nums[2],
        reads_done: nums[3],
        writes_done: nums[4],
        total_latency: nums[5],
        starvation_forced: nums[6],
    })
}

fn lanes_to_json(lanes: &CoreLanes) -> Json {
    Json::Array(
        (0..lanes.cores())
            .map(|core| {
                Json::Array(
                    ReqKind::ALL
                        .iter()
                        .map(|&kind| lane_to_json(lanes.lane(core as u8, kind)))
                        .collect(),
                )
            })
            .collect(),
    )
}

fn lanes_from_json(doc: &Json) -> Result<CoreLanes, String> {
    let rows = doc
        .as_array()
        .ok_or_else(|| "per_core must be an array".to_string())?;
    let mut out = Vec::with_capacity(rows.len());
    for (core, row) in rows.iter().enumerate() {
        let lanes = row
            .as_array()
            .ok_or_else(|| format!("per_core[{core}] must be an array"))?;
        if lanes.len() != ReqKind::COUNT {
            return Err(format!(
                "per_core[{core}] must have {} lanes, got {}",
                ReqKind::COUNT,
                lanes.len()
            ));
        }
        let mut arr = [LaneStats::default(); ReqKind::COUNT];
        for (slot, lane) in arr.iter_mut().zip(lanes) {
            *slot = lane_from_json(lane).map_err(|e| format!("per_core[{core}]: {e}"))?;
        }
        out.push(arr);
    }
    Ok(CoreLanes::from_rows(out))
}

fn hybrid_to_json(h: &HybridSummary) -> Json {
    Json::object([
        ("hits", Json::UInt(h.hits)),
        ("misses", Json::UInt(h.misses)),
        ("fills", Json::UInt(h.fills)),
        ("dirty_evictions", Json::UInt(h.dirty_evictions)),
        ("writethroughs", Json::UInt(h.writethroughs)),
        ("front", device_to_json(&h.front)),
        ("back", device_to_json(&h.back)),
    ])
}

fn hybrid_from_json(j: &Json) -> Result<HybridSummary, String> {
    Ok(HybridSummary {
        hits: u64_field(j, "hits")?,
        misses: u64_field(j, "misses")?,
        fills: u64_field(j, "fills")?,
        dirty_evictions: u64_field(j, "dirty_evictions")?,
        writethroughs: u64_field(j, "writethroughs")?,
        front: device_from_json(field(j, "front")?)?,
        back: device_from_json(field(j, "back")?)?,
    })
}

impl ShardRecord for RunResult {
    fn to_record(&self) -> Json {
        // The "hybrid" key is present exactly when the run used a hybrid
        // topology; flat-topology records (every pre-fig16 golden) carry
        // the same keys as before, byte for byte.
        let mut pairs = vec![
            ("cycles", Json::UInt(self.cycles)),
            ("ctrl", ctrl_to_json(&self.ctrl)),
            ("device", device_to_json(&self.device)),
            (
                "cache",
                Json::Array(vec![
                    cache_to_json(&self.cache.0),
                    cache_to_json(&self.cache.1),
                    cache_to_json(&self.cache.2),
                ]),
            ),
            ("stride_bursts", Json::UInt(self.stride_bursts)),
            ("line_bursts", Json::UInt(self.line_bursts)),
            ("ecc_bursts", Json::UInt(self.ecc_bursts)),
            ("writeback_bursts", Json::UInt(self.writeback_bursts)),
            ("bus_busy", Json::UInt(self.bus_busy)),
            ("latency_mean", Json::Float(self.latency_mean)),
            ("latency_p50", Json::UInt(self.latency_p50)),
            ("latency_p99", Json::UInt(self.latency_p99)),
            ("read_latency_mean", Json::Float(self.read_latency_mean)),
            ("read_latency_p99", Json::UInt(self.read_latency_p99)),
            ("write_latency_mean", Json::Float(self.write_latency_mean)),
            ("write_latency_p99", Json::UInt(self.write_latency_p99)),
            ("per_core", lanes_to_json(&self.per_core)),
        ];
        if let Some(h) = &self.hybrid {
            pairs.push(("hybrid", hybrid_to_json(h)));
        }
        Json::object(pairs)
    }

    fn from_record(record: &Json) -> Result<Self, String> {
        let caches = arr_field(record, "cache")?;
        if caches.len() != 3 {
            return Err(format!(
                "key 'cache' must have 3 levels, got {}",
                caches.len()
            ));
        }
        Ok(RunResult {
            cycles: u64_field(record, "cycles")?,
            ctrl: ctrl_from_json(field(record, "ctrl")?)?,
            device: device_from_json(field(record, "device")?)?,
            cache: (
                cache_from_json(&caches[0])?,
                cache_from_json(&caches[1])?,
                cache_from_json(&caches[2])?,
            ),
            stride_bursts: u64_field(record, "stride_bursts")?,
            line_bursts: u64_field(record, "line_bursts")?,
            ecc_bursts: u64_field(record, "ecc_bursts")?,
            writeback_bursts: u64_field(record, "writeback_bursts")?,
            bus_busy: u64_field(record, "bus_busy")?,
            latency_mean: f64_field(record, "latency_mean")?,
            latency_p50: u64_field(record, "latency_p50")?,
            latency_p99: u64_field(record, "latency_p99")?,
            read_latency_mean: f64_field(record, "read_latency_mean")?,
            read_latency_p99: u64_field(record, "read_latency_p99")?,
            write_latency_mean: f64_field(record, "write_latency_mean")?,
            write_latency_p99: u64_field(record, "write_latency_p99")?,
            per_core: lanes_from_json(field(record, "per_core")?)?,
            hybrid: match record.get("hybrid") {
                Some(h) => Some(hybrid_from_json(h).map_err(|e| format!("key 'hybrid': {e}"))?),
                None => None,
            },
        })
    }
}

fn query_to_json(q: &Query) -> Json {
    match q {
        Query::Arithmetic {
            projectivity,
            selectivity,
        } => Json::object([
            ("kind", Json::str("arith")),
            ("projectivity", Json::UInt(u64::from(*projectivity))),
            ("selectivity", Json::Float(*selectivity)),
        ]),
        Query::Aggregate {
            projectivity,
            selectivity,
        } => Json::object([
            ("kind", Json::str("aggr")),
            ("projectivity", Json::UInt(u64::from(*projectivity))),
            ("selectivity", Json::Float(*selectivity)),
        ]),
        named => Json::str(named.name()),
    }
}

fn query_from_json(doc: &Json) -> Result<Query, String> {
    if let Some(name) = doc.as_str() {
        return Query::q_set()
            .into_iter()
            .chain(Query::qs_set())
            .find(|q| q.name() == name)
            .ok_or_else(|| format!("unknown query '{name}'"));
    }
    let projectivity = u64_field(doc, "projectivity")?;
    let projectivity = u32::try_from(projectivity)
        .map_err(|_| format!("projectivity {projectivity} out of range"))?;
    let selectivity = f64_field(doc, "selectivity")?;
    match str_field(doc, "kind")? {
        "arith" => Ok(Query::Arithmetic {
            projectivity,
            selectivity,
        }),
        "aggr" => Ok(Query::Aggregate {
            projectivity,
            selectivity,
        }),
        other => Err(format!("unknown query kind '{other}'")),
    }
}

// `QueryRun::design` is `&'static str`, so decoding re-interns the name
// against the full design catalog (the standard eight plus the bench-only
// variants) and reuses that design's static name.
fn design_name(name: &str) -> Result<&'static str, String> {
    sam::designs::all_designs()
        .into_iter()
        .chain([
            sam::designs::dgms(),
            sam::designs::sam_en_no_fga(),
            sam::designs::sam_en_no_2d(),
        ])
        .find(|d| d.name == name)
        .map(|d| d.name)
        .ok_or_else(|| format!("unknown design '{name}'"))
}

impl ShardRecord for QueryRun {
    fn to_record(&self) -> Json {
        Json::object([
            ("query", query_to_json(&self.query)),
            ("design", Json::str(self.design)),
            ("store", Json::str(format!("{:?}", self.store))),
            ("result", self.result.to_record()),
        ])
    }

    fn from_record(record: &Json) -> Result<Self, String> {
        let store = match str_field(record, "store")? {
            "Row" => Store::Row,
            "Column" => Store::Column,
            other => return Err(format!("unknown store '{other}'")),
        };
        Ok(QueryRun {
            query: query_from_json(field(record, "query")?)?,
            design: design_name(str_field(record, "design")?)?,
            store,
            result: RunResult::from_record(field(record, "result")?)?,
        })
    }
}

fn violation_to_json(v: &Violation) -> Json {
    Json::object([
        ("kind", Json::str(v.kind.name())),
        ("request_id", Json::UInt(v.request_id)),
        ("at", Json::UInt(v.at)),
        ("detail", Json::str(&v.detail)),
    ])
}

fn violation_from_json(doc: &Json) -> Result<Violation, String> {
    let kind = match str_field(doc, "kind")? {
        "ReadResidencyBound" => InvariantKind::ReadResidencyBound,
        "WatermarkSupremacy" => InvariantKind::WatermarkSupremacy,
        "ForwardProgress" => InvariantKind::ForwardProgress,
        "LaneConservation" => InvariantKind::LaneConservation,
        other => return Err(format!("unknown invariant kind '{other}'")),
    };
    Ok(Violation {
        kind,
        request_id: u64_field(doc, "request_id")?,
        at: u64_field(doc, "at")?,
        detail: str_field(doc, "detail")?.to_string(),
    })
}

impl ShardRecord for StressOutcome {
    fn to_record(&self) -> Json {
        Json::object([
            ("completions", Json::UInt(self.completions)),
            ("reads", Json::UInt(self.reads)),
            ("writes", Json::UInt(self.writes)),
            ("row_hits", Json::UInt(self.row_hits)),
            ("starved", Json::UInt(self.starved)),
            ("refreshes", Json::UInt(self.refreshes)),
            ("max_read_residency", Json::UInt(self.max_read_residency)),
            ("residency_bound", Json::UInt(self.residency_bound)),
            ("last_finish", Json::UInt(self.last_finish)),
            (
                "violations",
                Json::Array(self.violations.iter().map(violation_to_json).collect()),
            ),
            ("lanes_digest", Json::str(&self.lanes_digest)),
        ])
    }

    fn from_record(record: &Json) -> Result<Self, String> {
        let violations = arr_field(record, "violations")?
            .iter()
            .enumerate()
            .map(|(i, v)| violation_from_json(v).map_err(|e| format!("violations[{i}]: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StressOutcome {
            completions: u64_field(record, "completions")?,
            reads: u64_field(record, "reads")?,
            writes: u64_field(record, "writes")?,
            row_hits: u64_field(record, "row_hits")?,
            starved: u64_field(record, "starved")?,
            refreshes: u64_field(record, "refreshes")?,
            max_read_residency: u64_field(record, "max_read_residency")?,
            residency_bound: u64_field(record, "residency_bound")?,
            last_finish: u64_field(record, "last_finish")?,
            violations,
            lanes_digest: str_field(record, "lanes_digest")?.to_string(),
        })
    }
}

impl ShardRecord for CampaignReport {
    fn to_record(&self) -> Json {
        Json::object([
            ("corrected", Json::UInt(self.corrected)),
            ("detected", Json::UInt(self.detected)),
            ("silent", Json::UInt(self.silent)),
            ("unprotected", Json::UInt(self.unprotected)),
        ])
    }

    fn from_record(record: &Json) -> Result<Self, String> {
        Ok(CampaignReport {
            corrected: u64_field(record, "corrected")?,
            detected: u64_field(record, "detected")?,
            silent: u64_field(record, "silent")?,
            unprotected: u64_field(record, "unprotected")?,
        })
    }
}

fn hybrid_matches_plan(result: &RunResult, system: &SystemConfig) -> Result<(), String> {
    match (result.hybrid.is_some(), system.hybrid.is_some()) {
        (true, false) => {
            Err("record carries a hybrid summary but the plan runs a flat topology".into())
        }
        (false, true) => Err("record lacks the hybrid summary the plan's topology produces".into()),
        _ => Ok(()),
    }
}

impl Outcome {
    /// Serializes the outcome with its own type's codec (no variant tag:
    /// the plan says which type each record holds).
    pub(crate) fn to_record(&self) -> Json {
        match self {
            Outcome::Query(r) => r.to_record(),
            Outcome::Run(r) => r.to_record(),
            Outcome::Stress(r) => r.to_record(),
            Outcome::Campaign(r) => r.to_record(),
        }
    }

    /// Decodes `record` as the outcome `job` produces.
    ///
    /// # Errors
    ///
    /// The first schema mismatch, or a decoded run that is not the one the
    /// plan describes (another query, design or store, or a hybrid summary
    /// that contradicts the planned topology).
    pub(crate) fn decode(job: &Job, record: &Json) -> Result<Self, String> {
        match job {
            Job::Query {
                workload,
                design,
                store,
            } => {
                let run = QueryRun::from_record(record)?;
                if run.query != workload.query || run.design != design.name || run.store != *store {
                    return Err(format!(
                        "record is {}/{}/{:?} but the plan runs {}/{}/{store:?}",
                        run.query.name(),
                        run.design,
                        run.store,
                        workload.query.name(),
                        design.name,
                    ));
                }
                hybrid_matches_plan(&run.result, &workload.system)?;
                Ok(Outcome::Query(run))
            }
            Job::Traces { system, .. } => {
                let result = RunResult::from_record(record)?;
                hybrid_matches_plan(&result, system)?;
                Ok(Outcome::Run(result))
            }
            Job::Stress { .. } => StressOutcome::from_record(record).map(Outcome::Stress),
            Job::Campaign { .. } => CampaignReport::from_record(record).map(Outcome::Campaign),
        }
    }
}

/// Where shard `K` of `N` writes its envelope, derived from the bin's
/// `--out` path: `results/fig12.json` becomes
/// `results/fig12.shard-2-of-3.json`.
pub fn shard_out_path(out: &std::path::Path, shard: u32, shards: u32) -> std::path::PathBuf {
    let s = out.to_string_lossy();
    let base = s.strip_suffix(".json").unwrap_or(&s);
    std::path::PathBuf::from(format!("{base}.shard-{shard}-of-{shards}.json"))
}

/// Routes a local outcome through serialize → parse → decode, exactly the
/// path a merged record takes.
///
/// # Panics
///
/// If the codec cannot reproduce its own output: a bug, not bad input.
pub(crate) fn roundtrip(run: &Run, outcome: &Outcome) -> Outcome {
    Json::parse(&outcome.to_record().to_string())
        .map_err(|e| e.to_string())
        .and_then(|doc| Outcome::decode(&run.job, &doc))
        .unwrap_or_else(|e| panic!("record for '{}' did not round-trip: {e}", run.label))
}

/// Decodes merged `(label, record)` runs against the plan this build makes
/// from the envelopes' canonical argv, in plan order.
///
/// # Errors
///
/// A run-count or label mismatch (version skew between the sharding and
/// merging builds), or a record that does not decode to its planned run.
pub(crate) fn replay(plan: &[Run], records: &[(String, Json)]) -> Result<Vec<Outcome>, String> {
    if records.len() != plan.len() {
        return Err(format!(
            "merged envelopes carry {} runs but this binary plans {} — \
             version skew between the sharding and merging builds?",
            records.len(),
            plan.len(),
        ));
    }
    records
        .iter()
        .zip(plan)
        .enumerate()
        .map(|(i, ((label, record), run))| {
            if *label != run.label {
                return Err(format!(
                    "run {i} label mismatch: envelope says '{label}', plan says '{}'",
                    run.label
                ));
            }
            Outcome::decode(&run.job, record)
                .map_err(|e| format!("run {i} [{label}] did not decode: {e}"))
        })
        .collect()
}

/// Runs the slice of `plan` the cost-weighted partitioner assigns to this
/// `--shard K/N` and writes the shard's envelope next to `--out`.
///
/// # Panics
///
/// On a worker panic (re-raised with the run's *global* index and label,
/// so a crash report names the same run on every shard layout) and on an
/// unwritable envelope.
pub(crate) fn run_shard(spec: &ArgSpec, args: &BenchArgs, plan: &[Run]) {
    let bin = spec.bin;
    let shard = args.shard.expect("run_shard needs --shard");
    let weights: Vec<u64> = plan.iter().map(|run| run.weight).collect();
    let assignment = partition_weighted(&weights, shard.shards as usize);
    let mine = (shard.index - 1) as usize;
    let owned: Vec<(usize, &Run)> = plan
        .iter()
        .enumerate()
        .filter(|(i, _)| assignment[*i] == mine)
        .collect();

    heartbeat::shard_context(
        u64::from(shard.index),
        u64::from(shard.shards),
        weights.iter().sum(),
    );
    let tasks = owned
        .iter()
        .map(|(_, run)| {
            let task = SweepTask::new(run.label.clone(), move || {
                run.job.run(&mut Instrumentation::default())
            });
            (run.weight, task)
        })
        .collect();
    let mut runs = Vec::with_capacity(owned.len());
    for ((index, run), outcome) in owned.iter().zip(run_sweep_weighted(args.jobs, tasks)) {
        match outcome {
            Ok(result) => {
                let record = result.to_record();
                runs.push(ShardRun {
                    index: *index,
                    label: run.label.clone(),
                    digest: run_digest(*index, &run.label, &record),
                    record,
                });
            }
            Err(p) => panic!("{}", SweepPanic { index: *index, ..p }),
        }
    }

    let envelope = ShardEnvelope {
        bin: bin.to_string(),
        shard: u64::from(shard.index),
        shards: u64::from(shard.shards),
        total_runs: plan.len(),
        argv: canonical_argv(spec, args),
        runs,
    };
    let path = shard_out_path(&args.out, shard.index, shard.shards);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| panic!("{bin}: cannot create {}: {e}", parent.display()));
        }
    }
    let mut text = envelope.to_json().to_string();
    text.push('\n');
    std::fs::write(&path, text)
        .unwrap_or_else(|e| panic!("{bin}: cannot write {}: {e}", path.display()));
    eprintln!(
        "{bin}: shard {}/{} ran {} of {} runs -> {}",
        shard.index,
        shard.shards,
        envelope.runs.len(),
        plan.len(),
        path.display()
    );
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::Arc;

    use super::*;
    use crate::cli::try_parse_args;
    use sam_ecc::layout::CodewordLayout;
    use sam_imdb::exec::{run_query, Workload};
    use sam_imdb::plan::PlanConfig;

    fn tiny_run() -> QueryRun {
        let workload = Workload::new(Query::Q3, PlanConfig::tiny());
        run_query(&workload, &sam::designs::sam_en(), Store::Row)
    }

    fn fig12_spec() -> ArgSpec {
        crate::bins::find("fig12")
            .expect("fig12 is registered")
            .spec
    }

    #[test]
    fn query_run_roundtrips_exactly() {
        let run = tiny_run();
        let doc = Json::parse(&run.to_record().to_string()).unwrap();
        let back = QueryRun::from_record(&doc).unwrap();
        // `QueryRun` has no `PartialEq`; the serialized record is a
        // faithful projection, so byte-equal records mean equal runs.
        assert_eq!(back.to_record().to_string(), run.to_record().to_string());
    }

    #[test]
    fn parametric_queries_roundtrip() {
        for q in [
            Query::Arithmetic {
                projectivity: 32,
                selectivity: 0.25,
            },
            Query::Aggregate {
                projectivity: 8,
                selectivity: 1.0,
            },
        ] {
            let doc = Json::parse(&query_to_json(&q).to_string()).unwrap();
            assert_eq!(query_from_json(&doc).unwrap(), q);
        }
    }

    #[test]
    fn stress_outcome_roundtrips_with_violations() {
        let outcome = StressOutcome {
            completions: 100,
            reads: 60,
            writes: 40,
            row_hits: 30,
            starved: 2,
            refreshes: 5,
            max_read_residency: 900,
            residency_bound: 1000,
            last_finish: 12345,
            violations: vec![Violation {
                kind: InvariantKind::WatermarkSupremacy,
                request_id: 17,
                at: 4242,
                detail: "wq=30 rq=3".to_string(),
            }],
            lanes_digest: "abc123".to_string(),
        };
        let doc = Json::parse(&outcome.to_record().to_string()).unwrap();
        assert_eq!(StressOutcome::from_record(&doc).unwrap(), outcome);
    }

    #[test]
    fn campaign_report_roundtrips() {
        let report = CampaignReport {
            corrected: 90,
            detected: 10,
            silent: 0,
            unprotected: 0,
        };
        let doc = Json::parse(&report.to_record().to_string()).unwrap();
        assert_eq!(CampaignReport::from_record(&doc).unwrap(), report);
    }

    #[test]
    fn decoder_rejects_drifted_records() {
        let run = tiny_run();
        let Json::Object(mut record) = run.to_record() else {
            panic!("record must be an object");
        };
        let result = record
            .iter_mut()
            .find(|(k, _)| k == "result")
            .map(|(_, v)| v)
            .expect("record has a result");
        let Json::Object(fields) = result else {
            panic!("result must be an object");
        };
        fields.retain(|(k, _)| k != "cycles");
        let e = QueryRun::from_record(&Json::Object(record)).unwrap_err();
        assert!(e.contains("cycles"), "{e}");
        let e = query_from_json(&Json::str("Q99")).unwrap_err();
        assert!(e.contains("unknown query"), "{e}");
        let e = design_name("not-a-design").unwrap_err();
        assert!(e.contains("unknown design"), "{e}");
    }

    /// A record that decodes cleanly but describes another run than the
    /// plan entry it claims to be is drift, not data.
    #[test]
    fn decode_rejects_records_that_contradict_the_plan() {
        let run = tiny_run();
        let record = Json::parse(&run.to_record().to_string()).unwrap();
        let workload = Workload::new(Query::Q3, PlanConfig::tiny());
        let planned = |design: sam::design::Design, system: SystemConfig| Job::Query {
            workload: workload.with_system(system),
            design,
            store: Store::Row,
        };
        let flat = SystemConfig::default();
        assert!(Outcome::decode(&planned(sam::designs::sam_en(), flat), &record).is_ok());
        let e = Outcome::decode(&planned(sam::designs::sam_io(), flat), &record).unwrap_err();
        assert!(e.contains("the plan runs Q3/SAM-IO/Row"), "{e}");
        let hybrid = SystemConfig {
            hybrid: Some(crate::fig16::point_configs()[0]),
            ..flat
        };
        let e = Outcome::decode(&planned(sam::designs::sam_en(), hybrid), &record).unwrap_err();
        assert!(e.contains("lacks the hybrid summary"), "{e}");
    }

    #[test]
    fn canonical_argv_reparses_to_the_same_plan() {
        let spec = fig12_spec();
        let argv: Vec<String> = ["--rows", "2048", "--tb-rows", "8192", "--per-core"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let args = try_parse_args(&spec, PlanConfig::default_scale(), &argv).unwrap();
        let canon = canonical_argv(&spec, &args);
        // No scheduling flags leak into the canonical form.
        assert!(!canon.iter().any(|a| a == "--jobs" || a == "--shard"));
        let again = try_parse_args(&spec, PlanConfig::default_scale(), &canon).unwrap();
        assert_eq!(again.plan, args.plan);
        assert_eq!(again.flags, args.flags);
        assert_eq!(again.out, args.out);
        assert_eq!(canonical_argv(&spec, &again), canon);
    }

    #[test]
    fn shard_out_path_derives_from_out() {
        assert_eq!(
            shard_out_path(&PathBuf::from("results/fig12.json"), 2, 3),
            PathBuf::from("results/fig12.shard-2-of-3.json")
        );
        assert_eq!(
            shard_out_path(&PathBuf::from("x"), 1, 1),
            PathBuf::from("x.shard-1-of-1.json")
        );
    }

    fn shard_args(argv: &[&str]) -> BenchArgs {
        let argv: Vec<String> = argv.iter().map(ToString::to_string).collect();
        try_parse_args(&fig12_spec(), PlanConfig::tiny(), &argv).unwrap()
    }

    /// Cheap campaign runs with distinct weights and outcomes.
    fn campaign_plan(n: u64) -> Vec<Run> {
        (0..n)
            .map(|i| Run {
                label: format!("task{i}"),
                weight: i + 1,
                job: Job::Campaign {
                    layout: CodewordLayout::BeatSpread,
                    trials: 1,
                    seed: i,
                },
            })
            .collect()
    }

    #[test]
    fn sharded_panic_reports_the_global_run_index() {
        let dir = std::env::temp_dir().join("sam-shard-panic-test");
        let out = dir.join("fig12.json");
        let args = shard_args(&["--shard", "2/2", "--out", &out.to_string_lossy()]);
        // Equal weights, 4 runs, 2 shards: LPT assigns 0,2 -> shard 1 and
        // 1,3 -> shard 2, so global run 3 is shard 2's local run 1. Run 3
        // hands the system more traces than it has cores, which panics.
        let mut plan = campaign_plan(4);
        for run in &mut plan {
            run.weight = 1;
        }
        let system = SystemConfig::default();
        plan[3].job = Job::Traces {
            system,
            design: sam::designs::commodity(),
            table: PlanConfig::tiny().ta(),
            traces: Arc::new(vec![Vec::new(); system.cores + 1]),
        };
        let err = std::panic::catch_unwind(|| run_shard(&fig12_spec(), &args, &plan)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("run #3 [task3]"),
            "panic must name the global index: {msg}"
        );
    }

    #[test]
    fn shard_mode_writes_an_envelope_that_merges_back() {
        let dir = std::env::temp_dir().join("sam-shard-envelope-test");
        let out = dir.join("fig12.json");
        let plan = campaign_plan(5);
        let mut envelopes = Vec::new();
        for k in 1..=2u32 {
            let shard = format!("{k}/2");
            let jobs = k.to_string();
            let args = shard_args(&[
                "--shard",
                &shard,
                "--jobs",
                &jobs,
                "--out",
                &out.to_string_lossy(),
            ]);
            run_shard(&fig12_spec(), &args, &plan);
            let text =
                std::fs::read_to_string(shard_out_path(&out, k, 2)).expect("envelope written");
            let doc = Json::parse(&text).unwrap();
            sam_check::shards::lint_shard_json(&doc).expect("envelope lints");
            envelopes.push(sam_check::shards::parse_envelope(&doc).unwrap());
        }
        let merged = sam_check::shards::merge(&envelopes).unwrap();
        assert_eq!(merged.bin, "fig12");
        // Replay returns the decoded records in plan order, equal to a
        // local run of the same plan.
        let replayed = replay(&plan, &merged.runs).unwrap();
        for (run, outcome) in plan.iter().zip(&replayed) {
            let local = run.job.run(&mut Instrumentation::default());
            assert_eq!(outcome.to_record(), local.to_record(), "{}", run.label);
        }
        // Drift is an error, never a panic.
        let e = replay(&plan[1..], &merged.runs).unwrap_err();
        assert!(e.contains("carry 5 runs but this binary plans 4"), "{e}");
        let mut relabeled = merged.runs.clone();
        relabeled[2].0 = "other".into();
        let e = replay(&plan, &relabeled).unwrap_err();
        assert!(e.contains("run 2 label mismatch"), "{e}");
        let mut broken = merged.runs.clone();
        broken[4].1 = Json::Null;
        let e = replay(&plan, &broken).unwrap_err();
        assert!(e.contains("run 4 [task4] did not decode"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
