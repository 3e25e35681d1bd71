//! Shard envelopes and the merge oracle for distributed sweeps.
//!
//! A bench binary invoked with `--shard K/N` runs only the run indices a
//! deterministic, cost-weighted partitioner assigned to shard `K`, and
//! instead of printing tables it writes a self-describing envelope
//! (`results/<bin>.shard-K-of-N.json`). `sam-check merge-shards` collects
//! the `N` envelopes, validates them against each other, and replays the
//! binary's render phase over the reassembled submission-order records —
//! producing stdout and `results/<bin>.json` byte-identical to a local
//! unsharded run.
//!
//! This module is the bin-agnostic half of that contract: the envelope
//! schema, its lint, and [`merge`], which enforces the merge invariants
//! (same bin / shard count / total / argv everywhere, shard ids in range
//! and unique, per-run digests intact, no index claimed twice, no index
//! missing) and fails with a distinct [`ShardError`] per violation. The
//! render replay itself lives in `sam-bench`, next to the binaries.
//!
//! Envelope schema (`schema` 1, all keys required):
//!
//! ```text
//! { "report": "shard", "schema": 1, "bin": str,
//!   "shard": uint (1-based), "shards": uint, "total_runs": uint,
//!   "argv": [str, ...],           // canonical argv, no --jobs / --shard
//!   "runs": [ { "index": uint,    // global submission index
//!               "label": str,     // the sweep task's config label
//!               "digest": str,    // run_digest(index, label, record)
//!               "record": any } ] }
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hasher;

use sam_util::fxhash::FxHasher;
use sam_util::json::Json;

/// The envelope schema version this code writes and accepts.
pub const SHARD_SCHEMA: u64 = 1;

/// One run captured by a shard: its global submission index, the sweep
/// task's label, and the bin-specific serialized result.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Global submission index in the unsharded sweep.
    pub index: usize,
    /// The sweep task's label (the failing-config name on panics).
    pub label: String,
    /// Integrity digest; see [`run_digest`].
    pub digest: String,
    /// The bin-specific serialized run result.
    pub record: Json,
}

/// A parsed `results/<bin>.shard-K-of-N.json` document.
#[derive(Debug, Clone)]
pub struct ShardEnvelope {
    /// Binary name (`"fig12"`, ...).
    pub bin: String,
    /// 1-based shard id (`K` of `--shard K/N`).
    pub shard: u64,
    /// Total shard count (`N`).
    pub shards: u64,
    /// Total runs in the unsharded sweep, across all shards.
    pub total_runs: usize,
    /// Canonical argv (no `--jobs`, no `--shard`) the merge re-parses to
    /// reconstruct the run configuration exactly.
    pub argv: Vec<String>,
    /// This shard's runs, in global submission-index order.
    pub runs: Vec<ShardRun>,
}

/// A violated merge invariant. Every variant renders a distinct message,
/// so CI and the adversarial tests can assert *which* invariant failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A document failed the envelope schema lint.
    Malformed(String),
    /// Envelopes disagree on the binary name.
    BinMismatch(String, String),
    /// Envelopes disagree on the shard count `N`.
    ShardCountMismatch(u64, u64),
    /// Envelopes disagree on the total run count.
    TotalMismatch(usize, usize),
    /// Envelopes disagree on the canonical argv.
    ArgvMismatch(String, String),
    /// A shard id is outside `1..=N`.
    ShardIdOutOfRange(u64, u64),
    /// Two envelopes claim the same shard id.
    DuplicateShard(u64),
    /// Fewer than `N` envelopes were provided.
    MissingShard(u64, u64),
    /// A run's stored digest does not match its recomputed digest.
    DigestMismatch(usize, String, String),
    /// Two shards both claim a run index.
    OverlappingRun(usize, u64, u64),
    /// No shard claims a run index.
    MissingRun(usize),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Malformed(e) => write!(f, "malformed shard envelope: {e}"),
            ShardError::BinMismatch(a, b) => {
                write!(f, "bin mismatch across envelopes: '{a}' vs '{b}'")
            }
            ShardError::ShardCountMismatch(a, b) => {
                write!(
                    f,
                    "shard-count mismatch: one envelope says N={a}, another N={b}"
                )
            }
            ShardError::TotalMismatch(a, b) => {
                write!(
                    f,
                    "total-run mismatch: one envelope says {a} runs, another {b}"
                )
            }
            ShardError::ArgvMismatch(a, b) => {
                write!(f, "argv mismatch across envelopes: [{a}] vs [{b}]")
            }
            ShardError::ShardIdOutOfRange(k, n) => {
                write!(f, "shard id {k} out of range 1..={n}")
            }
            ShardError::DuplicateShard(k) => write!(f, "duplicate envelope for shard {k}"),
            ShardError::MissingShard(k, n) => write!(f, "missing envelope for shard {k} of {n}"),
            ShardError::DigestMismatch(i, want, got) => write!(
                f,
                "digest mismatch on run {i}: envelope says {want}, record hashes to {got}"
            ),
            ShardError::OverlappingRun(i, a, b) => {
                write!(f, "overlapping run {i}: claimed by shard {a} and shard {b}")
            }
            ShardError::MissingRun(i) => write!(f, "gap: no shard claims run {i}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// The integrity digest of one run entry: a [`FxHasher`] over the global
/// index, the label, and the record's canonical JSON text. Guards against
/// hand-edited or truncated records inside an otherwise well-formed
/// envelope.
pub fn run_digest(index: usize, label: &str, record: &Json) -> String {
    let mut h = FxHasher::default();
    h.write_u64(index as u64);
    h.write(label.as_bytes());
    h.write(record.to_string().as_bytes());
    format!("{:016x}", h.finish())
}

impl ShardEnvelope {
    /// Serializes the envelope (the `results/<bin>.shard-K-of-N.json`
    /// schema). The output passes [`lint_shard_json`] and
    /// [`parse_envelope`] by construction.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("report", Json::str("shard")),
            ("schema", Json::UInt(SHARD_SCHEMA)),
            ("bin", Json::str(&self.bin)),
            ("shard", Json::UInt(self.shard)),
            ("shards", Json::UInt(self.shards)),
            ("total_runs", Json::UInt(self.total_runs as u64)),
            (
                "argv",
                Json::Array(self.argv.iter().map(Json::str).collect()),
            ),
            (
                "runs",
                Json::Array(
                    self.runs
                        .iter()
                        .map(|r| {
                            Json::object([
                                ("index", Json::UInt(r.index as u64)),
                                ("label", Json::str(&r.label)),
                                ("digest", Json::str(&r.digest)),
                                ("record", r.record.clone()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn get_uint(doc: &Json, key: &str) -> Result<u64, String> {
    match doc.get(key) {
        Some(Json::UInt(v)) => Ok(*v),
        Some(v) => Err(format!("key '{key}' must be an unsigned integer, got {v}")),
        None => Err(format!("missing key '{key}'")),
    }
}

fn get_str(doc: &Json, key: &str) -> Result<String, String> {
    match doc.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(v) => Err(format!("key '{key}' must be a string, got {v}")),
        None => Err(format!("missing key '{key}'")),
    }
}

/// Validates a parsed shard-envelope document against the module schema.
///
/// # Errors
///
/// Returns a human-readable description of the first schema violation.
pub fn lint_shard_json(doc: &Json) -> Result<(), String> {
    match doc.get("report") {
        Some(Json::Str(s)) if s == "shard" => {}
        other => {
            return Err(format!(
                "key 'report' must be the string \"shard\", got {}",
                other.map_or_else(|| "nothing".to_string(), Json::to_string)
            ))
        }
    }
    let schema = get_uint(doc, "schema")?;
    if schema != SHARD_SCHEMA {
        return Err(format!(
            "unsupported shard schema {schema} (this tool reads schema {SHARD_SCHEMA})"
        ));
    }
    get_str(doc, "bin")?;
    let shard = get_uint(doc, "shard")?;
    let shards = get_uint(doc, "shards")?;
    if shards == 0 {
        return Err("key 'shards' must be at least 1".to_string());
    }
    if shard == 0 || shard > shards {
        return Err(format!("key 'shard' must be in 1..={shards}, got {shard}"));
    }
    let total = get_uint(doc, "total_runs")?;
    let argv = doc
        .get("argv")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing or non-array key 'argv'".to_string())?;
    for (i, a) in argv.iter().enumerate() {
        if !matches!(a, Json::Str(_)) {
            return Err(format!("argv[{i}] must be a string, got {a}"));
        }
    }
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing or non-array key 'runs'".to_string())?;
    let mut last: Option<u64> = None;
    for (i, run) in runs.iter().enumerate() {
        let index = get_uint(run, "index").map_err(|e| format!("runs[{i}]: {e}"))?;
        get_str(run, "label").map_err(|e| format!("runs[{i}]: {e}"))?;
        get_str(run, "digest").map_err(|e| format!("runs[{i}]: {e}"))?;
        if run.get("record").is_none() {
            return Err(format!("runs[{i}]: missing key 'record'"));
        }
        if index >= total {
            return Err(format!(
                "runs[{i}]: index {index} out of range for total_runs {total}"
            ));
        }
        if let Some(prev) = last {
            if index <= prev {
                return Err(format!(
                    "runs[{i}]: indices must be strictly increasing ({prev} then {index})"
                ));
            }
        }
        last = Some(index);
    }
    Ok(())
}

/// Parses a shard-envelope document, schema-linting it first.
///
/// # Errors
///
/// Returns [`ShardError::Malformed`] with the lint's description.
pub fn parse_envelope(doc: &Json) -> Result<ShardEnvelope, ShardError> {
    lint_shard_json(doc).map_err(ShardError::Malformed)?;
    let runs: Vec<ShardRun> = doc
        .get("runs")
        .and_then(Json::as_array)
        .expect("linted")
        .iter()
        .map(|run| ShardRun {
            index: match run.get("index") {
                Some(Json::UInt(v)) => *v as usize,
                _ => unreachable!("linted"),
            },
            label: get_str(run, "label").expect("linted"),
            digest: get_str(run, "digest").expect("linted"),
            record: run.get("record").expect("linted").clone(),
        })
        .collect();
    Ok(ShardEnvelope {
        bin: get_str(doc, "bin").expect("linted"),
        shard: get_uint(doc, "shard").expect("linted"),
        shards: get_uint(doc, "shards").expect("linted"),
        total_runs: get_uint(doc, "total_runs").expect("linted") as usize,
        argv: doc
            .get("argv")
            .and_then(Json::as_array)
            .expect("linted")
            .iter()
            .map(|a| match a {
                Json::Str(s) => s.clone(),
                _ => unreachable!("linted"),
            })
            .collect(),
        runs: Vec::from_iter(runs),
    })
}

/// A fully validated, reassembled sweep: every record in global
/// submission order, ready for the bin's render replay.
#[derive(Debug, Clone)]
pub struct MergedSweep {
    /// Binary name.
    pub bin: String,
    /// The canonical argv shared by every envelope.
    pub argv: Vec<String>,
    /// `(label, record)` per run, indices `0..total_runs` in order.
    pub runs: Vec<(String, Json)>,
}

/// Validates `envelopes` against each other and reassembles the full
/// sweep in submission order.
///
/// Checks, in order (so each adversarial case fails with its own error):
/// agreement on bin / shard count / total / argv, shard ids in range and
/// unique, all `N` shards present, per-run digests intact, no run index
/// claimed twice, no run index missing.
///
/// # Errors
///
/// The first violated invariant as a [`ShardError`].
pub fn merge(envelopes: &[ShardEnvelope]) -> Result<MergedSweep, ShardError> {
    let first = envelopes
        .first()
        .ok_or_else(|| ShardError::Malformed("no envelopes given".to_string()))?;
    for e in &envelopes[1..] {
        if e.bin != first.bin {
            return Err(ShardError::BinMismatch(first.bin.clone(), e.bin.clone()));
        }
        if e.shards != first.shards {
            return Err(ShardError::ShardCountMismatch(first.shards, e.shards));
        }
        if e.total_runs != first.total_runs {
            return Err(ShardError::TotalMismatch(first.total_runs, e.total_runs));
        }
        if e.argv != first.argv {
            return Err(ShardError::ArgvMismatch(
                first.argv.join(" "),
                e.argv.join(" "),
            ));
        }
    }
    // Bookkeeping is sized by what the envelopes carry, never by the
    // counts they claim: a forged `shards` or `total_runs` is only a number.
    let n = first.shards;
    let mut seen_shards = BTreeSet::new();
    for e in envelopes {
        if e.shard == 0 || e.shard > n {
            return Err(ShardError::ShardIdOutOfRange(e.shard, n));
        }
        if !seen_shards.insert(e.shard) {
            return Err(ShardError::DuplicateShard(e.shard));
        }
    }
    let k = first_gap(seen_shards.iter().copied(), 1);
    if k <= n {
        return Err(ShardError::MissingShard(k, n));
    }
    for e in envelopes {
        for run in &e.runs {
            let got = run_digest(run.index, &run.label, &run.record);
            if got != run.digest {
                return Err(ShardError::DigestMismatch(
                    run.index,
                    run.digest.clone(),
                    got,
                ));
            }
        }
    }
    let total = first.total_runs;
    let mut claimed: BTreeMap<usize, (u64, &ShardRun)> = BTreeMap::new();
    for e in envelopes {
        for run in &e.runs {
            // The lint bounds index < total_runs; an envelope built in
            // code gets the same check here.
            if run.index >= total {
                return Err(ShardError::Malformed(format!(
                    "run index {} out of range for total_runs {total}",
                    run.index
                )));
            }
            if let Some(&(prev, _)) = claimed.get(&run.index) {
                return Err(ShardError::OverlappingRun(run.index, prev, e.shard));
            }
            claimed.insert(run.index, (e.shard, run));
        }
    }
    let i = first_gap(claimed.keys().map(|&i| i as u64), 0) as usize;
    if i < total {
        return Err(ShardError::MissingRun(i));
    }
    Ok(MergedSweep {
        bin: first.bin.clone(),
        argv: first.argv.clone(),
        runs: claimed
            .into_values()
            .map(|(_, run)| (run.label.clone(), run.record.clone()))
            .collect(),
    })
}

/// The smallest integer `>= start` missing from `sorted`, an ascending
/// run of distinct integers.
fn first_gap(sorted: impl Iterator<Item = u64>, start: u64) -> u64 {
    let mut want = start;
    for got in sorted {
        if got != want {
            break;
        }
        want += 1;
    }
    want
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope(shard: u64, shards: u64, indices: &[usize], total: usize) -> ShardEnvelope {
        ShardEnvelope {
            bin: "fig12".to_string(),
            shard,
            shards,
            total_runs: total,
            argv: vec!["--rows".to_string(), "512".to_string()],
            runs: indices
                .iter()
                .map(|&i| {
                    let record = Json::UInt(i as u64 * 10);
                    ShardRun {
                        index: i,
                        label: format!("run{i}"),
                        digest: run_digest(i, &format!("run{i}"), &record),
                        record,
                    }
                })
                .collect(),
        }
    }

    #[test]
    fn roundtrip_through_json_preserves_everything() {
        let e = envelope(2, 3, &[1, 4], 6);
        let doc = Json::parse(&e.to_json().to_string()).unwrap();
        lint_shard_json(&doc).unwrap();
        let back = parse_envelope(&doc).unwrap();
        assert_eq!(back.shard, 2);
        assert_eq!(back.shards, 3);
        assert_eq!(back.total_runs, 6);
        assert_eq!(back.argv, e.argv);
        assert_eq!(back.runs.len(), 2);
        assert_eq!(back.runs[1].index, 4);
        assert_eq!(back.runs[1].label, "run4");
        assert_eq!(back.runs[1].digest, e.runs[1].digest);
    }

    #[test]
    fn merge_reassembles_submission_order() {
        let merged = merge(&[
            envelope(2, 3, &[1, 3], 5),
            envelope(1, 3, &[0, 4], 5),
            envelope(3, 3, &[2], 5),
        ])
        .unwrap();
        assert_eq!(merged.bin, "fig12");
        let labels: Vec<&str> = merged.runs.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["run0", "run1", "run2", "run3", "run4"]);
        assert_eq!(merged.runs[3].1, Json::UInt(30));
    }

    #[test]
    fn each_invariant_fails_distinctly() {
        // Overlap: run 1 claimed twice.
        let e = merge(&[envelope(1, 2, &[0, 1], 4), envelope(2, 2, &[1, 2, 3], 4)]).unwrap_err();
        assert!(matches!(e, ShardError::OverlappingRun(1, 1, 2)), "{e}");
        // Gap: run 2 unclaimed.
        let e = merge(&[envelope(1, 2, &[0, 1], 4), envelope(2, 2, &[3], 4)]).unwrap_err();
        assert!(matches!(e, ShardError::MissingRun(2)), "{e}");
        // N-mismatch.
        let e = merge(&[envelope(1, 2, &[0, 1], 4), envelope(2, 3, &[2, 3], 4)]).unwrap_err();
        assert!(matches!(e, ShardError::ShardCountMismatch(2, 3)), "{e}");
        // Tampered digest.
        let mut bad = envelope(2, 2, &[2, 3], 4);
        bad.runs[0].record = Json::UInt(999);
        let e = merge(&[envelope(1, 2, &[0, 1], 4), bad]).unwrap_err();
        assert!(matches!(e, ShardError::DigestMismatch(2, _, _)), "{e}");
        // Duplicate shard id.
        let e = merge(&[envelope(1, 2, &[0, 1], 4), envelope(1, 2, &[2, 3], 4)]).unwrap_err();
        assert!(matches!(e, ShardError::DuplicateShard(1)), "{e}");
        // Missing shard.
        let e = merge(&[envelope(1, 2, &[0, 1], 4)]).unwrap_err();
        assert!(matches!(e, ShardError::MissingShard(2, 2)), "{e}");
        // Total mismatch.
        let e = merge(&[envelope(1, 2, &[0, 1], 4), envelope(2, 2, &[2], 3)]).unwrap_err();
        assert!(matches!(e, ShardError::TotalMismatch(4, 3)), "{e}");
    }

    #[test]
    fn argv_mismatch_is_its_own_error() {
        let a = envelope(1, 2, &[0, 1], 4);
        let mut b = envelope(2, 2, &[2, 3], 4);
        b.argv.push("--seed".to_string());
        let e = merge(&[a, b]).unwrap_err();
        assert!(matches!(e, ShardError::ArgvMismatch(_, _)), "{e}");
    }

    #[test]
    fn lint_rejects_schema_drift() {
        let mut doc = Json::parse(&envelope(1, 1, &[0], 1).to_json().to_string()).unwrap();
        lint_shard_json(&doc).unwrap();
        if let Json::Object(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "schema" {
                    *v = Json::UInt(99);
                }
            }
        }
        let e = lint_shard_json(&doc).unwrap_err();
        assert!(e.contains("schema 99"), "{e}");
    }

    #[test]
    fn lint_rejects_unsorted_and_out_of_range_indices() {
        let mut e = envelope(1, 1, &[1, 0], 3);
        let doc = Json::parse(&e.to_json().to_string()).unwrap();
        let msg = lint_shard_json(&doc).unwrap_err();
        assert!(msg.contains("strictly increasing"), "{msg}");
        e.runs.truncate(1);
        e.total_runs = 1;
        let doc = Json::parse(&e.to_json().to_string()).unwrap();
        let msg = lint_shard_json(&doc).unwrap_err();
        assert!(msg.contains("out of range"), "{msg}");
    }
}
