//! Totality of envelope decoding and the merge oracle: a shard envelope is
//! external input, so no document, however forged, may panic or exhaust
//! memory in `Json::parse` → `parse_envelope` → `merge`. Each stage must
//! return `Ok` or `Err`.
//!
//! The structured cases take a valid two-shard split and forge one field
//! of one envelope (a top-level key or a key of one run): set a numeric
//! field up to `u64::MAX`, delete the key, or swap its JSON type. The
//! unstructured cases feed arbitrary bytes, alone or spliced into a valid
//! envelope's text. Two fixed cases pin the forged counts that once sized
//! the merge's bookkeeping.

use proptest::prelude::*;
use sam_check::shards::{merge, parse_envelope, run_digest, ShardEnvelope, ShardError, ShardRun};
use sam_util::json::Json;

const TOTAL_RUNS: usize = 4;

/// Shard `k` of a valid two-shard split of a four-run sweep.
fn envelope(k: u64) -> ShardEnvelope {
    let indices = if k == 1 { [0, 2] } else { [1, 3] };
    ShardEnvelope {
        bin: "fig12".to_string(),
        shard: k,
        shards: 2,
        total_runs: TOTAL_RUNS,
        argv: vec!["--rows".to_string(), "64".to_string()],
        runs: indices
            .iter()
            .map(|&i| {
                let label = format!("run{i}");
                let record = Json::object([("cycles", Json::UInt(100 + i as u64))]);
                ShardRun {
                    index: i,
                    digest: run_digest(i, &label, &record),
                    label,
                    record,
                }
            })
            .collect(),
    }
}

/// Runs one document text through every stage, next to a valid shard 2.
/// A merge that succeeds must have reassembled every run it claims.
fn decode_and_merge(text: &str) {
    let Ok(doc) = Json::parse(text) else { return };
    let Ok(forged) = parse_envelope(&doc) else {
        return;
    };
    if let Ok(merged) = merge(&[forged.clone(), envelope(2)]) {
        assert_eq!(merged.runs.len(), forged.total_runs);
    }
    let _ = merge(&[forged]);
}

/// Edge values for a forged numeric field.
const EDGES: [u64; 9] = [0, 1, 2, 3, 4, 1 << 32, 1 << 63, u64::MAX - 1, u64::MAX];

/// A value for a forged numeric field: an edge or a random `u64`.
fn forged_uint(pick: u64, random: u64) -> u64 {
    EDGES.get(pick as usize % 10).copied().unwrap_or(random)
}

/// A value of another JSON type than `old`, chosen by `pick`.
fn swapped(old: &Json, pick: u64) -> Json {
    let candidates = [
        Json::Null,
        Json::Bool(true),
        Json::UInt(7),
        Json::Int(-1),
        Json::Float(0.5),
        Json::str("x"),
        Json::Array(Vec::new()),
        Json::Object(Vec::new()),
    ];
    let other: Vec<Json> = candidates
        .into_iter()
        .filter(|c| std::mem::discriminant(c) != std::mem::discriminant(old))
        .collect();
    other[pick as usize % other.len()].clone()
}

/// Forges the key `key_pick` selects in `fields`: op 0 deletes it, op 1
/// swaps its type, op 2 sets it to a forged unsigned integer.
fn forge(fields: &mut Vec<(String, Json)>, key_pick: u64, op: u64, value: u64, random: u64) {
    let at = key_pick as usize % fields.len();
    match op % 3 {
        0 => {
            fields.remove(at);
        }
        1 => fields[at].1 = swapped(&fields[at].1, value),
        _ => fields[at].1 = Json::UInt(forged_uint(value, random)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn forged_envelope_fields_never_panic(
        in_run in any::<bool>(),
        key_pick in any::<u64>(),
        op in 0u64..3,
        (value, random) in (any::<u64>(), any::<u64>()),
    ) {
        let mut doc = envelope(1).to_json();
        let Json::Object(fields) = &mut doc else { unreachable!("envelopes are objects") };
        let fields = if in_run {
            let runs = fields.iter_mut().find(|(k, _)| k == "runs").expect("runs key");
            let Json::Array(runs) = &mut runs.1 else { unreachable!("runs is an array") };
            let pick = (key_pick >> 32) as usize % runs.len();
            let Json::Object(run) = &mut runs[pick] else {
                unreachable!("runs are objects")
            };
            run
        } else {
            fields
        };
        forge(fields, key_pick, op, value, random);
        decode_and_merge(&doc.to_string());
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in collection::vec(any::<u8>(), 0..256),
        at in any::<u64>(),
        splice in any::<bool>(),
    ) {
        let noise = String::from_utf8_lossy(&bytes);
        if splice {
            // Overwrite a stretch of a valid envelope, so the noise lands
            // inside an otherwise well-formed document.
            let valid = envelope(1).to_json().to_string();
            let start = at as usize % valid.len();
            let end = (start + noise.len()).min(valid.len());
            let mut text = valid.as_bytes()[..start].to_vec();
            text.extend_from_slice(noise.as_bytes());
            text.extend_from_slice(&valid.as_bytes()[end..]);
            decode_and_merge(&String::from_utf8_lossy(&text));
        } else {
            decode_and_merge(&noise);
        }
    }
}

/// A forged `total_runs` of 10^12 once sized a 16 TB allocation.
#[test]
fn huge_total_runs_is_a_gap_not_an_allocation() {
    let text = r#"{"report":"shard","schema":1,"bin":"fig12","shard":1,"shards":1,"total_runs":1000000000000,"argv":[],"runs":[]}"#;
    let env = parse_envelope(&Json::parse(text).unwrap()).unwrap();
    assert_eq!(merge(&[env]).unwrap_err(), ShardError::MissingRun(0));
}

/// A forged `shards` of `u64::MAX` once overflowed a vector's capacity.
#[test]
fn huge_shard_count_is_a_missing_shard_not_an_overflow() {
    let text = r#"{"report":"shard","schema":1,"bin":"fig12","shard":1,"shards":18446744073709551615,"total_runs":1,"argv":[],"runs":[]}"#;
    let env = parse_envelope(&Json::parse(text).unwrap()).unwrap();
    assert_eq!(
        merge(&[env]).unwrap_err(),
        ShardError::MissingShard(2, u64::MAX)
    );
}

#[test]
fn the_valid_split_merges() {
    let merged = merge(&[envelope(2), envelope(1)]).unwrap();
    let labels: Vec<&str> = merged.runs.iter().map(|(l, _)| l.as_str()).collect();
    assert_eq!(labels, ["run0", "run1", "run2", "run3"]);
}
