//! End-to-end gates for `--shard K/N` + `sam-check merge-shards`.
//!
//! The tentpole guarantee: running a figure as shards on different
//! machines (emulated here by different `--jobs`) and merging the
//! envelopes must reproduce the unsharded run's stdout and metrics JSON
//! **byte for byte** — for fig12 against the committed goldens, for the
//! stress matrix against a fresh local run (whose in-replay cross-check
//! re-verifies stats/lanes digest equality across the case matrix).
//! Every adversarial merge (overlap, gap, missing shard, N-mismatch,
//! tampered digest) must fail with its own distinct error.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use sam_util::json::Json;

fn golden(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sam-shard-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_ok(exe: &str, args: &[&str]) -> Output {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn merge(shards: &[PathBuf]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sam-check"));
    cmd.arg("merge-shards").args(shards);
    cmd.output().expect("spawn sam-check")
}

/// The acceptance gate: fig12 at the golden scale, split 1/3 + 2/3 + 3/3
/// across *different* `--jobs`, merges back to the committed goldens.
#[test]
fn fig12_golden_scale_shards_merge_to_the_committed_goldens() {
    let dir = scratch_dir("fig12");
    let out = dir.join("fig12.json");
    let out_arg = out.to_str().unwrap();
    for (k, jobs) in [("1", "1"), ("2", "2"), ("3", "4")] {
        let shard = format!("{k}/3");
        let o = run_ok(
            env!("CARGO_BIN_EXE_fig12"),
            &[
                "--rows",
                "2048",
                "--tb-rows",
                "8192",
                "--jobs",
                jobs,
                "--shard",
                &shard,
                "--out",
                out_arg,
            ],
        );
        assert!(
            o.stdout.is_empty(),
            "shard {shard} printed to stdout:\n{}",
            String::from_utf8_lossy(&o.stdout)
        );
    }
    let shards: Vec<PathBuf> = (1..=3)
        .map(|k| dir.join(format!("fig12.shard-{k}-of-3.json")))
        .collect();
    for s in &shards {
        assert!(s.is_file(), "{} was not written", s.display());
    }

    let merged = merge(&shards);
    assert!(
        merged.status.success(),
        "merge failed:\n{}",
        String::from_utf8_lossy(&merged.stderr)
    );
    assert_eq!(
        merged.stdout,
        golden("fig12.out"),
        "merged stdout is not byte-identical to tests/golden/fig12.out"
    );
    assert_eq!(
        std::fs::read(&out).expect("merged metrics json"),
        golden("fig12.json"),
        "merged results JSON is not byte-identical to tests/golden/fig12.json"
    );
}

/// The stress harness across the full six-case differential matrix:
/// a sharded run merges back byte-identically, which (via the replayed
/// cross-check) also proves stats_digest and lanes_digest equality
/// across every case pair.
#[test]
fn stress_case_matrix_shards_merge_byte_identically() {
    let dir = scratch_dir("stress");
    let out = dir.join("stress.json");
    let out_arg = out.to_str().unwrap();
    let base = ["row-hit-flood", "--seed", "7", "--out", out_arg];

    let mut local_args = base.to_vec();
    local_args.extend(["--jobs", "2"]);
    let local = run_ok(env!("CARGO_BIN_EXE_stress"), &local_args);
    let local_json = std::fs::read(&out).expect("local stress json");
    // Six differential cases per pattern, and the per-core lane digest
    // rides inside every serialized shard record.
    for (k, jobs) in [("1", "1"), ("2", "4")] {
        let shard = format!("{k}/2");
        let mut args = base.to_vec();
        args.extend(["--jobs", jobs, "--shard", &shard]);
        let o = run_ok(env!("CARGO_BIN_EXE_stress"), &args);
        assert!(o.stdout.is_empty(), "stress shard printed to stdout");
    }
    let shards = [
        dir.join("stress.shard-1-of-2.json"),
        dir.join("stress.shard-2-of-2.json"),
    ];
    let text = std::fs::read_to_string(&shards[0]).expect("shard envelope");
    assert!(
        text.contains("lanes_digest"),
        "stress shard records must carry the per-core lane digest"
    );
    assert_eq!(
        text.matches("\"label\"").count(),
        3,
        "shard 1/2 should own half of the 6-case matrix"
    );

    std::fs::remove_file(&out).expect("clear local json before merge");
    let merged = merge(&shards);
    assert!(
        merged.status.success(),
        "merge failed:\n{}",
        String::from_utf8_lossy(&merged.stderr)
    );
    assert_eq!(merged.stdout, local.stdout, "merged stress stdout drifted");
    assert_eq!(
        std::fs::read(&out).expect("merged stress json"),
        local_json,
        "merged stress JSON drifted"
    );
}

// ---- adversarial merges -------------------------------------------------

/// Builds a cheap two-shard fixture (motivation at tiny scale: six runs)
/// and returns the two envelope paths.
fn motivation_fixture(dir: &Path) -> [PathBuf; 2] {
    let out = dir.join("motivation.json");
    let out_arg = out.to_str().unwrap();
    for k in ["1", "2"] {
        let shard = format!("{k}/2");
        run_ok(
            env!("CARGO_BIN_EXE_motivation"),
            &["--rows", "256", "--shard", &shard, "--out", out_arg],
        );
    }
    [
        dir.join("motivation.shard-1-of-2.json"),
        dir.join("motivation.shard-2-of-2.json"),
    ]
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).expect("read envelope");
    Json::parse(&text).expect("parse envelope")
}

fn store(path: &Path, doc: &Json) {
    let mut text = doc.to_string();
    text.push('\n');
    std::fs::write(path, text).expect("write tampered envelope");
}

fn field_mut<'a>(doc: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Object(fields) = doc else {
        panic!("envelope must be an object");
    };
    &mut fields
        .iter_mut()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("envelope has no '{key}'"))
        .1
}

/// Runs a merge expected to fail and returns its stderr.
fn merge_err(shards: &[PathBuf]) -> String {
    let out = merge(shards);
    assert_eq!(
        out.status.code(),
        Some(1),
        "tampered merge must exit 1, got {:?}:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn adversarial_merges_fail_with_distinct_errors() {
    let dir = scratch_dir("adversarial");
    let [s1, s2] = motivation_fixture(&dir);

    // Overlap: a forged shard 2 that re-claims shard 1's runs.
    let forged = dir.join("forged-overlap.json");
    let mut doc = load(&s1);
    *field_mut(&mut doc, "shard") = Json::UInt(2);
    store(&forged, &doc);
    let e = merge_err(&[s1.clone(), forged]);
    assert!(e.contains("overlapping run"), "wrong overlap error: {e}");

    // Gap: shard 2 silently drops its last run.
    let gapped = dir.join("forged-gap.json");
    let mut doc = load(&s2);
    let Json::Array(runs) = field_mut(&mut doc, "runs") else {
        panic!("runs must be an array");
    };
    runs.pop().expect("shard 2 owns at least one run");
    store(&gapped, &doc);
    let e = merge_err(&[s1.clone(), gapped]);
    assert!(
        e.contains("gap: no shard claims run"),
        "wrong gap error: {e}"
    );

    // Missing shard: only one of the two envelopes shows up at all.
    let e = merge_err(std::slice::from_ref(&s1));
    assert!(
        e.contains("missing envelope for shard 2 of 2"),
        "wrong missing-shard error: {e}"
    );

    // N-mismatch: the two envelopes disagree on the shard count.
    let misclaimed = dir.join("forged-n.json");
    let mut doc = load(&s2);
    *field_mut(&mut doc, "shards") = Json::UInt(3);
    store(&misclaimed, &doc);
    let e = merge_err(&[s1.clone(), misclaimed]);
    assert!(
        e.contains("shard-count mismatch"),
        "wrong N-mismatch error: {e}"
    );

    // Tampered record: the digest no longer matches the payload.
    let tampered = dir.join("forged-digest.json");
    let mut doc = load(&s2);
    {
        let Json::Array(runs) = field_mut(&mut doc, "runs") else {
            panic!("runs must be an array");
        };
        let record = field_mut(&mut runs[0], "record");
        let cycles = field_mut(record, "cycles");
        let Json::UInt(v) = cycles else {
            panic!("record cycles must be a uint");
        };
        *cycles = Json::UInt(*v + 1);
    }
    store(&tampered, &doc);
    let e = merge_err(&[s1, tampered]);
    assert!(
        e.contains("digest mismatch on run"),
        "wrong digest error: {e}"
    );
}

/// The first run of an envelope's `runs` array.
fn first_run(doc: &mut Json) -> &mut Json {
    let Json::Array(runs) = field_mut(doc, "runs") else {
        panic!("runs must be an array");
    };
    &mut runs[0]
}

/// Recomputes the first run's digest so the merge oracle accepts it.
fn reseal(doc: &mut Json) {
    let run = first_run(doc);
    let Json::UInt(index) = *field_mut(run, "index") else {
        panic!("run index must be a uint");
    };
    let label = field_mut(run, "label").as_str().unwrap().to_string();
    let digest = sam_check::shards::run_digest(index as usize, &label, field_mut(run, "record"));
    *field_mut(run, "digest") = Json::str(digest);
}

/// Forgeries that pass the merge oracle (their digests are recomputed)
/// but do not match the plan must fail the replay with an error, exit 1,
/// never a panic.
#[test]
fn replay_rejects_consistent_forgeries_without_panicking() {
    let dir = scratch_dir("replay-forgery");
    let [s1, s2] = motivation_fixture(&dir);
    // A record missing `cycles`, sealed with a consistent digest.
    let forged = dir.join("forged-record.json");
    let mut doc = load(&s2);
    let Json::Object(fields) = field_mut(first_run(&mut doc), "record") else {
        panic!("record must be an object");
    };
    fields.retain(|(k, _)| k != "cycles");
    reseal(&mut doc);
    store(&forged, &doc);
    let e = merge_err(&[s1.clone(), forged]);
    assert!(
        e.contains("did not decode") && e.contains("missing key 'cycles'"),
        "wrong undecodable-record error: {e}"
    );

    // A label that drifts from the plan, sealed the same way.
    let drifted = dir.join("forged-label.json");
    let mut doc = load(&s2);
    *field_mut(first_run(&mut doc), "label") = Json::str("not/a/planned/run");
    reseal(&mut doc);
    store(&drifted, &doc);
    let e = merge_err(&[s1, drifted]);
    assert!(e.contains("label mismatch"), "wrong label-drift error: {e}");
}
