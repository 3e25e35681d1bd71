//! Totality of the merge → replay path: a shard envelope is external
//! input, so no record it carries may panic `sam-check merge-shards`.
//! Each case takes a valid two-shard split, deletes one field or swaps its
//! JSON type anywhere inside one run's record, recomputes that run's
//! digest (so the merge oracle accepts the forgery), and replays the
//! merged sweep through the experiment driver exactly as `merge-shards`
//! does. The replay may succeed or fail with an error; it must not panic.

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;
use sam_bench::cli::try_parse_args;
use sam_bench::experiment::drive;
use sam_check::shards::{merge, parse_envelope, run_digest, ShardEnvelope};
use sam_imdb::plan::PlanConfig;
use sam_util::json::Json;

/// The experiments under fuzz and their cheapest full command lines: the
/// hybrid figure (query records, with and without a hybrid summary), the
/// motivation traces (bare run results) and the stress grid (stress
/// outcomes with violation lists).
const FIXTURES: [(&str, &[&str]); 3] = [
    ("fig16", &["--rows", "64", "--tb-rows", "64"]),
    ("motivation", &["--rows", "64", "--tb-rows", "64"]),
    ("stress", &["ping-pong", "--seed", "7"]),
];

fn out_dir() -> PathBuf {
    std::env::temp_dir().join(format!("sam-replay-fuzz-{}", std::process::id()))
}

/// Both shard envelopes of each fixture, built once per test process.
fn fixtures() -> &'static Vec<Vec<ShardEnvelope>> {
    static FIXTURE: OnceLock<Vec<Vec<ShardEnvelope>>> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        FIXTURES
            .iter()
            .map(|(name, argv)| {
                let exp = sam_bench::bins::find(name).expect("fixture is registered");
                let out = out_dir().join(format!("{name}.json"));
                (1..=2)
                    .map(|k| {
                        let mut full: Vec<String> = argv.iter().map(ToString::to_string).collect();
                        full.extend(["--shard".into(), format!("{k}/2")]);
                        full.extend(["--jobs".into(), "2".into()]);
                        full.extend(["--out".into(), out.to_string_lossy().into_owned()]);
                        let args =
                            try_parse_args(&exp.spec, PlanConfig::default_scale(), &full).unwrap();
                        assert_eq!(drive(exp, &args, None), Ok(0));
                        let path = sam_bench::shard::shard_out_path(&out, k, 2);
                        let text = std::fs::read_to_string(path).expect("envelope written");
                        parse_envelope(&Json::parse(&text).unwrap()).unwrap()
                    })
                    .collect()
            })
            .collect()
    })
}

fn children(doc: &Json) -> Vec<&Json> {
    match doc {
        Json::Array(items) => items.iter().collect(),
        Json::Object(fields) => fields.iter().map(|(_, v)| v).collect(),
        _ => Vec::new(),
    }
}

/// A random node below the root, as a child-index path: descend into a
/// child picked by `seed`, then keep descending with probability 1/2 per
/// level, so top-level fields are hit as often as deep lane counters.
fn random_path(doc: &Json, mut seed: u64) -> Vec<usize> {
    let mut path = Vec::new();
    let mut node = doc;
    loop {
        let kids = children(node);
        if kids.is_empty() || (!path.is_empty() && seed & 1 == 0) {
            return path;
        }
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (seed >> 33) as usize % kids.len();
        path.push(i);
        node = kids[i];
    }
}

/// A value of another JSON type than `old`, chosen by `pick`.
fn swapped(old: &Json, pick: usize) -> Json {
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
    other[pick % other.len()].clone()
}

/// Deletes (`swap == None`) or type-swaps the node at `path`.
fn mutate(doc: &mut Json, path: &[usize], swap: Option<usize>) {
    let (&last, parents) = path.split_last().expect("paths exclude the root");
    let mut node = doc;
    for &i in parents {
        node = match node {
            Json::Array(items) => &mut items[i],
            Json::Object(fields) => &mut fields[i].1,
            _ => unreachable!("paths follow containers"),
        };
    }
    match (node, swap) {
        (Json::Array(items), None) => {
            items.remove(last);
        }
        (Json::Object(fields), None) => {
            fields.remove(last);
        }
        (Json::Array(items), Some(pick)) => items[last] = swapped(&items[last], pick),
        (Json::Object(fields), Some(pick)) => fields[last].1 = swapped(&fields[last].1, pick),
        _ => unreachable!("paths follow containers"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn forged_records_never_panic_the_merge_replay(
        fixture in 0usize..FIXTURES.len(),
        run_pick in any::<u64>(),
        node_pick in any::<u64>(),
        op in 0usize..9,
    ) {
        let mut envelopes = fixtures()[fixture].clone();
        let shard = (run_pick % 2) as usize;
        let runs = &mut envelopes[shard].runs;
        prop_assert!(!runs.is_empty());
        let pick = (run_pick / 2) as usize % runs.len();
        let run = &mut runs[pick];
        let path = random_path(&run.record, node_pick);
        prop_assert!(!path.is_empty());
        mutate(&mut run.record, &path, op.checked_sub(1));
        run.digest = run_digest(run.index, &run.label, &run.record);

        let merged = merge(&envelopes).expect("recomputed digests merge");
        let exp = sam_bench::bins::find(&merged.bin).expect("fixture is registered");
        let args = try_parse_args(&exp.spec, PlanConfig::default_scale(), &merged.argv).unwrap();
        // Ok (the forgery still decodes to its planned run) or Err (it
        // does not); a panic fails the case.
        let _ = drive(exp, &args, Some(&merged.runs));
    }
}
