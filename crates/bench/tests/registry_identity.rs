//! One table-driven gate over the whole experiment registry.
//!
//! For every registered experiment, at the smallest scale that still plans
//! every run: stdout and the metrics JSON match the committed goldens
//! under `tests/golden/smallest/` (stdout as `<name>.out`, the JSON as a
//! size and [`FxHasher`] line in `json.digest`), and they are
//! byte-identical at `--jobs 1` and `--jobs 3`. A second test pins each experiment's accepted flags to the
//! per-binary table the registry replaced, so moving a binary into the
//! registry can neither widen nor narrow its command line. A third pins
//! the `--per-core` metrics JSON and cycles rollup of fig12–fig16 in
//! `percore.digest`.

use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use sam_bench::bins::EXPERIMENTS;
use sam_bench::cli::ArgSpec;
use sam_bench::experiment::Experiment;
use sam_util::fxhash::FxHasher;

/// The per-binary flag table as it stood before the registry, verbatim
/// but for `--heartbeat`, which every binary accepted and which is now a
/// shared flag.
fn pre_registry_spec(bin: &str) -> Option<ArgSpec> {
    const FIG_FLAGS: &[&str] = &["--debug-cores", "--per-core"];
    Some(match bin {
        "fig12" => ArgSpec::new("fig12")
            .with_checked()
            .with_trace()
            .with_flags(FIG_FLAGS),
        "fig13" => ArgSpec::new("fig13").with_trace().with_flags(FIG_FLAGS),
        "fig14" => ArgSpec::new("fig14")
            .with_panels(&["a", "b", "c"])
            .with_trace()
            .with_flags(FIG_FLAGS),
        "fig15" => ArgSpec::new("fig15")
            .with_panels(&["a", "b", "c", "d", "e", "f", "g", "h", "i"])
            .with_trace()
            .with_flags(FIG_FLAGS),
        "fig16" => ArgSpec::new("fig16")
            .with_checked()
            .with_trace()
            .with_flags(FIG_FLAGS),
        "table1" => ArgSpec::new("table1"),
        "table2" => ArgSpec::new("table2"),
        "table3" => ArgSpec::new("table3"),
        "ablation" => ArgSpec::new("ablation"),
        "motivation" => ArgSpec::new("motivation"),
        "reliability" => ArgSpec::new("reliability").with_trials(),
        "stress" => ArgSpec::new("stress").with_trace().with_panels(&[
            "row-hit-flood",
            "ping-pong",
            "write-burst",
            "faw-train",
            "sector-straddle",
        ]),
        _ => return None,
    })
}

#[test]
fn registry_accepts_exactly_the_pre_registry_flags() {
    let mut names: Vec<&str> = EXPERIMENTS.iter().map(Experiment::name).collect();
    for exp in EXPERIMENTS {
        let before = pre_registry_spec(exp.name())
            .unwrap_or_else(|| panic!("{} has no pre-registry spec", exp.name()));
        assert_eq!(
            exp.spec,
            before,
            "{} changed its accepted flags",
            exp.name()
        );
    }
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 12, "every binary registered exactly once");
    // The stress panels are the pattern names, in the generator's order.
    let stress = sam_bench::bins::find("stress").unwrap();
    let patterns: Vec<&str> = sam_stress::Pattern::ALL.iter().map(|p| p.name()).collect();
    assert_eq!(stress.spec.panels, patterns.as_slice());
}

/// The smallest command line that still plans every run of `name`.
fn smallest(name: &str) -> Vec<&'static str> {
    match name {
        "reliability" => vec!["--trials", "1"],
        "stress" => vec!["--seed", "7"],
        "table1" | "table2" | "table3" => Vec::new(),
        _ => vec!["--rows", "64", "--tb-rows", "64"],
    }
}

fn bin_dir() -> PathBuf {
    Path::new(env!("CARGO_BIN_EXE_sam-check"))
        .parent()
        .expect("binaries share a directory")
        .to_path_buf()
}

fn run_ok(exe: &Path, args: &[&str]) -> Output {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", exe.display()));
    assert!(
        out.status.success(),
        "{} {args:?} failed:\n{}",
        exe.display(),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/smallest")
}

/// A `json.digest` line: the name, the document's size and its
/// [`FxHasher`] digest in hex.
fn digest_line(name: &str, json: &[u8]) -> String {
    let mut h = FxHasher::default();
    h.write(json);
    format!("{name} {} {:016x}", json.len(), h.finish())
}

/// The command that rewrites `name`'s golden stdout at the `--jobs 1`
/// command line this test runs.
fn regenerate(name: &str) -> String {
    let out = format!("/tmp/{name}.json");
    let mut args = smallest(name);
    args.extend(["--jobs", "1", "--out", &out]);
    format!(
        "cargo run --release -q -p sam-bench --bin {name} -- {} > tests/golden/smallest/{name}.out",
        args.join(" ")
    )
}

/// Compares one experiment's `--jobs 1` outputs against its goldens and
/// returns a message per mismatch.
fn golden_mismatches(name: &str, stdout: &[u8], json: &[u8], digests: &str) -> Vec<String> {
    let mut bad = Vec::new();
    let path = golden_dir().join(format!("{name}.out"));
    if std::fs::read(&path).ok().as_deref() != Some(stdout) {
        bad.push(format!(
            "{name}: stdout differs from {}; if the change is intended, regenerate with\n  {}",
            path.display(),
            regenerate(name)
        ));
    }
    let want = digest_line(name, json);
    let have = digests
        .lines()
        .find(|line| line.split(' ').next() == Some(name));
    if have != Some(want.as_str()) {
        bad.push(format!(
            "{name}: metrics JSON digest is `{want}`, json.digest has `{}`; if the change is \
             intended, run\n  {}\nand put the new line in tests/golden/smallest/json.digest",
            have.unwrap_or("nothing"),
            regenerate(name)
        ));
    }
    bad
}

/// Runs `name` locally and returns (stdout, metrics JSON).
fn local(name: &str, dir: &Path, jobs: &str) -> (Vec<u8>, Vec<u8>) {
    let out = dir.join(format!("{name}.json"));
    let mut args = smallest(name);
    let out_arg = out.to_string_lossy().into_owned();
    args.extend(["--jobs", jobs, "--out", &out_arg]);
    let o = run_ok(&bin_dir().join(name), &args);
    let json = std::fs::read(&out).expect("metrics json written");
    std::fs::remove_file(&out).expect("clear metrics json");
    (o.stdout, json)
}

#[test]
#[allow(
    clippy::disallowed_types,
    reason = "times itself on stderr only; never part of a compared output"
)]
fn every_experiment_is_jobs_identical_and_matches_its_goldens() {
    let start = std::time::Instant::now();
    let dir = std::env::temp_dir().join(format!("sam-registry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let digests =
        std::fs::read_to_string(golden_dir().join("json.digest")).expect("read json.digest");
    let mut names: Vec<&str> = digests
        .lines()
        .filter_map(|l| l.split(' ').next())
        .collect();
    names.sort_unstable();
    let mut registered: Vec<&str> = EXPERIMENTS.iter().map(Experiment::name).collect();
    registered.sort_unstable();
    assert_eq!(names, registered, "json.digest lists each experiment once");
    let mut drift = Vec::new();
    for exp in EXPERIMENTS {
        let name = exp.name();
        let (stdout, json) = local(name, &dir, "1");
        drift.extend(golden_mismatches(name, &stdout, &json, &digests));
        let (stdout3, json3) = local(name, &dir, "3");
        assert!(
            stdout == stdout3,
            "{name}: stdout differs between --jobs 1 and 3"
        );
        assert!(json == json3, "{name}: JSON differs between --jobs 1 and 3");
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(drift.is_empty(), "{}", drift.join("\n"));
    eprintln!(
        "registry identity: {} experiments in {:.1} s",
        EXPERIMENTS.len(),
        start.elapsed().as_secs_f64()
    );
}

/// The experiments that accept `--per-core`.
const PER_CORE: &[&str] = &["fig12", "fig13", "fig14", "fig15", "fig16"];

/// `--per-core` at the smallest scale: stdout is still the plain golden,
/// and the metrics JSON (with its `per_core` sections) plus the cycles
/// rollup, where the experiment writes one, match the size and
/// [`FxHasher`] lines in `percore.digest` (`<name>` for the JSON,
/// `<name>.rollup` for the rollup).
#[test]
fn per_core_outputs_match_their_digests() {
    let dir = std::env::temp_dir().join(format!("sam-percore-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let digests =
        std::fs::read_to_string(golden_dir().join("percore.digest")).expect("read percore.digest");
    let mut have = Vec::new();
    for &name in PER_CORE {
        let out = dir.join(format!("{name}.json"));
        let rollup = out.with_extension("rollup.json");
        let out_arg = out.to_string_lossy().into_owned();
        let mut args = smallest(name);
        args.extend(["--jobs", "1", "--per-core", "--out", &out_arg]);
        let o = run_ok(&bin_dir().join(name), &args);
        let golden = golden_dir().join(format!("{name}.out"));
        assert!(
            std::fs::read(&golden).ok() == Some(o.stdout),
            "{name}: --per-core changed stdout against {}",
            golden.display()
        );
        let json = std::fs::read(&out).expect("metrics json written");
        assert!(
            std::str::from_utf8(&json).is_ok_and(|s| s.contains("\"per_core\"")),
            "{name}: --per-core emitted no per_core section"
        );
        have.push(digest_line(name, &json));
        if let Ok(doc) = std::fs::read(&rollup) {
            have.push(digest_line(&format!("{name}.rollup"), &doc));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    let have = have.join("\n");
    assert!(
        have == digests.trim_end(),
        "--per-core outputs drifted from tests/golden/smallest/percore.digest; if the change \
         is intended, the file should read:\n{have}"
    );
}
