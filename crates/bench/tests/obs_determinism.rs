//! Byte-identity gate for the observability layer: turning the phase
//! profiler and heartbeat on must not change a single byte of
//! stdout-bound tables, metrics JSON, or stress reports, at any worker
//! count. Same identity-gate pattern as `stress_determinism.rs`, with
//! the observability runtime toggled mid-test. The same test pins what
//! the profile report and the heartbeat count: the report's counters are
//! the sums of the per-run stats, and the heartbeat's cycle tally grows
//! by exactly the simulated cycles of the runs executed.
//!
//! Everything lives in ONE `#[test]` because `sam_obs::profile::enable`
//! is global and irreversible within a process, and the heartbeat's
//! cycle tally is process-wide: the plain (pre-enable) captures must all
//! be taken before the observed ones, and no other sweep may run while
//! the tally is measured.

use std::path::Path;

use sam::system::{RunResult, SystemConfig};
use sam_bench::bins;
use sam_bench::cli::{try_parse_args, ArgSpec, BenchArgs};
use sam_bench::experiment::{drive, execute, Ctx, Run};
use sam_bench::stressrun::{assemble_reports, cells, render_report, standard_cases};
use sam_bench::{assemble_grid_chunk, grid_chunk_len, grid_runs};
use sam_imdb::plan::PlanConfig;
use sam_imdb::query::Query;
use sam_stress::report::json_report;
use sam_stress::{Pattern, PatternParams};
use sam_util::json::Json;

fn jobs_args(jobs: usize) -> BenchArgs {
    let argv = ["--jobs".to_string(), jobs.to_string()];
    try_parse_args(&ArgSpec::new("obs"), PlanConfig::tiny(), &argv).unwrap()
}

fn fig12_bits(jobs: usize) -> Vec<(String, Vec<u64>)> {
    let queries = [Query::Q3, Query::Qs3];
    let designs = vec![sam::designs::sam_io(), sam::designs::sam_en()];
    let system = SystemConfig::default();
    let plan: Vec<Run> = queries
        .iter()
        .flat_map(|q| grid_runs(*q, PlanConfig::tiny(), system, &designs))
        .collect();
    let (results, _, _) = execute(&plan, &jobs_args(jobs));
    let gather = system.granularity.gather() as u64;
    results
        .into_queries()
        .chunks(grid_chunk_len(&designs))
        .map(|chunk| assemble_grid_chunk(chunk, &designs, gather))
        .map(|(row, metrics)| {
            // Exact f64 bit patterns, not approximate equality: the goldens
            // are byte-compared in CI, so the test must be at least as strict.
            let mut bits: Vec<u64> = row.speedups.iter().map(|(_, s)| s.to_bits()).collect();
            bits.push(row.ideal.to_bits());
            bits.extend(metrics.iter().map(|m| m.cycles));
            (row.query.to_string(), bits)
        })
        .collect()
}

/// The stress table and JSON report, plus how much the run grew the
/// heartbeat's cycle tally and the sum of its cells' last completions.
fn stress_outputs() -> (String, String, (u64, u64)) {
    let params = PatternParams::small(41);
    let cases = standard_cases(None, None, None);
    let tally = sam_obs::heartbeat::cycles();
    let (results, _, _) = execute(&cells(&Pattern::ALL, &params, &cases), &jobs_args(2));
    let grown = sam_obs::heartbeat::cycles() - tally;
    let outcomes = results.into_stress();
    let last_finish: u64 = outcomes.iter().map(|s| s.last_finish).sum();
    let reports = assemble_reports(&Pattern::ALL, &cases, outcomes);
    (
        render_report(&reports),
        json_report(41, &reports).to_string(),
        (grown, last_finish),
    )
}

/// Runs the registered fig12 experiment at test scale with `--profile` on
/// `jobs` workers and returns the profile report's counters section, plus
/// the arguments it ran with.
fn fig12_profile_counters(dir: &Path, jobs: usize) -> (Json, BenchArgs) {
    let exp = bins::find("fig12").expect("fig12 is registered");
    let profile = dir.join(format!("fig12.jobs{jobs}.profile.json"));
    let argv = [
        "--rows".to_string(),
        "64".to_string(),
        "--tb-rows".to_string(),
        "64".to_string(),
        "--jobs".to_string(),
        jobs.to_string(),
        "--out".to_string(),
        dir.join(format!("fig12.jobs{jobs}.json"))
            .display()
            .to_string(),
        format!("--profile={}", profile.display()),
    ];
    let args = try_parse_args(&exp.spec, PlanConfig::tiny(), &argv).unwrap();
    assert_eq!(drive(exp, &args, None), Ok(0));
    let doc = Json::parse(&std::fs::read_to_string(&profile).unwrap()).unwrap();
    sam_obs::profile::lint_profile_json(&doc).expect("profile report lints clean");
    (
        doc.get("counters").cloned().expect("counters section"),
        args,
    )
}

/// The value of counter `name` in a report's counters section.
fn counter(section: &Json, name: &str) -> u64 {
    let entry = section
        .as_array()
        .unwrap()
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some(name));
    match entry.and_then(|c| c.get("value")) {
        Some(&Json::UInt(v)) => v,
        other => panic!("counter {name}: {other:?}"),
    }
}

#[test]
fn observability_never_changes_simulation_bytes() {
    // Plain captures first: the observability runtime is still dormant.
    assert!(
        !sam_obs::profile::enabled(),
        "another test enabled profiling; this test must own the process"
    );
    let plain_j1 = fig12_bits(1);
    let plain_j4 = fig12_bits(4);
    let (plain_table, plain_json, (grown, last_finish)) = stress_outputs();

    // Worker-count independence holds before observability is on.
    assert_eq!(plain_j1, plain_j4);

    // Stress cells never reach `System::run`, yet their cycles reach the
    // heartbeat: the tally grows by exactly their last completions.
    assert_eq!(
        grown, last_finish,
        "heartbeat cycle tally vs sum of last_finish"
    );

    // Turn everything on: profiling (irreversibly), plus a heartbeat
    // monitor faster than any real run would use. The sweep runner's
    // sweep_add/task_done calls feed it live totals underneath.
    sam_obs::profile::enable();
    let hb = sam_obs::heartbeat::start("obs-determinism", 1);

    let observed_j1 = fig12_bits(1);
    let observed_j4 = fig12_bits(4);
    let (observed_table, observed_json, (grown, last_finish)) = stress_outputs();
    hb.stop();
    assert_eq!(grown, last_finish);

    // The oracle: identical result bits and report bytes, observed or
    // not, serial or parallel.
    assert_eq!(plain_j1, observed_j1);
    assert_eq!(plain_j4, observed_j4);
    assert_eq!(plain_table, observed_table);
    assert_eq!(plain_json, observed_json);

    // And the profiler actually recorded the observed half: the phases
    // instrumented in the datapath must show up in the report.
    let forest = sam_obs::profile::take_report();
    let names: Vec<&str> = forest.iter().map(|n| n.name.as_str()).collect();
    assert!(names.contains(&"run"), "no 'run' phase recorded: {names:?}");
    let total = sam_obs::profile::forest_total_ns(&forest);
    assert!(total > 0, "phases recorded no time");

    // The profile report's counters are the per-run stats summed over the
    // plan, and the same at any worker count.
    let dir = std::env::temp_dir().join(format!("sam-obs-counters-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (j1, args) = fig12_profile_counters(&dir, 1);
    let (j4, _) = fig12_profile_counters(&dir, 4);
    assert_eq!(
        j1.to_string(),
        j4.to_string(),
        "counters differ across --jobs"
    );
    let exp = bins::find("fig12").unwrap();
    let plan = (exp.plan)(&Ctx::new(exp, &args));
    let (results, _, _) = execute(&plan, &args);
    let runs: Vec<RunResult> = results
        .into_queries()
        .into_iter()
        .map(|q| q.result)
        .collect();
    let sum = |f: fn(&RunResult) -> u64| runs.iter().map(f).sum::<u64>();
    for (name, want) in [
        ("dram.acts", sum(|r| r.device.acts)),
        (
            "dram.col_reads",
            sum(|r| r.device.reads + r.device.stride_reads),
        ),
        (
            "ctrl.requests_enqueued",
            sum(|r| r.ctrl.reads_done + r.ctrl.writes_done),
        ),
        (
            "cache.mem_misses",
            sum(|r| r.cache.2.sector_misses + r.cache.2.line_misses),
        ),
        ("sim.cycles", sum(|r| r.cycles)),
    ] {
        assert!(want > 0, "{name}: the plan recorded none");
        assert_eq!(counter(&j1, name), want, "{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
