//! Byte-identity gate for the observability layer: turning the phase
//! profiler and heartbeat counters on must not change a single byte of
//! stdout-bound tables, metrics JSON, or stress reports, at any worker
//! count. Same identity-gate pattern as `stress_determinism.rs`, with
//! the observability runtime toggled mid-test.
//!
//! Everything lives in ONE `#[test]` because `sam_obs::profile::enable`
//! is global and irreversible within a process: the plain (pre-enable)
//! captures must all be taken before the observed ones.

#![cfg(feature = "obs")]

use sam::system::SystemConfig;
use sam_bench::cli::{try_parse_args, ArgSpec, BenchArgs};
use sam_bench::experiment::{execute, Run};
use sam_bench::stressrun::{assemble_reports, cells, render_report, standard_cases};
use sam_bench::{assemble_grid_chunk, grid_chunk_len, grid_runs};
use sam_imdb::plan::PlanConfig;
use sam_imdb::query::Query;
use sam_stress::report::json_report;
use sam_stress::{Pattern, PatternParams};

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

fn stress_outputs() -> (String, String) {
    let params = PatternParams::small(41);
    let cases = standard_cases(None, None, None);
    let (results, _, _) = execute(&cells(&Pattern::ALL, &params, &cases), &jobs_args(2));
    let reports = assemble_reports(&Pattern::ALL, &cases, results.into_stress());
    (
        render_report(&reports),
        json_report(41, &reports).to_string(),
    )
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
    let (plain_table, plain_json) = stress_outputs();

    // Worker-count independence holds before observability is on.
    assert_eq!(plain_j1, plain_j4);

    // Turn everything on: profiling (irreversibly), plus a heartbeat
    // monitor faster than any real run would use. The sweep runner's
    // sweep_add/task_done calls feed it live totals underneath.
    sam_obs::profile::enable();
    let hb = sam_obs::heartbeat::start("obs-determinism", 1);

    let observed_j1 = fig12_bits(1);
    let observed_j4 = fig12_bits(4);
    let (observed_table, observed_json) = stress_outputs();
    hb.stop();

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
}
