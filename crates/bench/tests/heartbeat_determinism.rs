//! Byte-identity gate for the heartbeat: a running `--heartbeat` monitor
//! must not change a single byte of stdout-bound tables, metrics JSON, or
//! stress reports, at any worker count. Same identity-gate pattern as
//! `stress_determinism.rs`, with the monitor toggled mid-test. The same
//! test pins what the heartbeat counts: its cycle tally grows by exactly
//! the simulated cycles of the runs executed.
//!
//! Everything lives in ONE `#[test]` because the heartbeat's cycle tally
//! is process-wide: no other sweep may run while the tally is measured.

use std::path::Path;

use sam::system::SystemConfig;
use sam_bench::cli::{try_parse_args, ArgSpec, BenchArgs};
use sam_bench::experiment::{drive, execute, Run};
use sam_bench::stressrun::{assemble_reports, cells, render_report, standard_cases};
use sam_bench::{assemble_grid_chunk, bins, grid_chunk_len, grid_runs, heartbeat};
use sam_imdb::plan::PlanConfig;
use sam_imdb::query::Query;
use sam_memctrl::controller::SchedOverrides;
use sam_stress::report::json_report;
use sam_stress::{Pattern, PatternParams};

fn jobs_args(jobs: usize) -> BenchArgs {
    let argv = ["--jobs".to_string(), jobs.to_string()];
    try_parse_args(&ArgSpec::new("heartbeat"), PlanConfig::tiny(), &argv).unwrap()
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
    let cases = standard_cases(SchedOverrides::default());
    let tally = heartbeat::cycles();
    let (results, _, _) = execute(&cells(&Pattern::ALL, &params, &cases), &jobs_args(2));
    let grown = heartbeat::cycles() - tally;
    let outcomes = results.into_stress();
    let last_finish: u64 = outcomes.iter().map(|s| s.last_finish).sum();
    let reports = assemble_reports(&Pattern::ALL, &cases, outcomes);
    (
        render_report(&reports),
        json_report(41, &reports).to_string(),
        (grown, last_finish),
    )
}

/// The metrics JSON the registered fig12 driver writes at test scale on
/// `jobs` workers, with `extra` flags appended.
fn fig12_driven_json(dir: &Path, jobs: usize, extra: &[&str]) -> Vec<u8> {
    let exp = bins::find("fig12").expect("fig12 is registered");
    let out = dir.join("fig12.json");
    let (jobs, out_arg) = (jobs.to_string(), out.display().to_string());
    let mut argv = vec![
        "--rows",
        "64",
        "--tb-rows",
        "64",
        "--jobs",
        &jobs,
        "--out",
        &out_arg,
    ];
    argv.extend(extra);
    let argv: Vec<String> = argv.into_iter().map(String::from).collect();
    let args = try_parse_args(&exp.spec, PlanConfig::tiny(), &argv).unwrap();
    assert_eq!(drive(exp, &args), 0);
    std::fs::read(&out).expect("metrics json written")
}

#[test]
fn heartbeat_never_changes_simulation_bytes() {
    // Plain captures first: no monitor is running yet.
    let plain_j1 = fig12_bits(1);
    let plain_j4 = fig12_bits(4);
    let (plain_table, plain_json, (grown, last_finish)) = stress_outputs();

    // Worker-count independence holds with the monitor off.
    assert_eq!(plain_j1, plain_j4);

    // Stress cells never reach `System::run`, yet their cycles reach the
    // heartbeat: the tally grows by exactly their last completions.
    assert_eq!(
        grown, last_finish,
        "heartbeat cycle tally vs sum of last_finish"
    );

    // Turn the monitor on, faster than any real run would use. The sweep
    // runner's sweep_add/task_done calls feed it live totals underneath.
    let hb = heartbeat::start("heartbeat-determinism", 1);
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

    // The driver's own `--heartbeat` monitor leaves the metrics document
    // byte-identical too, at either worker count.
    let dir = std::env::temp_dir().join(format!("sam-heartbeat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let plain = fig12_driven_json(&dir, 1, &[]);
    for jobs in [1, 4] {
        let observed = fig12_driven_json(&dir, jobs, &["--heartbeat=1"]);
        assert!(
            observed == plain,
            "--heartbeat changed fig12's metrics JSON at --jobs {jobs}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
