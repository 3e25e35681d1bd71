//! Differential determinism gate for the stress harness: everything the
//! `stress` binary emits — the stdout table, the `results/stress.json`
//! document, and the `--trace` Chrome document — must be byte-identical
//! between `--jobs 1` and `--jobs 4`, traced or not. Same identity-gate
//! pattern as the fig12 sweep tests, applied to the full pattern grid.

use sam_bench::cli::{try_parse_args, ArgSpec};
use sam_bench::experiment::execute;
use sam_bench::stressrun::{assemble_reports, cells, render_report, standard_cases};
use sam_imdb::plan::PlanConfig;
use sam_memctrl::controller::SchedOverrides;
use sam_stress::report::{json_report, PatternReport};
use sam_stress::{Pattern, PatternParams};
use sam_trace::{chrome_trace, RunTrace};

/// The full pattern grid through the experiment executor with `argv`'s
/// `--jobs`/`--trace` flags.
fn grid(argv: &[&str]) -> (Vec<PatternReport>, Vec<RunTrace>) {
    let params = PatternParams::small(41);
    let cases = standard_cases(SchedOverrides::default());
    let spec = ArgSpec::new("stress").with_trace();
    let argv: Vec<String> = argv.iter().map(ToString::to_string).collect();
    let args = try_parse_args(&spec, PlanConfig::tiny(), &argv).unwrap();
    let (results, traces, _) = execute(&cells(&Pattern::ALL, &params, &cases), &args);
    let reports = assemble_reports(&Pattern::ALL, &cases, results.into_stress());
    (reports, traces)
}

#[test]
fn stress_outputs_are_jobs_and_trace_independent() {
    let traced = ["--trace", "--epoch-len", "2000"];
    let (serial, _) = grid(&["--jobs", "1"]);
    let (parallel, _) = grid(&["--jobs", "4"]);
    let (traced_p, traces_p) = grid(&[&["--jobs", "4"][..], &traced].concat());
    let (_, traces_s) = grid(&[&["--jobs", "1"][..], &traced].concat());

    // stdout table: byte-identical across jobs and tracing.
    let table = render_report(&serial);
    assert_eq!(table, render_report(&parallel));
    assert_eq!(table, render_report(&traced_p));

    // JSON document: byte-identical (and deliberately carries no jobs
    // field, so the bytes *are* the determinism oracle).
    let doc = json_report(41, &serial).to_string();
    assert_eq!(doc, json_report(41, &parallel).to_string());
    assert_eq!(doc, json_report(41, &traced_p).to_string());
    assert!(!doc.contains("\"jobs\""));

    // Trace document: byte-identical between worker counts.
    assert_eq!(traces_s.len(), Pattern::ALL.len() * 6);
    let doc_s = chrome_trace("stress", &traces_s).to_string();
    let doc_p = chrome_trace("stress", &traces_p).to_string();
    assert_eq!(doc_s, doc_p);
}
