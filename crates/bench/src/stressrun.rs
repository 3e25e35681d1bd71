//! The adversarial stress harness behind the `stress` binary.
//!
//! One invocation is a (pattern × case) grid of fully independent stream
//! executions, so the harness plans them like the figure binaries: each
//! cell becomes a [`Job::Stress`] run ([`cells`]), the experiment executor
//! returns outcomes in plan order, and the printed table, the
//! `results/stress.json` document, and the optional trace document are all
//! byte-identical at any `--jobs` count. Cross-run differential checks
//! ([`sam_stress::diff::cross_check`]) are applied to each pattern's
//! completed case row after the sweep, on the reassembled plan-order runs.
//!
//! The case matrix pairs the commodity DDR4 baseline with knob variants
//! (pure FCFS, a tight starvation cap, deeper drain hysteresis, an
//! explicit spelling of the defaults) and the RC-NVM-style RRAM device,
//! so one run exercises both the per-run invariants and the cross-run
//! oracles (cap monotonicity, semantic identity) on every named pattern.

use sam_memctrl::controller::SchedOverrides;
use sam_stress::diff::{cross_check, DiffCase, DiffReport, DiffRun};
use sam_stress::pattern::{Pattern, PatternParams};
use sam_stress::report::PatternReport;
use sam_stress::stream::{DeviceKind, StressConfig};

use crate::experiment::{Job, Run};

/// Builds the standard differential case matrix. CLI overrides replace
/// the *base* (commodity) knobs — the variant cases keep their fixed
/// settings so the differential axes survive an override.
pub fn standard_cases(overrides: SchedOverrides) -> Vec<DiffCase> {
    let base = StressConfig::ddr4(overrides);
    let case = |label: &str, config: StressConfig| DiffCase {
        label: label.into(),
        config,
    };
    vec![
        case("commodity", base),
        // Spelled the same way on purpose: the semantic-identity oracle
        // demands byte-identical stats from these two rows.
        case("commodity-twin", base),
        case(
            "fcfs",
            StressConfig {
                starvation_cap: 0,
                ..base
            },
        ),
        case(
            "tight-cap",
            StressConfig {
                starvation_cap: 256,
                ..base
            },
        ),
        case(
            "deep-drain",
            StressConfig {
                drain_hi: 20,
                drain_lo: 4,
                ..base
            },
        ),
        case(
            "rc-nvm",
            StressConfig::new(
                DeviceKind::Rram,
                base.starvation_cap,
                base.drain_hi,
                base.drain_lo,
            )
            .expect("base margins were validated by the CLI"),
        ),
    ]
}

/// Plans the (pattern × case) grid, cases innermost, each cell labelled
/// `"<pattern>/<case>"` with unit weight.
pub fn cells(patterns: &[Pattern], params: &PatternParams, cases: &[DiffCase]) -> Vec<Run> {
    let mut runs = Vec::with_capacity(patterns.len() * cases.len());
    for pattern in patterns {
        for case in cases {
            runs.push(Run {
                label: format!("{}/{}", pattern.name(), case.label),
                weight: 1,
                job: Job::Stress {
                    config: case.config,
                    pattern: *pattern,
                    params: *params,
                },
            });
        }
    }
    runs
}

/// Reassembles flat plan-order outcomes (one per (pattern, case)
/// cell, cases innermost) into per-pattern differential reports, running
/// the cross-run oracles on each completed case row.
pub fn assemble_reports(
    patterns: &[Pattern],
    cases: &[DiffCase],
    outcomes: Vec<sam_stress::StressOutcome>,
) -> Vec<PatternReport> {
    assert_eq!(outcomes.len(), patterns.len() * cases.len());
    let mut reports = Vec::with_capacity(patterns.len());
    let mut it = outcomes.into_iter();
    for pattern in patterns {
        let mut runs = Vec::with_capacity(cases.len());
        for case in cases {
            runs.push(DiffRun {
                case: case.clone(),
                outcome: it.next().expect("one outcome per task"),
            });
        }
        let cross_findings = cross_check(&runs);
        reports.push(PatternReport {
            pattern: pattern.name().into(),
            report: DiffReport {
                runs,
                cross_findings,
            },
        });
    }
    reports
}

/// Renders the grid as the binary's stdout body: one aligned row per
/// (pattern, case) cell, then per-run violation details and cross-run
/// findings, then a one-line verdict. Pure function of the reports, so
/// the bytes are `--jobs`- and `--trace`-independent by construction.
pub fn render_report(reports: &[PatternReport]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<16} {:<15} {:<6} {:>5} {:>3} {:>3} {:>6} {:>7} {:>9} {:>8} {:>8} {:>9} {:>5}\n",
        "pattern",
        "case",
        "device",
        "cap",
        "hi",
        "lo",
        "reads",
        "writes",
        "row-hits",
        "starved",
        "max-res",
        "bound",
        "viol"
    ));
    for p in reports {
        for run in &p.report.runs {
            let c = &run.case.config;
            let o = &run.outcome;
            s.push_str(&format!(
                "{:<16} {:<15} {:<6} {:>5} {:>3} {:>3} {:>6} {:>7} {:>9} {:>8} {:>8} {:>9} {:>5}\n",
                p.pattern,
                run.case.label,
                c.device.token(),
                c.starvation_cap,
                c.drain_hi,
                c.drain_lo,
                o.reads,
                o.writes,
                o.row_hits,
                o.starved,
                o.max_read_residency,
                o.residency_bound,
                o.violations.len()
            ));
        }
    }
    let mut total = 0usize;
    for p in reports {
        for run in &p.report.runs {
            for v in run.outcome.violations.iter().take(5) {
                s.push_str(&format!("  {}/{}: {v}\n", p.pattern, run.case.label));
            }
            if run.outcome.violations.len() > 5 {
                s.push_str(&format!(
                    "  {}/{}: ... and {} more\n",
                    p.pattern,
                    run.case.label,
                    run.outcome.violations.len() - 5
                ));
            }
            total += run.outcome.violations.len();
        }
        for f in &p.report.cross_findings {
            s.push_str(&format!("  {} [cross-run]: {f}\n", p.pattern));
            total += 1;
        }
    }
    s.push_str(&format!(
        "\nbehavioural invariants: {}\n",
        if total == 0 {
            "all held".to_string()
        } else {
            format!("{total} violation(s)")
        }
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{try_parse_args, ArgSpec};
    use crate::experiment::execute;
    use sam_imdb::plan::PlanConfig;
    use sam_stress::report::{json_report, lint_stress_json};
    use sam_trace::RunTrace;

    fn small_params() -> PatternParams {
        PatternParams::small(3)
    }

    /// The grid through the experiment executor, with `argv`'s `--jobs`
    /// and `--trace` flags.
    fn run_grid(patterns: &[Pattern], argv: &[&str]) -> (Vec<PatternReport>, Vec<RunTrace>) {
        let cases = standard_cases(SchedOverrides::default());
        let spec = ArgSpec::new("stress").with_trace();
        let argv: Vec<String> = argv.iter().map(ToString::to_string).collect();
        let args = try_parse_args(&spec, PlanConfig::tiny(), &argv).unwrap();
        let (results, traces, _) = execute(&cells(patterns, &small_params(), &cases), &args);
        (
            assemble_reports(patterns, &cases, results.into_stress()),
            traces,
        )
    }

    #[test]
    fn standard_cases_cover_both_devices_and_honor_overrides() {
        let cases = standard_cases(SchedOverrides::default());
        assert_eq!(cases.len(), 6);
        assert_eq!(cases[0].config, cases[1].config, "identity twin");
        assert_eq!(cases[2].config.starvation_cap, 0);
        assert_eq!(cases[3].config.starvation_cap, 256);
        assert_eq!(
            (cases[4].config.drain_hi, cases[4].config.drain_lo),
            (20, 4)
        );
        assert_eq!(cases[5].config.device, DeviceKind::Rram);
        let cases = standard_cases(SchedOverrides {
            starvation_cap: Some(512),
            drain_hi: Some(24),
            drain_lo: Some(6),
        });
        assert_eq!(cases[0].config.starvation_cap, 512);
        assert_eq!(
            (cases[0].config.drain_hi, cases[0].config.drain_lo),
            (24, 6)
        );
        // Variants keep their own axis but inherit the rest.
        assert_eq!(cases[2].config.starvation_cap, 0);
        assert_eq!(cases[2].config.drain_hi, 24);
        assert_eq!(
            (cases[4].config.drain_hi, cases[4].config.drain_lo),
            (20, 4)
        );
        assert_eq!(cases[5].config.starvation_cap, 512);
    }

    /// The `--jobs` byte-identity guarantee in miniature: reports, table,
    /// and JSON all match between a serial and a parallel sweep.
    #[test]
    fn parallel_sweep_matches_serial_byte_for_byte() {
        let patterns = [Pattern::RowHitFlood, Pattern::WriteBurst];
        let (serial, _) = run_grid(&patterns, &["--jobs", "1"]);
        let (parallel, _) = run_grid(&patterns, &["--jobs", "4"]);
        assert_eq!(serial, parallel);
        assert_eq!(render_report(&serial), render_report(&parallel));
        assert_eq!(
            json_report(3, &serial).to_string(),
            json_report(3, &parallel).to_string()
        );
    }

    /// Tracing is purely observational: outcomes identical, one trace per
    /// grid cell, in submission order.
    #[test]
    fn traced_grid_matches_untraced_and_collects_per_cell() {
        let patterns = [Pattern::BankPingPong];
        let (plain, none) = run_grid(&patterns, &["--jobs", "2"]);
        assert!(none.is_empty());
        let (traced, traces) = run_grid(
            &patterns,
            &["--jobs", "2", "--trace", "--epoch-len", "1000"],
        );
        assert_eq!(plain, traced);
        assert_eq!(
            traces.len(),
            standard_cases(SchedOverrides::default()).len()
        );
        assert_eq!(traces[0].label, "ping-pong/commodity");
        assert!(traces.iter().any(|t| !t.events.is_empty()));
    }

    #[test]
    fn full_grid_is_clean_and_lints_at_small_scale() {
        let (reports, _) = run_grid(&Pattern::ALL, &["--jobs", "4"]);
        let doc = json_report(3, &reports);
        let summary = lint_stress_json(&doc).unwrap();
        assert_eq!(summary.patterns, 5);
        assert_eq!(summary.runs, 30);
        assert_eq!(summary.total_violations, 0);
        let rendered = render_report(&reports);
        assert!(rendered.contains("behavioural invariants: all held"));
    }
}
