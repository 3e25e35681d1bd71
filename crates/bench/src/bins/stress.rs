//! Adversarial stress engine: named attack patterns run differentially
//! across scheduler knob settings, with behavioural-invariant checking
//! and failing-stream shrinking.

use std::path::Path;

use sam_stress::diff::DiffCase;
use sam_stress::report::{json_report, PatternReport};
use sam_stress::shrink::shrink_stream;
use sam_stress::stream::format_stream;
use sam_stress::{Pattern, PatternParams};

use crate::experiment::{Ctx, Doc, Rendered, Results, Run};
use crate::stressrun::{assemble_reports, cells, render_report, standard_cases};

fn patterns(ctx: &Ctx) -> Vec<Pattern> {
    ctx.panels()
        .into_iter()
        .map(|n| Pattern::from_name(n).expect("panel names are validated by the CLI"))
        .collect()
}

fn params(ctx: &Ctx) -> PatternParams {
    PatternParams {
        seed: ctx.args.plan.seed,
        ..PatternParams::default()
    }
}

fn cases(ctx: &Ctx) -> Vec<DiffCase> {
    standard_cases(ctx.args.sched)
}

/// Every (pattern, case) cell of the selected patterns.
pub fn plan(ctx: &Ctx) -> Vec<Run> {
    cells(&patterns(ctx), &params(ctx), &cases(ctx))
}

/// The differential table plus `results/stress.json`. On any violation it
/// shrinks the first failing stream to a repro next to the report and
/// fails the run.
pub fn render(ctx: &Ctx, results: Results) -> Rendered {
    let patterns = patterns(ctx);
    let params = params(ctx);
    let cases = cases(ctx);
    let reports = assemble_reports(&patterns, &cases, results.into_stress());
    println!(
        "Adversarial stress: {} pattern(s) x {} case(s), seed {}, {} requests/stream\n",
        patterns.len(),
        cases.len(),
        params.seed,
        params.len
    );
    print!("{}", render_report(&reports));
    let failed = reports.iter().any(|p| p.report.total_violations() > 0);
    if failed {
        write_first_repro(&reports, &patterns, &params, &ctx.args.out);
    }
    Rendered {
        doc: Doc::Json(json_report(params.seed, &reports)),
        failed,
    }
}

/// Shrinks the first per-run violation to a minimal repro and writes it
/// as `stress.repro.trace` next to the `out` report, creating the
/// directory if the report has not been written yet. Cross-run findings
/// have no single offending stream, so a run with only those still exits
/// 1 but leaves no repro.
fn write_first_repro(
    reports: &[PatternReport],
    patterns: &[Pattern],
    params: &PatternParams,
    out: &Path,
) {
    let path = out.with_file_name("stress.repro.trace");
    for (pattern, p) in patterns.iter().zip(reports) {
        for run in &p.report.runs {
            let Some(v) = run.outcome.violations.first() else {
                continue;
            };
            eprintln!(
                "stress: shrinking {}/{} ({}) to a minimal repro...",
                p.pattern, run.case.label, v.kind
            );
            let stream = pattern.generate(params);
            let minimal = shrink_stream(&run.case.config, &stream, v.kind);
            let dir = path.parent().expect("a path with a file name has a parent");
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, format_stream(&minimal)));
            if let Err(e) = written {
                eprintln!("stress: cannot write {}: {e}", path.display());
                return;
            }
            eprintln!(
                "stress: wrote {}-request repro to {} (replay with `sam-check replay`)",
                minimal.requests.len(),
                path.display()
            );
            return;
        }
    }
    eprintln!("stress: only cross-run findings (no single-stream repro to shrink)");
}

#[cfg(test)]
mod tests {
    use sam_stress::stream::{DeviceKind, StressConfig};
    use sam_stress::{run_differential, InvariantKind};

    use super::*;

    #[test]
    fn repro_lands_next_to_an_out_path_in_a_fresh_directory() {
        // Inverted hysteresis margins break watermark supremacy within a
        // handful of write-burst requests.
        let case = DiffCase {
            label: "inverted".to_string(),
            config: StressConfig::unchecked(DeviceKind::Ddr4, 4096, 8, 28),
        };
        let params = PatternParams::small(7);
        let stream = Pattern::WriteBurst.generate(&params);
        let report = run_differential(&stream, &[case]);
        assert!(report.total_violations() > 0);
        let reports = [PatternReport {
            pattern: Pattern::WriteBurst.name().to_string(),
            report,
        }];

        let dir = std::env::temp_dir().join(format!("sam-stress-repro-{}", std::process::id()));
        let out = dir.join("fresh").join("stress.json");
        write_first_repro(&reports, &[Pattern::WriteBurst], &params, &out);
        let text = std::fs::read_to_string(dir.join("fresh").join("stress.repro.trace"))
            .expect("the repro is written before the report's directory exists");
        std::fs::remove_dir_all(&dir).unwrap();
        let (_, outcome) = sam_stress::replay_text(&text).unwrap();
        assert!(outcome
            .violations
            .iter()
            .any(|v| v.kind == InvariantKind::WatermarkSupremacy));
    }
}
