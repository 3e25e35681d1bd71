//! Adversarial stress engine: named attack patterns run differentially
//! across scheduler knob settings, with behavioural-invariant checking
//! and failing-stream shrinking.

use sam_stress::diff::DiffCase;
use sam_stress::report::{json_report, PatternReport};
use sam_stress::shrink::{first_violation, shrink_stream};
use sam_stress::stream::{format_stream, DeviceKind, StressConfig};
use sam_stress::{InvariantKind, Pattern, PatternParams};

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
    let args = ctx.args;
    standard_cases(args.starvation_cap, args.drain_hi, args.drain_lo)
}

/// `--shrink-selftest` and `--hybrid-diff` replace the grid.
pub fn bypass(ctx: &Ctx) -> Option<i32> {
    if ctx.args.has_flag("--shrink-selftest") {
        let repro_path = ctx.args.out.with_file_name("stress.repro.trace");
        Some(shrink_selftest(ctx.args.plan.seed, &repro_path))
    } else if ctx.args.has_flag("--hybrid-diff") {
        Some(hybrid_diff(ctx))
    } else {
        None
    }
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
        let repro_path = ctx.args.out.with_file_name("stress.repro.trace");
        write_first_repro(&reports, &patterns, &params, &repro_path);
    }
    Rendered {
        doc: Doc::Json(json_report(params.seed, &reports)),
        failed,
    }
}

/// The hybrid-topology differential (`--hybrid-diff`): every selected
/// pattern stream through the DRAM-cache controller under both write
/// policies, cross-checked decision-for-decision against the pure
/// functional mirror (plus forward-progress and policy-exclusivity
/// checks). Pattern panels and `--seed` compose; scheduler-knob flags do
/// not apply (the hybrid's inner controllers run Table 2 defaults).
fn hybrid_diff(ctx: &Ctx) -> i32 {
    use sam_stress::hybriddiff::run_hybrid_differential;

    let patterns = patterns(ctx);
    let params = params(ctx);
    println!(
        "Hybrid differential: {} pattern(s) x 2 write policies, seed {}, DDR4 cache over RRAM\n",
        patterns.len(),
        params.seed
    );
    let mut findings = 0usize;
    for pattern in &patterns {
        let stream = pattern.generate(&params);
        for out in run_hybrid_differential(&stream, 128, DeviceKind::Rram) {
            let status = if out.findings.is_empty() {
                "ok"
            } else {
                "FAIL"
            };
            println!(
                "{:<24} {:<13} {status}  ({} completions, {} hits / {} misses)",
                pattern.name(),
                out.policy.label(),
                out.completions,
                out.hits,
                out.misses
            );
            for f in &out.findings {
                println!("    {f}");
            }
            findings += out.findings.len();
        }
    }
    if findings == 0 {
        println!("\nhybrid differential: mirror identity held on every stream");
        0
    } else {
        println!("\nhybrid differential: {findings} finding(s)");
        1
    }
}

/// Shrinks the first per-run violation to a minimal repro and writes it.
/// Cross-run findings have no single offending stream, so a run with
/// only those still exits 1 but leaves no repro.
fn write_first_repro(
    reports: &[PatternReport],
    patterns: &[Pattern],
    params: &PatternParams,
    path: &std::path::Path,
) {
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
            if let Err(e) = std::fs::write(path, format_stream(&minimal)) {
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

/// Drives the shrinker end to end against the known-bad synthetic
/// config: inverted hysteresis margins (lo > hi), constructible only via
/// the validation-bypassing hook, which break watermark supremacy within
/// a handful of requests.
fn shrink_selftest(seed: u64, repro_path: &std::path::Path) -> i32 {
    let mut failures = 0;
    let mut step = |name: &str, ok: bool| {
        println!("{}  {name}", if ok { "PASS" } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };

    let cfg = StressConfig::unchecked(DeviceKind::Ddr4, 4096, 8, 28);
    let stream = Pattern::WriteBurst.generate(&PatternParams::small(seed));
    let found = first_violation(&cfg, &stream);
    step(
        "inverted margins (hi=8, lo=28) break watermark supremacy",
        found == Some(InvariantKind::WatermarkSupremacy),
    );
    if found != Some(InvariantKind::WatermarkSupremacy) {
        println!("shrink selftest: {failures} check(s) failed");
        return 1;
    }

    let minimal = shrink_stream(&cfg, &stream, InvariantKind::WatermarkSupremacy);
    step(
        &format!(
            "minimal repro fits a screenful ({} of {} requests, <= 32)",
            minimal.requests.len(),
            stream.len()
        ),
        minimal.requests.len() <= 32,
    );

    let text = format_stream(&minimal);
    let written = std::fs::create_dir_all(repro_path.parent().unwrap_or(std::path::Path::new(".")))
        .and_then(|()| std::fs::write(repro_path, &text));
    step(
        &format!("repro written to {}", repro_path.display()),
        written.is_ok(),
    );

    let replayed = sam_stress::replay_text(&text);
    step(
        "written trace replays to the same violation",
        matches!(
            &replayed,
            Ok((c, outcome)) if *c == cfg
                && outcome
                    .violations
                    .iter()
                    .any(|v| v.kind == InvariantKind::WatermarkSupremacy)
        ),
    );

    if failures == 0 {
        println!("shrink selftest: all checks passed");
        0
    } else {
        println!("shrink selftest: {failures} check(s) failed");
        1
    }
}
