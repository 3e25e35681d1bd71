//! sam-check: offline checks over what the bench binaries write.
//!
//! ```text
//! cargo run --release -p sam-bench --bin sam-check -- <command>
//!
//!   replay <file>     replay a stress repro written by the `stress`
//!                     binary's shrinker through the sam-stress invariant
//!                     driver; exit 1 on violations, 2 on any other file
//!   lint-json <file>  validate a results/<bin>.json metrics report
//!   lint-trace <file> validate a results/<bin>.trace.json Chrome trace
//!   bench-fig12 <metrics.json> --wall-ns N --jobs J --out <file>
//!                     fold a caller-measured wall clock into a
//!                     cycles/sec trajectory entry; with --baseline
//!                     (and optional --gate-pct, default 10), fail on
//!                     a throughput regression vs the last committed
//!                     entry from the same host; with none, skip the
//!                     gate and say why
//! ```

use sam_util::json::Json;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let code = match (args.get(1).map(String::as_str), args.get(2)) {
        (Some("replay"), Some(path)) => replay(path),
        (Some("lint-json"), Some(path)) => lint_json(path),
        (Some("lint-trace"), Some(path)) => lint_trace(path),
        (Some("bench-fig12"), _) => bench_fig12(&args[2..]),
        _ => usage(),
    };
    std::process::exit(code);
}

fn usage() -> i32 {
    eprintln!(
        "usage: sam-check replay <file> | lint-json <file> | lint-trace <file> \
         | bench-fig12 <metrics.json> --wall-ns N --jobs J --out <file> \
           [--label L] [--baseline <file> --gate-pct P]"
    );
    2
}

/// The CI bench step: folds a caller-measured wall clock over the fig12
/// metrics report into a cycles/sec entry, appends it to the committed
/// trajectory (written to `--out` as the artifact), and applies the
/// regression gate against the last committed entry from this host.
fn bench_fig12(args: &[String]) -> i32 {
    use sam_bench::bench_fig12::{
        baseline_for, entry_from_metrics, gate, parse_trajectory, trajectory_to_json,
    };

    let mut metrics_path = None;
    let mut wall_ns = None;
    let mut jobs = None;
    let mut out = None;
    let mut label = "ci".to_string();
    let mut baseline = None;
    let mut gate_pct = 10.0f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let parsed = match arg.as_str() {
            "--wall-ns" => value("--wall-ns").and_then(|v| {
                v.parse::<u64>()
                    .map(|n| wall_ns = Some(n))
                    .map_err(|e| format!("--wall-ns: {e}"))
            }),
            "--jobs" => value("--jobs").and_then(|v| {
                v.parse::<u64>()
                    .map(|n| jobs = Some(n))
                    .map_err(|e| format!("--jobs: {e}"))
            }),
            "--out" => value("--out").map(|v| out = Some(v)),
            "--label" => value("--label").map(|v| label = v),
            "--baseline" => value("--baseline").map(|v| baseline = Some(v)),
            "--gate-pct" => value("--gate-pct").and_then(|v| {
                v.parse::<f64>()
                    .map(|p| gate_pct = p)
                    .map_err(|e| format!("--gate-pct: {e}"))
            }),
            other if metrics_path.is_none() && !other.starts_with('-') => {
                metrics_path = Some(arg.clone());
                Ok(())
            }
            other => Err(format!("unknown argument '{other}'")),
        };
        if let Err(e) = parsed {
            eprintln!("sam-check: bench-fig12: {e}");
            return usage();
        }
    }
    let (Some(metrics_path), Some(wall_ns), Some(jobs), Some(out)) =
        (metrics_path, wall_ns, jobs, out)
    else {
        eprintln!("sam-check: bench-fig12 needs <metrics.json> --wall-ns --jobs --out");
        return usage();
    };

    let parse_file = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let mut measured = match parse_file(&metrics_path)
        .and_then(|doc| entry_from_metrics(&doc, &label, jobs, wall_ns as f64 / 1e9))
    {
        Ok(e) => e,
        Err(e) => {
            eprintln!("sam-check: bench-fig12: {e}");
            return 2;
        }
    };
    // Tag the new entry with the machine it was measured on; committed
    // entries predating the field parse fine without it.
    measured.host = Some(sam_bench::bench_fig12::HostMeta::collect());
    let committed = match &baseline {
        Some(path) => match parse_file(path).and_then(|doc| parse_trajectory(&doc)) {
            Ok(entries) => entries,
            Err(e) => {
                eprintln!("sam-check: bench-fig12: baseline: {e}");
                return 2;
            }
        },
        None => Vec::new(),
    };

    // The artifact: the committed trajectory with this measurement on top.
    let mut trajectory = committed.clone();
    trajectory.push(measured.clone());
    let mut text = trajectory_to_json(&trajectory).to_string();
    text.push('\n');
    if let Err(e) = std::fs::write(&out, text) {
        eprintln!("sam-check: bench-fig12: cannot write {out}: {e}");
        return 2;
    }
    println!(
        "bench-fig12: {:.0} simulated cycles/sec ({} cycles in {:.3}s, --jobs {jobs}) -> {out}",
        measured.cycles_per_sec(),
        measured.simulated_cycles,
        measured.wall_seconds,
    );

    if baseline.is_none() {
        return 0;
    }
    let host = measured.host.as_ref().expect("host collected above");
    let base = match baseline_for(&committed, host) {
        Ok(base) => base,
        Err(why) => {
            println!("bench-fig12: gate skipped: {why}");
            return 0;
        }
    };
    match gate(base, &measured, gate_pct) {
        Ok(verdict) => {
            println!("{verdict}");
            0
        }
        Err(e) => {
            eprintln!("sam-check: bench-fig12: {e}");
            1
        }
    }
}

/// Replays a shrinker-written stress stream through the sam-stress
/// invariant driver: the minimal repro must reproduce its violation
/// anywhere, or the shrinker is lying. Any other file exits 2.
fn replay(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("sam-check: cannot read {path}: {e}");
            return 2;
        }
    };
    if !sam_stress::is_stress_trace(&text) {
        eprintln!(
            "sam-check: {path}: not a stress repro (its first line must be '{}')",
            sam_stress::STRESS_TRACE_HEADER
        );
        return 2;
    }
    match sam_stress::replay_text(&text) {
        Err(e) => {
            eprintln!("sam-check: {path}: {e}");
            2
        }
        Ok((cfg, outcome)) => {
            let knobs = format!(
                "device={} cap={} hi={} lo={}",
                cfg.device.token(),
                cfg.starvation_cap,
                cfg.drain_hi,
                cfg.drain_lo
            );
            if outcome.violations.is_empty() {
                println!("{path}: stress stream clean under {knobs}");
                return 0;
            }
            println!(
                "{path}: {} behavioural violation(s) under {knobs}",
                outcome.violations.len()
            );
            for v in outcome.violations.iter().take(20) {
                println!("  {v}");
            }
            if outcome.violations.len() > 20 {
                println!("  ... and {} more", outcome.violations.len() - 20);
            }
            1
        }
    }
}

/// Parses and schema-checks an emitted metrics report (the CI gate for
/// `results/fig12.json`). Stress reports carry their own schema and are
/// dispatched by the top-level `"bin"` value.
fn lint_json(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("sam-check: cannot read {path}: {e}");
            return 2;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("sam-check: {path}: {e}");
            return 1;
        }
    };
    if matches!(doc.get("bin"), Some(Json::Str(s)) if s == "bench-fig12") {
        return match sam_bench::bench_fig12::parse_trajectory(&doc) {
            Ok(entries) => {
                println!(
                    "{path}: valid bench trajectory ({} entr{})",
                    entries.len(),
                    if entries.len() == 1 { "y" } else { "ies" }
                );
                0
            }
            Err(e) => {
                eprintln!("sam-check: {path}: schema violation: {e}");
                1
            }
        };
    }
    if matches!(doc.get("bin"), Some(Json::Str(s)) if s == "fig16") {
        return match sam_bench::fig16::lint_fig16_json(&doc) {
            Ok(()) => {
                let count = |key: &str| {
                    doc.get(key)
                        .and_then(Json::as_array)
                        .map_or(0, <[Json]>::len)
                };
                println!(
                    "{path}: valid fig16 report ({} baseline(s), {} hybrid point(s))",
                    count("baselines"),
                    count("points")
                );
                0
            }
            Err(e) => {
                eprintln!("sam-check: {path}: schema violation: {e}");
                1
            }
        };
    }
    if matches!(doc.get("bin"), Some(Json::Str(s)) if s == "stress") {
        return match sam_stress::lint_stress_json(&doc) {
            Ok(s) => {
                println!(
                    "{path}: valid stress report ({} patterns, {} runs, {} violations)",
                    s.patterns, s.runs, s.total_violations
                );
                0
            }
            Err(e) => {
                eprintln!("sam-check: {path}: schema violation: {e}");
                1
            }
        };
    }
    match sam_bench::metrics::lint_metrics_json(&doc) {
        Ok(()) => {
            let runs = doc
                .get("runs")
                .and_then(Json::as_array)
                .map_or(0, <[Json]>::len);
            println!("{path}: valid metrics report ({runs} runs)");
            0
        }
        Err(e) => {
            eprintln!("sam-check: {path}: schema violation: {e}");
            1
        }
    }
}

/// Parses and structurally checks an emitted Chrome trace document: span
/// nesting, monotonic timestamps per track, and well-formed epoch rows
/// (the CI gate for `results/fig12.trace.json`).
fn lint_trace(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("sam-check: cannot read {path}: {e}");
            return 2;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("sam-check: {path}: {e}");
            return 1;
        }
    };
    match sam_trace::lint_chrome_trace(&doc) {
        Ok(s) => {
            println!(
                "{path}: valid trace ({} events across {} runs: {} spans, \
                 {} complete, {} instants, {} counter samples; {} epoch rows)",
                s.events, s.processes, s.spans, s.complete, s.instants, s.counters, s.epoch_rows
            );
            0
        }
        Err(e) => {
            eprintln!("sam-check: {path}: trace violation: {e}");
            1
        }
    }
}
