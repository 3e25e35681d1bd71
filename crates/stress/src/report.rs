//! `results/stress.json`: emission and strict linting.
//!
//! The stress binary has its own schema, distinct from the figure
//! binaries' `MetricsReport` (`sam-check lint-json` dispatches on the
//! top-level `"bin"` value). Like the figure reports, the document is
//! independent of `--jobs` — worker count is execution detail, not
//! result — so the bytes double as the determinism oracle for the
//! `--jobs 4` vs `--jobs 1` identity test.

use sam_util::json::Json;

use crate::diff::DiffReport;

/// One named pattern's differential report, as assembled by the harness.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternReport {
    /// Pattern name (`row-hit-flood`, ...).
    pub pattern: String,
    /// The differential results across all cases.
    pub report: DiffReport,
}

fn run_json(run: &crate::diff::DiffRun) -> Json {
    let c = &run.case.config;
    let o = &run.outcome;
    Json::object([
        ("case", Json::str(&run.case.label)),
        ("device", Json::str(c.device.token())),
        ("cap", Json::UInt(c.starvation_cap)),
        ("hi", Json::UInt(c.drain_hi as u64)),
        ("lo", Json::UInt(c.drain_lo as u64)),
        ("completions", Json::UInt(o.completions)),
        ("reads", Json::UInt(o.reads)),
        ("writes", Json::UInt(o.writes)),
        ("row_hits", Json::UInt(o.row_hits)),
        ("starved", Json::UInt(o.starved)),
        ("refreshes", Json::UInt(o.refreshes)),
        ("max_read_residency", Json::UInt(o.max_read_residency)),
        ("residency_bound", Json::UInt(o.residency_bound)),
        ("last_finish", Json::UInt(o.last_finish)),
        ("violations", Json::UInt(o.violations.len() as u64)),
    ])
}

/// Renders the full document.
pub fn json_report(seed: u64, patterns: &[PatternReport]) -> Json {
    let total: usize = patterns.iter().map(|p| p.report.total_violations()).sum();
    Json::object([
        ("bin", Json::str("stress")),
        ("seed", Json::UInt(seed)),
        (
            "patterns",
            Json::Array(
                patterns
                    .iter()
                    .map(|p| {
                        Json::object([
                            ("pattern", Json::str(&p.pattern)),
                            (
                                "runs",
                                Json::Array(p.report.runs.iter().map(run_json).collect()),
                            ),
                            (
                                "cross_findings",
                                Json::Array(
                                    p.report.cross_findings.iter().map(Json::str).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("total_violations", Json::UInt(total as u64)),
    ])
}

/// What [`lint_stress_json`] verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StressJsonSummary {
    /// Patterns in the document.
    pub patterns: usize,
    /// Runs summed across patterns.
    pub runs: usize,
    /// The document's `total_violations`.
    pub total_violations: u64,
}

const RUN_FIELDS: [&str; 15] = [
    "case",
    "device",
    "cap",
    "hi",
    "lo",
    "completions",
    "reads",
    "writes",
    "row_hits",
    "starved",
    "refreshes",
    "max_read_residency",
    "residency_bound",
    "last_finish",
    "violations",
];

fn get<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    match obj {
        Json::Object(pairs) => pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("{ctx}: missing key '{key}'")),
        _ => Err(format!("{ctx}: not an object")),
    }
}

fn as_uint(v: &Json, ctx: &str) -> Result<u64, String> {
    match v {
        Json::UInt(n) => Ok(*n),
        _ => Err(format!("{ctx}: not an unsigned integer")),
    }
}

/// Strictly validates a `results/stress.json` document.
///
/// # Errors
///
/// Returns a description of the first schema deviation: wrong `bin`,
/// missing or extra run fields, non-integer counters, or a
/// `total_violations` that does not equal the sum over runs and
/// cross-findings.
pub fn lint_stress_json(doc: &Json) -> Result<StressJsonSummary, String> {
    let bin = get(doc, "bin", "document")?;
    if !matches!(bin, Json::Str(s) if s == "stress") {
        return Err("document: 'bin' is not \"stress\"".into());
    }
    as_uint(get(doc, "seed", "document")?, "seed")?;
    let patterns = match get(doc, "patterns", "document")? {
        Json::Array(items) => items,
        _ => return Err("document: 'patterns' is not an array".into()),
    };
    let mut runs = 0usize;
    let mut violations = 0u64;
    for (i, p) in patterns.iter().enumerate() {
        let ctx = format!("patterns[{i}]");
        match get(p, "pattern", &ctx)? {
            Json::Str(_) => {}
            _ => return Err(format!("{ctx}: 'pattern' is not a string")),
        }
        let Json::Array(case_runs) = get(p, "runs", &ctx)? else {
            return Err(format!("{ctx}: 'runs' is not an array"));
        };
        for (j, r) in case_runs.iter().enumerate() {
            let rctx = format!("{ctx}.runs[{j}]");
            let Json::Object(pairs) = r else {
                return Err(format!("{rctx}: not an object"));
            };
            if pairs.len() != RUN_FIELDS.len() {
                return Err(format!(
                    "{rctx}: {} fields, expected {}",
                    pairs.len(),
                    RUN_FIELDS.len()
                ));
            }
            for field in RUN_FIELDS {
                let v = get(r, field, &rctx)?;
                if field != "case" && field != "device" {
                    as_uint(v, &format!("{rctx}.{field}"))?;
                }
            }
            let v = as_uint(get(r, "violations", &rctx)?, &rctx)?;
            violations = violations
                .checked_add(v)
                .ok_or_else(|| format!("{rctx}: 'violations' overflows the u64 total"))?;
            runs += 1;
        }
        let Json::Array(findings) = get(p, "cross_findings", &ctx)? else {
            return Err(format!("{ctx}: 'cross_findings' is not an array"));
        };
        violations = violations
            .checked_add(findings.len() as u64)
            .ok_or_else(|| format!("{ctx}: 'cross_findings' overflows the u64 total"))?;
    }
    let total = as_uint(
        get(doc, "total_violations", "document")?,
        "total_violations",
    )?;
    if total != violations {
        return Err(format!(
            "total_violations {total} != {violations} summed over runs and findings"
        ));
    }
    Ok(StressJsonSummary {
        patterns: patterns.len(),
        runs,
        total_violations: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{run_differential, DiffCase};
    use crate::pattern::{Pattern, PatternParams};
    use crate::stream::StressConfig;

    fn sample() -> Vec<PatternReport> {
        let stream = Pattern::WriteBurst.generate(&PatternParams::small(1));
        let cases = vec![
            DiffCase {
                label: "default".into(),
                config: StressConfig::ddr4_default(),
            },
            DiffCase {
                label: "fcfs".into(),
                config: StressConfig {
                    starvation_cap: 0,
                    ..StressConfig::ddr4_default()
                },
            },
        ];
        vec![PatternReport {
            pattern: "write-burst".into(),
            report: run_differential(&stream, &cases),
        }]
    }

    #[test]
    fn report_lints_clean_and_roundtrips() {
        let doc = json_report(1, &sample());
        let summary = lint_stress_json(&doc).unwrap();
        assert_eq!(summary.patterns, 1);
        assert_eq!(summary.runs, 2);
        assert_eq!(summary.total_violations, 0);
        let reparsed = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(lint_stress_json(&reparsed).unwrap(), summary);
    }

    #[test]
    fn lint_rejects_foreign_and_inconsistent_documents() {
        assert!(lint_stress_json(&Json::object([("bin", Json::str("fig12"))])).is_err());
        let mut doc = json_report(1, &sample());
        if let Json::Object(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "total_violations" {
                    *v = Json::UInt(99);
                }
            }
        }
        assert!(lint_stress_json(&doc).is_err());
    }

    fn field<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
        let Json::Object(pairs) = obj else {
            panic!("{key}: not an object")
        };
        &mut pairs.iter_mut().find(|(k, _)| k == key).expect(key).1
    }

    /// Forged run counts whose sum wraps to the claimed total of 0 must
    /// not pass (or panic in a debug build).
    #[test]
    fn lint_rejects_violation_sums_that_overflow() {
        let mut doc = json_report(1, &sample());
        *field(&mut doc, "total_violations") = Json::UInt(0);
        let Json::Array(patterns) = field(&mut doc, "patterns") else {
            panic!("patterns is an array")
        };
        let Json::Array(runs) = field(&mut patterns[0], "runs") else {
            panic!("runs is an array")
        };
        for run in runs {
            *field(run, "violations") = Json::UInt(1 << 63);
        }
        let e = lint_stress_json(&doc).unwrap_err();
        assert!(e.contains("runs[1]") && e.contains("overflows"), "{e}");
    }
}
