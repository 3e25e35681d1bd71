//! Findings, the analysis report, its JSON form, and the schema lint that
//! `sam-check lint-json` applies to `results/analyze.json`.

use sam_util::json::Json;

/// Every rule the pass knows, in report order: the file-local
/// observer-purity rule, the flag–doc rule, and the semantic timing pass
/// over the sweep matrix.
pub const RULES: [&str; 3] = ["observer-purity", "flag-doc", "timing"];

/// Whether `rule` is one of [`RULES`].
pub fn known_rule(rule: &str) -> bool {
    RULES.contains(&rule)
}

/// One rule violation at a source location (or, for the timing pass, at a
/// `design:`-prefixed pseudo-path with line 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired (one of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path, or `design:<name> ...` for timing.
    pub path: String,
    /// 1-based line; 0 for non-source findings.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// The full result of one analysis run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Source files scanned.
    pub files_scanned: usize,
    /// Timing configurations validated by the semantic pass.
    pub configs_checked: usize,
    /// Findings (the run is clean iff this is empty).
    pub findings: Vec<Finding>,
}

impl Report {
    /// Sorts findings deterministically (path, line, rule, message) so the
    /// report bytes are independent of scan order.
    pub fn sort(&mut self) {
        self.findings
            .sort_by_key(|f| (f.path.clone(), f.line, f.rule, f.message.clone()));
    }

    /// Whether the run found no violations.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings for one rule.
    fn rule_count(&self, rule: &str) -> usize {
        self.findings.iter().filter(|f| f.rule == rule).count()
    }

    /// The human-readable report: one line per finding, then per-rule and
    /// overall summaries.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.path, f.line, f.rule, f.message
            ));
        }
        out.push_str(&format!(
            "sam-analyze: {} files, {} timing configs, {} finding(s)\n",
            self.files_scanned,
            self.configs_checked,
            self.findings.len()
        ));
        for rule in RULES {
            out.push_str(&format!("  {rule}: {} finding(s)\n", self.rule_count(rule)));
        }
        out
    }

    /// The schema-2 JSON document (see [`lint_analyze_json`]).
    pub fn to_json(&self) -> Json {
        let finding_json = |f: &Finding| {
            Json::object([
                ("rule", Json::str(f.rule)),
                ("path", Json::str(f.path.clone())),
                ("line", Json::UInt(u64::from(f.line))),
                ("message", Json::str(f.message.clone())),
            ])
        };
        Json::object([
            ("bin", Json::str("sam-analyze")),
            ("schema", Json::UInt(2)),
            ("files_scanned", Json::UInt(self.files_scanned as u64)),
            ("configs_checked", Json::UInt(self.configs_checked as u64)),
            (
                "rules",
                Json::Array(
                    RULES
                        .iter()
                        .map(|rule| {
                            Json::object([
                                ("rule", Json::str(*rule)),
                                ("findings", Json::UInt(self.rule_count(rule) as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "findings",
                Json::Array(self.findings.iter().map(finding_json).collect()),
            ),
        ])
    }
}

/// Validates a `results/analyze.json` document against schema 2.
///
/// # Errors
///
/// Returns a description of the first schema violation: wrong `bin` or
/// `schema`, missing or mistyped fields, unknown rule names, or per-rule
/// counters that do not telescope to the finding array.
pub fn lint_analyze_json(doc: &Json) -> Result<(), String> {
    let str_field = |obj: &Json, key: &str| -> Result<String, String> {
        obj.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing or non-string \"{key}\""))
    };
    let uint_field = |obj: &Json, key: &str| -> Result<u64, String> {
        match obj.get(key) {
            Some(Json::UInt(v)) => Ok(*v),
            _ => Err(format!("missing or non-integer \"{key}\"")),
        }
    };
    if str_field(doc, "bin")? != "sam-analyze" {
        return Err("\"bin\" is not \"sam-analyze\"".to_string());
    }
    if uint_field(doc, "schema")? != 2 {
        return Err("unsupported \"schema\" (expected 2)".to_string());
    }
    uint_field(doc, "files_scanned")?;
    uint_field(doc, "configs_checked")?;
    let rules = doc
        .get("rules")
        .and_then(Json::as_array)
        .ok_or("missing \"rules\" array")?;
    if rules.len() != RULES.len() {
        return Err(format!(
            "\"rules\" must cover all {} rules, found {}",
            RULES.len(),
            rules.len()
        ));
    }
    let mut sum_findings = 0;
    for (entry, expected) in rules.iter().zip(RULES) {
        let name = str_field(entry, "rule")?;
        if name != expected {
            return Err(format!(
                "rules[] out of order: got {name:?}, expected {expected:?}"
            ));
        }
        sum_findings += uint_field(entry, "findings")?;
    }
    let findings = doc
        .get("findings")
        .and_then(Json::as_array)
        .ok_or("missing \"findings\" array")?;
    for (i, f) in findings.iter().enumerate() {
        let at = |e: String| format!("findings[{i}]: {e}");
        let rule = str_field(f, "rule").map_err(at)?;
        if !known_rule(&rule) {
            return Err(at(format!("unknown rule {rule:?}")));
        }
        str_field(f, "path").map_err(at)?;
        uint_field(f, "line").map_err(at)?;
        str_field(f, "message").map_err(at)?;
    }
    if findings.len() as u64 != sum_findings {
        return Err(format!(
            "per-rule finding counts sum to {sum_findings} but \"findings\" has {}",
            findings.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report {
            files_scanned: 2,
            configs_checked: 48,
            findings: vec![
                Finding {
                    rule: "observer-purity",
                    path: "crates/x/src/lib.rs".to_string(),
                    line: 9,
                    message: "CommandObserver".to_string(),
                },
                Finding {
                    rule: "flag-doc",
                    path: "crates/x/src/lib.rs".to_string(),
                    line: 3,
                    message: "--bogus".to_string(),
                },
            ],
        };
        r.sort();
        r
    }

    #[test]
    fn report_json_round_trips_through_lint() {
        let doc = sample().to_json();
        let text = doc.to_string();
        let parsed = Json::parse(&text).expect("writer output parses");
        lint_analyze_json(&parsed).expect("lint accepts well-formed report");
    }

    #[test]
    fn lint_rejects_wrong_bin_and_bad_counts() {
        let mut doc = sample().to_json();
        if let Json::Object(pairs) = &mut doc {
            pairs[0].1 = Json::str("stress");
        }
        assert!(lint_analyze_json(&doc).is_err());

        let mut doc = sample().to_json();
        if let Json::Object(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "findings" {
                    *v = Json::Array(Vec::new());
                }
            }
        }
        let err = lint_analyze_json(&doc).unwrap_err();
        assert!(err.contains("sum to"), "{err}");
    }

    #[test]
    fn human_report_lists_findings_and_summary() {
        let text = sample().human();
        assert!(text.contains("crates/x/src/lib.rs:9: [observer-purity] CommandObserver"));
        assert!(text.contains("2 files, 48 timing configs, 2 finding(s)"));
        assert!(text.contains("  flag-doc: 1 finding(s)"));
    }

    #[test]
    fn sort_orders_by_path_then_line() {
        let mut r = Report::default();
        for (path, line) in [("b.rs", 1), ("a.rs", 9), ("a.rs", 2)] {
            r.findings.push(Finding {
                rule: "timing",
                path: path.to_string(),
                line,
                message: String::new(),
            });
        }
        r.sort();
        let got: Vec<(String, u32)> = r
            .findings
            .iter()
            .map(|f| (f.path.clone(), f.line))
            .collect();
        assert_eq!(
            got,
            [
                ("a.rs".to_string(), 2),
                ("a.rs".to_string(), 9),
                ("b.rs".to_string(), 1)
            ]
        );
    }
}
