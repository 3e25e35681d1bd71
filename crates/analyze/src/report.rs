//! Findings, the analysis report, its JSON form, and the schema lint that
//! `sam-check lint-json` applies to `results/analyze.json`.

use sam_util::json::Json;

/// Every rule the pass knows, in report order. The five source rules
/// plus the semantic timing pass over the sweep matrix.
pub const RULES: [&str; 6] = [
    "determinism",
    "provenance-purity",
    "observer-purity",
    "feature-inertness",
    "flag-doc",
    "timing",
];

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

/// A finding suppressed by an inline waiver, with the stated reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaivedFinding {
    /// The suppressed finding.
    pub finding: Finding,
    /// The waiver's justification string.
    pub reason: String,
}

/// The full result of one analysis run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Source files scanned.
    pub files_scanned: usize,
    /// Timing configurations validated by the semantic pass.
    pub configs_checked: usize,
    /// Unwaived findings (the run is clean iff this is empty).
    pub findings: Vec<Finding>,
    /// Findings suppressed by waivers, with reasons.
    pub waived: Vec<WaivedFinding>,
}

impl Report {
    /// Sorts findings deterministically (path, line, rule, message) so the
    /// report bytes are independent of scan order.
    pub fn sort(&mut self) {
        let key = |f: &Finding| (f.path.clone(), f.line, f.rule, f.message.clone());
        self.findings.sort_by_key(key);
        self.waived.sort_by_key(|w| key(&w.finding));
    }

    /// Whether the run found no unwaived violations.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings (unwaived + waived) for one rule.
    fn rule_counts(&self, rule: &str) -> (usize, usize) {
        let f = self.findings.iter().filter(|f| f.rule == rule).count();
        let w = self
            .waived
            .iter()
            .filter(|w| w.finding.rule == rule)
            .count();
        (f, w)
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
        for w in &self.waived {
            let f = &w.finding;
            out.push_str(&format!(
                "{}:{}: [{}] waived: {} (reason: {})\n",
                f.path, f.line, f.rule, f.message, w.reason
            ));
        }
        out.push_str(&format!(
            "sam-analyze: {} files, {} timing configs, {} finding(s), {} waived\n",
            self.files_scanned,
            self.configs_checked,
            self.findings.len(),
            self.waived.len()
        ));
        for rule in RULES {
            let (f, w) = self.rule_counts(rule);
            out.push_str(&format!("  {rule}: {f} finding(s), {w} waived\n"));
        }
        out
    }

    /// The schema-1 JSON document (see [`lint_analyze_json`]).
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
            ("schema", Json::UInt(1)),
            ("files_scanned", Json::UInt(self.files_scanned as u64)),
            ("configs_checked", Json::UInt(self.configs_checked as u64)),
            (
                "rules",
                Json::Array(
                    RULES
                        .iter()
                        .map(|rule| {
                            let (f, w) = self.rule_counts(rule);
                            Json::object([
                                ("rule", Json::str(*rule)),
                                ("findings", Json::UInt(f as u64)),
                                ("waived", Json::UInt(w as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "findings",
                Json::Array(self.findings.iter().map(finding_json).collect()),
            ),
            (
                "waived",
                Json::Array(
                    self.waived
                        .iter()
                        .map(|w| {
                            let mut obj = match finding_json(&w.finding) {
                                Json::Object(pairs) => pairs,
                                _ => unreachable!("finding_json returns an object"),
                            };
                            obj.push(("reason".to_string(), Json::str(w.reason.clone())));
                            Json::Object(obj)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Validates a `results/analyze.json` document against schema 1.
///
/// # Errors
///
/// Returns a description of the first schema violation: wrong `bin` or
/// `schema`, missing or mistyped fields, unknown rule names, or per-rule
/// counters that do not telescope to the finding arrays.
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
    if uint_field(doc, "schema")? != 1 {
        return Err("unsupported \"schema\" (expected 1)".to_string());
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
    let mut sum_waived = 0;
    for (entry, expected) in rules.iter().zip(RULES) {
        let name = str_field(entry, "rule")?;
        if name != expected {
            return Err(format!(
                "rules[] out of order: got {name:?}, expected {expected:?}"
            ));
        }
        sum_findings += uint_field(entry, "findings")?;
        sum_waived += uint_field(entry, "waived")?;
    }
    let check_list = |key: &str, need_reason: bool| -> Result<u64, String> {
        let list = doc
            .get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("missing \"{key}\" array"))?;
        for (i, f) in list.iter().enumerate() {
            let rule = str_field(f, "rule").map_err(|e| format!("{key}[{i}]: {e}"))?;
            if !known_rule(&rule) {
                return Err(format!("{key}[{i}]: unknown rule {rule:?}"));
            }
            str_field(f, "path").map_err(|e| format!("{key}[{i}]: {e}"))?;
            uint_field(f, "line").map_err(|e| format!("{key}[{i}]: {e}"))?;
            str_field(f, "message").map_err(|e| format!("{key}[{i}]: {e}"))?;
            if need_reason {
                let reason = str_field(f, "reason").map_err(|e| format!("{key}[{i}]: {e}"))?;
                if reason.is_empty() {
                    return Err(format!("{key}[{i}]: empty waiver reason"));
                }
            }
        }
        Ok(list.len() as u64)
    };
    let n_findings = check_list("findings", false)?;
    let n_waived = check_list("waived", true)?;
    if n_findings != sum_findings {
        return Err(format!(
            "per-rule finding counts sum to {sum_findings} but \"findings\" has {n_findings}"
        ));
    }
    if n_waived != sum_waived {
        return Err(format!(
            "per-rule waived counts sum to {sum_waived} but \"waived\" has {n_waived}"
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
            findings: vec![Finding {
                rule: "determinism",
                path: "crates/x/src/lib.rs".to_string(),
                line: 9,
                message: "SystemTime".to_string(),
            }],
            waived: vec![WaivedFinding {
                finding: Finding {
                    rule: "determinism",
                    path: "crates/x/src/lib.rs".to_string(),
                    line: 3,
                    message: "HashMap".to_string(),
                },
                reason: "keyed lookup".to_string(),
            }],
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
    fn lint_rejects_empty_waiver_reason() {
        let mut r = sample();
        r.waived[0].reason = String::new();
        let err = lint_analyze_json(&r.to_json()).unwrap_err();
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn human_report_lists_findings_and_summary() {
        let text = sample().human();
        assert!(text.contains("crates/x/src/lib.rs:9: [determinism] SystemTime"));
        assert!(text.contains("waived: HashMap (reason: keyed lookup)"));
        assert!(text.contains("2 files, 48 timing configs, 1 finding(s), 1 waived"));
    }

    #[test]
    fn sort_orders_by_path_then_line() {
        let mut r = Report::default();
        for (path, line) in [("b.rs", 1), ("a.rs", 9), ("a.rs", 2)] {
            r.findings.push(Finding {
                rule: "determinism",
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
