//! `sam-analyze --selftest`: proves every rule (observer-purity, the
//! flag–doc rule, and the timing pass) fires on a known-bad fixture.
//!
//! The fixtures live in `crates/analyze/tests/fixtures/` — a directory
//! cargo never compiles — and are scanned here under synthetic workspace
//! paths chosen to put them in each rule's scope. A rules engine whose
//! selftest passes cannot have been silently blinded by a scanner change:
//! every rule demonstrably still detects the violation class it exists
//! for.

use crate::rules::{self, FlagSites};
use crate::scan;
use crate::timing;
use sam_dram::timing::TimingParams;

/// One fixture expectation: scan `source` as `path`, expect `rule` to
/// produce exactly `expect_findings` findings.
struct Case {
    rule: &'static str,
    path: &'static str,
    source: &'static str,
    expect_findings: usize,
}

const CASES: [Case; 1] = [Case {
    rule: "observer-purity",
    path: "crates/imdb/src/spy.rs",
    source: include_str!("../tests/fixtures/observer.rs"),
    expect_findings: 1,
}];

fn run_case(case: &Case) -> Result<String, String> {
    let file = scan::scan(case.path, case.source);
    let mut out = Vec::new();
    rules::source_findings(&file, &mut out);
    let n = out.iter().filter(|f| f.rule == case.rule).count();
    if n != case.expect_findings {
        return Err(format!(
            "rule {}: expected {} finding(s) on {}, got {n}: {out:?}",
            case.rule, case.expect_findings, case.path,
        ));
    }
    Ok(format!(
        "rule {}: fires on {} ({n} finding(s))",
        case.rule, case.path
    ))
}

/// Proves the flag–doc rule reports both stale docs and undocumented
/// flags.
fn run_flag_doc() -> Result<String, String> {
    let mut code = FlagSites::new();
    code.insert("--rows".into(), ("crates/bench/src/cli.rs".into(), 1));
    code.insert(
        "--undocumented".into(),
        ("crates/bench/src/cli.rs".into(), 2),
    );
    let mut docs = FlagSites::new();
    docs.insert("--rows".into(), ("README.md".into(), 1));
    docs.insert("--stale".into(), ("DESIGN.md".into(), 2));
    let mut out = Vec::new();
    rules::flag_doc_findings(&code, &docs, &mut out);
    let hit = |needle: &str| out.iter().any(|f| f.message.contains(needle));
    if out.len() != 2 || !hit("--undocumented") || !hit("--stale") {
        return Err(format!(
            "rule flag-doc: expected both directions, got {out:?}"
        ));
    }
    Ok("rule flag-doc: fires on undocumented and stale flags (2 finding(s))".to_string())
}

/// Proves the timing pass rejects a relationally inconsistent parameter
/// set (without constructing a `Design`, whose debug assertion would trip
/// first).
fn run_timing() -> Result<String, String> {
    let mut bad = TimingParams::ddr4_2400();
    bad.ras = bad.rcd; // row closes before its burst completes
    bad.faw = 3 * bad.rrd_s;
    let violations = bad.check_relations();
    if violations.len() < 3 {
        return Err(format!(
            "rule timing: expected >= 3 violations on the bad parameter set, got {violations:?}"
        ));
    }
    let mut clean = Vec::new();
    let configs = timing::sweep_matrix_findings(&mut clean);
    if !clean.is_empty() {
        return Err(format!(
            "rule timing: real sweep matrix is not clean: {clean:?}"
        ));
    }
    Ok(format!(
        "rule timing: fires on a bad parameter set ({} violation(s)); real sweep matrix clean ({configs} configs)",
        violations.len()
    ))
}

/// Runs the whole selftest.
///
/// # Errors
///
/// Returns the first rule whose fixture did not produce exactly the
/// expected findings.
pub fn run() -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    for case in &CASES {
        lines.push(run_case(case)?);
    }
    lines.push(run_flag_doc()?);
    lines.push(run_timing()?);
    Ok(lines)
}

#[cfg(test)]
mod tests {
    #[test]
    fn selftest_passes() {
        let lines = super::run().expect("selftest");
        assert_eq!(lines.len(), super::CASES.len() + 2);
        for rule in crate::report::RULES {
            assert!(
                lines.iter().any(|l| l.contains(rule)),
                "no selftest line covers rule {rule}: {lines:?}"
            );
        }
    }
}
