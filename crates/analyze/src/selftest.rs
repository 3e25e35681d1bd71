//! `sam-analyze --selftest`: proves every rule (the five source rules,
//! the waiver machinery, and the timing pass) fires on a known-bad
//! fixture.
//!
//! The fixtures live in `crates/analyze/tests/fixtures/` — a directory
//! cargo never compiles — and are scanned here under synthetic workspace
//! paths chosen to put them in each rule's scope. A rules engine whose
//! selftest passes cannot have been silently blinded by a scanner change:
//! every rule demonstrably still detects the violation class it exists
//! for.

use crate::report::Finding;
use crate::rules::{self, FlagSites};
use crate::scan;
use crate::timing;
use sam_dram::timing::TimingParams;

/// One fixture expectation: scan `source` as `path`, expect `rule` to
/// produce exactly `expect_findings` unwaived findings and
/// `expect_waived` waived ones.
struct Case {
    rule: &'static str,
    path: &'static str,
    source: &'static str,
    expect_findings: usize,
    expect_waived: usize,
}

const CASES: [Case; 6] = [
    Case {
        rule: "determinism",
        path: "crates/core/src/fixture.rs",
        source: include_str!("../tests/fixtures/determinism.rs"),
        expect_findings: 4, // use line, return type, Instant::now line, HashMap::new
        expect_waived: 0,
    },
    Case {
        rule: "provenance-purity",
        path: "crates/memctrl/src/sched_biased.rs",
        source: include_str!("../tests/fixtures/provenance.rs"),
        expect_findings: 2, // the `req` and `prov` identifiers
        expect_waived: 0,
    },
    Case {
        rule: "observer-purity",
        path: "crates/imdb/src/spy.rs",
        source: include_str!("../tests/fixtures/observer.rs"),
        expect_findings: 1,
        expect_waived: 0,
    },
    Case {
        rule: "feature-inertness",
        path: "crates/memctrl/src/controller.rs",
        source: include_str!("../tests/fixtures/inertness.rs"),
        expect_findings: 1,
        expect_waived: 0,
    },
    Case {
        rule: "determinism",
        path: "crates/core/src/waived_fixture.rs",
        source: include_str!("../tests/fixtures/waived.rs"),
        expect_findings: 1, // the HashSet outside the waiver span
        expect_waived: 1,   // the use-line under the waiver
    },
    Case {
        rule: "determinism",
        path: "crates/power/src/waived_file_fixture.rs",
        source: include_str!("../tests/fixtures/waived_file.rs"),
        expect_findings: 0,
        expect_waived: 2, // both wall-clock reads under the file waiver
    },
];

fn run_case(case: &Case) -> Result<String, String> {
    let file = scan::scan(case.path, case.source);
    let mut raw = Vec::new();
    rules::source_findings(&file, &mut raw);
    let (mut kept, mut waived) = (Vec::new(), Vec::new());
    crate::apply_waivers(&file, raw, &mut kept, &mut waived);
    let findings: Vec<&Finding> = kept.iter().filter(|f| f.rule == case.rule).collect();
    let waived_n = waived
        .iter()
        .filter(|w| w.finding.rule == case.rule)
        .count();
    if findings.len() != case.expect_findings || waived_n != case.expect_waived {
        return Err(format!(
            "rule {}: expected {} finding(s) + {} waived on {}, got {} + {}: {:?}",
            case.rule,
            case.expect_findings,
            case.expect_waived,
            case.path,
            findings.len(),
            waived_n,
            kept,
        ));
    }
    Ok(format!(
        "rule {}: fires on {} ({} finding(s), {} waived)",
        case.rule,
        case.path,
        findings.len(),
        waived_n
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
