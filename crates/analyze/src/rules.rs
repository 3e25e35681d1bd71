//! The source-level rules engine: repo-specific lints over scanned token
//! streams.
//!
//! Only invariants the toolchain cannot express live here; what rustc and
//! clippy can check (`unsafe_code = "forbid"`, the `disallowed-types` list
//! in `clippy.toml`) is left to them. Rules are lexical by design — they
//! match token shapes, not resolved types — which keeps the pass fast,
//! total, and dependency-free. The cost is a small amount of repo-specific
//! tuning (the observer exceptions), documented per rule.

use std::collections::BTreeMap;

use crate::report::Finding;
use crate::scan::{SourceFile, TokenKind};

/// The `CommandObserver` implementations allowed outside `crates/check`
/// and `crates/trace`, as (path, implementing type) pairs. Both live in
/// `crates/dram`, the trait's home.
const OBSERVER_EXCEPTIONS: [(&str, &str); 2] = [
    // Fanout multiplexer in the trait's home crate; forwards commands
    // verbatim, observes nothing itself.
    ("crates/dram/src/observe.rs", "FanoutObserver"),
    // Trace-sink adapter; lives in sam-dram only because sam-trace cannot
    // depend back on Command.
    ("crates/dram/src/lanes.rs", "CommandLaneTracer"),
];

/// Runs all file-local source rules over one scanned file, appending their
/// findings.
pub fn source_findings(file: &SourceFile, out: &mut Vec<Finding>) {
    observer_purity(file, out);
}

fn ident_at(file: &SourceFile, i: usize, text: &str) -> bool {
    let t = &file.tokens[i];
    t.kind == TokenKind::Ident && t.text == text
}

/// **observer-purity**: `impl CommandObserver for ...` outside
/// `crates/check` and `crates/trace` is flagged. Observers elsewhere are
/// how side effects would sneak into the datapath; the two adapters in
/// `crates/dram` (the trait's home) are named in [`OBSERVER_EXCEPTIONS`].
fn observer_purity(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.path.starts_with("crates/check/") || file.path.starts_with("crates/trace/") {
        return;
    }
    let tokens = &file.tokens;
    for i in 0..tokens.len() {
        if file.in_test[i] || !ident_at(file, i, "CommandObserver") {
            continue;
        }
        // `impl` within the few tokens before (allowing generics), `for`
        // shortly after, then the implementing type.
        let back = i.saturating_sub(8);
        let has_impl = (back..i).any(|j| ident_at(file, j, "impl"));
        let Some(for_at) = (i + 1..(i + 3).min(tokens.len())).find(|&j| ident_at(file, j, "for"))
        else {
            continue;
        };
        let excepted = tokens.get(for_at + 1).is_some_and(|ty| {
            OBSERVER_EXCEPTIONS.contains(&(file.path.as_str(), ty.text.as_str()))
        });
        if has_impl && !excepted {
            out.push(Finding {
                rule: "observer-purity",
                path: file.path.clone(),
                line: tokens[i].line,
                message: "CommandObserver implemented outside crates/check and crates/trace"
                    .to_string(),
            });
        }
    }
}

/// A flag occurrence: where a `--flag` was first seen.
pub type FlagSites = BTreeMap<String, (String, u32)>;

/// Extracts `--flag` occurrences from the string literals of a bench
/// source file into `sites` (first occurrence wins).
pub fn collect_code_flags(file: &SourceFile, sites: &mut FlagSites) {
    for (i, t) in file.tokens.iter().enumerate() {
        if t.kind != TokenKind::Str || file.in_test[i] {
            continue;
        }
        for flag in extract_flags(&t.text) {
            sites
                .entry(flag)
                .or_insert_with(|| (file.path.clone(), t.line));
        }
    }
}

/// Extracts `--flag` occurrences from a documentation file.
pub fn collect_doc_flags(path: &str, text: &str, sites: &mut FlagSites) {
    for (idx, line) in text.lines().enumerate() {
        for flag in extract_flags(line) {
            sites
                .entry(flag)
                .or_insert_with(|| (path.to_string(), idx as u32 + 1));
        }
    }
}

/// All `--long-flag` shapes inside `text`: `--` followed by a lowercase
/// run of `[a-z0-9-]` starting with a letter. A preceding `-` (i.e. a
/// `---` run) disqualifies the match.
fn extract_flags(text: &str) -> Vec<String> {
    let b = text.as_bytes();
    let mut flags = Vec::new();
    let mut i = 0;
    while i + 2 < b.len() {
        let preceded_by_dash = i > 0 && b[i - 1] == b'-';
        if b[i] == b'-' && b[i + 1] == b'-' && b[i + 2].is_ascii_lowercase() && !preceded_by_dash {
            let start = i + 2;
            let mut j = start;
            while j < b.len()
                && (b[j].is_ascii_lowercase() || b[j].is_ascii_digit() || b[j] == b'-')
            {
                j += 1;
            }
            flags.push(format!("--{}", &text[start..j]));
            i = j;
        } else {
            i += 1;
        }
    }
    flags
}

/// Flags that may appear in the docs without being bench CLI flags: cargo
/// and rustup invocations quoted in README/DESIGN, and the flags of the
/// `sam-perf` benchmark, which lives in its own workspace under `perf/`.
const DOC_FLAG_ALLOW: [&str; 11] = [
    "--release",
    "--bin",
    "--workspace",
    "--example",
    "--all-targets",
    "--lib",
    "--package",
    "--quiet",
    "--cheked", // DESIGN.md's deliberate misspelling example for the strict CLI
    "--workload",
    "--seconds",
];

/// **flag-doc**: every `--flag` string in bench binaries' sources must be
/// documented in README.md or DESIGN.md, and every `--flag` the docs
/// mention (outside the cargo-invocation allowlist) must exist in the
/// code. Catches both stale docs and undocumented knobs.
pub fn flag_doc_findings(code: &FlagSites, docs: &FlagSites, out: &mut Vec<Finding>) {
    for (flag, (path, line)) in code {
        if !docs.contains_key(flag) {
            out.push(Finding {
                rule: "flag-doc",
                path: path.clone(),
                line: *line,
                message: format!("flag {flag} is not documented in README.md or DESIGN.md"),
            });
        }
    }
    for (flag, (path, line)) in docs {
        if !code.contains_key(flag) && !DOC_FLAG_ALLOW.contains(&flag.as_str()) {
            out.push(Finding {
                rule: "flag-doc",
                path: path.clone(),
                line: *line,
                message: format!("documented flag {flag} does not exist in any bench binary"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn run_source(path: &str, src: &str) -> Vec<Finding> {
        let f = scan(path, src);
        let mut out = Vec::new();
        source_findings(&f, &mut out);
        out
    }

    #[test]
    fn observer_rule_spares_check_and_trace() {
        let src = "struct S;\nimpl CommandObserver for S {\n    fn command(&mut self) {}\n}\n";
        assert!(run_source("crates/check/src/oracle.rs", src).is_empty());
        let hits = run_source("crates/imdb/src/spy.rs", src);
        assert_eq!(
            hits.iter().filter(|f| f.rule == "observer-purity").count(),
            1,
            "{hits:?}"
        );
    }

    #[test]
    fn observer_exceptions_are_exact_path_and_type_pairs() {
        let fanout = "impl CommandObserver for FanoutObserver {}\n";
        assert!(run_source("crates/dram/src/observe.rs", fanout).is_empty());
        // The same type elsewhere, or another type in the same file, fires.
        assert_eq!(run_source("crates/dram/src/lanes.rs", fanout).len(), 1);
        let other = "impl CommandObserver for Spy {}\n";
        assert_eq!(run_source("crates/dram/src/observe.rs", other).len(), 1);
    }

    #[test]
    fn observer_rule_ignores_trait_definition_and_test_impls() {
        let def = "pub trait CommandObserver {\n    fn command(&mut self);\n}\n";
        assert!(run_source("crates/dram/src/observe.rs", def).is_empty());
        let test_impl = "#[cfg(test)]\nmod tests {\n    impl CommandObserver for T {}\n}\n";
        assert!(run_source("crates/dram/src/observe.rs", test_impl).is_empty());
    }

    #[test]
    fn flag_extraction_finds_flags_in_prose_and_literals() {
        assert_eq!(
            extract_flags("run with `--rows 100` and --per-core; not ---x or --3d"),
            ["--rows", "--per-core"]
        );
        assert!(extract_flags("a -- b").is_empty());
    }

    #[test]
    fn flag_doc_reports_both_directions() {
        let mut code = FlagSites::new();
        code.insert("--rows".into(), ("crates/bench/src/cli.rs".into(), 1));
        code.insert("--bogus".into(), ("crates/bench/src/cli.rs".into(), 2));
        let mut docs = FlagSites::new();
        docs.insert("--rows".into(), ("README.md".into(), 10));
        docs.insert("--phantom".into(), ("DESIGN.md".into(), 20));
        docs.insert("--release".into(), ("README.md".into(), 5));
        let mut out = Vec::new();
        flag_doc_findings(&code, &docs, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().any(|f| f.message.contains("--bogus")));
        assert!(out.iter().any(|f| f.message.contains("--phantom")));
    }
}
