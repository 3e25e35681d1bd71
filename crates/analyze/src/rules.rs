//! The source-level rules engine: repo-specific lints over scanned token
//! streams.
//!
//! Each rule emits raw [`Finding`]s; the caller matches them against the
//! file's waivers (see [`crate::apply_waivers`]). Rules are lexical by
//! design — they match token shapes, not resolved types — which keeps the
//! pass fast, total, and dependency-free. The cost is a small amount of
//! repo-specific tuning (e.g. the stats field list), documented per rule.

use std::collections::BTreeMap;

use crate::report::Finding;
use crate::scan::{SourceFile, TokenKind};

/// Field names of `ControllerStats` and `LaneStats` in `sam-memctrl`; the
/// feature-inertness rule flags assignments to these inside `check`/
/// `trace`-gated code. Kept in sync by a test against the real structs'
/// debug output in `crates/analyze/tests/stats_fields.rs`.
pub const STATS_FIELDS: [&str; 8] = [
    "row_hits",
    "row_misses",
    "row_conflicts",
    "reads_done",
    "writes_done",
    "total_latency",
    "refreshes",
    "starvation_forced",
];

/// Field names of `HybridSummary` in `sam-memctrl` (the DRAM-cache
/// hybrid's decision counters plus its per-device command splits); the
/// feature-inertness rule guards them exactly like [`STATS_FIELDS`].
/// Pinned to the real struct by `crates/analyze/tests/stats_fields.rs`.
pub const HYBRID_FIELDS: [&str; 7] = [
    "hits",
    "misses",
    "fills",
    "dirty_evictions",
    "writethroughs",
    "front",
    "back",
];

/// Identifiers that must not appear in a scheduler-policy module: naming
/// any of them is how provenance (or the request carrying it) would leak
/// into a scheduling decision.
const PROVENANCE_TOKENS: [&str; 5] = ["Provenance", "prov", "ReqKind", "MemRequest", "req"];

/// Modules that must be provenance-blind. Only the scheduler policy
/// qualifies: the controller datapath (`controller/*`) and the hybrid
/// topology carry provenance as *payload* by design — the per-core lanes
/// and the hybrid's writeback-owner attribution need it — so the
/// structural guarantee there is the `SchedView` projection in
/// `controller/drain.rs`, not token blindness.
const PROVENANCE_BLIND_MODULES: [&str; 1] = ["crates/memctrl/src/sched"];

/// Runs all file-local source rules over one scanned file, appending raw
/// (pre-waiver) findings.
pub fn source_findings(file: &SourceFile, out: &mut Vec<Finding>) {
    determinism(file, out);
    provenance_purity(file, out);
    observer_purity(file, out);
    feature_inertness(file, out);
}

fn ident_at(file: &SourceFile, i: usize, text: &str) -> bool {
    let t = &file.tokens[i];
    t.kind == TokenKind::Ident && t.text == text
}

fn punct_at(file: &SourceFile, i: usize, text: &str) -> bool {
    i < file.tokens.len() && {
        let t = &file.tokens[i];
        t.kind == TokenKind::Punct && t.text == text
    }
}

/// **determinism**: no `HashMap`/`HashSet` and no wall-clock time
/// (`std::time`, `Instant::now`, `SystemTime`) outside test code. Hash
/// iteration order varies per process and wall-clock time varies per run;
/// either reaching stdout, `results/*.json`, or trace bytes breaks the
/// byte-identity guarantees. Keyed-lookup-only hot maps are the intended
/// waiver case.
fn determinism(file: &SourceFile, out: &mut Vec<Finding>) {
    let mut seen_lines: BTreeMap<u32, ()> = BTreeMap::new();
    let tokens = &file.tokens;
    for i in 0..tokens.len() {
        if file.in_test[i] || tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let t = &tokens[i];
        let message = match t.text.as_str() {
            "HashMap" | "HashSet" => Some(format!(
                "{} iterates in per-process hash order; use BTreeMap/BTreeSet or sorted iteration",
                t.text
            )),
            "SystemTime" => {
                Some("SystemTime is wall-clock time; outputs must be cycle-derived".to_string())
            }
            "Instant"
                if punct_at(file, i + 1, ":")
                    && punct_at(file, i + 2, ":")
                    && i + 3 < tokens.len()
                    && ident_at(file, i + 3, "now") =>
            {
                Some("Instant::now() is wall-clock time; outputs must be cycle-derived".to_string())
            }
            "std"
                if punct_at(file, i + 1, ":")
                    && punct_at(file, i + 2, ":")
                    && i + 3 < tokens.len()
                    && ident_at(file, i + 3, "time") =>
            {
                Some("std::time is wall-clock time; outputs must be cycle-derived".to_string())
            }
            _ => None,
        };
        if let Some(message) = message {
            if seen_lines.insert(t.line, ()).is_none() {
                out.push(Finding {
                    rule: "determinism",
                    path: file.path.clone(),
                    line: t.line,
                    message,
                });
            }
        }
    }
}

/// **provenance-purity**: a module under `crates/memctrl/src/sched` may
/// not name `Provenance`, `prov`, `ReqKind`, `MemRequest`, or `req` at
/// all — the scheduler policy sees requests only through `SchedView`
/// (arrival, location, required mode), making the PR 5 "provenance is
/// payload, never policy" invariant structural.
fn provenance_purity(file: &SourceFile, out: &mut Vec<Finding>) {
    if !PROVENANCE_BLIND_MODULES
        .iter()
        .any(|m| file.path.starts_with(m))
    {
        return;
    }
    for t in &file.tokens {
        if t.kind == TokenKind::Ident && PROVENANCE_TOKENS.contains(&t.text.as_str()) {
            out.push(Finding {
                rule: "provenance-purity",
                path: file.path.clone(),
                line: t.line,
                message: format!(
                    "scheduler policy module names `{}`; policy must be blind to request identity",
                    t.text
                ),
            });
        }
    }
}

/// **observer-purity**: `impl CommandObserver for ...` outside
/// `crates/check` and `crates/trace` is flagged. Observers elsewhere are
/// how side effects would sneak into the datapath; the two fan-out
/// implementations in `crates/dram` (the trait's home) carry waivers.
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
        // shortly after.
        let back = i.saturating_sub(8);
        let has_impl = (back..i).any(|j| ident_at(file, j, "impl"));
        let has_for = (i + 1..(i + 3).min(tokens.len())).any(|j| ident_at(file, j, "for"));
        if has_impl && has_for {
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

/// **feature-inertness**: code gated behind `#[cfg(feature = "check")]`
/// or `#[cfg(feature = "trace")]` must not assign to any
/// `ControllerStats`/`LaneStats` field ([`STATS_FIELDS`]) or
/// `HybridSummary` field ([`HYBRID_FIELDS`]) — turning a feature on must
/// never change measured results. Matches `.field op=` token shapes.
fn feature_inertness(file: &SourceFile, out: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        let Some(feature) = file.gate[i] else {
            continue;
        };
        if file.in_test[i] || tok.kind != TokenKind::Ident {
            continue;
        }
        let name = tok.text.as_str();
        if !STATS_FIELDS.contains(&name) && !HYBRID_FIELDS.contains(&name) {
            continue;
        }
        if i == 0 || !punct_at(file, i - 1, ".") {
            continue;
        }
        // `.field += 1`, `.field -= 1`, or plain `.field = v` (but not
        // `==`, `!=`, `<=`, `>=`, which never have `=` directly after the
        // field identifier).
        let assigns = (punct_at(file, i + 1, "+") || punct_at(file, i + 1, "-"))
            && punct_at(file, i + 2, "=")
            || punct_at(file, i + 1, "=") && !punct_at(file, i + 2, "=");
        if assigns {
            out.push(Finding {
                rule: "feature-inertness",
                path: file.path.clone(),
                line: tokens[i].line,
                message: format!(
                    "cfg(feature = \"{feature}\")-gated code mutates stats field `{}`",
                    tokens[i].text
                ),
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
const DOC_FLAG_ALLOW: [&str; 14] = [
    "--release",
    "--bin",
    "--workspace",
    "--example",
    "--no-default-features",
    "--all-targets",
    "--all-features",
    "--features",
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
    fn determinism_flags_hash_types_once_per_line() {
        let out = run_source(
            "crates/x/src/lib.rs",
            "use std::collections::{HashMap, HashSet};\nfn f() -> HashMap<u32, u32> { HashMap::new() }\n",
        );
        let det: Vec<&Finding> = out.iter().filter(|f| f.rule == "determinism").collect();
        assert_eq!(det.len(), 2, "{det:?}"); // line 1 once (dedup), line 2 once
    }

    #[test]
    fn determinism_ignores_tests_and_event_kind_instant() {
        let out = run_source(
            "crates/x/src/lib.rs",
            "enum EventKind { Instant, Span }\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n",
        );
        assert!(out.iter().all(|f| f.rule != "determinism"), "{out:?}");
    }

    #[test]
    fn determinism_flags_wall_clock_time() {
        let out = run_source(
            "crates/x/src/lib.rs",
            "fn f() { let t = std::time::Instant::now(); }\nfn g() { let s = SystemTime::now(); }\n",
        );
        assert_eq!(out.iter().filter(|f| f.rule == "determinism").count(), 2);
    }

    #[test]
    fn provenance_rule_only_applies_to_sched_modules() {
        // Provenance is *payload* in the datapath and the hybrid (lane
        // attribution, writeback owners) — only sched must be blind.
        let src = "fn pick(p: &Pending) { let c = p.req.prov; }\n";
        for exempt in [
            "crates/memctrl/src/controller/queues.rs",
            "crates/memctrl/src/hybrid.rs",
        ] {
            assert!(run_source(exempt, src)
                .iter()
                .all(|f| f.rule != "provenance-purity"));
        }
        let hits = run_source("crates/memctrl/src/sched.rs", src);
        assert!(
            hits.iter()
                .filter(|f| f.rule == "provenance-purity")
                .count()
                >= 2,
            "{hits:?}"
        );
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
    fn observer_rule_ignores_trait_definition_and_test_impls() {
        let def = "pub trait CommandObserver {\n    fn command(&mut self);\n}\n";
        assert!(run_source("crates/dram/src/observe.rs", def).is_empty());
        let test_impl = "#[cfg(test)]\nmod tests {\n    impl CommandObserver for T {}\n}\n";
        assert!(run_source("crates/dram/src/observe.rs", test_impl).is_empty());
    }

    #[test]
    fn inertness_flags_gated_stats_mutation_only() {
        let src = "#[cfg(feature = \"trace\")]\nfn leak(&mut self) { self.stats.row_hits += 1; }\nfn fine(&mut self) { self.stats.row_hits += 1; }\n#[cfg(feature = \"trace\")]\nfn read_only(&self) -> bool { self.stats.row_hits == 0 }\n";
        let out = run_source("crates/memctrl/src/controller.rs", src);
        let hits: Vec<&Finding> = out
            .iter()
            .filter(|f| f.rule == "feature-inertness")
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn inertness_guards_hybrid_summary_fields_too() {
        let src = "#[cfg(feature = \"check\")]\nfn leak(&mut self) { self.dirty_evictions += 1; }\nfn fine(&mut self) { self.dirty_evictions += 1; }\n";
        let out = run_source("crates/memctrl/src/hybrid.rs", src);
        let hits: Vec<&Finding> = out
            .iter()
            .filter(|f| f.rule == "feature-inertness")
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 2);
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
