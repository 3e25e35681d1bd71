//! Repository rules that rustc and clippy cannot express, checked over the
//! workspace sources as plain text.
//!
//! - **flag-doc**: every `--flag` in a string literal of `crates/bench/src`
//!   is documented in README.md or DESIGN.md, and every `--flag` those
//!   docs mention exists in the code (outside [`DOC_FLAG_ALLOW`]).
//! - **observer-purity**: `CommandObserver` is implemented only in
//!   `crates/check` (outside the empty [`OBSERVER_EXCEPTIONS`]): the
//!   device tap serves verification alone. Observers elsewhere are how
//!   side effects would sneak into the datapath.
//!
//! A file's test code is everything from its `#[cfg(test)]` line on, and
//! the rules skip it. Each rule is a function over text; each test holds
//! the workspace to it and shows that it fires on a known-bad input.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

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

/// The `CommandObserver` implementations allowed outside `crates/check`,
/// as (path, implementing type) pairs. Empty: tracing reaches the run's
/// recorder through the controller, not through the device tap.
const OBSERVER_EXCEPTIONS: [(&str, &str); 0] = [];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `crates/*/src`, sorted, as (workspace-relative
/// path with `/` separators, text).
fn sources() -> Vec<(String, String)> {
    fn walk(dir: &Path, rel: &str, out: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy();
            let rel = format!("{rel}/{name}");
            if path.is_dir() {
                walk(&path, &rel, out);
            } else if name.ends_with(".rs") {
                out.push((rel, std::fs::read_to_string(&path).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    for entry in std::fs::read_dir(workspace_root().join("crates")).unwrap() {
        let krate = entry.unwrap().path();
        let src = krate.join("src");
        if src.is_dir() {
            let name = krate.file_name().unwrap().to_string_lossy().into_owned();
            walk(&src, &format!("crates/{name}/src"), &mut out);
        }
    }
    out.sort();
    assert!(out.len() > 50, "found only {} sources", out.len());
    out
}

fn is_cfg_test(line: &str) -> bool {
    line.trim() == "#[cfg(test)]"
}

/// The non-test part of a source: everything before its `#[cfg(test)]`
/// line.
fn non_test(text: &str) -> &str {
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        if is_cfg_test(line) {
            return &text[..at];
        }
        at += line.len();
    }
    text
}

/// All `--long-flag` shapes inside `text`: `--` followed by a lowercase
/// run of `[a-z0-9-]` starting with a letter. A preceding `-` (i.e. a
/// `---` run) disqualifies the match.
fn extract_flags(text: &str, out: &mut BTreeSet<String>) {
    let b = text.as_bytes();
    let mut i = 0;
    while i + 2 < b.len() {
        let preceded_by_dash = i > 0 && b[i - 1] == b'-';
        if b[i] == b'-' && b[i + 1] == b'-' && b[i + 2].is_ascii_lowercase() && !preceded_by_dash {
            let mut j = i + 2;
            while j < b.len()
                && (b[j].is_ascii_lowercase() || b[j].is_ascii_digit() || b[j] == b'-')
            {
                j += 1;
            }
            out.insert(text[i..j].to_string());
            i = j;
        } else {
            i += 1;
        }
    }
}

/// The `--flag`s inside the string literals (`"…"` and `r#"…"#`) of Rust
/// source `src`. `//` comments and char literals are skipped, so neither
/// `// "--x"` nor `'"'` opens a literal.
fn literal_flags(src: &str, out: &mut BTreeSet<String>) {
    let b = src.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let ident_before = i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                i = src[i..].find('\n').map_or(b.len(), |n| i + n);
            }
            b'\'' => {
                // A char literal is `'c'` or `'\…'`; anything else is a
                // lifetime, whose quote is skipped alone.
                let len = src[i + 1..].chars().next().map_or(0, char::len_utf8);
                if b.get(i + 1) == Some(&b'\\') {
                    let rest = src.get(i + 3..).unwrap_or_default();
                    i = rest.find('\'').map_or(b.len(), |n| i + 4 + n);
                } else if b.get(i + 1 + len) == Some(&b'\'') {
                    i += len + 2;
                } else {
                    i += 1;
                }
            }
            b'r' if !ident_before && matches!(b.get(i + 1), Some(b'"' | b'#')) => {
                let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
                let open = i + 1 + hashes;
                if b.get(open) != Some(&b'"') {
                    i += 1;
                    continue;
                }
                let close = format!("\"{}", "#".repeat(hashes));
                let end = src[open + 1..]
                    .find(&close)
                    .map_or(b.len(), |n| open + 1 + n);
                extract_flags(&src[open + 1..end], out);
                i = end + close.len();
            }
            b'"' => {
                let mut j = i + 1;
                while j < b.len() && b[j] != b'"' {
                    j += if b[j] == b'\\' { 2 } else { 1 };
                }
                extract_flags(&src[i + 1..j.min(b.len())], out);
                i = j + 1;
            }
            _ => i += 1,
        }
    }
}

/// **flag-doc** findings, both directions: code flags missing from the
/// docs, then documented flags missing from the code.
fn flag_doc_findings(code: &BTreeSet<String>, docs: &BTreeSet<String>) -> Vec<String> {
    let undocumented = code
        .difference(docs)
        .map(|f| format!("flag {f} is not documented in README.md or DESIGN.md"));
    let stale = docs
        .difference(code)
        .filter(|f| !DOC_FLAG_ALLOW.contains(&f.as_str()))
        .map(|f| format!("documented flag {f} does not exist in any bench binary"));
    undocumented.chain(stale).collect()
}

/// **observer-purity** findings in the non-test code of the file at
/// `path`: lines starting with `impl` that implement `CommandObserver`
/// for a type outside `crates/check` and the exceptions.
fn observer_findings(path: &str, text: &str) -> Vec<String> {
    if path.starts_with("crates/check/") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (n, line) in non_test(text).lines().enumerate() {
        let line = line.trim_start();
        let Some(at) = line.find("CommandObserver for ") else {
            continue;
        };
        let ty: String = line[at + "CommandObserver for ".len()..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if line.starts_with("impl") && !OBSERVER_EXCEPTIONS.contains(&(path, ty.as_str())) {
            out.push(format!("{path}:{}: CommandObserver for {ty}", n + 1));
        }
    }
    out
}

fn doc_flags() -> BTreeSet<String> {
    let mut docs = BTreeSet::new();
    for doc in ["README.md", "DESIGN.md"] {
        extract_flags(
            &std::fs::read_to_string(workspace_root().join(doc)).unwrap(),
            &mut docs,
        );
    }
    docs
}

#[test]
fn each_source_has_at_most_one_cfg_test_line() {
    for (path, text) in sources() {
        let n = text.lines().filter(|l| is_cfg_test(l)).count();
        assert!(n <= 1, "{path} has {n} #[cfg(test)] lines");
    }
    let two = "fn a() {}\n#[cfg(test)]\nmod t {}\n#[cfg(test)]\nmod u {}\n";
    assert_eq!(two.lines().filter(|l| is_cfg_test(l)).count(), 2);
    assert_eq!(non_test(two), "fn a() {}\n");
}

#[test]
fn bench_flags_and_docs_agree() {
    let mut code = BTreeSet::new();
    for (path, text) in sources() {
        if path.starts_with("crates/bench/src/") {
            literal_flags(non_test(&text), &mut code);
        }
    }
    assert!(
        code.contains("--rows") && code.contains("--heartbeat"),
        "{code:?}"
    );
    let findings = flag_doc_findings(&code, &doc_flags());
    assert!(findings.is_empty(), "{findings:#?}");

    // Known-bad: comments, char literals and lifetimes open no literal;
    // both literal forms are read; each direction fires.
    let src = "let q = '\"'; // \"--in-comment\"\nfn f<'a>(x: &'a str) { g(\"--rows\", r#\"--raw \"q\"\"#, '\\''); }\n";
    let mut flags = BTreeSet::new();
    literal_flags(src, &mut flags);
    assert_eq!(flags, BTreeSet::from(["--raw".into(), "--rows".into()]));
    let mut prose = BTreeSet::new();
    extract_flags(
        "run `--rows 100` with --per-core; not ---x, --3d or -- b",
        &mut prose,
    );
    assert_eq!(
        prose,
        BTreeSet::from(["--per-core".into(), "--rows".into()])
    );
    let code = BTreeSet::from(["--rows".into(), "--bogus".into()]);
    let docs = BTreeSet::from(["--rows".into(), "--phantom".into(), "--release".into()]);
    let findings = flag_doc_findings(&code, &docs);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings[0].contains("--bogus") && findings[1].contains("--phantom"));
}

#[test]
fn command_observers_live_only_in_check() {
    let findings: Vec<String> = sources()
        .iter()
        .flat_map(|(path, text)| observer_findings(path, text))
        .collect();
    assert!(findings.is_empty(), "{findings:#?}");

    // Known-bad: an observer anywhere but crates/check fires, the
    // trait's home and the trace crate included; the trait definition
    // and test code do not.
    let spy = "struct Spy;\nimpl CommandObserver for Spy {\n    fn command(&mut self) {}\n}\n";
    for path in [
        "crates/memctrl/src/wake.rs",
        "crates/trace/src/lib.rs",
        "crates/dram/src/observe.rs",
        "crates/dram/src/lanes.rs",
    ] {
        assert_eq!(observer_findings(path, spy).len(), 1, "{path}");
    }
    assert!(observer_findings("crates/check/src/oracle.rs", spy).is_empty());
    let generic = "impl<'a> CommandObserver for Tap {}\n";
    assert_eq!(
        observer_findings("crates/dram/src/observe.rs", generic).len(),
        1
    );
    let def = "pub trait CommandObserver {\n    fn command(&mut self);\n}\n";
    assert!(observer_findings("crates/dram/src/observe.rs", def).is_empty());
    let in_test = "fn a() {}\n#[cfg(test)]\nmod tests {\n    impl CommandObserver for T {}\n}\n";
    assert!(observer_findings("crates/dram/src/observe.rs", in_test).is_empty());
}
