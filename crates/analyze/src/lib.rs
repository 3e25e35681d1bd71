//! Workspace static analysis for the SAM reproduction: `sam-analyze`.
//!
//! The repo's headline guarantees — byte-identical sweeps under `--jobs N`,
//! checking that never moves a result, and JEDEC-legal timing
//! configurations — are enforced dynamically by golden diffs and the
//! `crates/check` oracle *after* a full run. This crate makes the contracts the toolchain cannot
//! express structural, catching the bug classes before a single cycle is
//! simulated. What rustc and clippy can check is left to them: hash-order
//! and wall-clock types are denied by `clippy.toml`'s `disallowed-types`,
//! and `unsafe_code` is forbidden workspace-wide.
//!
//! - a hand-rolled lexical [`scan`]ner (in the spirit of
//!   [`sam_util::json`]: small, total, no dependencies) feeds the
//!   [`rules`] engine's source rule (observer-purity) and the flag–doc
//!   rule;
//! - a semantic [`timing`] pass validates every `Design` in the sweep
//!   matrix against the JEDEC relational constraints;
//! - findings are reported human-readably and as a schema-linted
//!   `results/analyze.json` (see [`report::lint_analyze_json`]).
//!
//! The [`selftest`] module proves every rule fires on a known-bad fixture
//! (`sam-analyze --selftest`), so a refactor of the scanner cannot
//! silently blind a rule.

#![warn(missing_docs)]

pub mod report;
pub mod rules;
pub mod scan;
pub mod selftest;
pub mod timing;

use std::path::{Path, PathBuf};

use report::Report;

/// All `.rs` files under `crates/*/src`, sorted, as
/// (workspace-relative path, absolute path) pairs.
///
/// Only `src` trees are scanned: the analyzer's own `tests/fixtures/`
/// holds deliberately violating snippets.
///
/// # Errors
///
/// Returns a description of the first I/O failure.
pub fn rust_sources(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("{}: {e}", crates_dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut files = Vec::new();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if src.is_dir() {
            walk_sources(root, &src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk_sources(root: &Path, dir: &Path, files: &mut Vec<(String, PathBuf)>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_sources(root, &path, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push((rel, path));
        }
    }
    Ok(())
}

/// Runs the full pass — source rules over every workspace file, the
/// flag–doc consistency rule over the bench sources against README.md and
/// DESIGN.md, and the timing pass over the sweep matrix — rooted at the
/// workspace directory `root`.
///
/// # Errors
///
/// Returns a description of the failure if the workspace layout is not
/// readable (missing `crates/`, README.md, or DESIGN.md).
pub fn analyze_workspace(root: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut code_flags = rules::FlagSites::new();
    for (rel, abs) in rust_sources(root)? {
        let src = std::fs::read_to_string(&abs).map_err(|e| format!("{}: {e}", abs.display()))?;
        let file = scan::scan(&rel, &src);
        rules::source_findings(&file, &mut report.findings);
        if rel.starts_with("crates/bench/src") {
            rules::collect_code_flags(&file, &mut code_flags);
        }
        report.files_scanned += 1;
    }
    let mut doc_flags = rules::FlagSites::new();
    for doc in ["README.md", "DESIGN.md"] {
        let path = root.join(doc);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        rules::collect_doc_flags(doc, &text, &mut doc_flags);
    }
    rules::flag_doc_findings(&code_flags, &doc_flags, &mut report.findings);
    report.configs_checked = timing::sweep_matrix_findings(&mut report.findings);
    report.sort();
    Ok(report)
}
