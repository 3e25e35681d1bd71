//! The phase profiler: scoped RAII wall-time timers attributing host
//! time to named, nestable phases.
//!
//! Instrumented code brackets a region with [`phase`]:
//!
//! ```ignore
//! let _p = sam_obs::profile::phase("dram");
//! // ... the region ...
//! ```
//!
//! When profiling is disabled (the default; `--profile` calls
//! [`enable`]) the probe is one relaxed atomic load. When enabled, each
//! thread grows a private phase tree — the guard's drop charges the
//! elapsed nanoseconds to the innermost open phase — and the per-thread
//! trees merge by phase name into a global forest when the thread exits
//! (sweep workers are scoped, so all merges land before export).
//!
//! **Telescoping invariant.** On one thread, child intervals are
//! disjoint subintervals of their parent's interval (guards are strictly
//! LIFO), so every node's time is at least the sum of its children; and
//! because every guard opens under either a worker's `run` root or the
//! session's `main` root, the report total is exactly the sum of its
//! roots. Name-keyed merging preserves both properties (sums of valid
//! trees are valid), and [`lint_profile_json`] re-checks them on the
//! emitted document — the CI gate for `results/fig12.profile.json`.
//
// sam-analyze: allow-file(determinism, "this module's entire purpose is host wall-clock attribution; its output goes only to the profile report, never to stdout, metrics JSON, or trace bytes")

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sam_util::json::Json;

/// One merged phase: a name, its accumulated wall time and entry count,
/// and its child phases. The pure data form shared by the recorder, the
/// report, and the telescoping proptest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseNode {
    /// Phase name (from the fixed taxonomy in DESIGN.md §14).
    pub name: String,
    /// Total nanoseconds spent in this phase, children included.
    pub ns: u64,
    /// Times the phase was entered.
    pub count: u64,
    /// Nested phases, sorted by name after merging.
    pub children: Vec<PhaseNode>,
}

/// Merges `incoming` into `forest`, keyed by phase name at every level:
/// times and counts add, children merge recursively. Used for both
/// thread-exit merging and report assembly.
pub fn merge_forest(forest: &mut Vec<PhaseNode>, incoming: Vec<PhaseNode>) {
    for node in incoming {
        match forest.iter_mut().find(|n| n.name == node.name) {
            Some(existing) => {
                existing.ns = existing.ns.saturating_add(node.ns);
                existing.count = existing.count.saturating_add(node.count);
                merge_forest(&mut existing.children, node.children);
            }
            None => {
                // Normalize as we insert so the output never has two
                // siblings with the same name, whatever the input held.
                let mut fresh = PhaseNode {
                    name: node.name,
                    ns: node.ns,
                    count: node.count,
                    children: Vec::new(),
                };
                merge_forest(&mut fresh.children, node.children);
                forest.push(fresh);
            }
        }
    }
}

/// Sorts a forest (and every child list) by name, for deterministic
/// report bytes regardless of thread arrival order.
pub fn sort_forest(forest: &mut [PhaseNode]) {
    forest.sort_by(|a, b| a.name.cmp(&b.name));
    for node in forest.iter_mut() {
        sort_forest(&mut node.children);
    }
}

/// Total time of a forest: the sum of its root phases.
#[must_use]
pub fn forest_total_ns(forest: &[PhaseNode]) -> u64 {
    forest.iter().fold(0u64, |acc, n| acc.saturating_add(n.ns))
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<Vec<PhaseNode>> = Mutex::new(Vec::new());

/// Turns profiling on process-wide (`--profile`). One-way: a session
/// that profiles, profiles until export.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Whether [`enable`] has been called.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A thread-private phase tree in arena form: `stack` holds the open
/// phase path as node indices.
#[derive(Default)]
struct Local {
    names: Vec<&'static str>,
    ns: Vec<u64>,
    counts: Vec<u64>,
    children: Vec<Vec<usize>>,
    roots: Vec<usize>,
    stack: Vec<usize>,
}

impl Local {
    fn enter(&mut self, name: &'static str) -> usize {
        let siblings = match self.stack.last() {
            Some(&top) => &self.children[top],
            None => &self.roots,
        };
        let found = siblings.iter().copied().find(|&i| self.names[i] == name);
        let idx = match found {
            Some(i) => i,
            None => {
                let i = self.names.len();
                self.names.push(name);
                self.ns.push(0);
                self.counts.push(0);
                self.children.push(Vec::new());
                match self.stack.last() {
                    Some(&top) => self.children[top].push(i),
                    None => self.roots.push(i),
                }
                i
            }
        };
        self.stack.push(idx);
        idx
    }

    fn exit(&mut self, idx: usize, elapsed_ns: u64) {
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "phase guards must drop LIFO");
        self.ns[idx] = self.ns[idx].saturating_add(elapsed_ns);
        self.counts[idx] += 1;
    }

    fn build(&self, idx: usize) -> PhaseNode {
        PhaseNode {
            name: self.names[idx].to_string(),
            ns: self.ns[idx],
            count: self.counts[idx],
            children: self.children[idx].iter().map(|&c| self.build(c)).collect(),
        }
    }

    fn take_roots(&mut self) -> Vec<PhaseNode> {
        let roots: Vec<PhaseNode> = self.roots.iter().map(|&r| self.build(r)).collect();
        *self = Local::default();
        roots
    }
}

/// Wrapper whose drop (thread exit) merges the local tree globally.
struct LocalCell(RefCell<Local>);

impl Drop for LocalCell {
    fn drop(&mut self) {
        let roots = self.0.borrow_mut().take_roots();
        if !roots.is_empty() {
            if let Ok(mut global) = GLOBAL.lock() {
                merge_forest(&mut global, roots);
            }
        }
    }
}

thread_local! {
    static LOCAL: LocalCell = LocalCell(RefCell::new(Local::default()));
}

/// An open phase; dropping it charges the elapsed time.
#[derive(Debug)]
pub struct PhaseGuard {
    start: Instant,
    idx: usize,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let elapsed = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let _ = LOCAL.try_with(|l| l.0.borrow_mut().exit(self.idx, elapsed));
    }
}

/// Opens the named phase if profiling is enabled. Bind the result
/// (`let _p = phase("dram");`) so the guard spans the region.
#[inline]
#[must_use]
pub fn phase(name: &'static str) -> Option<PhaseGuard> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    let idx = LOCAL.try_with(|l| l.0.borrow_mut().enter(name)).ok()?;
    Some(PhaseGuard {
        start: Instant::now(),
        idx,
    })
}

/// Drains the merged forest: the calling thread's local tree plus
/// everything exited threads contributed, sorted by name. Open
/// guards on other live threads are not included — callers export
/// after their sweeps complete.
#[must_use]
pub fn take_report() -> Vec<PhaseNode> {
    let mut forest = GLOBAL
        .lock()
        .map(|mut g| std::mem::take(&mut *g))
        .unwrap_or_default();
    if let Ok(local) = LOCAL.try_with(|l| l.0.borrow_mut().take_roots()) {
        merge_forest(&mut forest, local);
    }
    sort_forest(&mut forest);
    forest
}

fn phase_to_json(node: &PhaseNode) -> Json {
    Json::object([
        ("name", Json::str(node.name.clone())),
        ("ns", Json::UInt(node.ns)),
        ("count", Json::UInt(node.count)),
        (
            "children",
            Json::Array(node.children.iter().map(phase_to_json).collect()),
        ),
    ])
}

/// Builds the `results/<bin>.profile.json` document from a merged phase
/// forest and the session's `(name, value)` counters, in report order.
#[must_use]
pub fn report_json(bin: &str, forest: &[PhaseNode], counters: &[(&str, u64)]) -> Json {
    Json::object([
        ("bin", Json::str(bin)),
        ("report", Json::str("profile")),
        ("schema", Json::UInt(2)),
        ("total_ns", Json::UInt(forest_total_ns(forest))),
        (
            "phases",
            Json::Array(forest.iter().map(phase_to_json).collect()),
        ),
        (
            "counters",
            Json::Array(
                counters
                    .iter()
                    .map(|&(name, value)| {
                        Json::object([("name", Json::str(name)), ("value", Json::UInt(value))])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn lint_phase(node: &Json, path: &str) -> Result<u64, String> {
    let name = node
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}: missing or non-string \"name\""))?;
    if name.is_empty() {
        return Err(format!("{path}: empty phase name"));
    }
    let uint = |key: &str| -> Result<u64, String> {
        match node.get(key) {
            Some(&Json::UInt(v)) => Ok(v),
            _ => Err(format!("{path} ({name}): missing or non-uint \"{key}\"")),
        }
    };
    let ns = uint("ns")?;
    let count = uint("count")?;
    if count == 0 {
        return Err(format!("{path} ({name}): phase with zero entries"));
    }
    let children = node
        .get("children")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path} ({name}): missing \"children\" array"))?;
    let mut child_sum = 0u64;
    for (i, child) in children.iter().enumerate() {
        child_sum = child_sum.saturating_add(lint_phase(child, &format!("{path}/{name}[{i}]"))?);
    }
    if child_sum > ns {
        return Err(format!(
            "{path} ({name}): children sum to {child_sum}ns, more than the phase's own {ns}ns \
             (telescoping violated)"
        ));
    }
    Ok(ns)
}

/// Validates a `results/<bin>.profile.json` document: schema shape, the
/// per-node telescoping invariant (children sum to at most the parent),
/// and `total_ns` equal to the sum of the roots.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn lint_profile_json(doc: &Json) -> Result<(), String> {
    let bin = doc
        .get("bin")
        .and_then(Json::as_str)
        .ok_or("missing or non-string \"bin\"")?;
    if bin.is_empty() {
        return Err("empty \"bin\"".to_string());
    }
    if doc.get("report").and_then(Json::as_str) != Some("profile") {
        return Err("\"report\" is not \"profile\"".to_string());
    }
    if !matches!(doc.get("schema"), Some(&Json::UInt(2))) {
        return Err("unsupported \"schema\" (expected 2)".to_string());
    }
    let total = match doc.get("total_ns") {
        Some(&Json::UInt(v)) => v,
        _ => return Err("missing or non-uint \"total_ns\"".to_string()),
    };
    let phases = doc
        .get("phases")
        .and_then(Json::as_array)
        .ok_or("missing \"phases\" array")?;
    let mut root_sum = 0u64;
    for (i, root) in phases.iter().enumerate() {
        root_sum = root_sum.saturating_add(lint_phase(root, &format!("phases[{i}]"))?);
    }
    if root_sum != total {
        return Err(format!(
            "root phases sum to {root_sum}ns but \"total_ns\" is {total}ns \
             (the report must telescope to total wall time)"
        ));
    }
    let counters = doc
        .get("counters")
        .and_then(Json::as_array)
        .ok_or("missing \"counters\" array")?;
    let mut names: Vec<&str> = Vec::with_capacity(counters.len());
    for (i, c) in counters.iter().enumerate() {
        let name = c
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("counters[{i}]: missing \"name\""))?;
        if !matches!(c.get("value"), Some(&Json::UInt(_))) {
            return Err(format!("counters[{i}] ({name}): missing uint \"value\""));
        }
        if names.contains(&name) {
            return Err(format!("counters[{i}]: duplicate counter {name:?}"));
        }
        names.push(name);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, ns: u64, count: u64, children: Vec<PhaseNode>) -> PhaseNode {
        PhaseNode {
            name: name.to_string(),
            ns,
            count,
            children,
        }
    }

    #[test]
    fn merge_adds_matching_names_and_keeps_distinct_ones() {
        let mut forest = vec![node("run", 100, 2, vec![node("dram", 60, 5, vec![])])];
        merge_forest(
            &mut forest,
            vec![
                node("run", 50, 1, vec![node("cache", 10, 3, vec![])]),
                node("main", 7, 1, vec![]),
            ],
        );
        sort_forest(&mut forest);
        assert_eq!(forest.len(), 2);
        let run = forest.iter().find(|n| n.name == "run").unwrap();
        assert_eq!((run.ns, run.count), (150, 3));
        assert_eq!(run.children.len(), 2);
        assert_eq!(forest_total_ns(&forest), 157);
    }

    #[test]
    fn recorded_phases_nest_and_telescope() {
        enable();
        {
            let _root = phase("test-root");
            for _ in 0..3 {
                let _inner = phase("test-inner");
                std::hint::black_box(0u64);
            }
        }
        let report = take_report();
        let root = report.iter().find(|n| n.name == "test-root").unwrap();
        assert_eq!(root.count, 1);
        let inner = root
            .children
            .iter()
            .find(|n| n.name == "test-inner")
            .unwrap();
        assert_eq!(inner.count, 3);
        assert!(
            root.ns >= inner.ns,
            "parent {} < child {}",
            root.ns,
            inner.ns
        );
    }

    #[test]
    fn report_round_trips_through_lint() {
        let forest = vec![node(
            "run",
            100,
            4,
            vec![node("dram", 60, 4, vec![node("refresh", 5, 9, vec![])])],
        )];
        let doc = report_json("fig12", &forest, &[("dram.acts", 3), ("sim.cycles", 90)]);
        let parsed = Json::parse(&doc.to_string()).expect("writer output parses");
        lint_profile_json(&parsed).expect("well-formed profile lints clean");
    }

    #[test]
    fn lint_rejects_broken_telescoping() {
        // Children exceed the parent.
        let bad = vec![node("run", 10, 1, vec![node("dram", 20, 1, vec![])])];
        let err = lint_profile_json(&report_json("x", &bad, &[])).unwrap_err();
        assert!(err.contains("telescoping"), "{err}");
        // total_ns disagreeing with the roots.
        let mut doc = report_json("x", &[node("run", 10, 1, vec![])], &[]);
        if let Json::Object(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "total_ns" {
                    *v = Json::UInt(11);
                }
            }
        }
        let err = lint_profile_json(&doc).unwrap_err();
        assert!(err.contains("total wall time"), "{err}");
    }

    #[test]
    fn lint_rejects_malformed_shapes() {
        let good = report_json("fig12", &[], &[("dram.acts", 0)]);
        let mutate = |key: &str, value: Json| {
            let mut doc = good.clone();
            if let Json::Object(pairs) = &mut doc {
                for (k, v) in pairs.iter_mut() {
                    if k == key {
                        *v = value.clone();
                    }
                }
            }
            lint_profile_json(&doc)
        };
        assert!(mutate("report", Json::str("metrics")).is_err());
        assert!(mutate("schema", Json::UInt(1)).is_err());
        assert!(mutate("phases", Json::Null).is_err());
        assert!(mutate("counters", Json::Null).is_err());
        let counter =
            |name: &str, value: Json| Json::object([("name", Json::str(name)), ("value", value)]);
        let duplicate = Json::Array(vec![
            counter("dram.acts", Json::UInt(1)),
            counter("dram.acts", Json::UInt(2)),
        ]);
        assert!(mutate("counters", duplicate).is_err());
        let signed = Json::Array(vec![counter("dram.acts", Json::Int(-1))]);
        assert!(mutate("counters", signed).is_err());
        assert!(lint_profile_json(&good).is_ok());
    }
}
