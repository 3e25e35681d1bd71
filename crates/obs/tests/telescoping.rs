//! Property tests for the phase-tree telescoping invariant: in any
//! forest the recorder can produce — and any merge of such forests —
//! every node's time is at least the sum of its children, and the
//! report's `total_ns` is exactly the sum of its roots. The same
//! invariants `sam-check lint-json` enforces on emitted profile
//! documents.

use proptest::collection::vec;
use proptest::prelude::*;
use sam_obs::profile::{
    forest_total_ns, lint_profile_json, merge_forest, report_json, sort_forest, PhaseNode,
};

const NAMES: [&str; 6] = ["run", "sched-select", "dram", "cache", "oracle", "refresh"];

/// Builds a node whose time is its own `own_ns` plus its children's —
/// exactly how the recorder accrues time, so telescoping holds by
/// construction.
fn node(name_idx: usize, own_ns: u64, count: u64, children: Vec<PhaseNode>) -> PhaseNode {
    let ns = children
        .iter()
        .fold(own_ns, |acc, c| acc.saturating_add(c.ns));
    PhaseNode {
        name: NAMES[name_idx % NAMES.len()].to_string(),
        ns,
        count,
        children,
    }
}

fn leaf() -> impl Strategy<Value = PhaseNode> {
    (0..NAMES.len(), 0u64..1_000, 1u64..16).prop_map(|(n, own, c)| node(n, own, c, Vec::new()))
}

fn mid() -> impl Strategy<Value = PhaseNode> {
    (0..NAMES.len(), 0u64..1_000, 1u64..16, vec(leaf(), 0..4))
        .prop_map(|(n, own, c, kids)| node(n, own, c, kids))
}

fn root() -> impl Strategy<Value = PhaseNode> {
    (0..NAMES.len(), 0u64..1_000, 1u64..16, vec(mid(), 0..3))
        .prop_map(|(n, own, c, kids)| node(n, own, c, kids))
}

fn forest() -> impl Strategy<Value = Vec<PhaseNode>> {
    vec(root(), 1..4)
}

/// Recursively checks `node.ns >= sum(children.ns)`.
fn telescopes(n: &PhaseNode) -> bool {
    let child_sum = n.children.iter().fold(0u64, |a, c| a.saturating_add(c.ns));
    child_sum <= n.ns && n.children.iter().all(telescopes)
}

/// A schema-2 counter list: unique names, unsigned values.
const COUNTERS: [(&str, u64); 2] = [("dram.acts", 12), ("sim.cycles", 3_400)];

proptest! {
    #[test]
    fn recorded_forests_lint_clean(mut f in forest()) {
        sort_forest(&mut f);
        prop_assert!(f.iter().all(telescopes));
        let doc = report_json("fig12", &f, &COUNTERS);
        prop_assert!(lint_profile_json(&doc).is_ok(), "{:?}", lint_profile_json(&doc));
    }

    #[test]
    fn merging_preserves_telescoping_and_totals(a in forest(), b in forest()) {
        let total_a = forest_total_ns(&a);
        let total_b = forest_total_ns(&b);
        let mut merged = a;
        merge_forest(&mut merged, b);
        sort_forest(&mut merged);
        prop_assert!(merged.iter().all(telescopes));
        // Thread trees merge without losing or inventing time.
        prop_assert_eq!(forest_total_ns(&merged), total_a + total_b);
        let doc = report_json("fig12", &merged, &COUNTERS);
        prop_assert!(lint_profile_json(&doc).is_ok());
    }

    #[test]
    fn merge_is_idempotent_on_names(f in forest()) {
        let mut merged = Vec::new();
        merge_forest(&mut merged, f.clone());
        merge_forest(&mut merged, f);
        sort_forest(&mut merged);
        // Merging the same forest twice can never create duplicate names
        // at any level.
        fn unique_names(forest: &[PhaseNode]) -> bool {
            let mut names: Vec<&str> = forest.iter().map(|n| n.name.as_str()).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            names.len() == before && forest.iter().all(|n| unique_names(&n.children))
        }
        prop_assert!(unique_names(&merged));
    }
}
