//! Figure 12: speedup (normalized to the row-store commodity baseline) of
//! every design on the Q and Qs query sets, with geometric means.
//!
//! ```text
//! cargo run --release -p sam-bench --bin fig12 [-- --rows N --tb-rows N --jobs N --checked]
//! ```
//!
//! The 18 × 9 = 162 constituent simulations fan out over `--jobs` sweep
//! workers; the tables (and `results/fig12.json`) are byte-identical at
//! any job count. With `--checked`, every run is shadowed by the
//! `sam-check` protocol oracle and cache invariant probe; the binary
//! exits non-zero if any run violates a check. With `--trace[=PATH]`,
//! every run records a `sam-trace` event stream and epoch-stats rows into
//! one Chrome trace document (default `results/fig12.trace.json`,
//! viewable in Perfetto) without changing the tables or the metrics JSON.
//! With `--per-core`, each serialized run gains a `per_core` lane section
//! and the binary also writes `results/fig12.rollup.json`, a
//! flamegraph-style cycles-by-(design, core, kind) rollup; `--debug-cores`
//! dumps per-core completion progress to stderr. Both leave stdout and the
//! default metrics JSON byte-identical.

fn main() {
    sam_bench::bins::main(env!("CARGO_BIN_NAME"));
}
