//! Figure 13: power breakdown (background / ACT / RD-WR) and normalized
//! energy efficiency per design, grouped by query class.
//!
//! ```text
//! cargo run --release -p sam-bench --bin fig13 [-- --rows N --tb-rows N --jobs N --trace --shard K/N]
//! ```
//!
//! With `--shard K/N`, the binary runs only its deterministic slice of
//! the (group × design × query) sweep and writes a
//! `results/fig13.shard-K-of-N.json` envelope; `sam-check merge-shards`
//! reassembles the full tables and JSON byte-identically.

fn main() {
    sam_bench::bins::main(env!("CARGO_BIN_NAME"));
}
