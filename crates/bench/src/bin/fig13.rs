//! Figure 13: power breakdown (background / ACT / RD-WR) and normalized
//! energy efficiency per design, grouped by query class.
//!
//! ```text
//! cargo run --release -p sam-bench --bin fig13 [-- --rows N --tb-rows N --jobs N --trace]
//! ```
//!
//! The (group × design × query) sweep fans out over `--jobs` sweep
//! workers; the tables and `results/fig13.json` are byte-identical at any
//! job count.

fn main() {
    sam_bench::bins::main(env!("CARGO_BIN_NAME"));
}
