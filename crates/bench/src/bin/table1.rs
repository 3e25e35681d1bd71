//! Table 1: qualitative comparison of designs for strided access.
//!
//! ```text
//! cargo run --release -p sam-bench --bin table1 [-- --out PATH]
//! ```
//! `v` = good/unmodified, `o` = fair/slightly modified, `x` = poor/modified
//! (same legend as the paper). The table is qualitative (no simulations),
//! so the emitted `results/table1.json` report carries zero runs — it
//! exists so `sam-check lint-json` can gate every binary uniformly.

fn main() {
    sam_bench::bins::main(env!("CARGO_BIN_NAME"));
}
