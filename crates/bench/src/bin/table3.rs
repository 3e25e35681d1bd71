//! Table 3: the benchmark query set with its SQL statements.
//!
//! ```text
//! cargo run --release -p sam-bench --bin table3 [-- --out PATH]
//! ```
//!
//! The query listing involves no simulations, so the emitted
//! `results/table3.json` report carries zero runs — it exists so
//! `sam-check lint-json` can gate every binary uniformly.

fn main() {
    sam_bench::bins::main(env!("CARGO_BIN_NAME"));
}
