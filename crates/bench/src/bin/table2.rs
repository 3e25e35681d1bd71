//! Table 2: the simulated system parameters, read back from the live
//! configuration structs (so the printout cannot drift from the code).
//!
//! ```text
//! cargo run --release -p sam-bench --bin table2 [-- --starvation-cap N --out PATH]
//! ```
//!
//! The printout lists no simulation results, so the emitted
//! `results/table2.json` report carries zero runs — it exists so
//! `sam-check lint-json` can gate every binary uniformly.

fn main() {
    sam_bench::bins::main(env!("CARGO_BIN_NAME"));
}
