//! The reliability experiment behind Table 1's "Reliability" row: inject
//! whole-chip failures into bursts encoded under each design's codeword
//! layout and verify chipkill correction.
//!
//! ```text
//! cargo run --release -p sam-bench --bin reliability [-- --trials N --out PATH]
//! ```
//!
//! Fault injection is not a query simulation, so the emitted
//! `results/reliability.json` report carries zero runs — it exists so
//! `sam-check lint-json` can gate every binary uniformly.

fn main() {
    sam_bench::bins::main(env!("CARGO_BIN_NAME"));
}
