//! Figure 15: parametric arithmetic/aggregate query sweeps over
//! selectivity, projectivity, and record size, for RC-NVM-wd, GS-DRAM-ecc,
//! SAM-en, and the ideal store.
//!
//! ```text
//! cargo run --release -p sam-bench --bin fig15 [-- a b c d e f g h i] [--rows N --jobs N --trace --shard K/N]
//! ```
//! With no panel arguments, all nine panels run. With `--shard K/N`,
//! the binary runs only its deterministic slice of the selected panels'
//! simulations and writes a `results/fig15.shard-K-of-N.json` envelope;
//! `sam-check merge-shards` reassembles the panels byte-identically.

fn main() {
    sam_bench::bins::main(env!("CARGO_BIN_NAME"));
}
