//! Figure 14: (a) substrate swap NVM<->DRAM, (b) strided granularity sweep,
//! (c) area/storage overhead.
//!
//! ```text
//! cargo run --release -p sam-bench --bin fig14 [-- a b c] [--rows N --jobs N --trace --shard K/N]
//! ```
//! With no panel arguments, all three panels run. With `--shard K/N`,
//! the binary runs only its deterministic slice of the selected panels'
//! simulations and writes a `results/fig14.shard-K-of-N.json` envelope;
//! `sam-check merge-shards` reassembles the panels byte-identically.

fn main() {
    sam_bench::bins::main(env!("CARGO_BIN_NAME"));
}
