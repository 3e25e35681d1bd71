//! Figure 14: (a) substrate swap NVM<->DRAM, (b) strided granularity sweep,
//! (c) area/storage overhead.
//!
//! ```text
//! cargo run --release -p sam-bench --bin fig14 [-- a b c] [--rows N --jobs N --trace]
//! ```
//! With no panel arguments, all three panels run. The selected panels'
//! simulations form one sweep over `--jobs` workers.

fn main() {
    sam_bench::bins::main(env!("CARGO_BIN_NAME"));
}
